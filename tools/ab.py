"""Compare two checkouts on one benchmark workload, in one process.

Usage::

    python3 tools/ab.py <tree A> <tree B> <workload> [--seed N] [--rounds N]

Each tree's ``src/wfasim`` is loaded under its own package name, and each
tree's inputs are built by its own ``wfbench/workloads.py`` (and the
``checks.py`` beside it), loaded with only their imports pointed at that
package. Nothing in either checkout is changed.

For every operation of the workload the script prints:

- the opcodes executed inside one ``engine.run`` on each tree, counted under
  ``sys.settrace`` (the whole operation for the MIP workload, which runs no
  simulation). The count is deterministic, so it resolves changes far below
  the wall-time noise; it misses work done in C (sorts, set and heap
  operations, ``str.join``), so read it beside the times, never instead;
- the minimum wall time of the operation on each tree over ``--rounds``
  interleaved rounds, which alternate the tree that runs first, and the
  rounds that B won;
- for an operation that simulates, each decision step's seconds (the keys
  of ``DecisionRecord.steps``), summed over the run as read from the
  ``decisions.csv`` the operation writes, with the minimum over rounds on
  each tree. A step can run fewer opcodes and still take longer, when the
  work moves into C calls that cost more than the bytecode they replace.

It exits 1 if the trees' outputs differ: the bytes of each simulation's
``trace.csv``, ``snapshots.csv``, ``diagnostics.jsonl`` and ``plans.jsonl``,
or the result of each MIP operation.
"""

from __future__ import annotations

import argparse
import csv
import gc
import importlib.util
import re
import sys
import tempfile
import time
from pathlib import Path

RUN_FILES = ("trace.csv", "snapshots.csv", "diagnostics.jsonl", "plans.jsonl")


def count_opcodes(fn, code=None) -> tuple[int, object]:
    """Run ``fn()`` and return the opcodes it executed inside frames of
    ``code`` and their callees (every frame if ``code`` is None), with its
    result."""
    count = 0
    depth = 0 if code is not None else 1  # > 0 while inside ``code``

    def tracer(frame, event, arg):
        nonlocal count, depth
        if event == "opcode":
            count += 1
        elif event == "call":
            if frame.f_code is code:
                depth += 1
            elif not depth:
                return None
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
        elif event == "return" and frame.f_code is code:
            depth -= 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = fn()
    finally:
        sys.settrace(previous)
    return count, result


def load_package(src: Path, name: str):
    """Import the package at ``src`` under the top-level name ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_rewritten(path: Path, name: str, renames: dict[str, str]):
    """Import one file as module ``name``, with each ``import``/``from`` line
    naming a key of ``renames`` pointed at its value instead."""
    def rename(line: re.Match) -> str:
        text = line.group(0)
        for old, new in renames.items():
            text = re.sub(rf"^(from|import) {old}\b", rf"\1 {new}", text)
        return text

    source = re.sub(r"^(?:from|import) .*$", rename, path.read_text(), flags=re.M)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader=None))
    module.__file__ = str(path)
    sys.modules[name] = module
    exec(compile(source, str(path), "exec"), module.__dict__)
    return module


def load_tree(root: Path, tag: str):
    """One checkout's package and benchmark workloads, under ``tag`` names."""
    package = f"wfasim_{tag}"
    load_package(root / "src" / "wfasim", package)
    checks = load_rewritten(root / "wfbench" / "checks.py", f"checks_{tag}", {})
    return load_rewritten(
        root / "wfbench" / "workloads.py",
        f"workloads_{tag}",
        {"wfasim": package, "checks": f"{checks.__name__} as checks"},
    )


def outputs_of(result, op_dir: Path) -> dict[str, bytes]:
    """What an operation produced, for comparison between the trees."""
    if isinstance(result, str):  # a simulation: the directory it wrote
        return {n: (op_dir / n).read_bytes() for n in RUN_FILES if (op_dir / n).exists()}
    return {"result": repr(result).encode()}


def step_seconds(op_dir: Path) -> dict[str, float]:
    """Each decision step's seconds summed over a simulation's decisions,
    from the ``decisions.csv`` in ``op_dir``; empty if there is none."""
    path = op_dir / "decisions.csv"
    if not path.exists():
        return {}
    sums: dict[str, float] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            for item in filter(None, row["steps"].split(";")):
                key, value = item.split("=")
                sums[key] = sums.get(key, 0.0) + float(value)
    return sums


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    trees = {"A": load_tree(args.tree_a.resolve(), "a"), "B": load_tree(args.tree_b.resolve(), "b")}
    with tempfile.TemporaryDirectory() as tmp:
        ops, counted = {}, {}
        for tag, workloads in trees.items():
            wl = workloads.WORKLOADS[args.workload]
            inputs = wl.setup(args.seed)
            ops[tag] = wl.operations(inputs, args.seed, Path(tmp) / tag)
            simulates = isinstance(wl, workloads.SimWorkload)
            counted[tag] = workloads.engine.run.__code__ if simulates else None
        names = [op.name for op in ops["A"]]
        if names != [op.name for op in ops["B"]]:
            raise SystemExit("the trees' workloads have different operations")

        differ = []
        counts = {}
        for i, name in enumerate(names):
            # The first run also fills the interpreter's own caches (the ABC
            # subclass checks), which the first tree to run would pay alone;
            # so the counted run is the second.
            out = {tag: outputs_of(ops[tag][i].run(), Path(tmp) / tag / name) for tag in trees}
            if out["A"] != out["B"]:
                differ.append(name)
            for tag in trees:
                counts[tag, name] = count_opcodes(ops[tag][i].run, counted[tag])[0]

        best = {(tag, name): float("inf") for tag in trees for name in names}
        steps: dict[tuple[str, str], dict[str, float]] = {}  # min over rounds
        won = dict.fromkeys(names, 0)
        for r in range(args.rounds):
            for i, name in enumerate(names):
                seconds = {}
                for tag in ("A", "B") if (r + i) % 2 == 0 else ("B", "A"):
                    gc.collect()
                    t0 = time.perf_counter()
                    ops[tag][i].run()
                    seconds[tag] = time.perf_counter() - t0
                    best[tag, name] = min(best[tag, name], seconds[tag])
                    least = steps.setdefault((tag, name), {})
                    for key, s in step_seconds(Path(tmp) / tag / name).items():
                        least[key] = min(least.get(key, s), s)
                won[name] += seconds["B"] < seconds["A"]

    def delta(a: float, b: float) -> str:
        return f"{(b - a) / a:+.1%}" if a else "n/a"

    print(f"{'operation':<16} {'opcodes A':>12} {'opcodes B':>12} {'delta':>7} "
          f"{'min A s':>9} {'min B s':>9} {'delta':>7}  B won")
    for name in names:
        a, b = counts["A", name], counts["B", name]
        ta, tb = best["A", name], best["B", name]
        print(f"{name:<16} {a:>12,} {b:>12,} {delta(a, b):>7} "
              f"{ta:>9.4f} {tb:>9.4f} {delta(ta, tb):>7}  {won[name]}/{args.rounds}")
    a = sum(counts["A", n] for n in names)
    b = sum(counts["B", n] for n in names)
    ta = sum(best["A", n] for n in names)
    tb = sum(best["B", n] for n in names)
    print(f"{'total':<16} {a:>12,} {b:>12,} {delta(a, b):>7} "
          f"{ta:>9.4f} {tb:>9.4f} {delta(ta, tb):>7}")
    if any(steps.values()):
        print(f"\n{'operation':<16} {'decision step':<14} {'min A s':>9} {'min B s':>9} {'delta':>7}")
        for name in names:
            sa, sb = steps["A", name], steps["B", name]
            for key in dict.fromkeys([*sa, *sb]):
                ta, tb = sa.get(key, 0.0), sb.get(key, 0.0)
                print(f"{name:<16} {key:<14} {ta:>9.4f} {tb:>9.4f} {delta(ta, tb):>7}")
    if differ:
        print(f"outputs differ on {len(differ)} operations: {', '.join(differ)}")
        return 1
    print(f"outputs equal on all {len(names)} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
