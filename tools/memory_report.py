"""Print the memory a benchmark workload holds live, as tracemalloc counts it,
and the process's resident peak, as the benchmark reads it.

Usage::

    python3 tools/memory_report.py <repo root> <workload> [--seed N]

The script imports ``wfasim`` from ``<repo root>/src`` and the workload from
``<repo root>/wfbench/workloads.py``, and changes no file in the checkout:
the operations write into a temporary directory. It first runs the set-up
and one pass untraced, holding each operation's output as the benchmark's
pass does, and reads the process's peak resident memory (``ru_maxrss``)
after the set-up and after each operation. The last of these is close to
what ``wfbench/run.py`` reports as ``peak_mem_mb``, the same peak read after
its first pass. Then, traced, it prints beside those:

- the live MB after the workload's set-up, with its inputs held;
- for each operation of one pass, the live MB when its ``engine.run``
  returns, with the run's result still held (an operation that simulates
  nothing, such as a MIP instance, is read when it returns), and the peak
  MB while it ran;
- for each operation that simulates, the MB of its run's trace: the size of
  the unnamed file that the run wrote it to, which tracemalloc does not
  see (in a tree that holds the trace in memory, the encoded size of that
  text, which the live MB includes);
- the 10 source lines that hold the most memory at the heaviest of those
  readings, taken by running that operation once more.

Every live reading follows a full garbage collection. The resident peak
can move by about half a MB while live memory does not, even with a change
only to code the workload never runs. tracemalloc slows Python several times over, so the timings
of a traced process mean nothing; run ``wfbench/run.py`` for those.
"""

from __future__ import annotations

import argparse
import gc
import os
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

MB = 1e6
TOP_LINES = 10


def max_rss_mb() -> float:
    """The process's peak resident memory so far; Linux counts ``ru_maxrss``
    in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def untraced_pass(workload, seed: int) -> dict[str, float]:
    """The resident peak after the set-up and after each operation of one
    untraced pass, by operation name."""
    inputs = workload.setup(seed)
    rss = {"set-up": max_rss_mb()}
    with tempfile.TemporaryDirectory() as tmp:
        ops = workload.operations(inputs, seed, Path(tmp))
        gc.collect()
        outputs = []  # held, as the benchmark holds a pass's outputs
        for op in ops:
            outputs.append(op.run())
            rss[op.name] = max_rss_mb()
    return rss


def trace_mb(result) -> float:
    """The size of a run's trace text; in the file, or in memory in a tree
    that holds it there."""
    fh = getattr(result, "trace_file", None)
    if fh is None:
        return sum(len(chunk.encode()) for chunk in result.trace_chunks) / MB
    fh.flush()
    return os.fstat(fh.fileno()).st_size / MB


def live_mb() -> float:
    gc.collect()
    return tracemalloc.get_traced_memory()[0] / MB


def snapshot() -> tracemalloc.Snapshot:
    gc.collect()
    return tracemalloc.take_snapshot()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", help="checkout whose src/ and wfbench/ are read")
    parser.add_argument("workload", help="a workload of wfbench/workloads.py")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "wfbench")]
    import wfasim
    from wfasim import engine

    import workloads

    if not Path(wfasim.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"wfasim was imported from {wfasim.__file__}, not from {root}")
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    rss = untraced_pass(workload, args.seed)

    # engine.run, read as it returns; the operations look it up on each call
    at_return: list = []
    traces: list[float] = []
    read = live_mb

    def run(*a, **kw):
        result = original(*a, **kw)
        at_return.append(read())
        traces.append(trace_mb(result))
        return result

    original, engine.run = engine.run, run
    tracemalloc.start()
    try:
        inputs = workload.setup(args.seed)
        print(f"{'set-up':<24} {live_mb():8.2f} MB live, {'':13} {rss['set-up']:8.2f} MB max RSS")
        with tempfile.TemporaryDirectory() as tmp:
            ops = workload.operations(inputs, args.seed, Path(tmp))
            readings = []
            for op in ops:
                at_return.clear()
                traces.clear()
                tracemalloc.reset_peak()
                op.run()
                peak = tracemalloc.get_traced_memory()[1] / MB
                live = at_return[-1] if at_return else live_mb()
                readings.append((live, op))
                trace = f", {traces[-1]:8.2f} MB trace" if traces else ""
                print(f"{op.name:<24} {live:8.2f} MB live, {peak:8.2f} MB peak, "
                      f"{rss[op.name]:8.2f} MB max RSS{trace}")
            heaviest = max(readings, key=lambda r: r[0])[1]
            at_return.clear()
            read = snapshot
            heaviest.run()
            shot = at_return[-1] if at_return else snapshot()
    finally:
        tracemalloc.stop()
        engine.run = original
    print(f"top {TOP_LINES} lines at {heaviest.name}:")
    for stat in shot.statistics("lineno")[:TOP_LINES]:
        frame = stat.traceback[0]
        path = Path(frame.filename)
        name = path.relative_to(root) if path.is_relative_to(root) else path
        print(f"  {stat.size / MB:8.2f} MB {stat.count:8d} blocks  {name}:{frame.lineno}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
