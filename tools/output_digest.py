"""Print one SHA-256 per group of a checkout's deterministic outputs.

Usage::

    python3 tools/output_digest.py <repo root>

The script imports ``wfasim`` from ``<repo root>/src`` and the benchmark's
inputs from ``<repo root>/wfbench/workloads.py``, and changes no file in
the checkout. Run on two checkouts, it tells whether they write the same
bytes: a refactor that claims to change no output must print the same
lines on both. It prints one line per group, then one per file kind. The
groups are:

``cli``
    12 ``wfasim run`` replications: ``pfa-ma``, ``pfa-ewma``, ``plf`` and
    ``scf``, 3 each from seed 3, on a 120-workflow genspec (seed 11, users
    ``u1`` and ``u2``) with budgets 100 and 80, utilization 0.3, 32 + 32
    machines, a 7 s boot delay and plans collected. It hashes the 42 trace,
    snapshot, diagnostics and plan files, and every ``metrics_r*.json``
    without ``per_policy_runtime_stats`` (decision wall times).
``sim``
    48 in-process runs: every policy on the benchmark's ``u20``, ``u35``
    and ``u35x8`` inputs, seeds 1 and 2, boot delays 0 and 7, with plans
    collected. Each run hashes its written trace, snapshot, diagnostics and
    plan files, ``ticks``, and ``summary()`` without the wall times.
``oracle``
    16 planner runs whose oracle is wrong, so that plan wakes start tasks:
    ``plf`` and ``scf`` on ``u20`` and ``u35``, seed 1, boot delays 0 and 7,
    with every runtime estimate tripled or halved. Hashed as ``sim``.
``mip``
    The 800 seed-1 ``mip-exact`` instances: each one's LP text, its exact
    solution and the issues ``check_solution`` finds in it.

The kind lines hash the items of the ``cli``, ``sim`` and ``oracle`` groups
again, split by what they are: ``trace``, ``snapshots``, ``diagnostics``,
``plans``, and ``metrics`` (the ``metrics_r*.json`` files, the summaries and
the tick counts). A change that moves a group line on purpose, say by a new
summary field, shows by them which kinds of output kept their bytes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

CLI_POLICIES = {
    "pfa-ma": {"name": "pfa", "smoothing": "ma"},
    "pfa-ewma": {"name": "pfa", "smoothing": "ewma"},
    "plf": {"name": "plf"},
    "scf": {"name": "scf"},
}
RUN_FILES = ("trace.csv", "snapshots.csv", "diagnostics.jsonl", "plans.jsonl")
KINDS = ("trace", "snapshots", "diagnostics", "plans", "metrics")


def _feed(h, label: str, data: bytes) -> None:
    """Hash one item, framed by its label and length."""
    h.update(f"{label}\0{len(data)}\0".encode())
    h.update(data)


def _feed_kind(h, kinds: dict, kind: str, label: str, data: bytes) -> None:
    """Hash one item into its group's hash and into its kind's."""
    _feed(h, label, data)
    _feed(kinds[kind], label, data)


def _summary_bytes(summary: dict) -> bytes:
    summary = dict(summary)
    summary.pop("per_policy_runtime_stats", None)
    return json.dumps(summary, sort_keys=True).encode()


def cli_group(cli, tmp: Path, kinds: dict) -> tuple[str, int]:
    config = {
        "schema": "wfasim-config-1",
        "seed": 3,
        "replications": 3,
        "collect_plans": True,
        "system": {
            "types": [{"id": "small", "cost": 1}, {"id": "large", "cost": 5}],
            "capacity": {"small": 32, "large": 32},
            "interval_s": 60,
            "boot_delay_s": 7,
        },
        "users": [{"id": "u1", "budget": 100}, {"id": "u2", "budget": 80}],
        "workload": {
            "genspec": {"schema": "wfasim-genspec-1", "seed": 11, "count": 120,
                        "users": ["u1", "u2"]},
            "arrivals": {"utilization": 0.3},
        },
    }
    h = hashlib.sha256()
    files = 0
    for name, policy in CLI_POLICIES.items():
        path, out = tmp / f"{name}.json", tmp / name
        path.write_text(json.dumps({**config, "policy": policy}))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", str(path), "--out", str(out)])
        if code != 0:
            raise SystemExit(f"cli: wfasim run {name} exited with {code}")
        for f in sorted(out.iterdir()):
            kind = f.name.partition("_")[0]
            if kind in ("trace", "snapshots", "diagnostics", "plans"):
                _feed_kind(h, kinds, kind, f"{name}/{f.name}", f.read_bytes())
                files += 1
            elif f.name.startswith("metrics_r"):
                _feed_kind(h, kinds, "metrics", f"{name}/{f.name}",
                           _summary_bytes(json.loads(f.read_text())))
    return h.hexdigest(), files


def _feed_run(h, kinds: dict, label: str, result, tmp: Path) -> None:
    result.write_trace_csv(tmp / "trace.csv")
    result.write_snapshots_csv(tmp / "snapshots.csv")
    result.write_diagnostics_jsonl(tmp / "diagnostics.jsonl")
    result.write_plans_jsonl(tmp / "plans.jsonl")
    for name in RUN_FILES:
        _feed_kind(h, kinds, name.partition(".")[0], f"{label}/{name}",
                   (tmp / name).read_bytes())
    _feed_kind(h, kinds, "metrics", f"{label}/ticks", str(result.ticks).encode())
    _feed_kind(h, kinds, "metrics", f"{label}/summary", _summary_bytes(result.summary()))


def _system(workloads, cfg, boot_delay_s: int):
    from wfasim.model import SystemConfig

    return SystemConfig(
        types=workloads.TYPES,
        capacity={t.id: cfg.machines_per_type for t in workloads.TYPES},
        interval_s=workloads.INTERVAL_S,
        boot_delay_s=boot_delay_s,
    )


def _inputs(workloads, seed: int) -> dict:
    """The benchmark's simulation inputs at one seed, by config label."""
    return workloads.SimWorkload((), workloads.GRID + workloads.SCALED).setup(seed)


def sim_group(engine, workloads, tmp: Path, kinds: dict) -> tuple[str, int]:
    from wfasim.model import UserConfig

    h = hashlib.sha256()
    runs = 0
    for seed in (1, 2):
        inputs = _inputs(workloads, seed)
        for boot_delay_s in (0, 7):
            for cfg in workloads.GRID + workloads.SCALED:
                system = _system(workloads, cfg, boot_delay_s)
                users = [UserConfig(u, b) for u, b in cfg.users]
                for name, make in workloads.POLICIES.items():
                    result = engine.run(inputs[cfg.label], system, users, make(),
                                        seed=seed, collect_plans=True)
                    _feed_run(h, kinds, f"{name}@{cfg.label}/s{seed}/b{boot_delay_s}",
                              result, tmp)
                    runs += 1
    return h.hexdigest(), runs


def _tripled(task, rtype_id: str) -> int:
    return 3 * task.runtime_by_type[rtype_id]


def _halved(task, rtype_id: str) -> int:
    return max(1, task.runtime_by_type[rtype_id] // 2)


def _misled(planner, oracle):
    class Misled(planner):
        def decide(self, view):
            return super().decide(dataclasses.replace(view, oracle=oracle))

    return Misled()


def oracle_group(engine, workloads, tmp: Path, kinds: dict) -> tuple[str, int]:
    from wfasim.model import UserConfig
    from wfasim.policies import PlfPolicy, ScfPolicy

    h = hashlib.sha256()
    runs = 0
    inputs = _inputs(workloads, 1)
    for oracle in (_tripled, _halved):
        for boot_delay_s in (0, 7):
            for cfg in workloads.GRID:
                system = _system(workloads, cfg, boot_delay_s)
                users = [UserConfig(u, b) for u, b in cfg.users]
                for planner in (PlfPolicy, ScfPolicy):
                    result = engine.run(inputs[cfg.label], system, users,
                                        _misled(planner, oracle), seed=1, collect_plans=True)
                    label = f"{planner.name}@{cfg.label}/{oracle.__name__}/b{boot_delay_s}"
                    _feed_run(h, kinds, label, result, tmp)
                    runs += 1
    return h.hexdigest(), runs


def mip_group(mip, workloads) -> tuple[str, int]:
    h = hashlib.sha256()
    cases = workloads.WORKLOADS["mip-exact"].setup(1)
    for i, case in enumerate(cases):
        inst = case.instance
        solution = mip.solve_exact(inst, workloads.MIP_LIMITS)
        _feed(h, f"{i}/lp", mip.export_lp(inst).encode())
        _feed(h, f"{i}/solution", json.dumps(mip.solution_to_dict(solution)).encode())
        _feed(h, f"{i}/check", json.dumps(mip.check_solution(inst, solution)).encode())
    return h.hexdigest(), len(cases)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/output_digest.py <repo root>", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "wfbench")]
    import wfasim
    from wfasim import cli, engine, mip

    import workloads

    if not Path(wfasim.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"wfasim was imported from {wfasim.__file__}, not from {root}")
    kinds = {kind: hashlib.sha256() for kind in KINDS}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        print("cli     %s  (%d files)" % cli_group(cli, tmp, kinds))
        print("sim     %s  (%d runs)" % sim_group(engine, workloads, tmp, kinds))
        print("oracle  %s  (%d runs)" % oracle_group(engine, workloads, tmp, kinds))
        print("mip     %s  (%d instances)" % mip_group(mip, workloads))
    for kind, h in kinds.items():
        print("%-12s%s" % (kind, h.hexdigest()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
