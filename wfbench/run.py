"""Benchmark for the wfasim simulator.

Run from the repository root:

    python3 wfbench/run.py --workload grid-feedback --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics (tasks_per_s, setup_s,
peak_mem_mb) of untraced passes; with ``--trace 1`` the per-layer metrics of
one traced pass. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. See README.md beside this
file for the workloads and the choice of statistics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / ".out"

# Passes per run: at least this many, more while --seconds lasts.
MIN_PASSES = 2
# Timed set-ups per run, spread over the run's passes: enough to add up to
# about SETUP_SECONDS, within [MIN_SETUPS, MAX_SETUPS]. setup_s is their median.
MIN_SETUPS = 5
MAX_SETUPS = 40
SETUP_SECONDS = 2.0
# A host-speed probe, the fastest of 3 runs of a fixed loop that formats and
# joins PROBE_STRINGS short strings, runs before each pass and set-up and,
# once PROBE_EVERY_S has passed since the last one, after an operation.
PROBE_EVERY_S = 0.25
PROBE_STRINGS = 1_500
# Seconds per probe unit: about one probe on a fast phase of the host the
# reference figures come from. Costs are reported in these seconds, so that a
# run that is slow throughout reads the same as one that is not.
PROBE_REF_S = 0.45e-3


def load_program():
    """Import wfasim from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "wfasim" / "__init__.py").is_file():
        sys.exit(f"wfbench: no wfasim sources under {src}")
    sys.path.insert(0, str(src))
    import wfasim

    if not Path(wfasim.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"wfbench: wfasim imported from {wfasim.__file__}, not from {src}")


def _probe_loop() -> int:
    parts = []
    for i in range(PROBE_STRINGS):
        parts.append(f"+ {i} x_{i}_{i % 7}")
    return len(" ".join(parts))


class HostSpeed:
    """Short fixed loops timed between the benchmark's timings.

    The host's speed drifts by up to half between phases that last from a
    second to minutes, longer than a run. A timing divided by the mean of the
    probes that bracket it is its cost in probe units, which the drift moves
    far less. README.md has the measurements behind this.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.at = 0.0

    def probe(self) -> float:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            _probe_loop()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        self.at = time.perf_counter()
        return best

    def due(self) -> bool:
        return time.perf_counter() - self.at >= PROBE_EVERY_S


class Run:
    """One benchmark run of one workload: passes, checks and counts."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.issues: list[str] = []
        self.reference_digest: str | None = None
        self.host = HostSpeed()
        self.setup_costs: list[float] = []  # in probe units
        self.op_costs: dict[str, list[float]] = {}  # in probe units
        self.op_tasks: dict[str, int] = {}

    def setup(self, timed: bool = True):
        gc.collect()
        before = self.host.probe()
        t0 = time.perf_counter()
        inputs = self.workload.setup(self.seed)
        elapsed = time.perf_counter() - t0
        if timed:
            self.setup_costs.append(2 * elapsed / (before + self.host.probe()))
        return inputs, elapsed

    def run_pass(self, inputs, timed: bool = True):
        """Run every operation once, in order."""
        ops = self.workload.operations(inputs, self.seed, OUT_DIR)
        gc.collect()
        outputs = {}
        pending: list[tuple[object, float]] = []  # timed since the last probe
        before = self.host.probe()
        for op in ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                outputs[op.name] = op.run()
                pending.append((op, time.perf_counter() - t0))
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += 1
                print(f"wfbench: {op.name} failed: {exc!r}", file=sys.stderr)
            if pending and (self.host.due() or op is ops[-1]):
                after = self.host.probe()
                if timed:
                    for finished, elapsed in pending:
                        self.op_costs.setdefault(finished.name, []).append(2 * elapsed / (before + after))
                        self.op_tasks[finished.name] = finished.tasks
                pending, before = [], after
        return ops, outputs

    def verify(self, inputs, outputs, full: bool) -> None:
        """Full output checks, or the digest check against the checked pass."""
        if full:
            self.issues += self.workload.check(inputs, outputs)
            self.reference_digest = self.workload.digest(outputs)
        elif self.workload.digest(outputs) != self.reference_digest:
            self.issues.append("outputs differ between passes (trace digest mismatch)")

    @property
    def correct(self) -> bool:
        return not self.issues


def measure(run: Run, seconds: float) -> dict:
    """End-to-end metrics from untraced passes."""
    peak = passes(run, seconds)
    # Each operation's cheapest pass, and the median set-up, in probe units.
    pass_cost = sum(min(costs) for costs in run.op_costs.values())
    tasks = sum(run.op_tasks.values())
    probes = run.host.samples
    print(f"wfbench: {len(run.setup_costs)} set-ups, {len(probes)} host probes "
          f"(fastest {min(probes) * 1e3:.3f} ms, median {statistics.median(probes) * 1e3:.3f} ms)",
          file=sys.stderr)
    return {
        "tasks_per_s": {"value": tasks / (pass_cost * PROBE_REF_S), "unit": "tasks/s"},
        "setup_s": {"value": statistics.median(run.setup_costs) * PROBE_REF_S, "unit": "s"},
        "peak_mem_mb": {"value": peak / 1e6, "unit": "MB"},
    }


def passes(run: Run, seconds: float) -> int:
    """Run passes for ``seconds``, at least MIN_PASSES, with the set-ups
    spread between them. Returns the peak memory through the first pass."""
    # The first set-up pays for lazy initialisation, which a process pays
    # once; it is not one of the timed set-ups.
    inputs, warm_setup_s = run.setup(timed=False)
    setups = min(MAX_SETUPS, max(MIN_SETUPS, math.ceil(SETUP_SECONDS / warm_setup_s)))
    setups_per_pass = 0
    done = 0
    start = time.perf_counter()
    while done < MIN_PASSES or time.perf_counter() - start < seconds:
        for _ in range(setups_per_pass):
            inputs, _ = run.setup()
        ops, outputs = run.run_pass(inputs)
        if done == 0:
            # The process's peak memory through its first pass, which starts
            # with no earlier result alive; this pass is checked in full.
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            first_pass_s = time.perf_counter() - start
            run.verify(inputs, outputs, full=True)
            expected = max(MIN_PASSES, math.floor(seconds / first_pass_s))
            setups_per_pass = math.ceil(setups / (expected - 1))
        else:
            run.verify(inputs, outputs, full=False)
        done += 1
        del ops, outputs
    while len(run.setup_costs) < setups:
        run.setup()
    print(f"wfbench: {done} passes", file=sys.stderr)
    return peak


def traced(run: Run) -> dict:
    """Per-layer metrics from one traced pass, next to an untraced one."""
    import spans

    inputs, _ = run.setup(timed=False)
    _ops, outputs = run.run_pass(inputs, timed=False)  # warm-up, checked in full
    run.verify(inputs, outputs, full=True)
    del _ops, outputs
    untraced = pass_cost(run, inputs)

    tracer = spans.Tracer()
    tracer.install()
    try:
        inputs, _ = run.setup(timed=False)
        traced_cost = pass_cost(run, inputs)
    finally:
        tracer.uninstall()
    overhead_s = (traced_cost - untraced) * PROBE_REF_S
    print(f"wfbench: untraced pass {untraced * PROBE_REF_S:.4f} s, tracing adds "
          f"{overhead_s:.4f} s, {len(tracer.spans)} spans", file=sys.stderr)
    return tracer.metrics(overhead_s)


def pass_cost(run: Run, inputs) -> float:
    """Cost of one pass in probe units; its outputs must match the checked pass."""
    run.op_costs.clear()
    _ops, outputs = run.run_pass(inputs)
    run.verify(inputs, outputs, full=False)
    return sum(costs[0] for costs in run.op_costs.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print the make-up of the workload's inputs and exit")
    args = parser.parse_args(argv)

    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.describe:
        print(json.dumps(workload.describe(workload.setup(args.seed)), indent=1))
        return 0

    shutil.rmtree(OUT_DIR, ignore_errors=True)
    run = Run(workload, args.seed)
    try:
        metrics = traced(run) if args.trace else measure(run, args.seconds)
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
    for issue in run.issues[:20]:
        print(f"wfbench: check failed: {issue}", file=sys.stderr)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
