"""Span tracing from outside the program, for the per-layer metrics.

Wrappers are patched onto the names the program's callers look up (module
globals for functions, class attributes for methods), so the calls really
pass through them. Each span records its name, start, end and parent span;
counts are taken at the same boundaries from the arguments and results.
Spans stay in memory until the run ends. A boundary the program no longer
has is skipped, and the metrics that need it are reported as absent.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import defaultdict

from wfasim import dagops, engine, mip, scheduler, state, workload
from wfasim.policies import pfa, plan

POLICY_NAMES = ("pfa-ma", "pfa-ewma", "plf", "scf")
POOL_SCANS = (
    "idle_resources",
    "free_resources",
    "counts_by_type",
    "supply",
    "busy_count",
    "allocated_cost",
    "user_resources",
)

# metric name -> (unit, boundary it is measured at), in report order
PER_LAYER = {
    "workload.generate_s": ("s", "workload.generate"),
    "engine.arrivals_s": ("s", "engine.arrivals"),
    "engine.run_s": ("s", "engine.run"),
    "engine.self_s": ("s", "engine.run"),
    "engine.write_s": ("s", "engine.write"),
    "engine.output_bytes": ("bytes", "engine.write"),
    "engine.trace_rows": ("count", "engine.run"),
    "engine.ticks": ("count", "engine.run"),
    "dagops.validate_s": ("s", "dagops.validate"),
    "dagops.graph_builds": ("count", "dagops.graph_build"),
    "dagops.graph_build_s": ("s", "dagops.graph_build"),
    "state.eligible_calls": ("count", "state.eligible"),
    "state.eligible_sort_keys": ("count", "state.eligible"),
    "state.eligible_s": ("s", "state.eligible"),
    "state.pool_scan_calls": ("count", "state.pool_scan"),
    "state.pool_scan_resources": ("count", "state.pool_scan"),
    "state.pool_scan_s": ("s", "state.pool_scan"),
    "state.joint_dag_s": ("s", "state.joint_dag"),
    "state.joint_dag_nodes": ("count", "state.joint_dag"),
    "scheduler.dispatch_calls": ("count", "scheduler.dispatch"),
    "scheduler.dispatch_s": ("s", "scheduler.dispatch"),
    "scheduler.tasks_started": ("count", "scheduler.dispatch"),
    **{
        f"policies.{p}.{m}": (u, f"policies.{p}.decide")
        for p in POLICY_NAMES
        for m, u in (("decide_calls", "count"), ("decide_s", "s"),
                     ("decide_us_p50", "us"), ("decide_us_p90", "us"))
    },
    "policies.pfa.tba_s": ("s", "policies.pfa.tba"),
    "policies.plan.build_plan_s": ("s", "policies.plan.build_plan"),
    "policies.plan.planned_entries": ("count", "policies.plan.build_plan"),
    "metrics.summary_s": ("s", "metrics.summary"),
    "mip.build_s": ("s", "mip.build"),
    "mip.export_s": ("s", "mip.export"),
    "mip.lp_bytes": ("bytes", "mip.export"),
    "mip.solve_s": ("s", "mip.solve"),
    "mip.check_s": ("s", "mip.check"),
    "trace.spans": ("count", None),
    "trace.overhead_s": ("s", None),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.installed: set[str] = set()  # boundaries the program still has
        self._patches: list[tuple] = []

    # -- patching -------------------------------------------------------------

    def wrap(self, owner, attr: str, name, after=None, boundaries=None) -> None:
        """Record a span around ``owner.attr``.

        ``name`` is the span name, or a function of the call's arguments;
        ``after(tracer, args, result)`` records counts. ``boundaries`` names
        the span names the wrapper can produce (default: ``name``).
        """
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)  # not an inherited one
        else:
            original = getattr(owner, attr, None)
        if original is None:
            return
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            rec = [name if isinstance(name, str) else name(args), clock(), 0.0,
                   stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = original(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        self.installed.update(boundaries or (name,))

    def install(self) -> None:
        w = self.wrap
        w(workload, "generate_workload", "workload.generate")
        w(engine, "poisson_arrivals", "engine.arrivals")
        w(engine, "run", "engine.run", _count_run)
        for attr in ("write_trace_csv", "write_snapshots_csv", "write_decision_log_csv",
                     "write_diagnostics_jsonl", "write_plans_jsonl"):
            w(engine.RunResult, attr, "engine.write", _count_bytes)
        w(engine.RunResult, "summary", "metrics.summary")
        w(engine, "validate_workflow", "dagops.validate")
        w(mip, "validate_workflow", "dagops.validate")
        w(dagops.WorkflowGraph, "__init__", "dagops.graph_build")
        w(state.SystemState, "eligible_tasks", "state.eligible", _count_eligible)
        for attr in POOL_SCANS:
            w(state.SystemState, attr, "state.pool_scan", _count_pool_scan)
        w(state.SystemState, "joint_dag", "state.joint_dag", _count_joint_dag)
        w(engine, "dispatch_dynamic", "scheduler.dispatch", _count_started)
        w(scheduler.PlanRunner, "dispatch", "scheduler.dispatch", _count_started)
        decide = lambda args: f"policies.{args[0].name}.decide"  # noqa: E731
        w(pfa.PfaPolicy, "decide", decide,
          boundaries=("policies.pfa-ma.decide", "policies.pfa-ewma.decide"))
        w(plan.PlfPolicy, "decide", decide, boundaries=("policies.plf.decide",))
        w(plan.ScfPolicy, "decide", decide, boundaries=("policies.scf.decide",))
        w(pfa, "tba_propagate", "policies.pfa.tba")
        w(plan, "build_plan", "policies.plan.build_plan", _count_planned)
        w(mip, "build_instance", "mip.build")
        w(mip, "export_lp", "mip.export", _count_lp)
        w(mip, "solve_exact", "mip.solve")
        w(mip, "check_solution", "mip.check")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- metrics ------------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, dict]:
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            durations[name].append(end - start)
            if parent >= 0:
                child[parent] += end - start
        engine_self = sum(
            end - start - child[i]
            for i, (name, start, end, _p) in enumerate(self.spans)
            if name == "engine.run"
        )
        values: dict[str, float] = {
            "workload.generate_s": total["workload.generate"],
            "engine.arrivals_s": total["engine.arrivals"],
            "engine.run_s": total["engine.run"],
            "engine.self_s": engine_self,
            "engine.write_s": total["engine.write"],
            "dagops.validate_s": total["dagops.validate"],
            "dagops.graph_builds": len(durations["dagops.graph_build"]),
            "dagops.graph_build_s": total["dagops.graph_build"],
            "state.eligible_calls": len(durations["state.eligible"]),
            "state.eligible_s": total["state.eligible"],
            "state.pool_scan_calls": len(durations["state.pool_scan"]),
            "state.pool_scan_s": total["state.pool_scan"],
            "state.joint_dag_s": total["state.joint_dag"],
            "scheduler.dispatch_calls": len(durations["scheduler.dispatch"]),
            "scheduler.dispatch_s": total["scheduler.dispatch"],
            "policies.pfa.tba_s": total["policies.pfa.tba"],
            "policies.plan.build_plan_s": total["policies.plan.build_plan"],
            "metrics.summary_s": total["metrics.summary"],
            "mip.build_s": total["mip.build"],
            "mip.export_s": total["mip.export"],
            "mip.solve_s": total["mip.solve"],
            "mip.check_s": total["mip.check"],
            "trace.spans": len(self.spans),
            "trace.overhead_s": overhead_s,
        }
        for policy in POLICY_NAMES:
            times = durations[f"policies.{policy}.decide"]
            us = [t * 1e6 for t in times]
            values[f"policies.{policy}.decide_calls"] = len(times)
            values[f"policies.{policy}.decide_s"] = sum(times)
            values[f"policies.{policy}.decide_us_p50"] = statistics.median(us) if us else 0.0
            values[f"policies.{policy}.decide_us_p90"] = (
                statistics.quantiles(us, n=10)[-1] if len(us) > 1 else (us[0] if us else 0.0)
            )
        values.update(self.counts)
        out = {}
        for metric, (unit, boundary) in PER_LAYER.items():
            if boundary is not None and boundary not in self.installed:
                continue  # the program lost this boundary: absent, not zero
            out[metric] = {"value": values.get(metric, 0), "unit": unit}
        return out


# -- counts at the boundaries ------------------------------------------------------


def _count_run(tracer: Tracer, args, result) -> None:
    tracer.counts["engine.trace_rows"] += len(result.trace)
    tracer.counts["engine.ticks"] += result.ticks


def _count_bytes(tracer: Tracer, args, result) -> None:
    tracer.counts["engine.output_bytes"] += os.path.getsize(args[1])


def _count_eligible(tracer: Tracer, args, result) -> None:
    # sorted() computes one key per eligible task, and returns them all
    tracer.counts["state.eligible_sort_keys"] += len(result)


def _count_pool_scan(tracer: Tracer, args, result) -> None:
    tracer.counts["state.pool_scan_resources"] += len(args[0].resources)


def _count_joint_dag(tracer: Tracer, args, result) -> None:
    tracer.counts["state.joint_dag_nodes"] += len(result[0])


def _count_started(tracer: Tracer, args, result) -> None:
    tracer.counts["scheduler.tasks_started"] += len(result)


def _count_planned(tracer: Tracer, args, result) -> None:
    tracer.counts["policies.plan.planned_entries"] += len(result)


def _count_lp(tracer: Tracer, args, result) -> None:
    tracer.counts["mip.lp_bytes"] += len(result.encode())
