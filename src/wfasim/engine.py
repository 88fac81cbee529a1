"""Discrete-event simulation core.

Event kinds at the same timestamp process in a fixed precedence: task
finishes release resources first, boots complete, plan wakes and arrivals
follow, and the autoscaling tick runs last. Billing periods equal the
autoscaling interval, so every reserved resource reaches its billing end
exactly at a tick, and the tick itself charges the interval it opens: there
is no separate billing event. An interval is charged exactly when a next
tick is scheduled.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import json
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .dagops import WorkflowGraph, ideal_makespan, validate_workflow
from .metrics import ElasticityReport, IntervalSnapshot, elasticity, slowdown, summarize
from .model import (
    BudgetViolation,
    ResourceState,
    SystemConfig,
    UserConfig,
    WorkflowSpec,
    WorkloadInvalid,
    min_runtime,
)
from .policies.base import Decision, Policy, PolicyView, perfect_oracle
from .scheduler import PlanRunner, dispatch_dynamic
from .state import SystemState, UserFacade

# event precedence at equal timestamps
_FINISH, _BOOT, _WAKE, _ARRIVAL, _TICK = range(5)

TRACE_COLUMNS = (
    "time_s",
    "event",
    "user",
    "workflow",
    "task",
    "resource",
    "rtype",
    "detail",
)


@dataclass
class DecisionRecord:
    tick: int
    user: str
    policy: str
    seconds: float
    steps: dict[str, float] = field(default_factory=dict)


@dataclass
class RunResult:
    """Everything observable from one simulation run."""

    system: SystemConfig
    users: list[UserConfig]
    policy_name: str
    seed: int
    state: SystemState
    trace: list[tuple]
    snapshots: list[IntervalSnapshot]
    decision_log: list[DecisionRecord]
    diagnostics: list[dict]
    plan_rows: list[dict]
    ticks: int

    # -- metric helpers ----------------------------------------------------

    @property
    def cost_series(self) -> dict[str, list[int]]:
        """Per user, the charge of each billed interval in order."""
        out: dict[str, list[int]] = {u.id: [] for u in self.users}
        for s in self.snapshots:
            out[s.user].append(s.allocated_cost)
        return out

    def slowdowns(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {u.id: [] for u in self.users}
        for wf_id, run in self.state.runs.items():
            if run.last_finish_s is None:
                continue
            ideal = ideal_makespan(run.graph)
            out[run.spec.user].append(
                slowdown(run.spec.arrival_s, run.last_finish_s, ideal)
            )
        return out

    def demand_supply(self, user: str) -> tuple[list[int], list[int]]:
        rows = [s for s in self.snapshots if s.user == user]
        return [s.demand for s in rows], [s.supply for s in rows]

    def elasticity_reports(self) -> dict[str, ElasticityReport]:
        capacity = self.system.total_capacity()
        out = {}
        for u in self.users:
            d, s = self.demand_supply(u.id)
            out[u.id] = elasticity(d, s, capacity)
        return out

    def decision_stats(self) -> dict[str, dict[str, float]]:
        times = [rec.seconds for rec in self.decision_log]
        if not times:
            return {}
        return {
            self.policy_name: {
                "mean_s": statistics.fmean(times),
                "median_s": statistics.median(times),
                "max_s": max(times),
                "count": len(times),
            }
        }

    def mean_slowdown(self, user: str | None = None) -> float:
        by_user = self.slowdowns()
        values = (
            by_user.get(user, [])
            if user is not None
            else [v for vs in by_user.values() for v in vs]
        )
        return statistics.fmean(values) if values else float("nan")

    def summary(self) -> dict:
        return summarize(
            self.slowdowns(),
            self.cost_series,
            self.elasticity_reports(),
            self.decision_stats(),
        )

    # -- output files --------------------------------------------------------

    def write_trace_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            writer.writerows(self.trace)

    def write_snapshots_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ("interval", "user", "demand", "supply", "busy", "allocated_cost")
            )
            for s in self.snapshots:
                writer.writerow(
                    (s.interval, s.user, s.demand, s.supply, s.busy, s.allocated_cost)
                )

    def write_diagnostics_jsonl(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            for row in self.diagnostics:
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    def write_plans_jsonl(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            for row in self.plan_rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    def write_decision_log_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("tick", "user", "policy", "seconds", "steps"))
            for rec in self.decision_log:
                steps = ";".join(f"{k}={v:.9f}" for k, v in rec.steps.items())
                writer.writerow((rec.tick, rec.user, rec.policy, f"{rec.seconds:.9f}", steps))


def poisson_arrivals(
    workflows: list[WorkflowSpec],
    utilization: float,
    capacity: int,
    seed: int,
) -> list[WorkflowSpec]:
    """Re-stamp arrival times as a Poisson process at a target utilization.

    The arrival rate is utilization * capacity / mean total fastest-runtime
    per workflow, so on average the submitted work keeps the given fraction
    of the system busy. Times round to whole seconds.
    """
    if not workflows:
        return []
    mean_work = statistics.fmean(
        sum(min_runtime(t) for t in wf.tasks) for wf in workflows
    )
    rate = utilization * capacity / mean_work
    rng = random.Random(seed)
    clock = 0.0
    out = []
    for wf in workflows:
        clock += rng.expovariate(rate)
        out.append(replace(wf, arrival_s=int(round(clock))))
    return out


class _Sim:
    """One simulation in progress."""

    def __init__(
        self,
        workflows: list[WorkflowSpec],
        system: SystemConfig,
        users: list[UserConfig],
        policy: Policy,
        seed: int,
        collect_plans: bool,
    ):
        user_ids: set[str] = set()
        for u in users:
            if u.id in user_ids:
                raise ValueError(f"duplicate user id {u.id!r}")
            user_ids.add(u.id)
        self.graphs: dict[str, WorkflowGraph] = {}
        for wf in workflows:
            if wf.id in self.graphs:
                raise WorkloadInvalid(wf.id, ["DuplicateWorkflow"])
            issues = validate_workflow(wf, self.graphs)
            if not issues and wf.user not in user_ids:
                issues = [f"UnknownUser({wf.user})"]
            if issues:
                raise WorkloadInvalid(wf.id, issues)
        self.system = system
        self.users = users
        self.policy = policy
        self.seed = seed
        self.collect_plans = collect_plans
        self.state = SystemState(system, users)
        self.specs = {wf.id: wf for wf in workflows}
        self.rng = random.Random(seed)
        self.heap: list[tuple[int, int, int, tuple]] = []
        self.push_seq = itertools.count()
        self.type_ids = [t.id for t in system.types]
        self.plan_runner = PlanRunner() if policy.mode == "plan" else None
        self.trace: list[tuple] = []
        self.snapshots: list[IntervalSnapshot] = []
        self.decision_log: list[DecisionRecord] = []
        self.diagnostics: list[dict] = []
        self.plan_rows: list[dict] = []
        self.arrivals_left = len(workflows)
        self.ticks = 0
        self.wake_times: set[tuple[str, int]] = set()

        for wf in workflows:
            self.push(wf.arrival_s, _ARRIVAL, (wf.id,))
        self.push(0, _TICK, ())

    # -- plumbing ------------------------------------------------------------

    def push(self, when: int, rank: int, data: tuple) -> None:
        if when < self.state.clock:
            raise AssertionError("event scheduled in the past")
        heapq.heappush(self.heap, (when, rank, next(self.push_seq), data))

    def row(
        self,
        time_s: int,
        event: str,
        user: str = "",
        workflow: str = "",
        task: str = "",
        resource: int | str = "",
        rtype: str = "",
        detail: str = "",
    ) -> None:
        self.trace.append((time_s, event, user, workflow, task, resource, rtype, detail))

    # -- event handlers --------------------------------------------------------

    def on_arrival(self, now: int, wf_id: str) -> None:
        spec = self.specs[wf_id]
        self.state.arrive(spec, self.graphs[wf_id])
        self.arrivals_left -= 1
        self.row(now, "arrive", spec.user, workflow=wf_id,
                 detail=f"priority={spec.priority};tasks={len(spec.tasks)}")
        self.dispatch(spec.user, now)

    def on_finish(self, now: int, wf_id: str, task_id: str) -> None:
        run = self.state.runs[wf_id]
        rid = run.task_resource[task_id]
        rtype_id = self.state.resources[rid].rtype.id
        self.state.finish_task(wf_id, task_id, now)
        self.row(now, "finish", run.spec.user, workflow=wf_id, task=task_id,
                 resource=rid, rtype=rtype_id)
        if run.done:
            self.row(now, "workflow_done", run.spec.user, workflow=wf_id,
                     detail=f"arrival={run.spec.arrival_s}")
        self.dispatch(run.spec.user, now)

    def on_boot(self, now: int, rid: int) -> None:
        r = self.state.resources[rid]
        if r.state is ResourceState.BOOTING:
            self.state.boot_complete(r, now)
            user = r.user or ""
            self.row(now, "boot", user, resource=rid, rtype=r.rtype.id)
            if user:
                self.dispatch(user, now)

    def on_tick(self, now: int) -> None:
        k = now // self.system.interval_s
        self.row(now, "tick", detail=f"interval={k}")
        if self.state.all_done and self.arrivals_left == 0 and not self.state.reserved():
            return
        self.ticks += 1
        before = {
            u.id: (
                self.state.momentary_demand(u.id),
                self.state.supply(u.id),
                self.state.busy_count(u.id),
            )
            for u in self.users
        }
        order = [u.id for u in self.users]
        self.rng.shuffle(order)
        acted = False
        for uid in order:
            view = self.build_view(uid, now, k)
            t0 = time.perf_counter()
            decision = self.policy.decide(view)
            seconds = time.perf_counter() - t0
            self.decision_log.append(
                DecisionRecord(k, uid, self.policy.name, seconds, decision.step_seconds)
            )
            if decision.diagnostics is not None:
                self.diagnostics.append(decision.diagnostics)
            if decision.dealloc or decision.alloc:
                acted = True
            self.apply_decision(uid, decision, now, k)
        for u in self.users:
            self.dispatch(u.id, now)
        work_left = not (self.state.all_done and self.arrivals_left == 0)
        if not (work_left or (acted and self.state.reserved())):
            return  # the run ends here, so this interval is not billed
        self.push(now + self.system.interval_s, _TICK, ())
        for r in self.state.reserved():
            self.state.prolong(r, now)
        for u in self.users:
            charge = self.state.allocated_cost(u.id)
            if charge > u.budget:
                raise BudgetViolation(
                    f"interval {k}: user {u.id} charged {charge} over budget {u.budget}"
                )
            self.snapshots.append(IntervalSnapshot(k, u.id, *before[u.id], charge))
        for uid in sorted(before):
            for rtype_id, count in sorted(self.state.counts_by_type(uid).items()):
                if count:
                    cost = self.system.type_by_id(rtype_id).cost * count
                    self.row(now, "charge", uid, rtype=rtype_id,
                             detail=f"count={count};amount={cost}")

    # -- decision plumbing -----------------------------------------------------

    def build_view(self, uid: str, now: int, tick: int) -> PolicyView:
        return PolicyView(
            now=now,
            tick=tick,
            user=self.state.users[uid],
            config=self.system,
            state=self.state,
            oracle=perfect_oracle,
            rng=self.rng,
            observation=UserFacade(self.state, uid),
        )

    def apply_decision(self, uid: str, decision: Decision, now: int, tick: int) -> None:
        budget = self.state.users[uid].budget
        for rid in decision.dealloc:
            r = self.state.resources[rid]
            if r.user != uid:
                raise ValueError(f"policy released foreign resource {rid}")
            self.state.release(r, now)
            self.row(now, "release", uid, resource=rid, rtype=r.rtype.id)
        for rtype_id in self.type_ids:
            for rid in decision.alloc.get(rtype_id, ()):  # ids picked by the policy
                r = self.state.resources[rid]
                if self.state.allocated_cost(uid) + r.rtype.cost > budget:
                    raise BudgetViolation(
                        f"tick {tick}: allocation for {uid} would exceed budget"
                    )
                self.state.reserve(r, uid, now)
                self.row(now, "allocate", uid, resource=rid, rtype=rtype_id)
                if self.system.boot_delay_s > 0:
                    self.push(now + self.system.boot_delay_s, _BOOT, (rid,))
        if decision.plan is not None and self.plan_runner is not None:
            wake_times = self.plan_runner.install(uid, decision.plan)
            for when in wake_times:
                if when > now and (uid, when) not in self.wake_times:
                    self.wake_times.add((uid, when))
                    self.push(when, _WAKE, (uid,))
            if self.collect_plans:
                for e in decision.plan.entries():
                    self.plan_rows.append(
                        {
                            "t": tick,
                            "resource": e.resource_id,
                            "task": f"{e.wf_id}/{e.task_id}",
                            "start": e.start_s,
                            "end": e.end_s,
                        }
                    )

    def dispatch(self, uid: str, now: int) -> None:
        if self.plan_runner is not None:
            assignments = self.plan_runner.dispatch(self.state, uid, now)
        else:
            assignments = dispatch_dynamic(self.state, uid, now)
        for wf_id, task_id, rid in assignments:
            r = self.state.resources[rid]
            runtime = self.graphs[wf_id].tasks[task_id].runtime_by_type[r.rtype.id]
            self.push(now + runtime, _FINISH, (wf_id, task_id))
            self.row(now, "start", uid, workflow=wf_id, task=task_id,
                     resource=rid, rtype=r.rtype.id, detail=f"runtime={runtime}")

    # -- main loop ---------------------------------------------------------------

    def run(self) -> RunResult:
        while self.heap:
            when, rank, _seq, data = heapq.heappop(self.heap)
            self.state.clock = when
            if rank == _FINISH:
                self.on_finish(when, *data)
            elif rank == _BOOT:
                self.on_boot(when, *data)
            elif rank == _WAKE:
                self.wake_times.discard((data[0], when))
                self.dispatch(data[0], when)
            elif rank == _ARRIVAL:
                self.on_arrival(when, *data)
            elif rank == _TICK:
                self.on_tick(when)
        return RunResult(
            system=self.system,
            users=self.users,
            policy_name=self.policy.name,
            seed=self.seed,
            state=self.state,
            trace=self.trace,
            snapshots=self.snapshots,
            decision_log=self.decision_log,
            diagnostics=self.diagnostics,
            plan_rows=self.plan_rows,
            ticks=self.ticks,
        )


def run(
    workflows: list[WorkflowSpec],
    system: SystemConfig,
    users: list[UserConfig],
    policy: Policy,
    seed: int = 0,
    collect_plans: bool = False,
) -> RunResult:
    """Simulate a workload to completion under one autoscaling policy.

    Machines are reserved only when the engine applies a policy decision,
    and each reservation is checked against the user's budget there."""
    sim = _Sim(workflows, system, users, policy, seed, collect_plans)
    return sim.run()


__all__ = [
    "DecisionRecord",
    "RunResult",
    "TRACE_COLUMNS",
    "poisson_arrivals",
    "run",
]
