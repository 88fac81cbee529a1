"""Discrete-event simulation core.

Event kinds at the same timestamp process in a fixed precedence: task
finishes release resources first, boots complete, plan wakes and arrivals
follow, and the autoscaling tick runs last. Billing periods equal the
autoscaling interval, and machines are reserved and released only at ticks,
so every paid interval ends at a tick. The tick itself charges the interval
it opens for the machines held after its decisions: there is no separate
billing event, and no per-machine billing window to move. An interval is
charged exactly when a next tick is scheduled.

Each trace row is CSV text when it is made: every distinct id of a run is
rendered as a CSV field once, before the run starts, and one template per
row kind places the fields. The tick writes the rows of the interval it
closes to the run's unnamed temporary file, so the trace's text is not held
in memory; the run's result reads it back from there. The per-task path is
flat: a finish makes one state call to finish the task and one to start the
user's eligible work, and pushes the started tasks' finishes onto the heap
directly.
"""

from __future__ import annotations

import csv
import heapq
import io
import itertools
import json
import random
import shutil
import statistics
import tempfile
import time
import weakref
from dataclasses import dataclass, field, replace
from heapq import heappush
from pathlib import Path
from typing import IO, Callable

from .dagops import WorkflowGraph, validate_workflow
from .metrics import ElasticityReport, IntervalSnapshot, elasticity, slowdown, summarize
from .model import (
    Stalled,
    SystemConfig,
    UserConfig,
    WorkflowSpec,
    WorkloadInvalid,
    min_runtime,
)
from .policies.base import Decision, Policy, PolicyView, perfect_oracle
from .scheduler import PlanRunner
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
# one trace row as csv.writer writes it, given its fields rendered as CSV
_TRACE_ROW = ",".join(["%s"] * len(TRACE_COLUMNS)) + "\r\n"
# the per-task and per-workflow kinds, each with its detail in place; the
# second field is a workflow's "user,workflow" head
_START_ROW = "%s,start,%s,%s,%s,%s,runtime=%s\r\n"  # time, head, task, machine, type
_FINISH_ROW = "%s,finish,%s,%s,%s,%s,\r\n"
_DONE_ROW = "%s,workflow_done,%s,,,,arrival=%s\r\n"
_ARRIVE_ROW = "%s,arrive,%s,,,,priority=%s;tasks=%s\r\n"
# the characters that make csv.writer quote a field
_CSV_QUOTED = (",", '"', "\r", "\n")


@dataclass
class DecisionRecord:
    tick: int
    user: str
    policy: str
    seconds: float
    steps: dict[str, float] = field(default_factory=dict)


@dataclass
class RunResult:
    """Everything observable from one simulation run.

    The trace's CSV text, without its header, is in ``trace_file``: the
    run's unnamed temporary file, which is closed once the result is
    collected."""

    system: SystemConfig
    users: list[UserConfig]
    policy_name: str
    seed: int
    state: SystemState
    trace_file: IO[str]
    snapshots: list[IntervalSnapshot]
    decision_log: list[DecisionRecord]
    diagnostics: list[dict]
    plan_rows: list[dict]
    ticks: int

    def __post_init__(self) -> None:
        weakref.finalize(self, self.trace_file.close)

    @property
    def trace(self) -> list[tuple]:
        """The trace rows, parsed from the run's file on each access:
        ``time_s`` and a non-empty ``resource`` are ints, every other field a
        string."""
        self.trace_file.seek(0)
        return [
            (int(time_s), event, user, wf, task, int(resource) if resource else "", rtype, detail)
            for time_s, event, user, wf, task, resource, rtype, detail in csv.reader(
                self.trace_file
            )
        ]

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
        for run in self.state.runs.values():
            out[run.spec.user].append(
                slowdown(run.spec.arrival_s, run.last_finish_s, run.graph.ideal_s)
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
        """Write the trace as ``csv.writer`` would: the header row, then the
        bytes of the run's file, which has this file's encoding."""
        with open(path, "w", newline="") as fh:
            fh.write(_TRACE_ROW % TRACE_COLUMNS)
            fh.flush()
            self.trace_file.seek(0)
            shutil.copyfileobj(self.trace_file.buffer, fh.buffer)

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
    of the system busy. Times round to whole seconds. The rate must be
    positive: a finite utilization above 0 and a capacity of at least 1.
    """
    if not 0 < utilization < float("inf"):  # NaN fails both comparisons
        raise ValueError(f"arrivals: utilization must be a finite number > 0, got {utilization}")
    if capacity < 1:
        raise ValueError(f"arrivals: capacity must be >= 1, got {capacity}")
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


def _csv_renderer() -> Callable[[str], str]:
    """A function that renders a string as the field csv.writer writes."""
    buf = io.StringIO()
    writer = csv.writer(buf)

    def render(s: str) -> str:
        buf.seek(0)
        buf.truncate()
        writer.writerow((s, ""))  # not alone in its row, so "" renders as nothing
        return buf.getvalue()[:-3]  # without the empty field and the "\r\n"

    return render


def validate_inputs(
    workflows: list[WorkflowSpec], users: list[str], types: list[str], held: list[str]
) -> list[WorkflowGraph]:
    """Check a workload and return its compiled graphs in input order.

    ``users`` are user ids; a runtime may name only ``types`` (another would
    enter the ideal makespan), and each task needs one on every ``held``
    type. The first invalid workflow raises :class:`WorkloadInvalid` with
    the issues of its first failing check. The graphs share one tuple
    table, so graphs of one shape hold one copy of each adjacency tuple.
    """
    user_ids: set[str] = set()
    for u in users:
        if u in user_ids:
            raise ValueError(f"duplicate user id {u!r}")
        user_ids.add(u)
    type_ids, held_types = set(types), set(held)
    graphs: dict[str, WorkflowGraph] = {}
    shared: dict[tuple, tuple] = {}
    for wf in workflows:
        if wf.id in graphs:
            raise WorkloadInvalid(wf.id, ["DuplicateWorkflow"])
        issues = validate_workflow(wf, graphs, shared)
        if not issues and wf.user not in user_ids:
            issues = [f"UnknownUser({wf.user})"]
        if not issues:
            unknown = graphs[wf.id].named_types - type_ids
            issues = [f"UnknownType({t})" for t in sorted(unknown)]
        if not issues:
            missing = held_types - graphs[wf.id].shared_types
            issues = [f"MissingType({t})" for t in sorted(missing)]
        if issues:
            raise WorkloadInvalid(wf.id, issues)
    return list(graphs.values())


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
        self.cost = {t.id: t.cost for t in system.types}
        held = [t.id for t in system.types_with_machines()]
        graphs = validate_inputs(workflows, [u.id for u in users], list(self.cost), held)
        self.system = system
        self.users = users
        self.policy = policy
        self.seed = seed
        self.collect_plans = collect_plans
        self.state = state = SystemState(system, users)
        # Every field is an int or a string, and only an id can hold a
        # character that csv quotes, so a run whose ids hold none uses each
        # id as its own field.
        ids = dict.fromkeys(itertools.chain(
            ("",),
            state.users,
            self.cost,
            *((g.spec.id, *g.topo_order) for g in graphs),
        ))
        joined = "".join(ids)
        render = _csv_renderer() if any(ch in joined for ch in _CSV_QUOTED) else str
        # the CSV field of each distinct id, and of no id
        self.fields = fields = {s: render(s) for s in ids}
        # by workflow id: its "user,workflow" fields
        self.heads = {g.spec.id: f"{fields[g.spec.user]},{fields[g.spec.id]}" for g in graphs}
        # by machine id: its type id and that id's field
        self.type_ids = [r.rtype.id for r in state.resources]
        self.type_fields = [fields[t] for t in self.type_ids]
        self.tasks, self.workflow, self.machine = state.tasks, state.workflow, state.machine
        self.rng = random.Random(seed)
        self.heap: list[tuple[int, int, int, object]] = []
        self.push_seq = itertools.count()
        self.plan_runner = PlanRunner() if policy.mode == "plan" else None
        self.trace: list[str] = []  # the open interval's rows
        # the rows of the closed intervals, in the default encoding, as
        # write_trace_csv's open() has it; closed with this object, or, once
        # the run returns, with its result
        self.trace_file = tempfile.TemporaryFile("w+", newline="")
        self.close_trace = weakref.finalize(self, self.trace_file.close)
        self.snapshots: list[IntervalSnapshot] = []
        self.decision_log: list[DecisionRecord] = []
        self.diagnostics: list[dict] = []
        self.plan_rows: list[dict] = []
        self.arrivals_left = len(workflows)
        self.ticks = 0

        for graph in graphs:
            self.push(graph.spec.arrival_s, _ARRIVAL, graph)
        self.push(0, _TICK, None)

    # -- plumbing ------------------------------------------------------------

    def push(self, when: int, rank: int, data: object) -> None:
        if when < self.state.clock:
            raise AssertionError("event scheduled in the past")
        heapq.heappush(self.heap, (when, rank, next(self.push_seq), data))

    def flush_trace(self) -> None:
        """Write the pending trace rows to the run's file."""
        self.trace_file.write("".join(self.trace))
        self.trace.clear()

    def row(
        self,
        time_s: int,
        event: str,
        user: str = "",
        resource: int | str = "",
        rtype: str = "",
        detail: str = "",
    ) -> None:
        """Make a row of a kind with no workflow or task: a user's machine
        event, a tick or a charge."""
        fields = self.fields
        self.trace.append(_TRACE_ROW % (time_s, event, fields[user], "", "", resource,
                                        fields[rtype], detail))

    # -- event handlers --------------------------------------------------------

    def on_arrival(self, now: int, graph: WorkflowGraph) -> None:
        spec = self.state.arrive(graph).spec
        self.arrivals_left -= 1
        self.trace.append(_ARRIVE_ROW % (now, self.heads[spec.id], spec.priority,
                                         len(spec.tasks)))
        self.dispatch(spec.user, now)

    def on_finish(self, now: int, h: int) -> None:
        rid = self.machine[h]
        run = self.state.finish_task(h, now)
        head = self.heads[run.spec.id]
        self.trace.append(_FINISH_ROW % (now, head, self.fields[self.tasks[h].id], rid,
                                         self.type_fields[rid]))
        if not run.unfinished:
            self.trace.append(_DONE_ROW % (now, head, run.spec.arrival_s))
        self.dispatch(run.spec.user, now)

    def on_boot(self, now: int, rid: int) -> None:
        # Only a reservation boots a machine, and a release or a start needs
        # it idle, so its boot event finds it booting and held.
        r = self.state.resources[rid]
        self.state.boot_complete(rid, now)
        self.row(now, "boot", r.user, resource=rid, rtype=r.rtype.id)
        self.dispatch(r.user, now)

    def on_tick(self, now: int) -> None:
        self.flush_trace()
        k = now // self.system.interval_s
        self.row(now, "tick", detail=f"interval={k}")
        held_before = self.state.any_held()
        if self.state.all_done and self.arrivals_left == 0 and not held_before:
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
        held = self.state.any_held()
        if not (work_left or (acted and held)):
            return  # the run ends here, so this interval is not billed
        if work_left and not held_before and not held and not self.heap:
            # Nothing runs, boots, wakes or arrives, and no machine was held
            # before or after the decisions, so the next tick would find the
            # state this one found. A machine held at the start may have been
            # released after another user had decided: that gets a new tick.
            raise Stalled(f"interval {k}: work remains, but no machine is held "
                          "and no event is pending")
        self.push(now + self.system.interval_s, _TICK, ())
        # every held machine's paid interval ends here: bill the next one
        counts = {u.id: self.state.counts_by_type(u.id) for u in self.users}
        for u in self.users:
            charge = sum(self.cost[t] * n for t, n in counts[u.id].items())
            self.snapshots.append(IntervalSnapshot(k, u.id, *before[u.id], charge))
        for uid in sorted(counts):
            for rtype_id, count in sorted(counts[uid].items()):
                if count:
                    self.row(now, "charge", uid, rtype=rtype_id,
                             detail=f"count={count};amount={self.cost[rtype_id] * count}")

    # -- decision plumbing -----------------------------------------------------

    def build_view(self, uid: str, now: int, tick: int) -> PolicyView:
        return PolicyView(
            now=now,
            tick=tick,
            user=self.state.users[uid],
            config=self.system,
            observation=UserFacade(self.state, uid),
            oracle=perfect_oracle,
            tasks=self.tasks,
            rng=self.rng,
        )

    def apply_decision(self, uid: str, decision: Decision, now: int, tick: int) -> None:
        """Apply a decision through ``SystemState.apply``, which checks all of
        it before changing anything; then trace it, schedule the reserved
        machines' boots and install its plan."""
        resources = self.state.resources
        self.state.apply(uid, decision.dealloc, decision.alloc, now)
        for rid in decision.dealloc:
            self.row(now, "release", uid, resource=rid, rtype=resources[rid].rtype.id)
        for rid in sorted(decision.alloc):
            self.row(now, "allocate", uid, resource=rid, rtype=resources[rid].rtype.id)
            if self.system.boot_delay_s > 0:
                self.push(now + self.system.boot_delay_s, _BOOT, rid)
        if decision.plan is not None and self.plan_runner is not None:
            for when in self.plan_runner.install(uid, decision.plan):
                if when > now:
                    self.push(when, _WAKE, uid)
            if self.collect_plans:
                for e in decision.plan.entries():
                    self.plan_rows.append(
                        {
                            "t": tick,
                            "resource": e.resource_id,
                            "task": "/".join(self.state.ref(e.task)),
                            "start": e.start_s,
                            "end": e.end_s,
                        }
                    )

    def dispatch(self, uid: str, now: int) -> None:
        if self.plan_runner is not None:
            assignments = self.plan_runner.dispatch(self.state, uid, now)
        else:
            assignments = self.state.start_eligible(uid, now)
        if not assignments:
            return
        heap, seq, trace, tasks = self.heap, self.push_seq, self.trace, self.tasks
        for h, rid in assignments:
            task = tasks[h]
            runtime = task.runtimes[task.types.index(self.type_ids[rid])]
            # a runtime is at least 1 s, so the finish is never in the past
            heappush(heap, (now + runtime, _FINISH, next(seq), h))
            trace.append(_START_ROW % (now, self.heads[self.workflow[h]], self.fields[task.id],
                                       rid, self.type_fields[rid], runtime))

    # -- main loop ---------------------------------------------------------------

    def run(self) -> RunResult:
        heap, state, on_finish = self.heap, self.state, self.on_finish
        while heap:
            when, rank, _seq, data = heapq.heappop(heap)
            state.clock = when
            if rank == _FINISH:
                on_finish(when, data)
            elif rank == _BOOT:
                self.on_boot(when, data)
            elif rank == _WAKE:
                # Only finishes and boots precede wakes at one instant, and
                # each dispatches its user after changing that user's state;
                # plans change only at ticks, which come last. So a wake after
                # its user's dispatch at this instant would start nothing.
                if self.plan_runner.dispatched_at(data) != when:
                    self.dispatch(data, when)
            elif rank == _ARRIVAL:
                self.on_arrival(when, data)
            elif rank == _TICK:
                self.on_tick(when)
        self.flush_trace()
        self.close_trace.detach()  # the result closes the file
        return RunResult(
            system=self.system,
            users=self.users,
            policy_name=self.policy.name,
            seed=self.seed,
            state=self.state,
            trace_file=self.trace_file,
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
    and the state checks each decision against the user's budget."""
    sim = _Sim(workflows, system, users, policy, seed, collect_plans)
    return sim.run()


__all__ = [
    "DecisionRecord",
    "RunResult",
    "TRACE_COLUMNS",
    "poisson_arrivals",
    "run",
    "validate_inputs",
]
