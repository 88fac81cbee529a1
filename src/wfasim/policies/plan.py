"""Plan-based autoscaling baselines.

Both policies size the supply with runtime estimates (a perfect oracle
here), build an execution plan for the next interval on the user's
resources, and release idle resources the plan leaves empty. They differ in
how supply is sized and in what order workflows enter the plan.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from ..model import OverCommitted, ResourceState, ResourceType, TaskSpec, TaskStatus
from ..state import SystemState, TaskRef
from .base import Decision, ExecutionPlan, PlanEntry, Policy, PolicyView, RuntimeOracle


def fastest_type(
    task: TaskSpec, types: tuple[ResourceType, ...], oracle: RuntimeOracle
) -> ResourceType:
    """Type with the smallest runtime; ties go to the cheaper type, then to
    the earlier type in the configured order."""
    best = None
    best_key = None
    for idx, rt in enumerate(types):
        key = (oracle(task, rt.id), rt.cost, idx)
        if best_key is None or key < best_key:
            best, best_key = rt, key
    assert best is not None
    return best


@dataclass
class _Slot:
    """A resource as the planner sees it: type plus next-free time."""

    id: int
    rtype_id: str
    available_s: int


def build_plan(
    state: SystemState,
    user: str,
    now: int,
    horizon_s: int,
    oracle: RuntimeOracle,
    workflow_order: list[str],
    typed: dict[TaskRef, str],
    extra_resources: list[tuple[int, str]],
) -> ExecutionPlan:
    """Consolidate tasks onto the user's resources for the next interval.

    Running tasks are pinned where they are. Tasks with an assigned type go
    to the earliest-available resource of that type. Every other task (and
    any typed task whose type has no resource) is then placed, workflow by
    workflow in the given order and in topological order within a workflow,
    on the resource giving the earliest start; a task enters the plan only
    when all its parents are finished or already planned. Placement stops
    contributing entries once a task could not start before the horizon.

    ``extra_resources`` lists (id, type) of allocations decided this tick but
    not applied yet; they become available after the boot delay.
    """
    plan = ExecutionPlan()
    slots: list[_Slot] = []
    for r in state.user_resources(user):
        if r.state is ResourceState.BUSY and r.running is not None:
            wf_id, task_id = r.running
            run = state.runs[wf_id]
            start = run.task_start_s[task_id]
            end = start + oracle(run.graph.tasks[task_id], r.rtype.id)
            plan.add(PlanEntry(r.id, wf_id, task_id, start, end, pinned=True))
            slots.append(_Slot(r.id, r.rtype.id, end))
        elif r.state is ResourceState.BOOTING:
            slots.append(_Slot(r.id, r.rtype.id, max(now, r.boot_ready_s or now)))
        elif r.state is ResourceState.IDLE:
            slots.append(_Slot(r.id, r.rtype.id, now))
    boot_ready = now + state.config.boot_delay_s
    for rid, rtype_id in extra_resources:
        slots.append(_Slot(rid, rtype_id, boot_ready))
    slots.sort(key=lambda s: s.id)
    if not slots:
        return plan

    placed: set[TaskRef] = set(plan.by_task)

    def place(ref: TaskRef, ready_s: int, candidates: list[_Slot]) -> bool:
        best: _Slot | None = None
        best_start = horizon_s
        for slot in candidates:
            start = max(ready_s, slot.available_s)
            if start < best_start:
                best, best_start = slot, start
        if best is None:
            return False
        wf_id, task_id = ref
        run = state.runs[wf_id]
        end = best_start + oracle(run.graph.tasks[task_id], best.rtype_id)
        plan.add(PlanEntry(best.id, wf_id, task_id, best_start, end))
        best.available_s = end
        placed.add(ref)
        return True

    by_type: dict[str, list[_Slot]] = {}
    for slot in slots:
        by_type.setdefault(slot.rtype_id, []).append(slot)

    # Phase 1: tasks that bought a specific type go onto that type.
    for wf_id in workflow_order:
        run = state.runs[wf_id]
        for task_id in run.graph.topo_order:
            ref = (wf_id, task_id)
            rtype_id = typed.get(ref)
            if rtype_id is None or ref in placed:
                continue
            candidates = by_type.get(rtype_id)
            if not candidates:
                continue  # no such resource; falls through to phase 2
            place(ref, now, candidates)

    # Phase 2: everything else, precedence permitting.
    for wf_id in workflow_order:
        run = state.runs[wf_id]
        if min(s.available_s for s in slots) >= horizon_s:
            break
        for task_id in run.graph.topo_order:
            ref = (wf_id, task_id)
            if run.status[task_id] is TaskStatus.FINISHED or ref in placed:
                continue
            ready = now
            plannable = True
            for parent in run.graph.parents[task_id]:
                if run.status[parent] is TaskStatus.FINISHED:
                    continue
                entry = plan.by_task.get((wf_id, parent))
                if entry is None:
                    plannable = False
                    break
                ready = max(ready, entry.end_s)
            if plannable:
                place(ref, ready, slots)
    return plan


def _release_candidates(state: SystemState, user: str, now: int, plan: ExecutionPlan) -> list[int]:
    """Idle resources at their billing end with nothing planned on them."""
    out = []
    for r in state.idle_resources(user):
        if r.billing_end_s is not None and r.billing_end_s <= now and not plan.has_tasks(r.id):
            out.append(r.id)
    return sorted(out)


def _pick_new_resources(
    state: SystemState,
    wanted: dict[str, int],
    budget_headroom: int,
    types: tuple[ResourceType, ...],
) -> dict[str, list[int]]:
    """Select free resource ids for the wanted per-type counts, cheapest type
    first, never exceeding the budget headroom."""
    alloc: dict[str, list[int]] = {}
    spend = 0
    for rt in sorted(types, key=lambda t: (t.cost, t.id)):
        want = wanted.get(rt.id, 0)
        if want <= 0:
            continue
        free = state.free_resources(rt.id)
        picked: list[int] = []
        for r in free:
            if len(picked) >= want or spend + rt.cost > budget_headroom:
                break
            picked.append(r.id)
            spend += rt.cost
        if picked:
            alloc[rt.id] = picked
    return alloc


class PlfPolicy(Policy):
    """Budget-per-workflow autoscaler.

    Splits the budget left after current reservations across workflows by
    priority, buys the fastest type for each eligible task a workflow can
    afford, pools what no workflow could spend for the remaining tasks in
    priority order, then plans the interval with workflows in seeded random
    order.
    """

    name = "plf"
    mode = "plan"

    def decide(self, view: PolicyView) -> Decision:
        state, user, now = view.state, view.user.id, view.now
        budget = view.user.budget
        steps: dict[str, float] = {}

        t0 = time.perf_counter()
        committed = state.allocated_cost(user)
        if committed > budget:
            raise OverCommitted(
                f"user {user}: reserved cost {committed} over budget {budget}"
            )
        remaining = budget - committed
        active = [w for w in state.user_workflows[user] if not state.runs[w].done]
        shares: dict[str, Fraction] = {}
        if active:
            weights = {w: state.runs[w].spec.priority for w in active}
            total_w = sum(weights.values())
            for w in active:
                if total_w > 0:
                    shares[w] = Fraction(remaining * weights[w], total_w)
                else:
                    shares[w] = Fraction(remaining, len(active))
        steps["distribute"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        typed: dict[TaskRef, str] = {}
        skipped: list[tuple[TaskRef, ResourceType]] = []
        for ref in state.eligible_tasks(user):
            wf_id, task_id = ref
            task = state.runs[wf_id].graph.tasks[task_id]
            rt = fastest_type(task, view.config.types, view.oracle)
            if shares[wf_id] >= rt.cost:
                shares[wf_id] -= rt.cost
                typed[ref] = rt.id
            else:
                skipped.append((ref, rt))
        pool = sum(shares.values(), Fraction(0))
        for ref, rt in skipped:
            if pool >= rt.cost:
                pool -= rt.cost
                typed[ref] = rt.id
        steps["supply"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        wanted: dict[str, int] = {}
        for rtype_id in typed.values():
            wanted[rtype_id] = wanted.get(rtype_id, 0) + 1
        alloc = _pick_new_resources(state, wanted, remaining, view.config.types)
        steps["allocate"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        order = list(active)
        view.rng.shuffle(order)
        extra = [
            (rid, rtype_id) for rtype_id, rids in alloc.items() for rid in rids
        ]
        plan = build_plan(
            state, user, now, view.horizon_s, view.oracle, order, typed, extra
        )
        steps["plan"] = time.perf_counter() - t0

        dealloc = _release_candidates(state, user, now, plan)
        diagnostics = {
            "t": view.tick,
            "user": user,
            "typed": len(typed),
            "alloc": {k: len(v) for k, v in alloc.items()},
            "planned": len(plan),
            "pool_left": float(pool) if active else 0.0,
        }
        return Decision(alloc=alloc, dealloc=dealloc, plan=plan,
                        diagnostics=diagnostics, step_seconds=steps)


class ScfPolicy(Policy):
    """Plan-scaling autoscaler.

    Sizes an unconstrained per-workflow supply (every task on its fastest
    type), scales it into the budget, allocates, and plans with workflows in
    priority order, ignoring the per-task type preferences.
    """

    name = "scf"
    mode = "plan"

    def decide(self, view: PolicyView) -> Decision:
        state, user, now = view.state, view.user.id, view.now
        budget = view.user.budget
        interval = view.config.interval_s
        types = view.config.types
        steps: dict[str, float] = {}

        t0 = time.perf_counter()
        committed = state.allocated_cost(user)
        if committed > budget:
            raise OverCommitted(
                f"user {user}: reserved cost {committed} over budget {budget}"
            )

        supply: dict[str, int] = {t.id: 0 for t in types}
        active = [w for w in state.user_workflows[user] if not state.runs[w].done]
        for wf_id in active:
            run = state.runs[wf_id]
            sums: dict[str, int] = {}
            for task_id in run.graph.topo_order:
                status = run.status[task_id]
                if status is TaskStatus.FINISHED:
                    continue
                task = run.graph.tasks[task_id]
                if status is TaskStatus.RUNNING:
                    rtype_id = state.resources[run.task_resource[task_id]].rtype.id
                    left = run.task_start_s[task_id] + view.oracle(task, rtype_id) - now
                    sums[rtype_id] = sums.get(rtype_id, 0) + max(1, left)
                else:
                    rt = fastest_type(task, types, view.oracle)
                    sums[rt.id] = sums.get(rt.id, 0) + view.oracle(task, rt.id)
            for rtype_id, total in sums.items():
                supply[rtype_id] += math.ceil(Fraction(total, interval))
        steps["supply"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        scaled = scf_scale_supply(supply, types, budget)
        steps["scale"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        have = state.counts_by_type(user)
        wanted = {
            t.id: max(0, scaled[t.id] - have[t.id]) for t in types
        }
        alloc = _pick_new_resources(state, wanted, budget - committed, types)
        steps["allocate"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        order = sorted(
            active,
            key=lambda w: (
                -state.runs[w].spec.priority,
                state.runs[w].spec.arrival_s,
                state.runs[w].seq,
            ),
        )
        extra = [
            (rid, rtype_id) for rtype_id, rids in alloc.items() for rid in rids
        ]
        plan = build_plan(
            state, user, now, view.horizon_s, view.oracle, order, {}, extra
        )
        steps["plan"] = time.perf_counter() - t0

        dealloc = _release_candidates(state, user, now, plan)
        diagnostics = {
            "t": view.tick,
            "user": user,
            "supply": supply,
            "scaled": scaled,
            "alloc": {k: len(v) for k, v in alloc.items()},
            "planned": len(plan),
        }
        return Decision(alloc=alloc, dealloc=dealloc, plan=plan,
                        diagnostics=diagnostics, step_seconds=steps)


def scf_scale_supply(
    supply: dict[str, int], types: tuple[ResourceType, ...], budget: int
) -> dict[str, int]:
    """Shrink or stretch per-type counts to the budget.

    When the unconstrained supply is too expensive, every count is scaled by
    budget/cost and floored. Leftover budget is then spent round-robin over
    the predicted types, cheapest first, until even the cheapest predicted
    type is unaffordable.
    """
    cost = {t.id: t.cost for t in types}
    total_cost = sum(supply[t.id] * cost[t.id] for t in types)
    if total_cost > budget:
        factor = Fraction(budget, total_cost)
        scaled = {t.id: int(supply[t.id] * factor) for t in types}
    else:
        scaled = dict(supply)
    leftover = budget - sum(scaled[t.id] * cost[t.id] for t in types)
    predicted = [
        t for t in sorted(types, key=lambda t: (t.cost, t.id)) if supply[t.id] > 0
    ]
    if not predicted:
        return scaled
    cheapest = predicted[0].cost
    while leftover >= cheapest:
        for t in predicted:
            if leftover >= t.cost:
                scaled[t.id] += 1
                leftover -= t.cost
    return scaled


__all__ = [
    "PlfPolicy",
    "ScfPolicy",
    "build_plan",
    "fastest_type",
    "scf_scale_supply",
]
