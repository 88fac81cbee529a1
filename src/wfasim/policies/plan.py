"""Plan-based autoscaling baselines.

Both policies size the supply with runtime estimates (a perfect oracle
here), build an execution plan for the next interval on the user's
resources, and release idle resources the plan leaves empty. They differ in
how supply is sized and in what order workflows enter the plan.

They read the user's machines, workflows and tasks from the view's
runtime-free ``observation``, as PFA does. What PFA lacks is the runtime
knowledge: the view's ``oracle``, asked about the ``TaskSpec`` of a handle
in the view's ``tasks``.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from typing import TYPE_CHECKING

from ..model import ResourceType, TaskSpec
from .base import Decision, ExecutionPlan, PlanEntry, Policy, PolicyView, RuntimeOracle, pick_free

if TYPE_CHECKING:
    from ..state import UserFacade

# Builds a PlanEntry from a tuple of its fields in C: the named tuple's own
# __new__ is a Python function, and a planner builds one entry per placement.
_new_entry = tuple.__new__


def fastest_type(
    task: TaskSpec, types: tuple[ResourceType, ...], oracle: RuntimeOracle
) -> ResourceType:
    """Type with the smallest runtime; ties go to the cheaper type, then to
    the earlier type in the given order. The planners pass the types with
    machines, and the engine requires every task to have a runtime on each."""
    best = None
    best_key = None
    for idx, rt in enumerate(types):
        key = (oracle(task, rt.id), rt.cost, idx)
        if best_key is None or key < best_key:
            best, best_key = rt, key
    assert best is not None
    return best


def earliest_slot(
    available: list[int], ready_s: int, horizon_s: int
) -> tuple[int, int] | None:
    """(position, start) of the slot where a task ready at ``ready_s``
    starts first, the lowest position among ties, or None when no start
    falls before the horizon. A slot's start is ``max(ready_s, free time)``.
    """
    earliest = min(available)
    if earliest >= ready_s:
        start, i = earliest, available.index(earliest)
    else:  # some slot is free by ready_s: the lowest such position wins
        start, i = ready_s, 0
        while available[i] > ready_s:  # a plain loop: no generator to build
            i += 1
    return None if start >= horizon_s else (i, start)


def build_plan(
    view: PolicyView,
    workflow_order: list[str],
    typed: dict[int, str],
    extra_resources: list[tuple[int, str]],
) -> ExecutionPlan:
    """Consolidate tasks onto the user's resources for the next interval.

    Running tasks are pinned where they are. Eligible tasks with an
    assigned type (keyed by task handle) go to the earliest-available
    resource of that type. Every other task (and any typed task whose type
    has no resource) is then placed, workflow by workflow in the given order
    and in topological order within a workflow, on the resource giving the
    earliest start; a task enters the plan only when all its parents are
    finished or already planned. Placement stops contributing entries once a
    task could not start before the view's horizon.

    ``extra_resources`` lists (id, type) of allocations decided this tick but
    not applied yet; they become available after the boot delay.

    Neither phase visits a task it cannot plan: the first visits only the
    typed tasks, the second walks each workflow from its frontier and
    reaches a task only once all its unfinished parents are in the plan.
    Each placement reads a flat list of next-free times, all slots' or one
    type's, with C-level ``min`` and ``index`` (see :func:`earliest_slot`).
    """
    obs, tasks, oracle, now = view.observation, view.tasks, view.oracle, view.now
    horizon_s = view.horizon_s
    plan = ExecutionPlan()
    add, planned = plan.add, plan.by_task
    slots: list[tuple[int, str, int]] = []  # (id, type id, next free time)
    for rid, rtype_id, h, time_s in obs.held():
        if h >= 0:  # busy since time_s
            end = time_s + oracle(tasks[h], rtype_id)
            add(PlanEntry(rid, h, time_s, end, True))
            slots.append((rid, rtype_id, end))
        else:  # booting or idle, free from time_s
            slots.append((rid, rtype_id, max(now, time_s)))
    boot_ready = now + view.config.boot_delay_s
    for rid, rtype_id in extra_resources:
        slots.append((rid, rtype_id, boot_ready))
    if not slots:
        return plan
    slots.sort()
    slot_ids = [s[0] for s in slots]
    slot_types = [s[1] for s in slots]
    available = [s[2] for s in slots]
    # per type: positions in the flat lists, and the same next-free times
    by_type: dict[str, tuple[list[int], list[int]]] = {}
    local: list[int] = []  # position of each slot in its type's list
    for pos, (_rid, rtype_id, free_s) in enumerate(slots):
        positions, times = by_type.setdefault(rtype_id, ([], []))
        local.append(len(positions))
        positions.append(pos)
        times.append(free_s)

    def place(h: int, ready_s: int, rtype_id: str | None) -> int | None:
        """Put a task on the candidate with the earliest start before the
        horizon, if any: all slots, or the slots of one type. Returns the
        planned end, or None when nothing starts before the horizon."""
        if rtype_id is None:
            found = earliest_slot(available, ready_s, horizon_s)
            if found is None:
                return None
            pos, start = found
            rtype_id = slot_types[pos]
        else:
            positions, times = by_type[rtype_id]
            found = earliest_slot(times, ready_s, horizon_s)
            if found is None:
                return None
            pos, start = positions[found[0]], found[1]
        end = start + oracle(tasks[h], rtype_id)
        add(_new_entry(PlanEntry, (slot_ids[pos], h, start, end, False)))
        available[pos] = end
        by_type[rtype_id][1][local[pos]] = end
        return end

    # Phase 1: tasks that bought a specific type go onto that type, in
    # workflow order and topological order within a workflow.
    wf_of = obs.workflow_of
    if typed:
        rank = {wf_id: k for k, wf_id in enumerate(workflow_order)}
        for _k, h in sorted((rank[wf_of(h)], h) for h in typed if wf_of(h) in rank):
            rtype_id = typed[h]
            if rtype_id in by_type and h not in planned:
                place(h, now, rtype_id)
            # a type with no resource falls through to phase 2

    # Phase 2: everything else, precedence permitting. Each workflow is
    # walked from its frontier in topological order: a min-heap of handles,
    # where a child is pushed once its last unfinished parent is planned.
    # A child's index exceeds its parents', so tasks leave the heap in
    # topological order, and a task is reached exactly when a scan in
    # topological order would find all its parents finished or planned.
    fronts: dict[str, list[int]] = {}
    children, blocked = obs.children, obs.unfinished_parents
    for h in obs.frontier():
        fronts.setdefault(wf_of(h), []).append(h)
    for wf_id in workflow_order:
        if min(available) >= horizon_s:
            break
        heap = fronts.get(wf_id)
        if not heap:
            continue
        heapq.heapify(heap)
        left: dict[int, int] = {}  # children's parents still to be planned
        ready: dict[int, int] = {}  # children's latest planned parent end
        while heap:
            h = heapq.heappop(heap)
            entry = planned.get(h)
            if entry is None:
                end = place(h, ready.get(h, now), None)
                if end is None:
                    continue
            else:
                end = entry.end_s
            for c in children(h):
                if end > ready.get(c, now):
                    ready[c] = end
                count = left.get(c, blocked(c)) - 1
                if count == 0:
                    heapq.heappush(heap, c)
                else:
                    left[c] = count
    return plan


def _release_candidates(obs: UserFacade, plan: ExecutionPlan) -> list[int]:
    """Idle resources with nothing planned on them, lowest id first."""
    return [rid for rid, _since in obs.idle() if not plan.has_tasks(rid)]


def _headroom(view: PolicyView) -> int:
    """Budget left after the user's reservations. The engine refuses any
    reservation over budget, so in a run this is never negative."""
    counts = view.observation.counts_by_type()
    return view.user.budget - sum(t.cost * counts[t.id] for t in view.config.types)


def _plan_decision(
    view: PolicyView,
    wanted: dict[str, int],
    headroom: int,
    order: list[str],
    typed: dict[int, str],
    steps: dict[str, float],
    diagnostics: dict,
) -> Decision:
    """The tail of a planner's decision: reserve free machines for the
    wanted per-type counts, cheapest type first (ties to the lower type id);
    plan the interval on the user's machines plus these, with workflows in
    the given order; and release the idle machines that the plan leaves
    empty."""
    t0 = time.perf_counter()
    types = [(t.id, t.cost) for t in sorted(view.config.types, key=lambda t: (t.cost, t.id))]
    picked = pick_free(view.observation.free_ids, types, wanted, headroom)
    steps["allocate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    plan = build_plan(view, order, typed, picked)
    steps["plan"] = time.perf_counter() - t0
    diagnostics.update(
        t=view.tick, user=view.user.id, alloc=dict(Counter(t for _, t in picked)),
        planned=len(plan),
    )
    return Decision(alloc=[rid for rid, _t in picked],
                    dealloc=_release_candidates(view.observation, plan),
                    plan=plan, diagnostics=diagnostics, step_seconds=steps)


class _Planner(Policy):
    """What PLF and SCF share: plan-following dispatch, and a table of each
    task's fastest type with machines and its runtime there, by handle.

    The table holds one task list's tasks under one oracle. It grows by the
    tasks that arrived since the last decision, so :func:`fastest_type` runs
    once per task, and it starts over when the view brings another task
    list (a new run) or another oracle."""

    mode = "plan"

    def __init__(self) -> None:
        self._fastest_for: tuple[object, object] = (None, None)
        self._fastest: tuple[list[ResourceType], list[int]] = ([], [])

    def fastest(self, view: PolicyView) -> tuple[list[ResourceType], list[int]]:
        """(fastest type, runtime there) of every arrived task, each a list
        indexed by handle."""
        tasks, oracle = view.tasks, view.oracle
        seen_tasks, seen_oracle = self._fastest_for
        if tasks is not seen_tasks or oracle is not seen_oracle:
            self._fastest_for = (tasks, oracle)
            self._fastest = ([], [])
        fast, fast_s = self._fastest
        types = view.config.types_with_machines()
        for task in tasks[len(fast):]:
            rt = fastest_type(task, types, oracle)
            fast.append(rt)
            fast_s.append(oracle(task, rt.id))
        return fast, fast_s


class PlfPolicy(_Planner):
    """Budget-per-workflow autoscaler.

    Splits the budget left after current reservations across workflows by
    priority, buys the fastest type for each eligible task a workflow can
    afford, pools what no workflow could spend for the remaining tasks in
    priority order, then plans the interval with workflows in seeded random
    order.
    """

    name = "plf"

    def decide(self, view: PolicyView) -> Decision:
        if not view.config.types_with_machines():  # no machine to plan on
            return Decision()
        obs = view.observation
        steps: dict[str, float] = {}

        t0 = time.perf_counter()
        remaining = _headroom(view)
        workflows = obs.workflows()
        active = [w for w, *_ in workflows]
        # exact shares: int numerators over one denominator, den
        total_w = sum(priority for _w, priority, _a, _hs in workflows)
        if total_w > 0:
            den = total_w
            shares = {w: remaining * priority for w, priority, _a, _hs in workflows}
        else:
            den = len(active)
            shares = dict.fromkeys(active, remaining)
        steps["distribute"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        typed: dict[int, str] = {}
        skipped: list[tuple[int, ResourceType]] = []
        fast = self.fastest(view)[0]
        wf_of = obs.workflow_of
        for h in obs.eligible():
            wf_id = wf_of(h)
            rt = fast[h]
            cost = rt.cost * den
            if shares[wf_id] >= cost:
                shares[wf_id] -= cost
                typed[h] = rt.id
            else:
                skipped.append((h, rt))
        pool = sum(shares.values())
        for h, rt in skipped:
            cost = rt.cost * den
            if pool >= cost:
                pool -= cost
                typed[h] = rt.id
        wanted = Counter(typed.values())
        steps["supply"] = time.perf_counter() - t0

        order = list(active)
        view.rng.shuffle(order)
        # int true division rounds correctly, as float(Fraction) does
        diagnostics = {"typed": len(typed), "pool_left": pool / den if active else 0.0}
        return _plan_decision(view, wanted, remaining, order, typed, steps, diagnostics)


class ScfPolicy(_Planner):
    """Plan-scaling autoscaler.

    Sizes an unconstrained per-workflow supply (every task on its fastest
    type), scales it into the budget, allocates, and plans with workflows in
    priority order, ignoring the per-task type preferences.
    """

    name = "scf"

    def decide(self, view: PolicyView) -> Decision:
        if not view.config.types_with_machines():  # no machine to plan on
            return Decision()
        obs, oracle, tasks, now = view.observation, view.oracle, view.tasks, view.now
        budget = view.user.budget
        interval = view.config.interval_s
        types = view.config.types
        steps: dict[str, float] = {}

        t0 = time.perf_counter()
        headroom = _headroom(view)

        supply: dict[str, int] = {t.id: 0 for t in types}
        fast, fast_s = self.fastest(view)
        # running task -> (type id, start) of the machine it runs on
        running = {h: (rtype_id, start) for _rid, rtype_id, h, start in obs.held() if h >= 0}
        workflows = obs.workflows()
        for _w, _priority, _arrival, handles in workflows:
            sums: dict[str, int] = {}
            for h in handles:
                if h in running:
                    rtype_id, start = running[h]
                    left = start + oracle(tasks[h], rtype_id) - now
                    sums[rtype_id] = sums.get(rtype_id, 0) + max(1, left)
                else:
                    rtype_id = fast[h].id
                    sums[rtype_id] = sums.get(rtype_id, 0) + fast_s[h]
            for rtype_id, total in sums.items():
                supply[rtype_id] += -(-total // interval)  # ceiling division
        steps["supply"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        scaled = scf_scale_supply(supply, types, budget)
        have = obs.counts_by_type()
        wanted = {t.id: scaled[t.id] - have[t.id] for t in types}
        steps["scale"] = time.perf_counter() - t0

        # workflows are in arrival sequence and the sort is stable
        order = [w for w, *_ in sorted(workflows, key=lambda wf: (-wf[1], wf[2]))]
        diagnostics = {"supply": supply, "scaled": scaled}
        return _plan_decision(view, wanted, headroom, order, {}, steps, diagnostics)


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
        scaled = {t.id: supply[t.id] * budget // total_cost for t in types}
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
    "earliest_slot",
    "fastest_type",
    "scf_scale_supply",
]
