"""Plan-based policies: planner, budget-per-workflow, and plan scaling."""

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_wf, edge_maps, handle, reference_order, two_type_system, users, wf
from wfasim import engine
from wfasim.dagops import WorkflowGraph
from wfasim.model import ResourceState, ResourceType, TaskSpec, UserConfig
from wfasim.policies.base import ExecutionPlan, PlanEntry, PolicyView, perfect_oracle
from wfasim.policies.plan import (
    PlfPolicy,
    ScfPolicy,
    build_plan,
    earliest_slot,
    fastest_type,
    scf_scale_supply,
)
from wfasim.state import SystemState, UserFacade
from wfasim.workload import generate_workload

SYS = two_type_system(small=8, large=4, interval_s=60)


def make_state(workflows, system=SYS, budgets=(("u1", 100),)):
    state = SystemState(system, users(*budgets))
    for w in workflows:
        state.arrive(WorkflowGraph(w))
    return state


def view_for(state, budget=100, now=0, seed=0):
    """What the engine hands u1's policy at ``now``: the facade, the
    perfect oracle and the per-handle task list."""
    return PolicyView(
        now=now,
        tick=now // state.config.interval_s,
        user=UserConfig("u1", budget),
        config=state.config,
        observation=UserFacade(state, "u1"),
        oracle=perfect_oracle,
        tasks=state.tasks,
        rng=random.Random(seed),
    )


def reserved(state, decision):
    """{type id: count} of the machines a decision reserves."""
    return Counter(state.resources[rid].rtype.id for rid in decision.alloc)


# -- fastest type ------------------------------------------------------------------


def test_fastest_type_picks_smallest_runtime():
    task = TaskSpec("t", {"small": 4, "large": 2})
    assert fastest_type(task, SYS.types, perfect_oracle).id == "large"


def test_fastest_type_tie_goes_to_cheaper():
    task = TaskSpec("t", {"small": 3, "large": 3})
    assert fastest_type(task, SYS.types, perfect_oracle).id == "small"


def test_fastest_type_full_tie_goes_to_config_order():
    types = (ResourceType("a", 2), ResourceType("b", 2))
    task = TaskSpec("t", {"a": 3, "b": 3})
    assert fastest_type(task, types, perfect_oracle).id == "a"


def test_fastest_type_skips_types_the_task_has_no_runtime_on():
    # the engine accepts such a task only when the system has no machines of
    # the type, and the oracle has no runtime to give for it; the planners
    # range over the types with machines, so they never ask
    task = TaskSpec("t", {"small": 4})
    types = two_type_system(small=2, large=0).types_with_machines()
    assert fastest_type(task, types, perfect_oracle).id == "small"


@pytest.mark.parametrize("make", [PlfPolicy, ScfPolicy])
def test_planner_reused_across_runs_matches_fresh_ones(make):
    # the second run's handles name other tasks: a table kept from the first
    # run would buy the wrong types
    system = two_type_system(small=4, large=4, interval_s=60)
    budgets = users(("u1", 12), ("u2", 12))
    reused = make()
    for seed in (3, 4):
        workflows = engine.poisson_arrivals(
            generate_workload(10, users=["u1", "u2"], seed=seed), 0.3, 8, seed
        )
        fresh = engine.run(workflows, system, budgets, make(), seed=seed)
        again = engine.run(workflows, system, budgets, reused, seed=seed)
        assert again.trace == fresh.trace


def test_scf_supply_follows_a_swapped_oracle():
    # small is fastest under the true runtimes, large under swapped ones
    w = chain_wf("w1", [{"small": 30, "large": 40}, {"small": 30, "large": 40}])
    state = make_state([w])
    policy = ScfPolicy()
    assert policy.decide(view_for(state, budget=12)).diagnostics["supply"] == {
        "small": 1, "large": 0
    }

    def swapped(task, rtype_id):
        return task.runtime_by_type["large" if rtype_id == "small" else "small"]

    view = dataclasses.replace(view_for(state, budget=12), oracle=swapped)
    assert policy.decide(view).diagnostics["supply"] == {"small": 0, "large": 1}


# -- placement -------------------------------------------------------------------


def linear_scan(available, ready_s, horizon_s):
    """The planner's original placement rule, kept as the reference: the
    first slot, in position order, with the smallest start before the
    horizon."""
    best, best_start = None, horizon_s
    for i, free_s in enumerate(available):
        start = max(ready_s, free_s)
        if start < best_start:
            best, best_start = i, start
    return None if best is None else (best, best_start)


@settings(max_examples=500, deadline=None)
@given(
    # few distinct values, so free times tie with each other and with ready
    available=st.lists(st.integers(0, 12), min_size=1, max_size=40),
    ready_s=st.integers(0, 14),
    horizon_s=st.integers(0, 14),
)
def test_earliest_slot_matches_linear_scan(available, ready_s, horizon_s):
    assert earliest_slot(available, ready_s, horizon_s) == linear_scan(
        available, ready_s, horizon_s
    )


def test_earliest_slot_past_horizon_and_ties():
    assert earliest_slot([60, 70, 60], 0, 60) is None  # every slot past the horizon
    assert earliest_slot([5, 5], 70, 60) is None  # ready past the horizon
    assert earliest_slot([9, 3, 3], 0, 60) == (1, 3)  # earliest, lowest position
    assert earliest_slot([9, 3, 1], 4, 60) == (1, 4)  # free by ready: lowest position
    assert earliest_slot([9, 4, 1], 4, 60) == (1, 4)


# -- planner ----------------------------------------------------------------------


def test_typed_tasks_chain_on_one_resource():
    w = wf("w1", [("a", {"small": 20, "large": 20}),
                  ("b", {"small": 20, "large": 20})])
    state = make_state([w])
    state.apply("u1", [], [0], now=0)
    plan = build_plan(
        view_for(state, now=0),  # horizon 60
        workflow_order=["w1"],
        typed={handle(state, "w1", "a"): "small", handle(state, "w1", "b"): "small"},
        extra_resources=[],
    )
    by_task = {state.ref(e.task): e for e in plan.entries()}
    assert by_task[("w1", "a")].start_s == 0
    assert by_task[("w1", "a")].end_s == 20
    assert by_task[("w1", "b")].start_s == 20
    assert by_task[("w1", "b")].resource_id == 0


def test_planner_horizon_cutoff():
    w = wf("w1", [(f"t{i}", {"small": 30, "large": 30}) for i in range(3)])
    state = make_state([w])
    state.apply("u1", [], [0], now=0)
    plan = build_plan(view_for(state), ["w1"], {}, [])
    starts = sorted(e.start_s for e in plan.entries())
    # third task would start at 60, the horizon: not planned
    assert starts == [0, 30]


def test_planner_respects_precedence():
    w = chain_wf("w1", [{"small": 10, "large": 10}, {"small": 10, "large": 10}])
    state = make_state([w])
    state.apply("u1", [], [0, 1], now=0)
    plan = build_plan(view_for(state), ["w1"], {}, [])
    by_task = {state.ref(e.task): e for e in plan.entries()}
    # the child cannot start before its parent ends, even on the idle twin
    assert by_task[("w1", "t1")].start_s >= by_task[("w1", "t0")].end_s


def test_planner_pins_running_tasks():
    w = chain_wf("w1", [{"small": 25, "large": 25}, {"small": 10, "large": 10}])
    state = make_state([w])
    state.apply("u1", [], [0], now=0)
    state.start_task(handle(state, "w1", "t0"), 0, now=0)
    plan = build_plan(view_for(state, now=10),  # horizon 70
                      workflow_order=["w1"], typed={}, extra_resources=[])
    by_task = {state.ref(e.task): e for e in plan.entries()}
    pinned = by_task[("w1", "t0")]
    assert pinned.pinned
    assert (pinned.start_s, pinned.end_s) == (0, 25)
    assert by_task[("w1", "t1")].start_s == 25


def test_planner_uses_extra_resources_after_boot_delay():
    system = two_type_system(boot_delay_s=15)
    w = wf("w1", [("a", {"small": 10, "large": 10})])
    state = make_state([w], system=system)
    plan = build_plan(view_for(state), workflow_order=["w1"], typed={},
                      extra_resources=[(0, "small")])
    entry = plan.entries()[0]
    assert entry.start_s == 15


def test_typed_task_with_absent_type_planned_in_second_phase():
    w = wf("w1", [("a", {"small": 10, "large": 4})])
    state = make_state([w])
    state.apply("u1", [], [0], now=0)  # a small machine
    plan = build_plan(view_for(state), ["w1"],
                      typed={handle(state, "w1", "a"): "large"}, extra_resources=[])
    entry = plan.entries()[0]
    assert entry.resource_id == 0
    assert entry.end_s - entry.start_s == 10  # ran on small after all


def test_planner_places_on_earliest_available_lowest_id():
    w = wf("w1", [("a", {"small": 10, "large": 10})])
    state = make_state([w])
    state.apply("u1", [], [2, 1], now=0)
    plan = build_plan(view_for(state), ["w1"], {}, [])
    assert plan.entries()[0].resource_id == 1


def scan_build_plan(state, user, now, horizon_s, oracle, workflow_order, typed, extra_resources,
                    started):
    """The planner before its frontier walk, kept as the reference: the same
    slots and phase 1, then a phase 2 that scans every unfinished task of
    each workflow in topological order and places those whose parents are
    all finished or planned. Tasks, parents and order come from the specs,
    whether a task is finished from the user's unfinished workflows, and its
    plan entry from its handle. ``started`` maps each running task's handle
    to the time the caller started it."""
    plan = ExecutionPlan()
    task_of = {(w.spec.id, t.id): t for w in state.runs.values() for t in w.spec.tasks}
    unfinished = {h for *_, hs in UserFacade(state, user).workflows() for h in hs}

    def finished(wf_id, task_id):
        return handle(state, wf_id, task_id) not in unfinished

    slots = []
    for r in (r for r in state.resources if r.user == user):
        if r.state is ResourceState.BUSY:
            wf_id, task_id = state.ref(r.running)
            start = started[r.running]
            end = start + oracle(task_of[(wf_id, task_id)], r.rtype.id)
            plan.add(PlanEntry(r.id, r.running, start, end, pinned=True))
            slots.append((r.id, r.rtype.id, end))
        elif r.state is ResourceState.BOOTING:
            slots.append((r.id, r.rtype.id, max(now, r.free_s)))
        else:
            slots.append((r.id, r.rtype.id, now))
    slots += [(rid, rtype_id, now + state.config.boot_delay_s) for rid, rtype_id in extra_resources]
    if not slots:
        return plan
    slots.sort()
    available = {s[0]: s[2] for s in slots}

    def place(wf_id, task_id, ready_s, rtype_id):
        candidates = [s for s in slots if rtype_id is None or s[1] == rtype_id]
        found = earliest_slot([available[s[0]] for s in candidates], ready_s, horizon_s)
        if found is not None:
            rid, slot_type, _free = candidates[found[0]]
            end = found[1] + oracle(task_of[(wf_id, task_id)], slot_type)
            plan.add(PlanEntry(rid, handle(state, wf_id, task_id), found[1], end))
            available[rid] = end

    rank = {wf_id: k for k, wf_id in enumerate(workflow_order)}
    for h in sorted((h for h in typed if state.ref(h)[0] in rank),
                    key=lambda h: (rank[state.ref(h)[0]], h)):
        if any(s[1] == typed[h] for s in slots) and h not in plan.by_task:
            place(*state.ref(h), now, typed[h])
    for wf_id in workflow_order:
        if min(available.values()) >= horizon_s:
            break
        spec = state.runs[wf_id].spec
        parents, _ = edge_maps(spec)
        for task_id in reference_order(spec):
            if finished(wf_id, task_id) or handle(state, wf_id, task_id) in plan.by_task:
                continue
            ready = now
            for parent in parents[task_id]:
                if finished(wf_id, parent):
                    continue
                entry = plan.by_task.get(handle(state, wf_id, parent))
                if entry is None:
                    break
                ready = max(ready, entry.end_s)
            else:
                place(wf_id, task_id, ready, None)
    return plan


@st.composite
def random_dags(draw):
    """Workflows of up to 9 tasks with random edges; task ids are shuffled
    against creation order, so topological order is not id order."""
    specs = []
    for k in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 9))
        ids = draw(st.permutations([f"t{i}" for i in range(n)]))
        edges = [(ids[a], ids[b]) for b in range(n) for a in range(b)
                 if draw(st.booleans())]
        runtimes = st.fixed_dictionaries({"small": st.integers(1, 40), "large": st.integers(1, 40)})
        tasks = [(tid, draw(runtimes)) for tid in ids]
        specs.append(wf(f"w{k}", tasks, edges, priority=draw(st.integers(0, 2))))
    return specs


@settings(max_examples=300, deadline=None)
@given(specs=random_dags(), boot_delay_s=st.sampled_from((0, 7)), data=st.data())
def test_frontier_walk_plans_what_the_scan_plans(specs, boot_delay_s, data):
    system = two_type_system(small=3, large=3, interval_s=60, boot_delay_s=boot_delay_s)
    state = make_state(specs, system=system)
    now = 0
    started = {}  # handle -> time it started
    for _ in range(data.draw(st.integers(0, 25), label="steps")):
        now += data.draw(st.sampled_from((0, 5, 20)), label="advance")
        res = state.resources
        op = data.draw(st.sampled_from(("reserve", "boot", "start", "finish")), label="op")
        if op == "reserve" and (free := [r.id for r in res if r.state is ResourceState.DOWN]):
            state.apply("u1", [], [data.draw(st.sampled_from(free))], now)
        elif op == "boot" and (booting := [r.id for r in res if r.state is ResourceState.BOOTING]):
            state.boot_complete(data.draw(st.sampled_from(booting)), now)
        elif op == "start" and (idle := state.idle_resources("u1")) and state.eligible_tasks("u1"):
            h = data.draw(st.sampled_from(state.eligible_tasks("u1")))
            state.start_task(h, data.draw(st.sampled_from(idle)), now)
            started[h] = now
        elif op == "finish" and (busy := [r for r in res if r.state is ResourceState.BUSY]):
            state.finish_task(data.draw(st.sampled_from(busy)).running, now)
    active = [w for w, *_ in UserFacade(state, "u1").workflows()]
    order = data.draw(st.permutations(active), label="order")
    typed = {
        h: data.draw(st.sampled_from(("small", "large")))
        for h in data.draw(st.lists(st.sampled_from(state.eligible_tasks("u1") or [None]),
                                    unique=True), label="typed")
        if h is not None
    }
    free = [(r.id, r.rtype.id) for r in state.resources if r.state is ResourceState.DOWN]
    extra = data.draw(st.lists(st.sampled_from(free or [None]), unique=True, max_size=2))
    extra = [e for e in extra if e is not None]
    interval_s = data.draw(st.sampled_from((30, 60, 120)), label="horizon")
    view = dataclasses.replace(
        view_for(state, now=now), config=dataclasses.replace(state.config, interval_s=interval_s)
    )
    expected = scan_build_plan(state, "u1", now, now + interval_s, perfect_oracle, order, typed,
                               extra, started)
    assert build_plan(view, order, typed, extra).entries() == expected.entries()


# -- budget-per-workflow policy ------------------------------------------------------


def test_single_task_buys_the_fastest_type():
    # task runs 4 s on small, 2 s on large; budget 5 affords the large
    w = wf("w1", [("a", {"small": 4, "large": 2})])
    state = make_state([w])
    decision = PlfPolicy().decide(view_for(state, budget=5))
    assert decision.alloc == [8]  # the lowest large
    entry = decision.plan.entries()[0]
    assert entry.end_s - entry.start_s == 2


def test_unaffordable_fastest_type_is_skipped_not_downgraded():
    # budget 4 cannot buy the large; the policy skips rather than placing
    # the task on a slower affordable type
    w = wf("w1", [("a", {"small": 4, "large": 2})])
    state = make_state([w])
    decision = PlfPolicy().decide(view_for(state, budget=4))
    assert decision.alloc == []
    assert len(decision.plan) == 0
    assert decision.diagnostics["typed"] == 0


def test_runtime_tie_buys_the_cheaper_type():
    w = wf("w1", [("a", {"small": 3, "large": 3})])
    state = make_state([w])
    decision = PlfPolicy().decide(view_for(state, budget=5))
    assert decision.alloc == [0]  # the lowest small


def test_priority_proportional_shares():
    # remaining 9 split 2:1 gives 6 and 3; the large (5) fits only the first
    wa = wf("wa", [("a", {"small": 10, "large": 2})], priority=2)
    wb = wf("wb", [("a", {"small": 10, "large": 2})], priority=1)
    state = make_state([wa, wb])
    decision = PlfPolicy().decide(view_for(state, budget=9))
    assert decision.diagnostics["typed"] == 1
    assert reserved(state, decision)["large"] == 1
    # leftovers 1 + 3 = 4 cannot fund the second large
    assert decision.diagnostics["pool_left"] == 4.0


def test_leftover_pool_funds_skipped_tasks():
    # shares 8 and 2: the low-priority workflow alone cannot afford a large,
    # but the pooled leftover 7 + 2 can
    wa = wf("wa", [("a", {"small": 1, "large": 1})], priority=4)
    wb = wf("wb", [("a", {"small": 10, "large": 2})], priority=1)
    state = make_state([wa, wb])
    decision = PlfPolicy().decide(view_for(state, budget=10))
    assert decision.diagnostics["typed"] == 2
    assert reserved(state, decision) == {"small": 1, "large": 1}  # wa's tie goes cheap


def test_equal_split_when_all_priorities_zero():
    wa = wf("wa", [("a", {"small": 2, "large": 2})], priority=0)
    wb = wf("wb", [("a", {"small": 2, "large": 2})], priority=0)
    state = make_state([wa, wb])
    decision = PlfPolicy().decide(view_for(state, budget=10))
    assert decision.diagnostics["typed"] == 2


def test_plan_rejects_a_task_planned_twice():
    plan = ExecutionPlan()
    plan.add(PlanEntry(0, 7, 0, 10))
    with pytest.raises(ValueError, match="task 7 planned twice"):
        plan.add(PlanEntry(1, 7, 20, 30))


def test_plan_rejects_overlap_on_a_resource():
    plan = ExecutionPlan()
    plan.add(PlanEntry(0, 7, 0, 10))
    plan.add(PlanEntry(0, 8, 10, 20))  # back to back is no overlap
    with pytest.raises(ValueError, match="overlap on resource 0"):
        plan.add(PlanEntry(0, 9, 15, 25))


@pytest.mark.parametrize("policy", [PlfPolicy, ScfPolicy])
@pytest.mark.parametrize("budget", [5, 4])  # headroom 0, and -1
def test_planners_reserve_nothing_without_headroom(policy, budget):
    # the held large (cost 5) takes the whole budget, or more: neither
    # planner reserves, though one unit more would buy a small, the fastest
    wa = wf("wa", [("a", {"small": 2, "large": 4})])
    wb = wf("wb", [("a", {"small": 2, "large": 4})])
    state = make_state([wa, wb])
    large = next(r.id for r in state.resources if r.rtype.id == "large")
    state.apply("u1", [], [large], now=0)
    assert policy().decide(view_for(state, budget=budget)).alloc == []
    assert policy().decide(view_for(state, budget=6)).alloc == [0]


def test_idle_at_billing_end_released_when_plan_is_empty():
    state = make_state([])
    state.apply("u1", [], [0], now=0)
    decision = PlfPolicy().decide(view_for(state, budget=10, now=60))
    assert decision.dealloc == [0]


def test_idle_with_planned_work_is_kept():
    w = wf("w1", [("a", {"small": 4, "large": 4})])
    state = make_state([w])
    state.apply("u1", [], [0], now=0)
    decision = PlfPolicy().decide(view_for(state, budget=10, now=60))
    assert decision.dealloc == []
    assert decision.plan.has_tasks(0)


def test_purchases_clamped_by_free_capacity():
    # nine one-task workflows want nine smalls; only eight exist
    wfs = [wf(f"w{i}", [("a", {"small": 1, "large": 9})]) for i in range(9)]
    state = make_state(wfs)
    decision = PlfPolicy().decide(view_for(state, budget=20))
    assert decision.alloc == list(range(8))  # every small


# -- plan-scaling policy -------------------------------------------------------------


def test_scale_supply_stretches_into_leftover_budget():
    # frozen example: (2, 2) at budget 24 stretches round-robin to (4, 4)
    got = scf_scale_supply({"small": 2, "large": 2}, SYS.types, budget=24)
    assert got == {"small": 4, "large": 4}
    assert sum(got[t.id] * t.cost for t in SYS.types) == 24


def test_scale_supply_shrinks_proportionally():
    # frozen example: (4, 4) costs 24 against budget 12: factor 1/2
    got = scf_scale_supply({"small": 4, "large": 4}, SYS.types, budget=12)
    assert got == {"small": 2, "large": 2}


def test_scale_supply_leftover_spent_only_on_predicted_types():
    got = scf_scale_supply({"small": 0, "large": 2}, SYS.types, budget=24)
    assert got == {"small": 0, "large": 4}


def test_scale_supply_zero_prediction_stays_zero():
    got = scf_scale_supply({"small": 0, "large": 0}, SYS.types, budget=24)
    assert got == {"small": 0, "large": 0}


def test_supply_counts_fastest_type_runtime_per_workflow():
    # two 30 s tasks on their fastest type (small) sum to one interval
    w = chain_wf("w1", [{"small": 30, "large": 40}, {"small": 30, "large": 40}])
    state = make_state([w])
    decision = ScfPolicy().decide(view_for(state, budget=12))
    assert decision.diagnostics["supply"] == {"small": 1, "large": 0}


def test_supply_rounds_up_per_workflow():
    # 61 s of small work needs two intervals' worth of machines
    w = wf("w1", [("a", {"small": 61, "large": 90})])
    state = make_state([w])
    decision = ScfPolicy().decide(view_for(state, budget=12))
    assert decision.diagnostics["supply"]["small"] == 2


def test_running_task_counted_at_actual_type_and_remaining_time():
    w = wf("w1", [("a", {"small": 90, "large": 50})])
    state = make_state([w])
    large = next(r.id for r in state.resources if r.rtype.id == "large")
    state.apply("u1", [], [large], now=0)
    state.start_task(handle(state, "w1", "a"), large, now=0)
    decision = ScfPolicy().decide(view_for(state, budget=12, now=30))
    # 20 s left on the large it actually occupies
    assert decision.diagnostics["supply"] == {"small": 0, "large": 1}


def test_scf_allocates_only_the_shortfall():
    w = wf("w1", [("a", {"small": 30, "large": 50})])
    state = make_state([w])
    state.apply("u1", [], [0], now=0)  # already one small
    decision = ScfPolicy().decide(view_for(state, budget=1))
    assert decision.alloc == []  # scaled (1 small) minus allocated (1) = 0


def test_scf_plan_orders_workflows_by_priority():
    wa = wf("wa", [("a", {"small": 10, "large": 10})], priority=1)
    wb = wf("wb", [("a", {"small": 10, "large": 10})], priority=8)
    state = make_state([wa, wb])
    state.apply("u1", [], [0], now=0)
    decision = ScfPolicy().decide(view_for(state, budget=1))
    entries = sorted(decision.plan.entries(), key=lambda e: e.start_s)
    assert state.ref(entries[0].task)[0] == "wb"  # higher priority first
