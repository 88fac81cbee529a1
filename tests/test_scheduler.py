"""Dispatch mechanics: dynamic pairing and plan following."""

from conftest import chain_wf, two_type_system, users, wf
from wfasim.dagops import WorkflowGraph
from wfasim.policies.base import ExecutionPlan, PlanEntry
from wfasim.scheduler import PlanRunner, dispatch_dynamic
from wfasim.state import SystemState


def make_state(workflows, budgets=(("u1", 100),)):
    state = SystemState(two_type_system(), users(*budgets))
    for w in workflows:
        state.arrive(WorkflowGraph(w))
    return state


def refs(state, assignments):
    """Dispatch results with task handles turned into (workflow, task) ids."""
    return [(*state.ref(h), rid) for h, rid in assignments]


def test_dynamic_pairs_by_order_and_resource_id():
    wa = wf("wa", [("a", {"small": 5, "large": 5})], priority=9)
    wb = wf("wb", [("a", {"small": 5, "large": 5})], priority=1)
    state = make_state([wa, wb])
    for rid in (7, 2, 5):
        state.reserve(state.resources[rid], "u1", now=0)
    got = dispatch_dynamic(state, "u1", now=0)
    # highest priority task takes the lowest resource id
    assert refs(state, got) == [("wa", "a", 2), ("wb", "a", 5)]
    assert state.idle_resources("u1")[0].id == 7


def test_dynamic_with_no_idle_resources():
    state = make_state([wf("wa", [("a", {"small": 5, "large": 5})])])
    assert dispatch_dynamic(state, "u1", now=0) == []


def test_dynamic_with_more_resources_than_tasks():
    state = make_state([wf("wa", [("a", {"small": 5, "large": 5})])])
    state.reserve(state.resources[0], "u1", now=0)
    state.reserve(state.resources[1], "u1", now=0)
    got = dispatch_dynamic(state, "u1", now=0)
    assert refs(state, got) == [("wa", "a", 0)]


def plan_of(*entries):
    plan = ExecutionPlan()
    for e in entries:
        plan.add(PlanEntry(*e))
    return plan


def test_plan_dispatch_at_or_after_start():
    w = wf("w1", [("a", {"small": 10, "large": 10})])
    state = make_state([w])
    state.reserve(state.resources[0], "u1", now=0)
    runner = PlanRunner()
    wakes = runner.install(state, "u1", plan_of((0, "w1", "a", 20, 30)))
    assert wakes == [20]
    assert runner.dispatch(state, "u1", now=0) == []  # never early
    assert refs(state, runner.dispatch(state, "u1", now=20)) == [("w1", "a", 0)]


def test_plan_dispatch_accepts_late_starts():
    w = wf("w1", [("a", {"small": 10, "large": 10})])
    state = make_state([w])
    state.reserve(state.resources[0], "u1", now=0)
    runner = PlanRunner()
    runner.install(state, "u1", plan_of((0, "w1", "a", 5, 15)))
    assert refs(state, runner.dispatch(state, "u1", now=40)) == [("w1", "a", 0)]


def test_plan_entries_consumed_in_timeline_order():
    w = wf("w1", [("a", {"small": 10, "large": 10}),
                  ("b", {"small": 10, "large": 10})])
    state = make_state([w])
    state.reserve(state.resources[0], "u1", now=0)
    runner = PlanRunner()
    runner.install(state, "u1", plan_of((0, "w1", "a", 0, 10), (0, "w1", "b", 10, 20)))
    assert refs(state, runner.dispatch(state, "u1", now=0)) == [("w1", "a", 0)]
    # the resource is busy now; nothing else dispatches this instant
    assert runner.dispatch(state, "u1", now=0) == []
    state.finish_task(state.handle("w1", "a"), now=10)
    assert refs(state, runner.dispatch(state, "u1", now=10)) == [("w1", "b", 0)]


def test_overdue_ineligible_entry_is_dropped():
    w = chain_wf("w1", [{"small": 30, "large": 30}, {"small": 10, "large": 10}])
    state = make_state([w])
    r0, r1 = state.resources[0], state.resources[1]
    state.reserve(r0, "u1", now=0)
    state.reserve(r1, "u1", now=0)
    state.start_task(state.handle("w1", "t0"), r0, now=0)  # overruns its planned end
    runner = PlanRunner()
    # the child was planned on the idle twin assuming the parent done by 10
    runner.install(state, "u1", plan_of((1, "w1", "t1", 10, 20)))
    assert runner.dispatch(state, "u1", now=15) == []  # dropped, not started
    state.finish_task(state.handle("w1", "t0"), now=30)
    # entry is gone: the next tick's plan must carry it again
    assert runner.dispatch(state, "u1", now=30) == []


def test_pinned_entries_are_not_queued():
    w = wf("w1", [("a", {"small": 10, "large": 10})])
    state = make_state([w])
    state.reserve(state.resources[0], "u1", now=0)
    runner = PlanRunner()
    wakes = runner.install(state, "u1", plan_of((0, "w1", "a", 0, 10, True)))
    assert wakes == []
    assert runner.dispatch(state, "u1", now=0) == []


def test_install_replaces_previous_plan():
    w = wf("w1", [("a", {"small": 10, "large": 10})])
    state = make_state([w])
    state.reserve(state.resources[0], "u1", now=0)
    runner = PlanRunner()
    runner.install(state, "u1", plan_of((0, "w1", "a", 50, 60)))
    runner.install(state, "u1", plan_of((0, "w1", "a", 0, 10)))
    assert refs(state, runner.dispatch(state, "u1", now=0)) == [("w1", "a", 0)]
