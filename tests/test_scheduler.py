"""Dispatch mechanics: the state's dynamic pairing and plan following."""

from collections import deque
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_wf, handle, two_type_system, users, wf
from test_plan import random_dags
from wfasim.dagops import WorkflowGraph
from wfasim.policies.base import ExecutionPlan, PlanEntry
from wfasim.scheduler import PlanRunner
from wfasim.model import ResourceState
from wfasim.state import SystemState, UserFacade


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
    state.apply("u1", [], [7, 2, 5], now=0)
    got = state.start_eligible("u1", now=0)
    # highest priority task takes the lowest resource id
    assert refs(state, got) == [("wa", "a", 2), ("wb", "a", 5)]
    assert state.idle_resources("u1") == [7]


def test_dynamic_with_no_idle_resources():
    state = make_state([wf("wa", [("a", {"small": 5, "large": 5})])])
    assert state.start_eligible("u1", now=0) == []


def test_dynamic_with_more_resources_than_tasks():
    state = make_state([wf("wa", [("a", {"small": 5, "large": 5})])])
    state.apply("u1", [], [0, 1], now=0)
    got = state.start_eligible("u1", now=0)
    assert refs(state, got) == [("wa", "a", 0)]


def test_dynamic_start_checks_the_machine_it_takes():
    # start_eligible checks each machine as start_task does: one whose owner
    # was changed behind the state's back is refused
    state = make_state([wf("wa", [("a", {"small": 5, "large": 5})])])
    state.apply("u1", [], [0], now=0)
    state.resources[0].user = "u2"
    with pytest.raises(ValueError, match="resource 0 not idle for u1"):
        state.start_eligible("u1", now=0)


def plan_of(state, *rows):
    """A plan from (resource id, workflow id, task id, start, end[, pinned])
    rows."""
    plan = ExecutionPlan()
    for rid, wf_id, task_id, *times in rows:
        plan.add(PlanEntry(rid, handle(state, wf_id, task_id), *times))
    return plan


def test_plan_dispatch_at_or_after_start():
    w = wf("w1", [("a", {"small": 10, "large": 10})])
    state = make_state([w])
    state.apply("u1", [], [0], now=0)
    runner = PlanRunner()
    wakes = runner.install("u1", plan_of(state, (0, "w1", "a", 20, 30)))
    assert wakes == [20]
    assert runner.dispatch(state, "u1", now=0) == []  # never early
    assert refs(state, runner.dispatch(state, "u1", now=20)) == [("w1", "a", 0)]


def test_plan_dispatch_accepts_late_starts():
    w = wf("w1", [("a", {"small": 10, "large": 10})])
    state = make_state([w])
    state.apply("u1", [], [0], now=0)
    runner = PlanRunner()
    runner.install("u1", plan_of(state, (0, "w1", "a", 5, 15)))
    assert refs(state, runner.dispatch(state, "u1", now=40)) == [("w1", "a", 0)]


def test_plan_entries_consumed_in_timeline_order():
    w = wf("w1", [("a", {"small": 10, "large": 10}),
                  ("b", {"small": 10, "large": 10})])
    state = make_state([w])
    state.apply("u1", [], [0], now=0)
    runner = PlanRunner()
    runner.install("u1", plan_of(state, (0, "w1", "a", 0, 10), (0, "w1", "b", 10, 20)))
    assert refs(state, runner.dispatch(state, "u1", now=0)) == [("w1", "a", 0)]
    # the resource is busy now; nothing else dispatches this instant
    assert runner.dispatch(state, "u1", now=0) == []
    state.finish_task(handle(state, "w1", "a"), now=10)
    assert refs(state, runner.dispatch(state, "u1", now=10)) == [("w1", "b", 0)]


def test_overdue_ineligible_entry_is_dropped():
    w = chain_wf("w1", [{"small": 30, "large": 30}, {"small": 10, "large": 10}])
    state = make_state([w])
    state.apply("u1", [], [0, 1], now=0)
    state.start_task(handle(state, "w1", "t0"), 0, now=0)  # overruns its planned end
    runner = PlanRunner()
    # the child was planned on the idle twin assuming the parent done by 10
    runner.install("u1", plan_of(state, (1, "w1", "t1", 10, 20)))
    assert runner.dispatch(state, "u1", now=15) == []  # dropped, not started
    state.finish_task(handle(state, "w1", "t0"), now=30)
    # entry is gone: the next tick's plan must carry it again
    assert runner.dispatch(state, "u1", now=30) == []


def test_pinned_entries_are_not_queued():
    w = wf("w1", [("a", {"small": 10, "large": 10})])
    state = make_state([w])
    state.apply("u1", [], [0], now=0)
    runner = PlanRunner()
    wakes = runner.install("u1", plan_of(state, (0, "w1", "a", 0, 10, True)))
    assert wakes == []
    assert runner.dispatch(state, "u1", now=0) == []


def test_install_replaces_previous_plan():
    w = wf("w1", [("a", {"small": 10, "large": 10})])
    state = make_state([w])
    state.apply("u1", [], [0], now=0)
    runner = PlanRunner()
    runner.install("u1", plan_of(state, (0, "w1", "a", 50, 60)))
    runner.install("u1", plan_of(state, (0, "w1", "a", 0, 10)))
    assert refs(state, runner.dispatch(state, "u1", now=0)) == [("w1", "a", 0)]


# -- due-queue dispatch against the scan it replaced ---------------------------------


def scan_queues(plan):
    """The queues the scan runner kept for one plan: resource id -> (start,
    task handle) of the entries that are not pinned, in timeline order."""
    queues = {}
    for rid, timeline in plan.by_resource.items():
        pending = deque((e.start_s, e.task) for e in timeline if not e.pinned)
        if pending:
            queues[rid] = pending
    return queues


def scan_dispatch(queues, state, user, now):
    """Plan dispatch before the due queue, kept as the reference: visit every
    idle machine of the user that has a queue, lowest id first; drop its due
    entries whose task is not eligible, and start the first that is."""
    out = []
    for rid in state.idle_resources(user):
        q = queues.get(rid)
        if q is None:
            continue
        while q:
            start_s, h = q[0]
            if start_s > now:
                break
            q.popleft()
            if state.is_eligible(h):
                state.start_task(h, rid, now)
                out.append((h, rid))
                break
        if not q:
            del queues[rid]
    return out


def random_plan(draw, state, user, now):
    """Entries for some of the user's unfinished tasks, mostly eligible ones,
    on the machines it holds, mostly idle ones: starts from before now to
    after it, a few pinned."""
    plan = ExecutionPlan()
    facade = UserFacade(state, user)
    held = [rid for rid, *_ in facade.held()]
    if not held:
        return plan
    idle = state.idle_resources(user) or held
    eligible = state.eligible_tasks(user)
    other = [h for *_, hs in facade.workflows() for h in hs if h not in eligible]
    tasks = draw(st.lists(st.sampled_from(eligible), unique=True), label="eligible") if eligible else []
    tasks += draw(st.lists(st.sampled_from(other), unique=True, max_size=3), label="other") if other else []
    free_at = dict.fromkeys(held, now - 10)
    for h in draw(st.permutations(tasks), label="order"):
        rid = draw(st.sampled_from(idle) | st.sampled_from(held), label="machine")
        start = free_at[rid] + draw(st.integers(0, 10), label="gap")
        free_at[rid] = start + draw(st.integers(1, 12), label="runtime")
        pinned = draw(st.sampled_from((False, False, False, True)), label="pinned")
        plan.add(PlanEntry(rid, h, start, free_at[rid], pinned))
    return plan


@settings(max_examples=200, deadline=None)
@given(specs=random_dags(), boot_delay_s=st.sampled_from((0, 7)), data=st.data())
def test_due_queue_dispatch_matches_the_scan(specs, boot_delay_s, data):
    """Random plans on random states, then random finish, boot, reserve,
    release and clock steps, each followed by dispatches: the due-queue
    runner and the scan start the same tasks on the same machines in the
    same order."""
    users_ = ("u1", "u2")[:data.draw(st.integers(1, 2), label="users")]
    specs = [replace(s, user=data.draw(st.sampled_from(users_), label="owner")) for s in specs]
    system = two_type_system(small=4, large=4, interval_s=60, boot_delay_s=boot_delay_s)
    states = []
    for _ in range(2):
        state = SystemState(system, users(*((u, 100) for u in users_)))
        for w in specs:
            state.arrive(WorkflowGraph(w))
        states.append(state)
    state, twin = states
    for rid in data.draw(st.lists(st.integers(0, 7), unique=True), label="held"):
        user = data.draw(st.sampled_from(users_), label="holder")
        booted = data.draw(st.booleans(), label="booted")
        for s in states:
            s.apply(user, [], [rid], 0)
            if booted and boot_delay_s:
                s.boot_complete(rid, 0)
    runner, scan = PlanRunner(), {u: {} for u in users_}
    now = 0
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        user = data.draw(st.sampled_from(users_), label="user")
        res = state.resources
        op = data.draw(st.sampled_from(
            ("install", "install", "finish", "finish", "boot", "reserve", "release", "clock")
        ), label="op")
        if op == "install":
            plan = random_plan(data.draw, state, user, now)
            runner.install(user, plan)
            scan[user] = scan_queues(plan)
        elif op == "finish" and (busy := [r.id for r in res if r.state is ResourceState.BUSY]):
            h = res[data.draw(st.sampled_from(busy), label="finished")].running
            for s in states:
                s.finish_task(h, now)
        elif op == "boot" and (booting := [r.id for r in res if r.state is ResourceState.BOOTING]):
            rid = data.draw(st.sampled_from(booting), label="booted")
            for s in states:
                s.boot_complete(rid, now)
        elif op == "reserve" and (free := [r.id for r in res if r.state is ResourceState.DOWN]):
            rid = data.draw(st.sampled_from(free), label="reserved")
            for s in states:
                s.apply(user, [], [rid], now)
        elif op == "release" and (ended := [
            r.id for r in res if r.state is ResourceState.IDLE and r.billing_end_s <= now
        ]):
            rid = data.draw(st.sampled_from(ended), label="released")
            holder = res[rid].user
            for s in states:
                s.apply(holder, [rid], [], now)
        elif op == "clock":
            now += data.draw(st.sampled_from((1, 5, 20, 60)), label="advance")
        # the engine dispatches after every event; a skipped dispatch lets
        # due heads pile up
        for u in data.draw(st.lists(st.sampled_from(users_), unique=True), label="dispatched"):
            assert runner.dispatch(state, u, now) == scan_dispatch(scan[u], twin, u, now)
