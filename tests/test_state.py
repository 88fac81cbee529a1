"""Indexed state: every index-backed query agrees with a full scan.

Random sequences of state transitions run over small systems; after every
step each query is compared with a brute-force scan of ``state.resources``
and of the arrived workflows.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_wf, diamond_wf, small_only_system, two_type_system, users, wf
from wfasim.model import ResourceState, TaskStatus
from wfasim.policies.pfa import tba_propagate, tba_walk
from wfasim.scheduler import dispatch_dynamic
from wfasim.state import SystemState, UserFacade

USERS = ("u1", "u2")
TYPES = ("small", "large")
RT = {"small": 10, "large": 5}
OPS = ("arrive", "reserve", "boot", "start", "dispatch", "finish", "release")


def make_workflow(i, shape, width, user, priority, arrival_s):
    kw = dict(user=user, priority=priority, arrival_s=arrival_s)
    if shape == "chain":
        return chain_wf(f"w{i}", [RT] * width, **kw)
    if shape == "diamond":
        return diamond_wf(f"w{i}", RT, RT, RT, RT, **kw)
    branches = [f"b{k}" for k in range(width)]
    tasks = [("a", RT), *((b, RT) for b in branches), ("z", RT)]
    edges = [("a", b) for b in branches] + [(b, "z") for b in branches]
    return wf(f"w{i}", tasks, edges, **kw)


workflow_args = st.tuples(
    st.sampled_from(("chain", "diamond", "fan")),
    st.integers(2, 7),
    st.sampled_from(USERS),
    st.integers(0, 2),  # few priorities and arrivals, so keys tie on them
    st.integers(0, 2),
)


def held(state, user, states=(ResourceState.BOOTING, ResourceState.IDLE, ResourceState.BUSY)):
    return [r for r in state.resources if r.state in states and r.user == user]


def brute_eligible(state, user):
    refs = [
        (wf_id, tid)
        for wf_id in state.user_workflows[user]
        for tid, status in state.runs[wf_id].status.items()
        if status is TaskStatus.ELIGIBLE
    ]
    return sorted(refs, key=lambda ref: state.runs[ref[0]].order_key(ref[1]))


def brute_joint_dag(state, user):
    nodes, edges = [], []
    for wf_id in state.user_workflows[user]:
        run = state.runs[wf_id]
        for tid in run.graph.topo_order:
            if run.status[tid] is not TaskStatus.FINISHED:
                nodes.append((wf_id, tid))
                edges += [((wf_id, tid), (wf_id, c)) for c in run.graph.children[tid]]
    return nodes, edges


def brute_finished(state, user):
    counts = dict.fromkeys(TYPES, 0)
    for wf_id in state.user_workflows[user]:
        run = state.runs[wf_id]
        for tid, status in run.status.items():
            if status is TaskStatus.FINISHED:
                counts[state.resources[run.task_resource[tid]].rtype.id] += 1
    return counts


def check_queries(state):
    for t in TYPES:
        free = [r for r in state.resources if r.state is ResourceState.DOWN and r.rtype.id == t]
        assert state.free_resources(t) == free
    assert sorted(r.id for r in state.reserved()) == [
        r.id for r in state.resources if r.reserved
    ]
    for u in USERS:
        idle = held(state, u, (ResourceState.IDLE,))
        assert state.idle_resources(u) == idle
        for t in TYPES:
            assert state.idle_resources(u, t) == [r for r in idle if r.rtype.id == t]
        some = {r.id for r in state.resources if r.id % 2}
        assert state.idle_ids(u, some) == [r.id for r in idle if r.id % 2]
        mine = held(state, u)
        assert state.user_resources(u) == mine
        assert state.supply(u) == len(mine)
        assert state.busy_count(u) == len(held(state, u, (ResourceState.BUSY,)))
        assert state.allocated_cost(u) == sum(r.rtype.cost for r in mine)
        assert state.counts_by_type(u) == {
            t: sum(r.rtype.id == t for r in mine) for t in TYPES
        }
        eligible = brute_eligible(state, u)
        assert state.eligible_tasks(u) == eligible
        assert state.next_eligible(u) == (eligible[0] if eligible else None)
        running = sum(
            status is TaskStatus.RUNNING
            for wf_id in state.user_workflows[u]
            for status in state.runs[wf_id].status.values()
        )
        assert state.momentary_demand(u) == running + len(eligible)
        assert state.joint_dag(u) == brute_joint_dag(state, u)
        assert state.unfinished_tasks(u) == {
            wf_id: [t for t in run.graph.topo_order if run.status[t] is not TaskStatus.FINISHED]
            for wf_id in state.user_workflows[u]
            if not (run := state.runs[wf_id]).done
        }
        frontier = {
            (wf_id, tid)
            for wf_id in state.user_workflows[u]
            for tid, status in state.runs[wf_id].status.items()
            if status in (TaskStatus.ELIGIBLE, TaskStatus.RUNNING)
        }
        assert set(state.frontier(u)) == frontier
        assert len(state.frontier(u)) == len(frontier)
        # the frontier walk PFA runs counts the same waves as the explicit
        # walk over the joint DAG, at every depth
        facade = UserFacade(state, u)
        for depth in (*range(1, 9), None):
            assert tba_walk(
                facade.frontier(), facade.children, facade.unfinished_parents, depth
            ) == tba_propagate(*state.joint_dag(u), depth)
        assert UserFacade(state, u).finished_by_type() == brute_finished(state, u)
        # popping the heap yields the live tasks in dispatch order, and stale
        # entries never outnumber live ones
        heap = list(state._heaps[u])
        popped = [heapq.heappop(heap)[1] for _ in range(len(heap))]
        assert [ref for ref in popped if ref in eligible] == eligible
        assert len(popped) <= 2 * len(eligible)
    assert state.all_done == all(run.done for run in state.runs.values())


@settings(max_examples=150, deadline=None)
@given(
    small=st.integers(1, 4),
    large=st.integers(1, 4),
    boot_delay_s=st.sampled_from((0, 5)),
    specs=st.lists(workflow_args, min_size=1, max_size=5),
    data=st.data(),
)
def test_indexes_agree_with_full_scans(small, large, boot_delay_s, specs, data):
    system = two_type_system(small=small, large=large, interval_s=60,
                             boot_delay_s=boot_delay_s)
    state = SystemState(system, users(("u1", 100), ("u2", 100)))
    pending = [make_workflow(i, *args) for i, args in enumerate(specs)]
    now = 0
    check_queries(state)
    for _ in range(data.draw(st.integers(1, 60), label="steps")):
        now += data.draw(st.sampled_from((0, 0, 30)), label="advance")
        op = data.draw(st.sampled_from(OPS), label="op")
        res = state.resources
        if op == "arrive" and pending:
            state.arrive(pending.pop(0))
        elif op == "reserve":
            free = [r for r in res if r.state is ResourceState.DOWN]
            if free:
                r = data.draw(st.sampled_from(free))
                state.reserve(r, data.draw(st.sampled_from(USERS)), now)
        elif op == "boot":
            booting = [r for r in res if r.state is ResourceState.BOOTING]
            if booting:
                state.boot_complete(data.draw(st.sampled_from(booting)), now)
        elif op == "start":
            # any eligible task, not only the first: plan following starts
            # tasks out of dispatch order
            pairs = [
                (ref, r)
                for u in USERS
                for ref in brute_eligible(state, u)
                for r in held(state, u, (ResourceState.IDLE,))
            ]
            if pairs:
                (wf_id, tid), r = data.draw(st.sampled_from(pairs))
                state.start_task(wf_id, tid, r, now)
        elif op == "dispatch":
            u = data.draw(st.sampled_from(USERS))
            expected = [
                (wf_id, tid, r.id)
                for (wf_id, tid), r in zip(brute_eligible(state, u),
                                           held(state, u, (ResourceState.IDLE,)))
            ]
            assert dispatch_dynamic(state, u, now) == expected
        elif op == "finish":
            running = [r.running for r in res if r.state is ResourceState.BUSY]
            if running:
                wf_id, tid = data.draw(st.sampled_from(running))
                state.finish_task(wf_id, tid, now)
        elif op == "release":
            due = [
                r for r in res
                if r.state is ResourceState.IDLE and r.billing_end_s <= now
            ]
            if due:
                state.release(data.draw(st.sampled_from(due)), now)
        check_queries(state)


@settings(max_examples=100, deadline=None)
@given(priorities=st.permutations(range(10)), started=st.sets(st.integers(0, 9)))
def test_out_of_order_starts_keep_dispatch_order(priorities, started):
    # single-task workflows arrive in shuffled priority order, so the heap is
    # not pushed in key order; starting any subset of them, as plan following
    # does, must leave the rest to dispatch by priority
    state = SystemState(small_only_system(count=10), users(("u1", 100)))
    for i, priority in enumerate(priorities):
        state.arrive(wf(f"w{i}", [("a", {"small": 5})], priority=priority))
    for r in state.resources:
        state.reserve(r, "u1", 0)
    idle = state.idle_resources("u1")
    for i in sorted(started):
        state.start_task(f"w{i}", "a", idle.pop(), 0)
    expected = brute_eligible(state, "u1")
    assert [(w, t) for w, t, _ in dispatch_dynamic(state, "u1", 0)] == expected
    assert [f"w{i}" for i in sorted(range(10), key=lambda i: -priorities[i])
            if i not in started] == [w for w, _ in expected]
