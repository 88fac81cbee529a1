"""Indexed state: every index-backed query agrees with a full scan.

Random sequences of state transitions run over small systems; after every
step each query, the per-handle task lists and the per-user records are
compared with a brute-force scan of ``state.resources``, of the arrived
workflows and of the test's own record of what it started and finished.
"""

import ast
import dataclasses
import heapq
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import (
    chain_wf,
    diamond_wf,
    edge_maps,
    handle,
    reference_order,
    small_only_system,
    two_type_system,
    users,
    wf,
)
from wfasim import state as state_module
from wfasim.dagops import WorkflowGraph
from wfasim.model import BudgetViolation, CapacityExceeded, ResourceState
from wfasim.policies.pfa import tba_propagate, tba_walk
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


def brute_status(state, finished, running):
    """Every arrived task's status from first principles, in arrival, then
    topological, order: finished or running where the test made it so,
    otherwise eligible once all its parents have finished. Parents and
    order come from the specs, not from the graphs under test."""
    out = {}
    for wf_id, run in state.runs.items():
        parents, _ = edge_maps(run.spec)
        for tid in reference_order(run.spec):
            ref = (wf_id, tid)
            if ref in finished:
                out[ref] = "finished"
            elif ref in running:
                out[ref] = "running"
            elif all((wf_id, p) in finished for p in parents[tid]):
                out[ref] = "eligible"
            else:
                out[ref] = "pending"
    return out


def of_user(state, user, status, wanted):
    """Refs of the user's tasks whose status is in ``wanted``, in arrival,
    then topological, order."""
    return [
        ref for ref, s in status.items()
        if s in wanted and state.runs[ref[0]].spec.user == user
    ]


def brute_eligible(state, user, status):
    def key(ref):
        run = state.runs[ref[0]]
        return (-run.spec.priority, run.spec.arrival_s, run.base)

    # the sort is stable, so a workflow's tasks keep their topological order
    return sorted(of_user(state, user, status, ("eligible",)), key=key)


def brute_joint_dag(state, user, status):
    nodes = of_user(state, user, status,
                    ("pending", "eligible", "running"))
    children = {wf_id: edge_maps(run.spec)[1] for wf_id, run in state.runs.items()}
    edges = [(ref, (ref[0], c)) for ref in nodes for c in children[ref[0]][ref[1]]]
    return nodes, edges


def brute_finished(state, user, status, finished):
    counts = dict.fromkeys(TYPES, 0)
    for ref in of_user(state, user, status, ("finished",)):
        counts[state.resources[finished[ref]].rtype.id] += 1
    return counts


def check_handles(state):
    """Handles are dense, ascend in arrival then topological order, ``ref``
    names each one's (workflow id, task id), and every per-task list has one
    entry per handle."""
    base = 0
    for wf_id, run in state.runs.items():  # insertion order is arrival order
        assert run.base == base
        order = reference_order(run.spec)
        for i, tid in enumerate(order):
            h = base + i
            assert state.task_runs[h] is run
            assert state.tasks[h] is run.graph.tasks[i]
            assert state.workflow[h] == wf_id
            assert state.ref(h) == (wf_id, tid)
        base += len(order)
    for per_task in (state.task_runs, state.workflow, state.tasks, state.blocked, state.machine):
        assert len(per_task) == base


def check_queries(state, finished, running, started, free_from, among):
    """``finished`` and ``running`` map the refs the test finished, and the
    ones it started and has not finished, to the machine ids they ran on.
    ``started`` maps each ref the test started to the time it started it.
    ``free_from`` maps each held machine that is not busy to the time the
    test made it free: reserved plus the boot delay, booted, or finished.
    ``among`` is a set of ids, machine ids or not, to ask ``idle_among``."""
    check_handles(state)
    refs = lambda hs: [state.ref(h) for h in hs]  # noqa: E731
    status = brute_status(state, finished, running)
    for wf_id, run in state.runs.items():
        parents, _ = edge_maps(run.spec)
        for tid in reference_order(run.spec):
            ref = (wf_id, tid)
            h = handle(state, *ref)
            assert state.is_eligible(h) == (status[ref] == "eligible")
            assert state.blocked[h] == sum((wf_id, p) not in finished for p in parents[tid])
            assert state.machine[h] == finished.get(ref, running.get(ref, -1))
        assert run.unfinished == sum(status[(wf_id, t.id)] != "finished"
                                     for t in run.spec.tasks)
    for ref, rid in running.items():
        assert state.resources[rid].running == handle(state, *ref)
        assert state.resources[rid].state is ResourceState.BUSY
    for t in TYPES:
        free = [r for r in state.resources if r.state is ResourceState.DOWN and r.rtype.id == t]
        assert state.free_resources(t) == [r.id for r in free]
    assert state.any_held() == any(r.state is not ResourceState.DOWN for r in state.resources)
    for u in USERS:
        facade = UserFacade(state, u)
        idle = held(state, u, (ResourceState.IDLE,))
        assert state.idle_resources(u) == [r.id for r in idle]
        for t in TYPES:
            assert state.idle_resources(u, t) == [r.id for r in idle if r.rtype.id == t]
        assert state.idle_among(u, among) == [r.id for r in idle if r.id in among]
        assert facade.idle() == tuple((r.id, free_from[r.id]) for r in idle)
        mine = held(state, u)
        running_on = {rid: ref for ref, rid in running.items()}
        assert facade.held() == tuple(
            (r.id, r.rtype.id, handle(state, *running_on[r.id]), started[running_on[r.id]])
            if r.state is ResourceState.BUSY
            else (r.id, r.rtype.id, -1, free_from[r.id])
            for r in mine
        )
        assert state.supply(u) == len(mine)
        assert state.busy_count(u) == len(held(state, u, (ResourceState.BUSY,)))
        assert state.allocated_cost(u) == sum(r.rtype.cost for r in mine)
        assert state.counts_by_type(u) == {
            t: sum(r.rtype.id == t for r in mine) for t in TYPES
        }
        eligible = brute_eligible(state, u, status)
        assert refs(state.eligible_tasks(u)) == eligible
        assert refs(facade.eligible()) == eligible
        in_order = state.eligible_tasks(u)
        assert (in_order[0] if in_order else None) == (
            handle(state, *eligible[0]) if eligible else None)
        n_running = len(of_user(state, u, status, ("running",)))
        assert state.momentary_demand(u) == n_running + len(eligible)
        nodes, edges = state.joint_dag(u)
        joint = brute_joint_dag(state, u, status)
        assert (refs(nodes), [(state.ref(a), state.ref(b)) for a, b in edges]) == joint
        unfinished = {}
        for ref in joint[0]:
            unfinished.setdefault(ref[0], []).append(ref[1])
        assert [(w, p, a, refs(hs)) for w, p, a, hs in facade.workflows()] == [
            (w, state.runs[w].spec.priority, state.runs[w].spec.arrival_s,
             [(w, t) for t in ts])
            for w, ts in unfinished.items()
        ]
        assert all(facade.workflow_of(h) == w for w, *_, hs in facade.workflows() for h in hs)
        frontier = of_user(state, u, status, ("eligible", "running"))
        assert sorted(refs(facade.frontier())) == sorted(frontier)
        assert len(facade.frontier()) == len(frontier)
        # the per-user record agrees with the scans
        rec = state._index[u]
        assert len(rec.frontier) == n_running + len(eligible)
        assert rec.eligible == len(eligible)
        assert rec.finished == brute_finished(state, u, status, finished)
        assert refs(rec.unfinished) == joint[0]
        assert [refs(cs) for cs in rec.unfinished.values()] == [
            [b for a, b in joint[1] if a == ref] for ref in joint[0]
        ]
        assert sorted(refs(rec.frontier)) == sorted(frontier)
        for rs in (ResourceState.BOOTING, ResourceState.IDLE, ResourceState.BUSY):
            assert rec.pools[rs] == {r.id for r in held(state, u, (rs,))}
        assert rec.held == {t: sum(r.rtype.id == t for r in mine) for t in TYPES}
        # the frontier walk PFA runs counts the same waves as the explicit
        # walk over the joint DAG, at every depth
        for depth in (*range(1, 9), None):
            assert tba_walk(
                facade.frontier(), facade.children, facade.unfinished_parents, depth
            ) == tba_propagate(*state.joint_dag(u), depth)
        assert facade.finished_by_type() == rec.finished
        # popping the heap yields the live tasks in dispatch order, and stale
        # entries never outnumber live ones
        heap = list(rec.heap)
        popped = refs(heapq.heappop(heap)[2] for _ in range(len(heap)))
        assert [ref for ref in popped if ref in eligible] == eligible
        assert len(popped) <= 2 * len(eligible)
    assert state.all_done == all(run.unfinished == 0 for run in state.runs.values())


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
    finished: dict = {}  # ref -> machine id it ran on
    running: dict = {}
    started: dict = {}  # ref -> time it started
    free_from: dict = {}  # machine id -> time it is free from
    now = 0
    ids = st.sets(st.integers(-1, len(state.resources)))  # -1 and n name no machine
    check_queries(state, finished, running, started, free_from, data.draw(ids, label="among"))
    for _ in range(data.draw(st.integers(1, 60), label="steps")):
        now += data.draw(st.sampled_from((0, 0, 30)), label="advance")
        op = data.draw(st.sampled_from(OPS), label="op")
        res = state.resources
        status = brute_status(state, finished, running)
        if op == "arrive" and pending:
            state.arrive(WorkflowGraph(pending.pop(0)))
        elif op == "reserve":
            free = [r for r in res if r.state is ResourceState.DOWN]
            if free:
                r = data.draw(st.sampled_from(free))
                state.apply(data.draw(st.sampled_from(USERS)), [], [r.id], now)
                free_from[r.id] = now + boot_delay_s
        elif op == "boot":
            booting = [r for r in res if r.state is ResourceState.BOOTING]
            if booting:
                r = data.draw(st.sampled_from(booting))
                state.boot_complete(r.id, now)
                free_from[r.id] = now
        elif op == "start":
            # any eligible task, not only the first: plan following starts
            # tasks out of dispatch order
            pairs = [
                (ref, r)
                for u in USERS
                for ref in brute_eligible(state, u, status)
                for r in held(state, u, (ResourceState.IDLE,))
            ]
            if pairs:
                ref, r = data.draw(st.sampled_from(pairs))
                state.start_task(handle(state, *ref), r.id, now)
                running[ref] = r.id
                started[ref] = now
        elif op == "dispatch":
            u = data.draw(st.sampled_from(USERS))
            expected = [
                (ref, r.id)
                for ref, r in zip(brute_eligible(state, u, status),
                                  held(state, u, (ResourceState.IDLE,)))
            ]
            got = [(state.ref(h), rid) for h, rid in state.start_eligible(u, now)]
            assert got == expected
            running.update(expected)
            started.update((ref, now) for ref, _rid in expected)
        elif op == "finish":
            if running:
                ref = data.draw(st.sampled_from(sorted(running)))
                state.finish_task(handle(state, *ref), now)
                finished[ref] = running.pop(ref)
                free_from[finished[ref]] = now
        elif op == "release":
            due = [
                r for r in res
                if r.state is ResourceState.IDLE and r.billing_end_s <= now
            ]
            if due:
                r = data.draw(st.sampled_from(due))
                state.apply(r.user, [r.id], [], now)
                del free_from[r.id]
        check_queries(state, finished, running, started, free_from,
                      data.draw(ids, label="among"))


# -- a decision applies whole or not at all ---------------------------------------

APPLY_USERS = ("u1", "u2")


@st.composite
def held_state(draw):
    """0-3 small (cost 1) and 0-3 large (cost 5) machines, at least one, and
    a boot delay of 0 or 7 s. Each machine is free, or reserved by u1 or u2
    at 0 or 60 s, then maybe booted, then maybe busy, all through ``apply``,
    ``boot_complete`` and ``start_task``. Each user's budget is what it
    holds plus 0-3, so that a decision runs over it often. The state is left
    at 60 s."""
    small, large = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if small + large == 0:
        small = 1
    system = two_type_system(small=small, large=large, interval_s=60,
                             boot_delay_s=draw(st.sampled_from((0, 7))))
    costs = [t.cost for t in system.types for _ in range(system.capacity[t.id])]
    plan = [
        (draw(st.sampled_from((None, None, *APPLY_USERS))),
         draw(st.sampled_from((0, 60))), draw(st.sampled_from((True, True, False))),
         draw(st.sampled_from((False, False, False, True))))
        for _ in costs
    ]
    budgets = {
        u: sum(c for c, (holder, *_) in zip(costs, plan) if holder == u)
        + draw(st.integers(0, 3))
        for u in APPLY_USERS
    }
    state = SystemState(system, users(*budgets.items()))
    for u in APPLY_USERS:  # one task for each machine the user might run
        state.arrive(WorkflowGraph(wf(f"w{u}", [(f"t{i}", RT) for i in range(len(plan))], user=u)))
    for at in (0, 60):
        for u in APPLY_USERS:
            state.apply(u, [], [rid for rid, (holder, when, *_) in enumerate(plan)
                                if holder == u and when == at], at)
    for rid, (_holder, _when, booted, busy) in enumerate(plan):
        r = state.resources[rid]
        if r.state is ResourceState.BOOTING and (booted or busy):
            state.boot_complete(rid, 60)
        if r.state is ResourceState.IDLE and busy:
            state.start_task(state.eligible_tasks(r.user)[0], rid, 60)
    return state


def apply_outcome(state, user, release, reserve, now):
    """The exception a decision must raise, or None, by brute force over the
    machines: the first release in listed order that is not an idle machine
    of the user past its billing end, or an id named earlier, is a
    ValueError; then the first reservation that is no machine is a
    ValueError, and one that is not free or named earlier a
    CapacityExceeded; then a decision that reserves and leaves the user
    holding more than its budget is a BudgetViolation."""
    if user not in state.users:
        return KeyError
    res, ids = state.resources, range(len(state.resources))
    for k, rid in enumerate(release):
        if not (rid in ids and res[rid].user == user and res[rid].state is ResourceState.IDLE
                and res[rid].billing_end_s <= now and rid not in release[:k]):
            return ValueError
    for k, rid in enumerate(reserve):
        if rid not in ids:
            return ValueError
        if res[rid].state is not ResourceState.DOWN or rid in release + reserve[:k]:
            return CapacityExceeded
    held_after = {r.id for r in res if r.user == user} - set(release) | set(reserve)
    if reserve and sum(res[rid].rtype.cost for rid in held_after) > state.users[user].budget:
        return BudgetViolation
    return None


def observed(state):
    """Every field of every machine, and every facade query of every user."""
    out = [dataclasses.astuple(r) for r in state.resources]
    for u in APPLY_USERS:
        f = UserFacade(state, u)
        out += [f.counts_by_type(), f.idle(), f.held(), f.workflows(), f.eligible(),
                f.frontier(), f.finished_by_type()]
        out += [(f.idle(t), f.free_ids(t)) for t in TYPES]
    return out


@settings(max_examples=800, deadline=None)
@given(state=held_state(), data=st.data())
def test_apply_changes_all_or_nothing(state, data):
    # ids the user could release and reserve validly; then, half the time,
    # one id more: a machine of the user that is idle but in its first paid
    # interval, or busy or booting, released; an id the decision names
    # already, again; or any id from -1 to n
    n = len(state.resources)
    user = data.draw(st.sampled_from(APPLY_USERS * 5 + ("ghost",)), label="user")
    due = [r.id for r in state.resources
           if r.user == user and r.state is ResourceState.IDLE and r.billing_end_s <= 60]
    free = [r.id for r in state.resources if r.state is ResourceState.DOWN]

    def some_of(ids, most, label):
        if not ids:
            return []
        return data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=most, unique=True),
                         label=label)

    release, reserve = some_of(due, 2, "release"), some_of(free, 3, "reserve")
    not_due = [r.id for r in state.resources if r.user == user and r.id not in due]
    early = [rid for rid in not_due if state.resources[rid].state is ResourceState.IDLE]
    kind = data.draw(st.sampled_from((None,) * 4 + ("early", "held", "again", "any")),
                     label="one more")
    into = release if kind in ("early", "held") else data.draw(
        st.sampled_from((release, reserve)), label="into")
    # a repeat comes from the list it goes into, where that list has an id
    choices = {"early": early, "held": not_due, "again": into or release + reserve}.get(kind)
    if kind == "any" or choices:
        rid = data.draw(st.sampled_from(choices) if choices else st.integers(-1, n), label="id")
        into.insert(data.draw(st.integers(0, len(into)), label="at"), rid)
    expected = apply_outcome(state, user, release, reserve, 60)
    event((expected.__name__ if expected else "applied") + (" with releases" if release else ""))
    before = observed(state)
    held_before = {r.id for r in state.resources if r.user == user}
    if expected is not None:
        with pytest.raises(expected):
            state.apply(user, release, reserve, 60)
        assert observed(state) == before
        return
    state.apply(user, release, reserve, 60)
    assert {r.id for r in state.resources if r.user == user} == (
        held_before - set(release) | set(reserve))
    for rid in reserve:
        assert state.resources[rid].billing_end_s == 120


@settings(max_examples=100, deadline=None)
@given(priorities=st.permutations(range(10)), started=st.sets(st.integers(0, 9)))
def test_out_of_order_starts_keep_dispatch_order(priorities, started):
    # single-task workflows arrive in shuffled priority order, so the heap is
    # not pushed in key order; starting any subset of them, as plan following
    # does, must leave the rest to dispatch by priority
    state = SystemState(small_only_system(count=10), users(("u1", 100)))
    for i, priority in enumerate(priorities):
        state.arrive(WorkflowGraph(wf(f"w{i}", [("a", {"small": 5})], priority=priority)))
    state.apply("u1", [], list(range(10)), 0)
    idle = state.idle_resources("u1")
    for i in sorted(started):
        state.start_task(handle(state, f"w{i}", "a"), idle.pop(), 0)
    status = brute_status(state, {}, {(f"w{i}", "a") for i in started})
    expected = brute_eligible(state, "u1", status)
    assert [state.ref(h) for h, _ in state.start_eligible("u1", 0)] == expected
    assert [f"w{i}" for i in sorted(range(10), key=lambda i: -priorities[i])
            if i not in started] == [w for w, _ in expected]


def test_only_state_turns_a_topological_index_into_a_handle():
    # every other module indexes the per-task lists by handle, so none reads
    # a run's base
    package = Path(state_module.__file__).parent
    modules = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "base":
                modules.add(path.relative_to(package).as_posix())
    assert modules == {"state.py"}


POLICY_BLIND_TO = {"SystemState", "Resource", "ResourceState"}


def test_policies_read_the_facade_not_the_state():
    # every policy reads a user's machines and work through UserFacade, so
    # the state's layout and the machine lifecycle can change under them;
    # runtimes reach the planners only through the view's oracle
    package = Path(state_module.__file__).parent / "policies"
    named, reads_runtimes = {}, []
    for path in sorted(package.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if node.attr == "runtime_by_type" and path.name in ("plan.py", "pfa.py"):
                    reads_runtimes.append(path.name)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:  # a string annotation
                    expr = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
        if names & POLICY_BLIND_TO:
            named[path.name] = sorted(names & POLICY_BLIND_TO)
    assert named == {}
    assert reads_runtimes == []
