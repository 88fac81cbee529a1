"""Mutable simulation state: arrived workflows, task lifecycle, reservations.

The state object checks and makes every machine transition, naming machines
by id. ``apply`` checks a user's whole decision (each id, no id twice, a
release only of an idle machine past its first paid interval, the budget)
before it releases or reserves anything; ``boot_complete``, ``start_task``
and ``finish_task`` each move one machine, and a task starts only when
eligible. The state also keeps each user's dispatch order, and
``start_eligible`` starts a user's dynamic work: its eligible tasks in that
order, on its idle machines lowest id first. The per-task transitions
(``start_task``, ``start_eligible`` and ``finish_task``) move a machine id
between its user's idle and busy pools in place; ``_move`` serves only
``apply`` and boots, the only moves into or out of the free pool, so the
only ones that change a held count. Plan following asks ``idle_among``
which of its due machines are idle. The engine owns event ordering on top
of this, and bills each interval at its tick from the held counts.

Tasks are addressed by int handles. At arrival a workflow's run gets a base,
the number of tasks that arrived before it, and its task at topological
index ``i`` gets the handle ``base + i``. Handles are dense and ascend in
arrival, then topological, order. The per-task records are flat lists on
``SystemState``, indexed by handle and extended at each arrival:
``task_runs`` (the task's run), ``workflow`` (its workflow's id), ``tasks``
(its ``TaskSpec``), ``blocked`` (count of unfinished parents) and
``machine`` (the id of the machine it ran on, -1 before it starts).
``blocked`` and ``machine`` also give a task's status: it is eligible
while it has no unfinished parent and no machine, and running while its
machine runs it. A running task's start is held only by its machine, in
``Resource.start_s``: no per-task record keeps a start. Only this module
turns a topological index into a handle. Plan entries carry handles too.
String ids stay at the edges: the trace and the output files name tasks by
``(workflow id, task id)``, which ``ref`` reads off a handle. Policies read
none of this directly: ``UserFacade`` below is their one view of the state.

Queries are served from indexes that the transitions below keep up to date,
so no query scans every machine or re-sorts every eligible task. Each user
has one ``UserIndex`` record holding:

- a heap of ``(-priority, arrival, handle)`` entries, pushed when a task
  becomes eligible. Handles ascend with arrival sequence and topological
  index, so this is dispatch order. Entries of tasks that have since
  started are stale and are skipped, or compacted away once they outnumber
  the live ones;
- the eligible task count;
- the unfinished tasks with their unfinished children, in handle order, and
  the frontier: the unfinished tasks with no unfinished parent (eligible or
  running);
- one set of machine ids per held state (booting, idle, busy), and the
  held machine count per type, which the count queries read;
- the finished-task count per type.

Free machine ids are kept per type. With the children lists, the frontier
and the per-run parent counts, a token walk over the user's unfinished DAG
needs no joint DAG built.

Index invariant: only the ``SystemState`` transitions (``apply``,
``boot_complete``, ``start_task``, ``start_eligible`` and ``finish_task``)
may change ``Resource.state`` or ``Resource.user``. A change made anywhere
else leaves the indexes describing a machine that is no longer there.
"""

from __future__ import annotations

import heapq
from itertools import chain, groupby, repeat

from .dagops import WorkflowGraph
from .model import (
    BudgetViolation,
    CapacityExceeded,
    Resource,
    ResourceState,
    SystemConfig,
    TaskSpec,
    UserConfig,
)

TaskRef = tuple[str, str]  # (workflow id, task id)

_HELD = (ResourceState.BOOTING, ResourceState.IDLE, ResourceState.BUSY)
# Module constants: reading a member off the Enum class costs several
# times a global read, and the transitions below run once per event.
_DOWN, _BOOTING = ResourceState.DOWN, ResourceState.BOOTING
_IDLE, _BUSY = ResourceState.IDLE, ResourceState.BUSY


class UserIndex:
    """One user's share of the indexes (see the module docstring)."""

    __slots__ = ("heap", "eligible", "unfinished", "frontier", "pools", "held", "finished")

    def __init__(self, type_ids: tuple[str, ...]):
        self.heap: list[tuple[int, int, int]] = []
        self.eligible = 0
        self.unfinished: dict[int, tuple[int, ...]] = {}  # task -> its children
        self.frontier: dict[int, None] = {}
        self.pools: dict[ResourceState, set[int]] = {s: set() for s in _HELD}
        self.held = dict.fromkeys(type_ids, 0)
        self.finished = dict.fromkeys(type_ids, 0)


class WorkflowRun:
    """Execution record of one arrived workflow. Its tasks' records live in
    the per-handle lists of ``SystemState``; its task at topological index
    ``i`` has the handle ``base + i``."""

    __slots__ = ("spec", "graph", "base", "user_index", "unfinished")

    def __init__(self, graph: WorkflowGraph, base: int, user_index: UserIndex):
        self.spec = graph.spec
        self.graph = graph
        self.base = base  # first handle; ascends in arrival order
        self.user_index = user_index
        self.unfinished = len(graph.tasks)


class SystemState:
    """All mutable simulation state at one instant."""

    def __init__(self, config: SystemConfig, users: list[UserConfig]):
        self.config = config
        self.users = {u.id: u for u in users}
        self.clock = 0
        self.resources: list[Resource] = []
        for rtype in config.types:
            for _ in range(config.capacity.get(rtype.id, 0)):
                self.resources.append(Resource(id=len(self.resources), rtype=rtype))
        self.runs: dict[str, WorkflowRun] = {}
        # per-task records, indexed by handle (see the module docstring)
        self.task_runs: list[WorkflowRun] = []
        self.workflow: list[str] = []
        self.tasks: list[TaskSpec] = []
        self.blocked: list[int] = []
        self.machine: list[int] = []
        type_ids = tuple(t.id for t in config.types)
        self._index = {u.id: UserIndex(type_ids) for u in users}
        self._free: dict[str, set[int]] = {t: set() for t in type_ids}
        for r in self.resources:
            self._free[r.rtype.id].add(r.id)

    def _move(self, resource: Resource, to: ResourceState) -> None:
        """Set a machine's state and move its id to the matching pool: the
        rare transitions of ``apply`` and boots. A machine enters or leaves
        the free pool only here, so only here does a held count change."""
        rid, rtype_id, rec = resource.id, resource.rtype.id, self._index[resource.user]
        if resource.state is _DOWN:
            self._free[rtype_id].remove(rid)
            rec.held[rtype_id] += 1
        else:
            rec.pools[resource.state].remove(rid)
        if to is _DOWN:
            self._free[rtype_id].add(rid)
            rec.held[rtype_id] -= 1
        else:
            rec.pools[to].add(rid)
        resource.state = to

    # -- handles ------------------------------------------------------------

    def ref(self, h: int) -> TaskRef:
        return self.workflow[h], self.tasks[h].id

    # -- workflow lifecycle -------------------------------------------------

    def _make_eligible(self, run: WorkflowRun, rec: UserIndex, h: int) -> None:
        rec.eligible += 1
        rec.frontier[h] = None
        heapq.heappush(rec.heap, (-run.spec.priority, run.spec.arrival_s, h))

    def arrive(self, graph: WorkflowGraph) -> WorkflowRun:
        """Add a validated workflow by its compiled graph. Its task ``i`` gets
        the handle ``base + i``; the tasks without parents become eligible."""
        spec = graph.spec
        if spec.id in self.runs:
            raise ValueError(f"workflow {spec.id!r} already arrived")
        rec = self._index[spec.user]  # an unknown user raises KeyError here
        base, n = len(self.tasks), len(graph.tasks)
        run = WorkflowRun(graph, base, rec)
        self.task_runs.extend(repeat(run, n))
        self.workflow.extend(repeat(spec.id, n))
        self.tasks.extend(graph.tasks)
        self.blocked.extend(map(len, graph.parents))
        self.machine.extend(repeat(-1, n))
        for i, cs in enumerate(graph.children):
            rec.unfinished[base + i] = tuple(map(base.__add__, cs))
            if not graph.parents[i]:
                self._make_eligible(run, rec, base + i)
        self.runs[spec.id] = run
        return run

    def start_task(self, h: int, rid: int, now: int) -> None:
        """Run an eligible task on an idle machine of its user."""
        run, machine, resource = self.task_runs[h], self.machine, self.resources[rid]
        if self.blocked[h] or machine[h] >= 0:
            raise ValueError(f"task {'/'.join(self.ref(h))} not eligible")
        if resource.state is not _IDLE or resource.user != run.spec.user:
            raise ValueError(f"resource {rid} not idle for {run.spec.user}")
        machine[h] = rid
        rec = run.user_index
        rec.eligible -= 1
        rec.pools[_IDLE].remove(rid)
        rec.pools[_BUSY].add(rid)
        resource.state = _BUSY
        resource.running = h
        resource.start_s = now
        # The started task's heap entry is now stale: an entry is live while
        # its task has no machine. A task started out of heap order leaves it
        # buried, so compact once stale entries outnumber live ones; the heap
        # then stays within twice the eligible count.
        heap = rec.heap
        if len(heap) > 2 * rec.eligible:
            heap[:] = [e for e in heap if machine[e[2]] < 0]
            heapq.heapify(heap)

    def start_eligible(self, user: str, now: int) -> list[tuple[int, int]]:
        """Start the user's eligible tasks in dispatch order, each on the
        user's lowest-id idle machine, until either runs out. Returns the
        (task handle, machine id) pairs in start order."""
        rec = self._index[user]
        if not rec.eligible:
            return []
        idle, busy = rec.pools[_IDLE], rec.pools[_BUSY]
        rids = sorted(idle)
        if not rids:
            return []
        heap, machine, blocked, resources = rec.heap, self.machine, self.blocked, self.resources
        out: list[tuple[int, int]] = []
        for rid in rids:
            # the first live entry: an entry is stale once its task has a
            # machine, and eligible tasks remain, so one is live
            h = heapq.heappop(heap)[2]
            while machine[h] >= 0:
                h = heapq.heappop(heap)[2]
            resource = resources[rid]
            if blocked[h]:
                raise ValueError(f"task {'/'.join(self.ref(h))} not eligible")
            if resource.state is not _IDLE or resource.user != user:
                raise ValueError(f"resource {rid} not idle for {user}")
            machine[h] = rid
            idle.remove(rid)
            busy.add(rid)
            resource.state = _BUSY
            resource.running = h
            resource.start_s = now
            out.append((h, rid))
            rec.eligible -= 1
            if not rec.eligible:
                break
        # entries of tasks started by start_task may stay buried (see there)
        if len(heap) > 2 * rec.eligible:
            heap[:] = [e for e in heap if machine[e[2]] < 0]
            heapq.heapify(heap)
        return out

    def finish_task(self, h: int, now: int) -> WorkflowRun:
        """Complete a running task; its children whose last unfinished
        parent it was become eligible. Returns the task's run."""
        run, rid = self.task_runs[h], self.machine[h]
        if rid < 0 or (resource := self.resources[rid]).running != h:
            raise ValueError(f"task {'/'.join(self.ref(h))} not running")
        run.unfinished -= 1
        rec = run.user_index
        children = rec.unfinished.pop(h)
        del rec.frontier[h]
        rec.finished[resource.rtype.id] += 1
        rec.pools[_BUSY].remove(rid)
        rec.pools[_IDLE].add(rid)
        resource.state = _IDLE
        resource.running = None
        resource.free_s = now
        blocked = self.blocked
        for c in children:
            blocked[c] -= 1
            if blocked[c] == 0:  # as _make_eligible, inline on this hot path
                rec.eligible += 1
                rec.frontier[c] = None
                heapq.heappush(rec.heap, (-run.spec.priority, run.spec.arrival_s, c))
        return run

    # -- queries ------------------------------------------------------------

    def is_eligible(self, h: int) -> bool:
        return not self.blocked[h] and self.machine[h] < 0

    def eligible_tasks(self, user: str) -> list[int]:
        """Eligible tasks of a user in deterministic dispatch order."""
        # handles are unique, so sorting the entries compares ints only
        machine = self.machine
        return [e[2] for e in sorted(self._index[user].heap) if machine[e[2]] < 0]

    def momentary_demand(self, user: str) -> int:
        """Running plus eligible task count: work the user could use now."""
        return len(self._index[user].frontier)

    def supply(self, user: str) -> int:
        return sum(self._index[user].held.values())

    def busy_count(self, user: str) -> int:
        return len(self._index[user].pools[_BUSY])

    def allocated_cost(self, user: str) -> int:
        held = self._index[user].held
        return sum(t.cost * held[t.id] for t in self.config.types)

    def counts_by_type(self, user: str) -> dict[str, int]:
        """{type id: machines the user holds of that type}, every type."""
        return dict(self._index[user].held)

    def free_resources(self, rtype_id: str) -> list[int]:
        """Ids of the unreserved machines of one type, lowest first."""
        return sorted(self._free.get(rtype_id, ()))

    def idle_resources(self, user: str, rtype_id: str | None = None) -> list[int]:
        """Ids of a user's idle machines, optionally of one type, lowest first."""
        ids = sorted(self._index[user].pools[_IDLE])
        if rtype_id is None:
            return ids
        resources = self.resources
        return [rid for rid in ids if resources[rid].rtype.id == rtype_id]

    def idle_among(self, user: str, ids: set[int]) -> list[int]:
        """The ids in ``ids`` that name an idle machine of the user, lowest
        first."""
        return sorted(self._index[user].pools[_IDLE].intersection(ids))

    def any_held(self) -> bool:
        """Whether any user holds a machine."""
        return sum(map(len, self._free.values())) < len(self.resources)

    def joint_dag(self, user: str) -> tuple[list[int], list[tuple[int, int]]]:
        """Unfinished tasks of the user's arrived workflows, with the
        precedence edges among them, as one combined DAG.

        Node and edge order is deterministic (arrival sequence, then
        topological index). This is the explicit form of what the
        ``UserFacade`` queries ``frontier``, ``children`` and
        ``unfinished_parents`` describe; no policy needs it built.
        """
        tasks = self._index[user].unfinished
        return list(tasks), [(h, c) for h, children in tasks.items() for c in children]

    # -- reservations -------------------------------------------------------

    def apply(self, user: str, release: list[int], reserve: list[int], now: int) -> None:
        """Release machines in listed order, then reserve in id order, for one
        user. Nothing changes unless the whole decision is valid: a released
        id names an idle machine the user holds, past its first paid
        interval; a reserved id names a free machine; no id appears twice;
        and the user's cost after the decision stays within budget."""
        if user not in self.users:
            raise KeyError(f"unknown user {user!r}")
        resources, n = self.resources, len(self.resources)
        named: set[int] = set()
        for rid in release:
            if not 0 <= rid < n or resources[rid].user != user:
                raise ValueError(f"policy released resource {rid}, which {user} does not hold")
            r = resources[rid]
            if r.state is not _IDLE or rid in named:
                raise ValueError(f"resource {rid} not idle")
            if r.billing_end_s > now:
                raise ValueError(f"resource {rid} released before its billing end")
            named.add(rid)
        for rid in reserve:
            if not 0 <= rid < n:
                raise ValueError(f"policy allocated resource {rid}, which is not a machine")
            if resources[rid].state is not _DOWN or rid in named:
                raise CapacityExceeded(f"resource {rid} is not free")
            named.add(rid)
        if reserve:  # releases alone cannot take a user over budget
            change = sum(resources[rid].rtype.cost for rid in reserve)
            change -= sum(resources[rid].rtype.cost for rid in release)
            if self.allocated_cost(user) + change > self.users[user].budget:
                tick = now // self.config.interval_s
                raise BudgetViolation(f"tick {tick}: allocation for {user} would exceed budget")
        for rid in release:
            r = resources[rid]
            self._move(r, _DOWN)
            r.user = r.billing_end_s = r.free_s = None
        booted = _BOOTING if self.config.boot_delay_s > 0 else _IDLE
        for rid in sorted(reserve):
            r = resources[rid]
            r.user = user
            r.billing_end_s = now + self.config.interval_s
            r.free_s = now + self.config.boot_delay_s
            self._move(r, booted)

    def boot_complete(self, rid: int, now: int) -> None:
        r = self.resources[rid]
        if r.state is not _BOOTING:
            raise ValueError(f"resource {rid} not booting")
        self._move(r, _IDLE)
        r.free_s = now

    @property
    def all_done(self) -> bool:
        return not any(rec.unfinished for rec in self._index.values())


class UserFacade:
    """Read-only view of one user's machines and unfinished work, in plain
    ids, times and counts: every policy reads this. Nothing on it leads to
    the runs, their specs or task runtimes, so a policy that reads only this
    cannot use runtime knowledge. Tasks are named by their int handles.

    ``children(h)``, ``unfinished_parents(h)`` and ``workflow_of(h)`` look up
    one task. They are the bound ``__getitem__`` of the state's own int and
    str containers, so a planner that visits every task calls no Python
    function per visit."""

    __slots__ = ("_state", "_rec", "user_id", "children", "unfinished_parents", "workflow_of")

    def __init__(self, state: SystemState, user_id: str):
        self._state = state
        self._rec = rec = state._index[user_id]
        self.user_id = user_id
        # by handle: an unfinished task's children, its unfinished parent
        # count, and any task's workflow id
        self.children = rec.unfinished.__getitem__
        self.unfinished_parents = state.blocked.__getitem__
        self.workflow_of = state.workflow.__getitem__

    def counts_by_type(self) -> dict[str, int]:
        """{type id: machines the user holds of that type}, every type."""
        return self._state.counts_by_type(self.user_id)

    def idle(self, rtype_id: str | None = None) -> tuple[tuple[int, int], ...]:
        """(id, idle since) of each idle machine, of one type or of every
        type, lowest id first. Decisions are applied at ticks, where every
        paid interval ends, so any of these may be released."""
        resources = self._state.resources
        return tuple(
            (rid, resources[rid].free_s)
            for rid in self._state.idle_resources(self.user_id, rtype_id)
        )

    def free_ids(self, rtype_id: str) -> tuple[int, ...]:
        return tuple(self._state.free_resources(rtype_id))

    def held(self) -> tuple[tuple[int, str, int, int], ...]:
        """(id, type id, running task, time) of each held machine, lowest id
        first. A busy machine gives its task's handle and start. Any other
        gives -1 and the time it is free from: its boot end while it boots,
        else the time it went idle."""
        resources = self._state.resources
        out = []
        for rid in sorted(chain.from_iterable(self._rec.pools.values())):
            r = resources[rid]
            if r.state is _BUSY:
                out.append((r.id, r.rtype.id, r.running, r.start_s))
            else:
                out.append((r.id, r.rtype.id, -1, r.free_s))
        return tuple(out)

    def workflows(self) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
        """(id, priority, arrival, unfinished tasks) of each workflow with
        unfinished tasks, in arrival order; its tasks in topological order."""
        return tuple(
            (run.spec.id, run.spec.priority, run.spec.arrival_s, tuple(hs))
            for run, hs in groupby(self._rec.unfinished, self._state.task_runs.__getitem__)
        )

    def eligible(self) -> list[int]:
        """Eligible tasks in dispatch order."""
        return self._state.eligible_tasks(self.user_id)

    def frontier(self) -> tuple[int, ...]:
        """Unfinished tasks with no unfinished parent, running ones included."""
        return tuple(self._rec.frontier)

    def finished_by_type(self) -> dict[str, int]:
        """Tasks finished so far, per type of the machine that ran them."""
        return dict(self._rec.finished)


__all__ = ["SystemState", "TaskRef", "UserFacade", "WorkflowRun"]
