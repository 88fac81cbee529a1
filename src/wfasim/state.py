"""Mutable simulation state: arrived workflows, task lifecycle, reservations.

The state object enforces the local invariants (a task starts only when
eligible, a resource runs one task, Idle -> Down only at a billing boundary);
the engine owns event ordering on top of it, and bills each interval from
the pools below.

Queries are served from indexes that the transitions below keep up to date,
so no query scans every machine or re-sorts every eligible task:

- one heap of ``(order_key, ref)`` per user, pushed when a task becomes
  eligible; entries of tasks that have since started are stale and are
  skipped, or compacted away once they outnumber the live ones;
- one set of machine ids per (user, type, state) for the reserved states,
  and one set of free machine ids per type;
- per user, the unfinished tasks with their edges in arrival, then
  topological, order, and the finished-task count per type.

Index invariant: only the ``SystemState`` transitions (``reserve``,
``boot_complete``, ``start_task``, ``finish_task`` and ``release``) may
change ``Resource.state`` or ``Resource.user``. A change made anywhere else
leaves the indexes describing a machine that is no longer there.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .dagops import WorkflowGraph
from .model import (
    CapacityExceeded,
    Resource,
    ResourceState,
    SystemConfig,
    TaskStatus,
    UserConfig,
    WorkflowSpec,
)

TaskRef = tuple[str, str]  # (workflow id, task id)
OrderKey = tuple[int, int, int, int]


@dataclass
class WorkflowRun:
    """Execution record of one arrived workflow."""

    spec: WorkflowSpec
    graph: WorkflowGraph
    seq: int  # arrival sequence number, deterministic tie-break
    status: dict[str, TaskStatus] = field(default_factory=dict)
    blocked_parents: dict[str, int] = field(default_factory=dict)
    unfinished: int = 0
    last_finish_s: int | None = None
    task_start_s: dict[str, int] = field(default_factory=dict)
    task_resource: dict[str, int] = field(default_factory=dict)

    @property
    def done(self) -> bool:
        return self.unfinished == 0

    def order_key(self, task_id: str) -> OrderKey:
        """Deterministic dispatch order: priority desc, arrival asc, then
        arrival sequence and topological index ascending."""
        return (
            -self.spec.priority,
            self.spec.arrival_s,
            self.seq,
            self.graph.topo_index[task_id],
        )


_HELD = (ResourceState.BOOTING, ResourceState.IDLE, ResourceState.BUSY)


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
        self.user_workflows: dict[str, list[str]] = {u.id: [] for u in users}
        self._running: dict[str, int] = {u.id: 0 for u in users}
        self._eligible: dict[str, int] = {u.id: 0 for u in users}
        self._heaps: dict[str, list[tuple[OrderKey, TaskRef]]] = {u.id: [] for u in users}
        self._unfinished: dict[str, dict[TaskRef, tuple]] = {u.id: {} for u in users}
        self._arrival_seq = 0
        self._type_ids = tuple(t.id for t in config.types)
        # machine ids: user -> state -> type id -> ids, and type id -> free ids
        self._pools: dict[str, dict[ResourceState, dict[str, set[int]]]] = {
            u.id: {s: {t: set() for t in self._type_ids} for s in _HELD} for u in users
        }
        self._free: dict[str, set[int]] = {t: set() for t in self._type_ids}
        for r in self.resources:
            self._free[r.rtype.id].add(r.id)
        self._finished = {u.id: dict.fromkeys(self._type_ids, 0) for u in users}

    def _move(self, resource: Resource, to: ResourceState) -> None:
        """Set a machine's state and move its id to the matching pool."""
        rtype_id = resource.rtype.id
        if resource.state is ResourceState.DOWN:
            self._free[rtype_id].remove(resource.id)
        else:
            self._pools[resource.user][resource.state][rtype_id].remove(resource.id)
        if to is ResourceState.DOWN:
            self._free[rtype_id].add(resource.id)
        else:
            self._pools[resource.user][to][rtype_id].add(resource.id)
        resource.state = to

    def _ids(
        self, user: str, states: tuple[ResourceState, ...], rtype_id: str | None = None
    ) -> list[Resource]:
        pools = self._pools[user]
        types = self._type_ids if rtype_id is None else (rtype_id,)
        ids = [rid for s in states for t in types for rid in pools[s].get(t, ())]
        ids.sort()
        return [self.resources[rid] for rid in ids]

    # -- workflow lifecycle -------------------------------------------------

    def _make_eligible(self, run: WorkflowRun, task_id: str) -> None:
        run.status[task_id] = TaskStatus.ELIGIBLE
        user = run.spec.user
        self._eligible[user] += 1
        heapq.heappush(self._heaps[user], (run.order_key(task_id), (run.spec.id, task_id)))

    def arrive(self, spec: WorkflowSpec, graph: WorkflowGraph | None = None) -> WorkflowRun:
        if spec.id in self.runs:
            raise ValueError(f"workflow {spec.id!r} already arrived")
        if spec.user not in self.users:
            raise KeyError(f"unknown user {spec.user!r}")
        graph = graph or WorkflowGraph(spec)
        run = WorkflowRun(spec=spec, graph=graph, seq=self._arrival_seq)
        self._arrival_seq += 1
        run.unfinished = len(spec.tasks)
        refs = {tid: (spec.id, tid) for tid in graph.topo_order}
        for tid, ref in refs.items():
            self._unfinished[spec.user][ref] = tuple((ref, refs[c]) for c in graph.children[tid])
            blocked = len(graph.parents[tid])
            run.blocked_parents[tid] = blocked
            if blocked == 0:
                self._make_eligible(run, tid)
            else:
                run.status[tid] = TaskStatus.PENDING
        self.runs[spec.id] = run
        self.user_workflows[spec.user].append(spec.id)
        return run

    def start_task(self, wf_id: str, task_id: str, resource: Resource, now: int) -> None:
        run = self.runs[wf_id]
        user = run.spec.user
        if run.status[task_id] is not TaskStatus.ELIGIBLE:
            raise ValueError(f"task {wf_id}/{task_id} not eligible")
        if resource.state is not ResourceState.IDLE or resource.user != user:
            raise ValueError(f"resource {resource.id} not idle for {user}")
        run.status[task_id] = TaskStatus.RUNNING
        run.task_start_s[task_id] = now
        run.task_resource[task_id] = resource.id
        self._eligible[user] -= 1
        self._running[user] += 1
        self._move(resource, ResourceState.BUSY)
        resource.running = (wf_id, task_id)
        resource.idle_since_s = None
        # The started task's heap entry is now stale. A task started out of
        # heap order leaves it buried, so compact once stale entries outnumber
        # live ones; the heap then stays within twice the eligible count.
        heap = self._heaps[user]
        if len(heap) > 2 * self._eligible[user]:
            heap[:] = [e for e in heap if self._is_eligible(e[1])]
            heapq.heapify(heap)

    def finish_task(self, wf_id: str, task_id: str, now: int) -> list[TaskRef]:
        """Complete a running task; returns task refs that became eligible."""
        run = self.runs[wf_id]
        if run.status[task_id] is not TaskStatus.RUNNING:
            raise ValueError(f"task {wf_id}/{task_id} not running")
        run.status[task_id] = TaskStatus.FINISHED
        run.unfinished -= 1
        if run.unfinished == 0:
            run.last_finish_s = now
        user = run.spec.user
        self._running[user] -= 1
        del self._unfinished[user][(wf_id, task_id)]
        resource = self.resources[run.task_resource[task_id]]
        self._finished[user][resource.rtype.id] += 1
        self._move(resource, ResourceState.IDLE)
        resource.running = None
        resource.idle_since_s = now
        freed: list[TaskRef] = []
        for child in run.graph.children[task_id]:
            run.blocked_parents[child] -= 1
            if run.blocked_parents[child] == 0:
                self._make_eligible(run, child)
                freed.append((wf_id, child))
        return freed

    # -- queries ------------------------------------------------------------

    def _is_eligible(self, ref: TaskRef) -> bool:
        return self.runs[ref[0]].status[ref[1]] is TaskStatus.ELIGIBLE

    def eligible_tasks(self, user: str) -> list[TaskRef]:
        """Eligible tasks of a user in deterministic dispatch order."""
        # order keys are unique, so sorting the entries never compares refs
        return [ref for _key, ref in sorted(self._heaps[user]) if self._is_eligible(ref)]

    def next_eligible(self, user: str) -> TaskRef | None:
        """The user's first eligible task in dispatch order, or None."""
        heap = self._heaps[user]
        while heap:
            ref = heap[0][1]
            if self._is_eligible(ref):
                return ref
            heapq.heappop(heap)
        return None

    def momentary_demand(self, user: str) -> int:
        """Running plus eligible task count: work the user could use now."""
        return self._running[user] + self._eligible[user]

    def supply(self, user: str) -> int:
        return sum(len(ids) for s in _HELD for ids in self._pools[user][s].values())

    def busy_count(self, user: str) -> int:
        return sum(len(ids) for ids in self._pools[user][ResourceState.BUSY].values())

    def allocated_cost(self, user: str) -> int:
        pools = self._pools[user]
        return sum(
            t.cost * len(pools[s][t.id]) for t in self.config.types for s in _HELD
        )

    def counts_by_type(self, user: str) -> dict[str, int]:
        """{type id: machines the user holds of that type}, every type."""
        pools = self._pools[user]
        return {t: sum(len(pools[s][t]) for s in _HELD) for t in self._type_ids}

    def free_resources(self, rtype_id: str) -> list[Resource]:
        """Unreserved resources of one type, lowest id first."""
        return [self.resources[rid] for rid in sorted(self._free.get(rtype_id, ()))]

    def idle_resources(self, user: str, rtype_id: str | None = None) -> list[Resource]:
        """Idle resources of a user, optionally of one type, lowest id first."""
        return self._ids(user, (ResourceState.IDLE,), rtype_id)

    def user_resources(self, user: str) -> list[Resource]:
        """Reserved resources of a user, lowest id first."""
        return self._ids(user, _HELD)

    def reserved(self) -> list[Resource]:
        """Every reserved resource, grouped by user, state and type."""
        return [
            self.resources[rid]
            for pools in self._pools.values()
            for by_type in pools.values()
            for ids in by_type.values()
            for rid in ids
        ]

    def joint_dag(self, user: str) -> tuple[list[TaskRef], list[tuple[TaskRef, TaskRef]]]:
        """Unfinished tasks of the user's arrived workflows, with the
        precedence edges among them, as one combined DAG.

        Node and edge order is deterministic (arrival sequence, then
        topological index).
        """
        tasks = self._unfinished[user]
        return list(tasks), [edge for edges in tasks.values() for edge in edges]

    # -- reservations -------------------------------------------------------

    def reserve(self, resource: Resource, user: str, now: int) -> None:
        if resource.state is not ResourceState.DOWN:
            raise CapacityExceeded(f"resource {resource.id} is not free")
        if user not in self.users:
            raise KeyError(f"unknown user {user!r}")
        resource.user = user
        resource.billing_end_s = now + self.config.interval_s
        if self.config.boot_delay_s > 0:
            self._move(resource, ResourceState.BOOTING)
            resource.boot_ready_s = now + self.config.boot_delay_s
            resource.idle_since_s = None
        else:
            self._move(resource, ResourceState.IDLE)
            resource.boot_ready_s = now
            resource.idle_since_s = now

    def boot_complete(self, resource: Resource, now: int) -> None:
        if resource.state is ResourceState.BOOTING:
            self._move(resource, ResourceState.IDLE)
            resource.idle_since_s = now

    def release(self, resource: Resource, now: int) -> None:
        """Deallocate an idle resource at its billing boundary."""
        if resource.state is not ResourceState.IDLE:
            raise ValueError(f"resource {resource.id} not idle")
        if resource.billing_end_s is None or resource.billing_end_s > now:
            raise ValueError(
                f"resource {resource.id} released before its billing end"
            )
        self._move(resource, ResourceState.DOWN)
        resource.user = None
        resource.billing_end_s = None
        resource.boot_ready_s = None
        resource.idle_since_s = None
        resource.running = None

    def prolong(self, resource: Resource, now: int) -> None:
        """Extend a reservation one more billing interval."""
        if not resource.reserved:
            raise ValueError(f"resource {resource.id} not reserved")
        if resource.billing_end_s is not None and resource.billing_end_s <= now:
            resource.billing_end_s = now + self.config.interval_s

    @property
    def all_done(self) -> bool:
        return not any(self._unfinished.values())


class UserFacade:
    """Read-only view of one user's machines and unfinished work, in plain
    ids and counts. Nothing on it leads to the runs, their specs or task
    runtimes, so a policy that reads only this cannot use runtime knowledge."""

    __slots__ = ("_state", "user_id")

    def __init__(self, state: SystemState, user_id: str):
        self._state = state
        self.user_id = user_id

    def counts_by_type(self) -> dict[str, int]:
        return self._state.counts_by_type(self.user_id)

    def idle(self, rtype_id: str) -> tuple[tuple[int, int, int], ...]:
        """(id, billing end, idle since) of each idle machine, lowest id first."""
        return tuple(
            (r.id, r.billing_end_s or 0, r.idle_since_s or 0)
            for r in self._state.idle_resources(self.user_id, rtype_id)
        )

    def free_ids(self, rtype_id: str) -> tuple[int, ...]:
        return tuple(r.id for r in self._state.free_resources(rtype_id))

    def joint_dag(self) -> tuple[list[TaskRef], list[tuple[TaskRef, TaskRef]]]:
        return self._state.joint_dag(self.user_id)

    def finished_by_type(self) -> dict[str, int]:
        """Tasks finished so far, per type of the machine that ran them."""
        return dict(self._state._finished[self.user_id])


__all__ = ["SystemState", "TaskRef", "UserFacade", "WorkflowRun"]
