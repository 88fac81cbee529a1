"""Plan following: starting the tasks of each user's installed plan.

Dynamic placement needs no code here: ``SystemState.start_eligible`` starts a
user's eligible tasks in dispatch order on its idle machines."""

from __future__ import annotations

import heapq
from collections import deque

from .policies.base import ExecutionPlan
from .state import SystemState

Assignment = tuple[int, int]  # (task handle, resource id)


class PlanRunner:
    """Executes the per-user execution plans installed at each tick.

    A planned task starts when its planned resource is idle and the planned
    start time has passed; it never starts early. An entry whose start time
    has passed but whose task is not yet eligible is dropped (the next tick
    replans it). Entries are consumed strictly in timeline order.

    Dispatch visits only due queues. Per user, each machine with a queue is
    either on a heap of ``(head start, machine id)``, while its head lies in
    the future, or in the set of machines whose head is due. A dispatch
    first moves the heads due by now from the heap to the set, then visits,
    in id order, the machines of the set that the state names as the user's
    idle ones (``SystemState.idle_among``): a busy machine keeps its overdue
    head until a later dispatch finds it idle. A machine leaves the set when
    its queue empties, and goes back on the heap when its next head lies in
    the future. Visiting in id order fixes the order of starts, and so the
    trace rows and the order of finish events at equal times.

    A dispatch leaves no due entry startable until the user's state
    changes, so a second dispatch at the same instant with no change in
    between starts nothing. :meth:`dispatched_at` lets the engine skip one.
    """

    def __init__(self) -> None:
        # user -> (resource id -> (start, task handle) in timeline order,
        #          heap of (head start, resource id) of heads not yet due,
        #          resource ids whose head is due)
        self._plans: dict[str, tuple[dict[int, deque[tuple[int, int]]],
                                     list[tuple[int, int]], set[int]]] = {}
        self._dispatched: dict[str, int] = {}  # user -> time of the last dispatch

    def dispatched_at(self, user: str) -> int | None:
        """When the user was last dispatched, if ever."""
        return self._dispatched.get(user)

    def install(self, user: str, plan: ExecutionPlan) -> list[int]:
        """Replace the user's plan; returns future start times needing wakes."""
        queues: dict[int, deque[tuple[int, int]]] = {}
        heads: list[tuple[int, int]] = []
        wakes: set[int] = set()
        for rid, timeline in plan.by_resource.items():
            pending = [(e.start_s, e.task) for e in timeline if not e.pinned]
            if pending:
                queues[rid] = deque(pending)
                heads.append((pending[0][0], rid))
                wakes.update([start_s for start_s, _h in pending])
        heapq.heapify(heads)
        self._plans[user] = (queues, heads, set())
        return sorted(wakes)

    def dispatch(self, state: SystemState, user: str, now: int) -> list[Assignment]:
        self._dispatched[user] = now
        plan = self._plans.get(user)
        if plan is None:
            return []
        queues, heads, due = plan
        while heads and heads[0][0] <= now:
            due.add(heapq.heappop(heads)[1])
        if not due:
            return []
        out: list[Assignment] = []
        for rid in state.idle_among(user, due):
            q = queues[rid]
            while q:
                start_s, h = q[0]
                if start_s > now:
                    break
                # Started now, or overdue but not runnable (a parent overran)
                # or already handled: either way the entry is consumed, and
                # the next tick replans a dropped task.
                q.popleft()
                if state.is_eligible(h):
                    state.start_task(h, rid, now)
                    out.append((h, rid))
                    break
            if not q:
                del queues[rid]
                due.remove(rid)
            elif q[0][0] > now:
                due.remove(rid)
                heapq.heappush(heads, (q[0][0], rid))
        return out


__all__ = ["Assignment", "PlanRunner"]
