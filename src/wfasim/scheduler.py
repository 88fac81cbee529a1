"""Task dispatch: work-conserving dynamic placement and plan following."""

from __future__ import annotations

from collections import deque

from .policies.base import ExecutionPlan
from .state import SystemState

Assignment = tuple[int, int]  # (task handle, resource id)


def dispatch_dynamic(state: SystemState, user: str, now: int) -> list[Assignment]:
    """Pair eligible tasks with idle resources of the same user.

    Tasks in dispatch order (priority desc, arrival asc, topological index
    asc) take the lowest-id idle resource first, regardless of type.
    """
    h = state.next_eligible(user)
    if h is None:
        return []
    resources = state.resources
    out: list[Assignment] = []
    for rid in state.idle_ids(user):
        state.start_task(h, resources[rid], now)
        out.append((h, rid))
        h = state.next_eligible(user)
        if h is None:
            break
    return out


class PlanRunner:
    """Executes the per-user execution plans installed at each tick.

    A planned task starts when its planned resource is idle and the planned
    start time has passed; it never starts early. An entry whose start time
    has passed but whose task is not yet eligible is dropped (the next tick
    replans it). Entries are consumed strictly in timeline order.
    """

    def __init__(self) -> None:
        # user -> resource id -> (start, task handle) in timeline order
        self._queues: dict[str, dict[int, deque[tuple[int, int]]]] = {}

    def install(self, state: SystemState, user: str, plan: ExecutionPlan) -> list[int]:
        """Replace the user's plan; returns future start times needing wakes."""
        queues: dict[int, deque[tuple[int, int]]] = {}
        wakes: set[int] = set()
        for rid in sorted(plan.by_resource):
            pending = deque(
                (e.start_s, state.handle(e.wf_id, e.task_id))
                for e in plan.by_resource[rid] if not e.pinned
            )
            if pending:
                queues[rid] = pending
                for start_s, _h in pending:
                    wakes.add(start_s)
        self._queues[user] = queues
        return sorted(wakes)

    def dispatch(self, state: SystemState, user: str, now: int) -> list[Assignment]:
        queues = self._queues.get(user)
        if not queues:
            return []
        out: list[Assignment] = []
        for rid in state.idle_ids(user):
            q = queues.get(rid)
            if q is None:  # nothing planned on this machine
                continue
            while q:
                start_s, h = q[0]
                if start_s > now:
                    break
                # Started now, or overdue but not runnable (a parent overran)
                # or already handled: either way the entry is consumed, and
                # the next tick replans a dropped task.
                q.popleft()
                if state.is_eligible(h):
                    state.start_task(h, state.resources[rid], now)
                    out.append((h, rid))
                    break
            if not q:
                del queues[rid]
        return out


__all__ = ["Assignment", "PlanRunner", "dispatch_dynamic"]
