"""Task dispatch: work-conserving dynamic placement and plan following."""

from __future__ import annotations

from collections import deque

from .model import TaskStatus
from .policies.base import ExecutionPlan, PlanEntry
from .state import SystemState

Assignment = tuple[str, str, int]  # (workflow id, task id, resource id)


def dispatch_dynamic(state: SystemState, user: str, now: int) -> list[Assignment]:
    """Pair eligible tasks with idle resources of the same user.

    Tasks in dispatch order (priority desc, arrival asc, topological index
    asc) take the lowest-id idle resource first, regardless of type.
    """
    out: list[Assignment] = []
    if state.next_eligible(user) is None:
        return out
    for resource in state.idle_resources(user):
        ref = state.next_eligible(user)
        if ref is None:
            break
        state.start_task(ref[0], ref[1], resource, now)
        out.append((ref[0], ref[1], resource.id))
    return out


class PlanRunner:
    """Executes the per-user execution plans installed at each tick.

    A planned task starts when its planned resource is idle and the planned
    start time has passed; it never starts early. An entry whose start time
    has passed but whose task is not yet eligible is dropped (the next tick
    replans it). Entries are consumed strictly in timeline order.
    """

    def __init__(self) -> None:
        self._queues: dict[str, dict[int, deque[PlanEntry]]] = {}

    def install(self, user: str, plan: ExecutionPlan) -> list[int]:
        """Replace the user's plan; returns future start times needing wakes."""
        queues: dict[int, deque[PlanEntry]] = {}
        wakes: set[int] = set()
        for rid in sorted(plan.by_resource):
            pending = deque(e for e in plan.by_resource[rid] if not e.pinned)
            if pending:
                queues[rid] = pending
                for e in pending:
                    wakes.add(e.start_s)
        self._queues[user] = queues
        return sorted(wakes)

    def dispatch(self, state: SystemState, user: str, now: int) -> list[Assignment]:
        queues = self._queues.get(user)
        if not queues:
            return []
        out: list[Assignment] = []
        # only idle machines with a queue can start anything
        for rid in state.idle_ids(user, queues.keys()):
            q = queues[rid]
            while q:
                entry = q[0]
                if entry.start_s > now:
                    break
                if state.runs[entry.wf_id].status[entry.task_id] is TaskStatus.ELIGIBLE:
                    state.start_task(entry.wf_id, entry.task_id, state.resources[rid], now)
                    out.append((entry.wf_id, entry.task_id, rid))
                    q.popleft()
                    break
                # Overdue but not runnable (a parent overran) or already
                # handled: drop the entry, the next tick replans the task.
                q.popleft()
            if not q:
                del queues[rid]
        return out


__all__ = ["Assignment", "PlanRunner", "dispatch_dynamic"]
