"""Shared policy interfaces: decisions, execution plans, observation views."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

from ..model import SystemConfig, TaskSpec, UserConfig

if TYPE_CHECKING:
    from ..state import UserFacade

# Perfect runtime estimates: the oracle returns the workload's true runtime.
RuntimeOracle = Callable[[TaskSpec, str], int]


def perfect_oracle(task: TaskSpec, rtype_id: str) -> int:
    """The true runtime, read from the task's int tuple at the type's place
    in its type tuple; no mapping is built."""
    return task.runtimes[task.types.index(rtype_id)]


def pick_free(
    free_ids: Callable[[str], Iterable[int]],
    types: Sequence[tuple[str, int]],
    wanted: Mapping[str, int],
    headroom: int,
) -> list[tuple[int, str]]:
    """The machines a decision reserves, as (id, type id): for each
    (type id, cost) in the given order, the lowest free ids up to the wanted
    count, while the cost of what is picked stays within the budget
    headroom."""
    picked: list[tuple[int, str]] = []
    spend = 0
    for tid, cost in types:
        want = wanted.get(tid, 0)
        if want <= 0:
            continue
        for rid in free_ids(tid):
            if want == 0 or spend + cost > headroom:
                break
            picked.append((rid, tid))
            spend += cost
            want -= 1
    return picked


class PlanEntry(NamedTuple):
    """One planned placement: a task occupies a resource for [start, end).

    A named tuple, not a dataclass: a planner makes one per placed task on
    every tick, and a tuple is built several times faster."""

    resource_id: int
    task: int  # handle; ``UserFacade.workflow_of`` gives its workflow's id
    start_s: int
    end_s: int
    pinned: bool = False  # already running when the plan was built


class ExecutionPlan:
    """Per-resource timelines of planned task placements."""

    def __init__(self) -> None:
        self.by_resource: dict[int, list[PlanEntry]] = {}
        self.by_task: dict[int, PlanEntry] = {}  # task handle -> its entry

    def add(self, entry: PlanEntry) -> None:
        if entry.task in self.by_task:
            raise ValueError(f"task {entry.task} planned twice")
        timeline = self.by_resource.setdefault(entry.resource_id, [])
        if timeline and entry.start_s < timeline[-1].end_s:
            raise ValueError(f"overlap on resource {entry.resource_id}")
        timeline.append(entry)
        self.by_task[entry.task] = entry

    def has_tasks(self, resource_id: int) -> bool:
        return bool(self.by_resource.get(resource_id))

    def entries(self) -> list[PlanEntry]:
        out: list[PlanEntry] = []
        for rid in sorted(self.by_resource):
            out.extend(self.by_resource[rid])
        return out

    def __len__(self) -> int:
        return len(self.by_task)


@dataclass
class Decision:
    """What a policy wants applied at a tick.

    ``alloc`` lists the free machines to reserve, by id, and ``dealloc``
    the idle machines to release. The engine applies both at the tick, where
    every paid interval ends: it releases first, then reserves in id order.
    Plan-following policies also ship the next interval's plan.
    """

    alloc: list[int] = field(default_factory=list)
    dealloc: list[int] = field(default_factory=list)
    plan: ExecutionPlan | None = None
    diagnostics: dict | None = None
    step_seconds: dict[str, float] = field(default_factory=dict)


@dataclass
class PolicyView:
    """Everything the engine exposes to one policy invocation.

    Every policy reads the user's machines and unfinished work from the
    runtime-free ``observation``. Runtimes come only from ``oracle``, asked
    about the ``TaskSpec`` in ``tasks`` (indexed by task handle): the
    planners do that, and a feedback policy reads neither."""

    now: int
    tick: int
    user: UserConfig
    config: SystemConfig
    observation: "UserFacade"
    oracle: RuntimeOracle
    tasks: Sequence[TaskSpec]
    rng: random.Random

    @property
    def horizon_s(self) -> int:
        return self.now + self.config.interval_s


class Policy:
    """Base autoscaling policy.

    ``mode`` selects the task dispatch style: "dynamic" pairs eligible tasks
    with idle resources work-conservingly; "plan" follows the decision's
    execution plan.
    """

    name = "base"
    mode = "dynamic"

    def decide(self, view: PolicyView) -> Decision:
        raise NotImplementedError


__all__ = [
    "Decision",
    "ExecutionPlan",
    "PlanEntry",
    "Policy",
    "PolicyView",
    "RuntimeOracle",
    "perfect_oracle",
    "pick_free",
]
