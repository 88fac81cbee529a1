"""Domain model for budget-constrained autoscaling simulations.

Time is integer seconds throughout. Currency is integer units per billing
interval. A workload is a list of workflows; each workflow is a DAG of tasks
with one runtime per resource type.

A task stores its runtimes as two aligned tuples, ``types`` (type ids) and
``runtimes`` (seconds), and no dict. The tasks generated or loaded together
share one ``types`` tuple per key order, and generated tasks share equal
``runtimes`` tuples too. ``TaskSpec.runtime_by_type`` builds a dict on each
access, for the edges (tests, demos, benchmark checks); no other module of
the package reads it: the simulator's readers index the tuples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

from .schema import WORKLOAD, check


class ModelError(Exception):
    """Base class for model-level errors."""


class WorkloadInvalid(ModelError):
    """A workflow failed structural validation."""

    def __init__(self, workflow_id: str, issues: list[str]):
        self.workflow_id = workflow_id
        self.issues = issues
        super().__init__(f"workflow {workflow_id!r}: {'; '.join(issues)}")


class ZeroIdealMakespan(ModelError):
    """A workflow has no positive-length critical path."""


class BudgetTooSmall(ModelError):
    """A per-interval budget cannot reserve even one instance of some type."""


class BudgetViolation(ModelError):
    """A decision would take a user's reserved cost over its budget."""


class CapacityExceeded(ModelError):
    """An allocation request exceeded the configured type capacity."""


class Stalled(ModelError):
    """Work remains, but no machine is held and no event is pending, so no
    later tick can see a different state."""


@dataclass(frozen=True, slots=True)
class ResourceType:
    """A reservable machine class with a fixed per-interval price."""

    id: str
    cost: int

    def __post_init__(self) -> None:
        if self.cost <= 0:
            raise ValueError(f"resource type {self.id!r}: cost must be positive")


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class TaskSpec:
    """One task: an id plus its runtime in seconds on each resource type.

    ``TaskSpec(id, runtime_by_type)`` checks the mapping and stores it as
    ``types``, the type ids in the mapping's key order, and ``runtimes``,
    an int tuple aligned with them: the runtime on ``types[k]`` is
    ``runtimes[k]``. :meth:`aligned` builds a task from such a pair
    unchecked, so that the tasks built together can share one ``types``
    tuple. ``runtime_by_type`` is a new dict on each access, so changing it
    changes no task.

    Two tasks are equal when their ids and runtime mappings are, whatever
    the key order; like the mapping, a task is unhashable.
    """

    id: str
    types: tuple[str, ...]
    runtimes: tuple[int, ...]

    def __init__(self, id: str, runtime_by_type: Mapping[str, int]):
        if not runtime_by_type:
            raise ValueError(f"task {id!r}: needs a runtime on at least one type")
        for rtype, seconds in runtime_by_type.items():
            if not isinstance(seconds, int) or seconds < 1:
                raise ValueError(f"task {id!r}: runtime on {rtype!r} must be an int >= 1")
        _set_id(self, id)
        _set_types(self, tuple(runtime_by_type))
        _set_runtimes(self, tuple(runtime_by_type.values()))

    @staticmethod
    def aligned(task_id: str, types: tuple[str, ...], runtimes: tuple[int, ...]) -> TaskSpec:
        """A task from distinct type ids and their runtimes, each an int
        >= 1, as :class:`TaskSpec` would check them: the caller vouches for
        both, and the tuples are held as given."""
        task = _new(TaskSpec)
        _set_id(task, task_id)
        _set_types(task, types)
        _set_runtimes(task, runtimes)
        return task

    @property
    def runtime_by_type(self) -> dict[str, int]:
        types, runtimes = self.types, self.runtimes
        if len(types) == 2:  # every generated task: a display costs a third of dict(zip())
            return {types[0]: runtimes[0], types[1]: runtimes[1]}
        return dict(zip(types, runtimes))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TaskSpec:
            return NotImplemented
        if self.id != other.id:
            return False
        if self.types == other.types:
            return self.runtimes == other.runtimes
        return self.runtime_by_type == other.runtime_by_type

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TaskSpec(id={self.id!r}, runtime_by_type={self.runtime_by_type!r})"


# A frozen task refuses setattr, so its slots are set through their own
# descriptors, the cheapest way past that refusal.
_new = object.__new__
_set_id = TaskSpec.id.__set__
_set_types = TaskSpec.types.__set__
_set_runtimes = TaskSpec.runtimes.__set__


@dataclass(frozen=True, slots=True)
class WorkflowSpec:
    """A DAG workflow owned by one user.

    ``edges`` lists (parent, child) pairs by task id. ``priority`` runs 0..9
    with 9 most important. ``arrival_s`` is the submission time in seconds.
    """

    id: str
    user: str
    priority: int
    arrival_s: int
    tasks: tuple[TaskSpec, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not 0 <= self.priority <= 9:
            raise ValueError(f"workflow {self.id!r}: priority must be in 0..9")
        if self.arrival_s < 0:
            raise ValueError(f"workflow {self.id!r}: arrival must be >= 0")


@dataclass(frozen=True)
class UserConfig:
    """Per-user autoscaling constraint: budget per billing interval."""

    id: str
    budget: int

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError(f"user {self.id!r}: budget must be >= 0")


@dataclass(frozen=True)
class SystemConfig:
    """Static system description shared by all policies.

    The billing period equals the autoscaling interval; resources are charged
    per interval from the moment they are reserved, booting time included.
    """

    types: tuple[ResourceType, ...]
    capacity: Mapping[str, int]
    interval_s: int
    boot_delay_s: int = 0

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("autoscaling interval must be positive")
        if self.boot_delay_s < 0:
            raise ValueError("boot delay must be >= 0")
        ids = [t.id for t in self.types]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate resource type ids")
        for tid in ids:
            if self.capacity.get(tid, 0) < 0:
                raise ValueError(f"capacity for {tid!r} must be >= 0")
        for key in self.capacity:
            if key not in ids:
                raise ValueError(f"capacity references unknown type {key!r}")

    def total_capacity(self) -> int:
        return sum(self.capacity.get(t.id, 0) for t in self.types)

    def types_with_machines(self) -> tuple[ResourceType, ...]:
        """The types the system holds at least one machine of, in config order."""
        return tuple(t for t in self.types if self.capacity.get(t.id, 0) > 0)


class ResourceState(Enum):
    DOWN = "down"
    BOOTING = "booting"
    IDLE = "idle"
    BUSY = "busy"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality, and it is computed in C rather than by
    # Enum.__hash__ on every pool lookup.
    __hash__ = object.__hash__


@dataclass(slots=True)
class Resource:
    """A single reservable machine slot.

    State machine: Down -> Booting -> Idle <-> Busy, and Idle -> Down. While
    reserved, ``billing_end_s`` is the end of the first paid interval: a
    release before it is refused. The engine bills every later interval at
    the tick that opens it, and releases only at ticks, so nothing moves it.
    While held and not busy, ``free_s`` is the time the machine is free
    from: its boot end while it boots, else the time it went idle.
    """

    id: int
    rtype: ResourceType
    state: ResourceState = ResourceState.DOWN
    user: str | None = None
    billing_end_s: int | None = None
    free_s: int | None = None
    running: int | None = None  # handle of the running task


def min_runtime(task: TaskSpec) -> int:
    """Fastest runtime of a task across all resource types."""
    return min(task.runtimes)


# --------------------------------------------------------------------------
# Workload interchange format
# --------------------------------------------------------------------------

def workflow_to_dict(spec: WorkflowSpec) -> dict:
    return {
        "id": spec.id,
        "user": spec.user,
        "priority": spec.priority,
        "arrival_s": spec.arrival_s,
        "tasks": [
            {"id": t.id, "runtimes": t.runtime_by_type} for t in spec.tasks
        ],
        "edges": [[p, c] for p, c in spec.edges],
    }


def workflow_from_row(row: dict, shared: dict[tuple, tuple] | None = None) -> WorkflowSpec:
    """The spec of a workflow object checked against ``schema.WORKFLOW``.

    ``shared`` maps each tuple of type ids to the one object that stands for
    it, so the tasks read with one table share their ``types``."""
    share = ({} if shared is None else shared).setdefault
    tasks = []
    for t in row["tasks"]:
        checked = TaskSpec(t["id"], t["runtimes"])
        types = share(checked.types, checked.types)
        tasks.append(TaskSpec.aligned(checked.id, types, checked.runtimes))
    return WorkflowSpec(
        row["id"], row["user"], row["priority"], row["arrival_s"],
        tuple(tasks), tuple((p, c) for p, c in row["edges"]),
    )


def save_workload(workflows: Iterable[WorkflowSpec], path: str | Path) -> None:
    payload = {"workflows": [workflow_to_dict(w) for w in workflows]}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def load_workload(path: str | Path) -> list[WorkflowSpec]:
    doc = check(json.loads(Path(path).read_text()), WORKLOAD, "workload")
    shared: dict[tuple, tuple] = {}
    return [workflow_from_row(w, shared) for w in doc["workflows"]]


__all__ = [
    "BudgetTooSmall",
    "BudgetViolation",
    "CapacityExceeded",
    "ModelError",
    "Resource",
    "ResourceState",
    "ResourceType",
    "SystemConfig",
    "TaskSpec",
    "UserConfig",
    "WorkflowSpec",
    "WorkloadInvalid",
    "ZeroIdealMakespan",
    "load_workload",
    "min_runtime",
    "save_workload",
    "workflow_from_row",
    "workflow_to_dict",
]
