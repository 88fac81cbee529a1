"""Structural operations on workflow DAGs.

Kept dependency-free and deterministic: topological order breaks ties by task
id, so every derived ordering (eligibility, planning, token waves) is stable
across runs and platforms.
"""

from __future__ import annotations

from typing import Callable

from .model import TaskSpec, WorkflowSpec, ZeroIdealMakespan, min_runtime


class WorkflowGraph:
    """Parsed view of a workflow spec: parent/child maps and topological order.

    Construction does not validate; call :func:`validate_workflow` first when
    the spec comes from outside. A graph built from an invalid spec may raise.
    """

    __slots__ = ("spec", "tasks", "parents", "children", "topo_order", "topo_index")

    def __init__(self, spec: WorkflowSpec):
        self.spec = spec
        self.tasks: dict[str, TaskSpec] = {t.id: t for t in spec.tasks}
        parents: dict[str, list[str]] = {t.id: [] for t in spec.tasks}
        children: dict[str, list[str]] = {t.id: [] for t in spec.tasks}
        for p, c in spec.edges:
            parents[c].append(p)
            children[p].append(c)
        self.parents = {k: tuple(v) for k, v in parents.items()}
        self.children = {k: tuple(v) for k, v in children.items()}
        self.topo_order = _topological_order(self.parents, self.children)
        self.topo_index = {tid: i for i, tid in enumerate(self.topo_order)}

    def entries(self) -> list[str]:
        return [tid for tid, ps in self.parents.items() if not ps]

    def exits(self) -> list[str]:
        return [tid for tid, cs in self.children.items() if not cs]


def _topological_order(
    parents: dict[str, tuple[str, ...]], children: dict[str, tuple[str, ...]]
) -> tuple[str, ...]:
    """Kahn's algorithm, smallest task id first among the ready set."""
    indeg = {tid: len(ps) for tid, ps in parents.items()}
    ready = sorted(tid for tid, d in indeg.items() if d == 0)
    order: list[str] = []
    while ready:
        tid = ready.pop(0)
        order.append(tid)
        inserted = False
        for child in children[tid]:
            indeg[child] -= 1
            if indeg[child] == 0:
                ready.append(child)
                inserted = True
        if inserted:
            ready.sort()
    return tuple(order)


def validate_workflow(
    spec: WorkflowSpec, graphs: dict[str, WorkflowGraph] | None = None
) -> list[str]:
    """Check a workflow spec, returning a list of issues (empty when valid).

    A valid workflow is a non-empty acyclic graph with exactly one entry task
    and one exit task and no edge referencing an unknown task. When
    ``graphs`` is given, the graph built for a valid spec is stored there
    under the workflow id, so the caller need not build it again.
    """
    issues: list[str] = []
    ids = [t.id for t in spec.tasks]
    if not ids:
        return ["EmptyWorkflow"]
    seen: set[str] = set()
    for tid in ids:
        if tid in seen:
            issues.append(f"DuplicateTask({tid})")
        seen.add(tid)
    known = set(ids)
    for p, c in spec.edges:
        if p not in known or c not in known:
            issues.append(f"DanglingEdge({p}->{c})")
    if issues:
        return issues

    graph = WorkflowGraph(spec)
    if len(graph.topo_order) != len(known):
        issues.append("CycleDetected")
        return issues
    entries = graph.entries()
    exits = graph.exits()
    if len(entries) > 1:
        issues.append("MultipleEntries(" + ",".join(sorted(entries)) + ")")
    if len(exits) > 1:
        issues.append("MultipleExits(" + ",".join(sorted(exits)) + ")")
    if graphs is not None and not issues:
        graphs[spec.id] = graph
    return issues


def critical_path_length(graph: WorkflowGraph, weight: Callable[[TaskSpec], int]) -> int:
    """Length of the longest path where each task contributes ``weight(task)``."""
    finish: dict[str, int] = {}
    for tid in graph.topo_order:
        ready = max((finish[p] for p in graph.parents[tid]), default=0)
        finish[tid] = ready + weight(graph.tasks[tid])
    return max(finish.values(), default=0)


def ideal_makespan(spec: WorkflowSpec | WorkflowGraph) -> int:
    """Critical-path makespan with every task on its fastest resource type.

    The baseline for slowdown: the shortest possible makespan on unlimited
    resources with zero waiting. Raises :class:`ZeroIdealMakespan` when the
    workflow has no tasks.
    """
    graph = spec if isinstance(spec, WorkflowGraph) else WorkflowGraph(spec)
    length = critical_path_length(graph, min_runtime)
    if length <= 0:
        raise ZeroIdealMakespan(graph.spec.id)
    return length


__all__ = [
    "WorkflowGraph",
    "critical_path_length",
    "ideal_makespan",
    "validate_workflow",
]
