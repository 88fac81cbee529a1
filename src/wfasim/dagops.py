"""Workflow DAGs, compiled once per run into int-indexed graphs.

Topological order breaks ties by task id, so every derived ordering
(eligibility, planning, token waves) is stable across runs and platforms.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from .model import WorkflowSpec, ZeroIdealMakespan


class WorkflowGraph:
    """A workflow spec compiled by topological index: task ``i`` is the
    ``i``-th of ``topo_order`` (Kahn's algorithm, smallest id first among the
    ready tasks). ``tasks[i]`` is its spec, ``parents[i]`` and ``children[i]``
    are tuples of indexes in edge order, and ``ideal_s`` is the critical path
    with every task on its fastest type.

    Construction does not validate; call :func:`validate_workflow` first when
    the spec comes from outside. A cyclic spec gets only the part of
    ``topo_order`` that no cycle blocks.
    """

    __slots__ = ("spec", "tasks", "parents", "children", "topo_order", "ideal_s")

    def __init__(self, spec: WorkflowSpec):
        self.spec = spec
        by_id = {t.id: t for t in spec.tasks}
        succ: dict[str, list[str]] = {tid: [] for tid in by_id}
        indeg = dict.fromkeys(by_id, 0)
        for p, c in spec.edges:
            succ[p].append(c)
            indeg[c] += 1
        ready = [tid for tid, d in indeg.items() if not d]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            tid = heapq.heappop(ready)
            order.append(tid)
            for c in succ[tid]:
                indeg[c] -= 1
                if not indeg[c]:
                    heapq.heappush(ready, c)
        self.topo_order = tuple(order)
        self.tasks = self.parents = self.children = ()
        self.ideal_s = 0
        if len(order) < len(by_id):
            return  # a cycle blocks the rest
        index = {tid: i for i, tid in enumerate(order)}
        parents: list[list[int]] = [[] for _ in order]
        children: list[list[int]] = [[] for _ in order]
        for p, c in spec.edges:
            i, j = index[p], index[c]
            children[i].append(j)
            parents[j].append(i)
        self.tasks = tuple([by_id[tid] for tid in order])
        self.parents = tuple(map(tuple, parents))
        self.children = tuple(map(tuple, children))
        self.ideal_s = critical_path_length(
            self, [min(t.runtime_by_type.values()) for t in self.tasks]
        )


def validate_workflow(
    spec: WorkflowSpec, graphs: dict[str, WorkflowGraph] | None = None
) -> list[str]:
    """Check a workflow spec, returning a list of issues (empty when valid).

    A valid workflow is a non-empty acyclic graph with exactly one entry task
    and one exit task and no edge referencing an unknown task. When
    ``graphs`` is given, the graph compiled for a valid spec is stored there
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
    entries = [graph.topo_order[i] for i, ps in enumerate(graph.parents) if not ps]
    exits = [graph.topo_order[i] for i, cs in enumerate(graph.children) if not cs]
    if len(entries) > 1:
        issues.append("MultipleEntries(" + ",".join(sorted(entries)) + ")")
    if len(exits) > 1:
        issues.append("MultipleExits(" + ",".join(sorted(exits)) + ")")
    if graphs is not None and not issues:
        graphs[spec.id] = graph
    return issues


def critical_path_length(graph: WorkflowGraph, weights: Sequence[int]) -> int:
    """Length of the longest path where task ``i`` contributes ``weights[i]``."""
    finish: list[int] = []
    for weight, ps in zip(weights, graph.parents):
        start = 0
        for p in ps:
            if finish[p] > start:
                start = finish[p]
        finish.append(start + weight)
    return max(finish, default=0)


def ideal_makespan(spec: WorkflowSpec | WorkflowGraph) -> int:
    """Critical-path makespan with every task on its fastest resource type.

    The baseline for slowdown: the shortest possible makespan on unlimited
    resources with zero waiting. Raises :class:`ZeroIdealMakespan` when the
    workflow has no tasks or a cycle.
    """
    graph = spec if isinstance(spec, WorkflowGraph) else WorkflowGraph(spec)
    if graph.ideal_s <= 0:
        raise ZeroIdealMakespan(graph.spec.id)
    return graph.ideal_s


__all__ = [
    "WorkflowGraph",
    "critical_path_length",
    "ideal_makespan",
    "validate_workflow",
]
