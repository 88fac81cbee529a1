"""Workflow DAGs, checked and compiled in one pass into int-indexed graphs.

Topological order breaks ties by task id, so every derived ordering
(eligibility, planning, token waves) is stable across runs and platforms.

:class:`WorkflowGraph` runs the structural checks while it compiles, so each
workflow is read once on its way into a run:

- one id -> position dict; it is shorter than the task list exactly when an
  id repeats (``DuplicateTask``);
- each edge is resolved once to a pair of positions, and a miss is a
  ``DanglingEdge``;
- when the ids ascend in listed order and every edge points forward, the
  listed order is the smallest-id-first Kahn order (each task is ready once
  the ones before it are placed, and every other ready task has a larger
  id), so no heap is walked. Otherwise Kahn's algorithm runs on a heap of
  ids, and a cycle stops it early (``CycleDetected``);
- the runtime type sets that the engine's input check reads for
  ``UnknownType`` and ``MissingType``: ``named_types``, the types some task
  has a runtime on, and ``shared_types``, those every task has one on.

A workload repeats a few shapes, so its graphs repeat the same adjacency
tuples. The graphs compiled together share one table of them: each
``parents[i]``, ``children[i]`` and ``topo_order`` is stored through it, so
equal tuples are one object. Tuples are immutable and nothing mutates a
compiled graph, so the sharing is invisible to every reader.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from .model import WorkflowSpec, ZeroIdealMakespan


class WorkflowGraph:
    """A workflow spec checked and compiled by topological index: task ``i``
    is the ``i``-th of ``topo_order`` (Kahn's algorithm, smallest id first
    among the ready tasks). ``tasks[i]`` is its spec, ``parents[i]`` and
    ``children[i]`` are tuples of indexes in edge order, and ``ideal_s`` is
    the critical path with every task on its fastest type.

    ``issues`` lists what makes the spec invalid, in the order
    :func:`validate_workflow` reports it; it is empty for a valid spec. A
    spec with several entries or exits still compiles in full. An empty
    spec, a repeated id or a dangling edge leaves every field empty, and a
    cyclic spec keeps only the part of ``topo_order`` that no cycle blocks.

    ``shared`` maps each tuple to the one object that stands for it; the
    graphs built with one table share their equal ``parents[i]``,
    ``children[i]`` and ``topo_order``. A compiled graph is never mutated.
    """

    __slots__ = ("spec", "issues", "tasks", "parents", "children", "topo_order",
                 "ideal_s", "named_types", "shared_types")

    def __init__(self, spec: WorkflowSpec, shared: dict[tuple, tuple] | None = None):
        self.spec = spec
        self.issues: tuple[str, ...] = ()
        self.tasks = self.parents = self.children = self.topo_order = ()
        self.ideal_s = 0
        self.named_types = self.shared_types = frozenset()
        tasks = spec.tasks
        n = len(tasks)
        if not n:
            self.issues = ("EmptyWorkflow",)
            return
        ids = [t.id for t in tasks]
        pos = dict(zip(ids, range(n)))
        parents: list[list[int]] = [[] for _ in ids]
        children: list[list[int]] = [[] for _ in ids]
        resolved = forward = len(pos) == n
        if resolved:
            try:
                for p, c in spec.edges:
                    i = pos[p]
                    j = pos[c]
                    children[i].append(j)
                    parents[j].append(i)
                    if i >= j:
                        forward = False
            except KeyError:
                resolved = False
        if not resolved:
            self.issues = tuple(_id_issues(ids, spec.edges))
            return
        share = ({} if shared is None else shared).setdefault
        if forward and ids == sorted(ids):
            order_ids = tuple(ids)
            self.topo_order = share(order_ids, order_ids)
            self.tasks = tuple(tasks)
            ups = list(map(tuple, parents))
            downs = list(map(tuple, children))
        else:
            blocked = list(map(len, parents))
            ready = [tid for tid, ps in zip(ids, parents) if not ps]
            heapq.heapify(ready)
            order: list[int] = []
            while ready:
                i = pos[heapq.heappop(ready)]
                order.append(i)
                for c in children[i]:
                    blocked[c] -= 1
                    if not blocked[c]:
                        heapq.heappush(ready, ids[c])
            order_ids = tuple([ids[i] for i in order])
            self.topo_order = share(order_ids, order_ids)
            if len(order) < n:
                self.issues = ("CycleDetected",)
                return
            rank = [0] * n
            for k, i in enumerate(order):
                rank[i] = k
            self.tasks = tuple([tasks[i] for i in order])
            ups = [tuple([rank[p] for p in parents[i]]) for i in order]
            downs = [tuple([rank[c] for c in children[i]]) for i in order]
        self.parents = tuple(map(share, ups, ups))
        self.children = tuple(map(share, downs, downs))
        # the distinct type tuples: one when the tasks share theirs
        kinds = {t.types for t in self.tasks}
        self.named_types = named = frozenset().union(*kinds)
        # a task has every named type exactly when it has as many types
        self.shared_types = (named if min(map(len, kinds)) == len(named)
                             else named.intersection(*kinds))
        self.ideal_s = critical_path_length(self, [min(t.runtimes) for t in self.tasks])
        issues = []
        if self.parents.count(()) > 1:
            entries = [tid for tid, ps in zip(self.topo_order, self.parents) if not ps]
            issues.append("MultipleEntries(" + ",".join(sorted(entries)) + ")")
        if self.children.count(()) > 1:
            exits = [tid for tid, cs in zip(self.topo_order, self.children) if not cs]
            issues.append("MultipleExits(" + ",".join(sorted(exits)) + ")")
        self.issues = tuple(issues)


def _id_issues(ids: list[str], edges: Sequence[tuple[str, str]]) -> list[str]:
    """Every repeated task id, then every edge naming an unknown task, each
    in listed order."""
    issues: list[str] = []
    seen: set[str] = set()
    for tid in ids:
        if tid in seen:
            issues.append(f"DuplicateTask({tid})")
        seen.add(tid)
    for p, c in edges:
        if p not in seen or c not in seen:
            issues.append(f"DanglingEdge({p}->{c})")
    return issues


def validate_workflow(
    spec: WorkflowSpec,
    graphs: dict[str, WorkflowGraph] | None = None,
    shared: dict[tuple, tuple] | None = None,
) -> list[str]:
    """Check a workflow spec, returning a list of issues (empty when valid).

    A valid workflow is a non-empty acyclic graph with exactly one entry task
    and one exit task and no edge referencing an unknown task. The checks
    run in the graph build, which this reads. When ``graphs`` is given, the
    graph compiled for a valid spec is stored there under the workflow id,
    so the caller need not build it again; ``shared`` is the graph's tuple
    table (see :class:`WorkflowGraph`).
    """
    graph = WorkflowGraph(spec, shared)
    if graphs is not None and not graph.issues:
        graphs[spec.id] = graph
    return list(graph.issues)


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
    workflow does not compile: no tasks, a repeated id, a dangling edge or a
    cycle.
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
