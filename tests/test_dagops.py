"""DAG validation, topology, and critical-path oracles."""

import heapq
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_wf, diamond_wf, edge_maps, reference_order, wf
from test_plan import random_dags
from wfasim import dagops, engine
from wfasim.dagops import (
    WorkflowGraph,
    critical_path_length,
    ideal_makespan,
    validate_workflow,
)
from wfasim.model import TaskSpec, ZeroIdealMakespan, min_runtime


# longest path through a DAG by exhaustive path enumeration; independent of
# the library's forward-propagation implementation
def oracle_longest_path(tasks, edges, weight):
    children = {}
    indeg = {tid: 0 for tid in tasks}
    for p, c in edges:
        children.setdefault(p, []).append(c)
        indeg[c] += 1

    def longest_from(tid):
        w = weight(tid)
        succ = children.get(tid, [])
        return w + (max(longest_from(c) for c in succ) if succ else 0)

    starts = [tid for tid, d in indeg.items() if d == 0]
    return max(longest_from(t) for t in starts)


def test_validation_accepts_well_formed_diamond():
    w = diamond_wf("w", {"small": 1}, {"small": 1}, {"small": 1}, {"small": 1})
    assert validate_workflow(w) == []


@pytest.mark.parametrize(
    "spec,code",
    [
        (wf("w", []), "EmptyWorkflow"),
        (wf("w", [("a", {"small": 1}), ("a", {"small": 2})]), "DuplicateTask"),
        (wf("w", [("a", {"small": 1})], edges=[("a", "ghost")]), "DanglingEdge"),
        (
            wf("w", [("a", {"small": 1}), ("b", {"small": 1})],
               edges=[("a", "b"), ("b", "a")]),
            "CycleDetected",
        ),
        (
            wf("w", [("a", {"small": 1}), ("b", {"small": 1}), ("c", {"small": 1})],
               edges=[("a", "c"), ("b", "c")]),
            "MultipleEntries",
        ),
        (
            wf("w", [("a", {"small": 1}), ("b", {"small": 1}), ("c", {"small": 1})],
               edges=[("a", "b"), ("a", "c")]),
            "MultipleExits",
        ),
    ],
)
def test_validation_codes(spec, code):
    issues = validate_workflow(spec)
    assert any(code in issue for issue in issues), issues


def test_topological_order_is_smallest_id_first():
    w = wf(
        "w",
        [("a", {"small": 1}), ("b", {"small": 1}), ("c", {"small": 1}),
         ("d", {"small": 1})],
        edges=[("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
    )
    g = WorkflowGraph(w)
    assert g.topo_order == ("a", "b", "c", "d")
    assert g.parents == ((), (0,), (0,), (1, 2))
    assert g.children == ((1, 2), (3,), (3,), ())


def test_topological_order_breaks_ties_by_id():
    w = wf(
        "w",
        [("z", {"small": 1}), ("m", {"small": 1}), ("a", {"small": 1}),
         ("end", {"small": 1})],
        edges=[("z", "m"), ("z", "a"), ("m", "end"), ("a", "end")],
    )
    g = WorkflowGraph(w)
    assert g.topo_order == ("z", "a", "m", "end")


def test_parents_children_maps():
    w = chain_wf("w", [{"small": 1}, {"small": 1}, {"small": 1}])
    g = WorkflowGraph(w)
    assert [t.id for t in g.tasks] == ["t0", "t1", "t2"]
    assert g.parents == ((), (0,), (1,))
    assert g.children == ((1,), (2,), ())


def test_cyclic_spec_compiles_only_its_order():
    w = wf("w", [("a", {"small": 1}), ("b", {"small": 1}), ("c", {"small": 1})],
           edges=[("a", "b"), ("b", "c"), ("c", "b")])
    g = WorkflowGraph(w)
    assert g.topo_order == ("a",)
    assert (g.tasks, g.parents, g.children, g.ideal_s) == ((), (), (), 0)


def listed_in_order(spec):
    """The spec with its tasks listed in reference order and renamed so that
    their ids ascend in that order: every edge then points forward."""
    order = reference_order(spec)
    name = {tid: f"n{k:02d}" for k, tid in enumerate(order)}
    by_id = {t.id: t for t in spec.tasks}
    tasks = tuple(TaskSpec(name[tid], by_id[tid].runtime_by_type) for tid in order)
    return replace(spec, tasks=tasks, edges=tuple((name[p], name[c]) for p, c in spec.edges))


def compiled_fields(g):
    return g.parents, g.children, g.topo_order, g.ideal_s, g.named_types, g.shared_types


@settings(max_examples=200, deadline=None)
@given(specs=random_dags())
def test_compiled_graph_matches_the_spec(specs):
    """On random DAGs, compiled graphs agree with references read from the
    spec alone: with ids shuffled against creation order (Kahn's algorithm
    on a heap), and listed in reference order with ascending ids (the listed
    order is taken as it is, and no heap is built).

    Each spec is also compiled together with the others, through one tuple
    table as ``validate_inputs`` passes it, and that graph equals the one
    compiled alone. The table is passed directly because most drawn specs
    have several entries or exits, which ``validate_inputs`` rejects."""
    listed = [listed_in_order(s) for s in specs]
    shared = {}
    for spec in [*specs, *listed]:
        with mock.patch.object(dagops.heapq, "heapify", wraps=heapq.heapify) as heapify:
            g = WorkflowGraph(spec)
            together = WorkflowGraph(spec, shared)
        assert compiled_fields(together) == compiled_fields(g)
        if spec in listed:
            assert not heapify.called
        order = reference_order(spec)
        assert g.topo_order == order
        by_id = {t.id: t for t in spec.tasks}
        assert all(task is by_id[tid] for task, tid in zip(g.tasks, order, strict=True))
        parents, children = edge_maps(spec)
        assert [[order[p] for p in ps] for ps in g.parents] == [parents[t] for t in order]
        assert [[order[c] for c in cs] for cs in g.children] == [children[t] for t in order]
        assert g.ideal_s == oracle_longest_path(
            by_id, spec.edges, lambda tid: min_runtime(by_id[tid])
        )


@pytest.mark.parametrize("ids", [("a", "b", "c", "d"), ("d", "c", "b", "a")],
                         ids=["forward", "kahn"])
def test_graphs_validated_together_share_equal_tuples(ids):
    """Two workflows of one shape, validated in one call, hold one copy of
    each adjacency tuple and of their topological order. Ids that descend in
    listed order take Kahn's branch."""
    entry, left, right, exit_ = ids

    def diamond(wf_id):
        return wf(wf_id, [(tid, {"small": 1}) for tid in ids],
                  edges=[(entry, left), (entry, right), (left, exit_), (right, exit_)])

    with mock.patch.object(dagops.heapq, "heapify", wraps=heapq.heapify) as heapify:
        g, h = engine.validate_inputs([diamond("w1"), diamond("w2")], ["u1"], ["small"], [])
    assert heapify.called == (ids[0] > ids[1])
    assert g.topo_order is h.topo_order
    assert all(p is q for p, q in zip(g.parents, h.parents, strict=True))
    assert all(c is q for c, q in zip(g.children, h.children, strict=True))
    assert g.children[1] is g.children[2]  # (exit,), within one graph too


def reference_issues(spec):
    """``validate_workflow`` as it was before the checks moved into the
    graph build: a scan for repeated ids, one for dangling edges, then a
    topological sort over id-keyed maps."""
    ids = [t.id for t in spec.tasks]
    if not ids:
        return ["EmptyWorkflow"]
    issues = []
    seen = set()
    for tid in ids:
        if tid in seen:
            issues.append(f"DuplicateTask({tid})")
        seen.add(tid)
    for p, c in spec.edges:
        if p not in seen or c not in seen:
            issues.append(f"DanglingEdge({p}->{c})")
    if issues:
        return issues
    if len(reference_order(spec)) < len(ids):
        return ["CycleDetected"]
    parents, children = edge_maps(spec)
    entries = sorted(t for t, ps in parents.items() if not ps)
    exits = sorted(t for t, cs in children.items() if not cs)
    if len(entries) > 1:
        issues.append("MultipleEntries(" + ",".join(entries) + ")")
    if len(exits) > 1:
        issues.append("MultipleExits(" + ",".join(exits) + ")")
    return issues


@st.composite
def random_specs(draw):
    """Workflow specs of up to 7 tasks, mostly invalid: ids may repeat, an
    edge may name an unknown task, point backward (so cycles form) or leave
    several entries and exits. About half list their ids in ascending order."""
    n = draw(st.integers(0, 7))
    ids = draw(st.lists(st.sampled_from([f"t{i}" for i in range(n + 1)]), min_size=n,
                        max_size=n, unique=draw(st.integers(0, 3)) > 0))
    if draw(st.booleans()):
        ids.sort()
    names = ids + ["ghost"] if draw(st.integers(0, 4)) == 0 else ids
    edges = []
    if names:
        ends = st.integers(0, len(names) - 1)
        pairs = draw(st.lists(st.tuples(ends, ends), max_size=2 * n))
        if draw(st.integers(0, 3)) > 0:  # forward edges only: acyclic
            pairs = [(min(a, b), max(a, b)) for a, b in pairs if a != b]
        edges = [(names[a], names[b]) for a, b in pairs]
    return wf("w", [(tid, {"small": 1}) for tid in ids], edges)


@settings(max_examples=500, deadline=None)
@given(spec=random_specs())
def test_issue_lists_match_the_reference_validator(spec):
    issues = reference_issues(spec)
    assert validate_workflow(spec) == issues
    g = WorkflowGraph(spec)
    assert list(g.issues) == issues
    if not any(i.startswith(("Empty", "Duplicate", "Dangling")) for i in issues):
        assert g.topo_order == reference_order(spec)


def test_type_sets_are_the_union_and_intersection_of_runtime_types():
    w = chain_wf("w", [{"small": 2, "large": 1}, {"small": 3}, {"small": 1, "large": 2}])
    g = WorkflowGraph(w)
    assert (g.named_types, g.shared_types) == ({"small", "large"}, {"small"})


def test_critical_path_of_chain():
    # chain with per-task fastest runtimes 2, 3, 5: path sum is 10
    w = chain_wf(
        "w",
        [{"small": 2, "large": 4}, {"small": 6, "large": 3}, {"small": 5, "large": 7}],
    )
    g = WorkflowGraph(w)
    got = critical_path_length(g, [min_runtime(t) for t in g.tasks])
    tasks = {t.id: t for t in w.tasks}
    expect = oracle_longest_path(
        tasks, w.edges, lambda tid: min_runtime(tasks[tid])
    )
    assert expect == 10
    assert got == 10


def test_critical_path_of_diamond():
    # entry 1 + slower branch 6 + exit 4 = 11; the 4-branch is off-path
    w = diamond_wf(
        "w",
        {"small": 1}, {"small": 4}, {"small": 6}, {"small": 4},
    )
    g = WorkflowGraph(w)
    got = ideal_makespan(g)
    tasks = {t.id: t for t in w.tasks}
    expect = oracle_longest_path(tasks, w.edges, lambda tid: min_runtime(tasks[tid]))
    assert expect == 11
    assert got == 11


def test_ideal_makespan_accepts_spec_or_graph():
    w = chain_wf("w", [{"small": 2}, {"small": 3}])
    assert ideal_makespan(w) == 5
    assert ideal_makespan(WorkflowGraph(w)) == 5


@pytest.mark.parametrize("spec", [
    wf("empty", []),
    wf("cycle", [("a", {"small": 2}), ("b", {"small": 3})], [("a", "b"), ("b", "a")]),
])
def test_ideal_makespan_of_a_spec_that_does_not_compile_raises(spec):
    with pytest.raises(ZeroIdealMakespan):
        ideal_makespan(spec)


def test_ideal_makespan_uses_fastest_type_per_task_independently():
    # per-task minima may come from different types
    w = chain_wf("w", [{"small": 2, "large": 9}, {"small": 9, "large": 3}])
    assert ideal_makespan(w) == 5


def test_critical_path_with_custom_weight():
    w = chain_wf("w", [{"small": 2, "large": 9}, {"small": 9, "large": 3}])
    g = WorkflowGraph(w)
    assert critical_path_length(g, [t.runtime_by_type["small"] for t in g.tasks]) == 11
