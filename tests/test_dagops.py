"""DAG validation, topology, and critical-path oracles."""

import pytest
from hypothesis import given, settings

from conftest import chain_wf, diamond_wf, edge_maps, reference_order, wf
from test_plan import random_dags
from wfasim.dagops import (
    WorkflowGraph,
    critical_path_length,
    ideal_makespan,
    validate_workflow,
)
from wfasim.model import min_runtime


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


@settings(max_examples=200, deadline=None)
@given(specs=random_dags())
def test_compiled_graph_matches_the_spec(specs):
    """On random DAGs whose ids are shuffled against creation order, the
    compiled graph agrees with references read from the spec alone."""
    for spec in specs:
        g = WorkflowGraph(spec)
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


def test_ideal_makespan_uses_fastest_type_per_task_independently():
    # per-task minima may come from different types
    w = chain_wf("w", [{"small": 2, "large": 9}, {"small": 9, "large": 3}])
    assert ideal_makespan(w) == 5


def test_critical_path_with_custom_weight():
    w = chain_wf("w", [{"small": 2, "large": 9}, {"small": 9, "large": 3}])
    g = WorkflowGraph(w)
    assert critical_path_length(g, [t.runtime_by_type["small"] for t in g.tasks]) == 11
