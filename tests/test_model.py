"""Core data model and system state transitions."""

import ast
import json
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HoldPolicy, chain_wf, handle, small_only_system, two_type_system, users, wf
import wfasim
from wfasim.dagops import WorkflowGraph
from wfasim.model import (
    CapacityExceeded,
    ModelError,
    ResourceState,
    ResourceType,
    SystemConfig,
    TaskSpec,
    WorkloadInvalid,
    load_workload,
    min_runtime,
    save_workload,
    workflow_from_row,
    workflow_to_dict,
)
from wfasim.schema import WORKFLOW, check
from wfasim.state import SystemState


def test_system_config_helpers():
    sys_cfg = two_type_system(small=3, large=2, interval_s=60)
    assert sys_cfg.types_with_machines() == sys_cfg.types
    assert sys_cfg.total_capacity() == 5


def test_min_runtime_is_fastest_choice():
    task = TaskSpec("t", {"small": 9, "large": 4})
    assert min_runtime(task) == 4


def test_task_without_any_runtime_rejected():
    # such a task could run nowhere, and it has no fastest runtime
    with pytest.raises(ValueError, match="needs a runtime"):
        TaskSpec("t", {})


runtime_maps = st.dictionaries(
    st.text(min_size=1, max_size=4), st.integers(1, 10**6), min_size=1, max_size=4
)


@settings(max_examples=200, deadline=None)
@given(by_type=runtime_maps, task_id=st.text(max_size=4))
def test_task_stores_aligned_tuples_and_reads_back_its_mapping(by_type, task_id):
    task = TaskSpec(task_id, by_type)
    assert task.types == tuple(by_type) and task.runtimes == tuple(by_type.values())
    assert task.runtime_by_type == by_type
    assert list(task.runtime_by_type) == list(by_type)  # the same key order
    again = pickle.loads(pickle.dumps(task))
    assert again == task and again.types == task.types and again.runtimes == task.runtimes
    # equality is the mapping's: the key order does not count, a value does
    assert task == TaskSpec(task_id, dict(reversed(by_type.items())))
    first = next(iter(by_type))
    assert task != TaskSpec(task_id, {**by_type, first: by_type[first] + 1})
    assert task != TaskSpec(task_id + "x", by_type)


def test_task_is_immutable_and_unhashable():
    task = TaskSpec("t", {"small": 3})
    with pytest.raises(AttributeError):
        task.runtimes = (4,)
    task.runtime_by_type["small"] = 4  # a copy: the task keeps its runtime
    with pytest.raises(TypeError):
        hash(task)
    assert task.runtimes == (3,)


def test_loaded_tasks_share_one_type_tuple_per_key_order(tmp_path):
    a = chain_wf("a", [{"small": 3, "large": 1}, {"small": 2, "large": 2}])
    b = wf("b", [("x", {"large": 4, "small": 5}), ("y", {"small": 1, "large": 1})])
    path = tmp_path / "wl.json"
    save_workload([a, b], path)
    tasks = [t for w in load_workload(path) for t in w.tasks]
    small_first, large_first = ("small", "large"), ("large", "small")
    assert [t.types for t in tasks] == [small_first, small_first, large_first, small_first]
    assert tasks[0].types is tasks[1].types is tasks[3].types
    assert tasks[2].types is not tasks[0].types
    assert [w.tasks for w in load_workload(path)] == [a.tasks, b.tasks]


def test_only_the_model_names_runtime_by_type():
    # the simulator reads the runtime tuples; building the mapping on a hot
    # path would cost a dict per read
    root = Path(wfasim.__file__).parent
    readers = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            # an attribute, a variable, a parameter or a keyword argument
            names = (getattr(node, field, None) for field in ("attr", "id", "arg"))
            if "runtime_by_type" in names:
                readers.append(f"{path.relative_to(root)}:{node.lineno}")
    assert readers == []


def test_workflow_json_round_trip(tmp_path):
    w = chain_wf("w1", [{"small": 3, "large": 1}, {"small": 2, "large": 2}],
                 user="alice", priority=7, arrival_s=30)
    doc = workflow_to_dict(w)
    again = workflow_from_row(check(doc, WORKFLOW, "workflow"))
    assert workflow_to_dict(again) == doc

    path = tmp_path / "wl.json"
    save_workload([w], path)
    loaded = load_workload(path)
    assert len(loaded) == 1
    assert loaded[0].id == "w1"
    assert loaded[0].tasks[0].runtime_by_type == {"small": 3, "large": 1}
    # file shape is part of the external format
    raw = json.loads(path.read_text())
    row = raw["workflows"][0]
    assert set(row) == {"id", "user", "priority", "arrival_s", "tasks", "edges"}
    assert row["tasks"][0].keys() == {"id", "runtimes"}


def test_cyclic_workflow_rejected_when_run(tmp_path):
    from wfasim import engine

    w = wf("bad", [("a", {"small": 1}), ("b", {"small": 1})],
           edges=[("a", "b"), ("b", "a")])
    with pytest.raises(WorkloadInvalid) as err:
        engine.run([w], two_type_system(), users(("u1", 10)), HoldPolicy({"small": 1}))
    assert "bad" in str(err.value)


def test_resources_built_in_config_order():
    state = SystemState(two_type_system(small=2, large=3), users(("u1", 10)))
    kinds = [r.rtype.id for r in state.resources]
    assert kinds == ["small", "small", "large", "large", "large"]
    assert [r.id for r in state.resources] == list(range(5))
    assert all(r.state is ResourceState.DOWN for r in state.resources)


def test_reserve_release_cycle_and_billing_window():
    state = SystemState(small_only_system(count=1, interval_s=60), users(("u1", 10)))
    r = state.resources[0]
    state.apply("u1", [], [0], now=0)
    assert r.state is ResourceState.IDLE  # no boot delay
    assert r.user == "u1"
    assert r.billing_end_s == 60

    # early release is a state error: the first paid interval still runs
    with pytest.raises(ValueError, match="resource 0 released before its billing end"):
        state.apply("u1", [0], [], now=30)
    state.apply("u1", [0], [], now=60)
    assert r.state is ResourceState.DOWN
    assert r.user is None

    # later intervals are billed at their ticks; nothing moves the first end
    state.apply("u1", [], [0], now=60)
    state.apply("u1", [0], [], now=240)
    assert r.state is ResourceState.DOWN


def test_reserve_for_unlisted_user_rejected_without_change():
    state = SystemState(small_only_system(count=1), users(("u1", 10)))
    r = state.resources[0]
    with pytest.raises(KeyError, match="unknown user 'ghost'"):
        state.apply("ghost", [], [0], now=0)
    assert r.state is ResourceState.DOWN and r.user is None
    assert state.free_resources("small") == [0]


def test_reserve_with_boot_delay():
    state = SystemState(small_only_system(count=1, boot_delay_s=10), users(("u1", 10)))
    r = state.resources[0]
    state.apply("u1", [], [0], now=0)
    assert r.state is ResourceState.BOOTING
    assert r.free_s == 10  # the boot end
    state.boot_complete(0, now=12)
    assert r.state is ResourceState.IDLE
    assert r.free_s == 12  # idle since


def test_boot_complete_rejects_a_machine_that_is_not_booting():
    state = SystemState(small_only_system(count=2), users(("u1", 10)))
    state.apply("u1", [], [0], now=0)  # no boot delay: idle at once
    for rid in (0, 1):  # idle, and free
        with pytest.raises(ValueError, match=f"resource {rid} not booting"):
            state.boot_complete(rid, now=5)
    assert [(r.state, r.free_s) for r in state.resources] == [
        (ResourceState.IDLE, 0), (ResourceState.DOWN, None)
    ]


def two_task_chain_state():
    """u1's chain t0 -> t1 arrived, and both small machines reserved at 0."""
    state = SystemState(small_only_system(count=2), users(("u1", 10)))
    state.arrive(WorkflowGraph(chain_wf("w1", [{"small": 5}, {"small": 5}])))
    state.apply("u1", [], [0, 1], now=0)
    return state


def test_starting_a_task_that_is_not_eligible_rejected():
    state = two_task_chain_state()
    with pytest.raises(ValueError, match="w1/t1 not eligible"):  # t0 has not finished
        state.start_task(handle(state, "w1", "t1"), 0, now=0)


def test_finishing_a_task_that_is_not_running_rejected():
    state = two_task_chain_state()
    with pytest.raises(ValueError, match="w1/t0 not running"):
        state.finish_task(handle(state, "w1", "t0"), now=0)


def test_releasing_a_busy_resource_rejected():
    state = two_task_chain_state()
    state.start_task(handle(state, "w1", "t0"), 0, now=0)
    with pytest.raises(ValueError, match="resource 0 not idle"):
        state.apply("u1", [0], [], now=60)  # its paid interval has ended, but it runs t0


def test_reserving_reserved_resource_rejected():
    state = SystemState(small_only_system(count=1), users(("u1", 10), ("u2", 10)))
    state.apply("u1", [], [0], now=0)
    with pytest.raises(CapacityExceeded, match="resource 0 is not free"):
        state.apply("u2", [], [0], now=0)


def test_task_lifecycle_and_eligibility_order():
    state = SystemState(two_type_system(), users(("u1", 100)))
    w1 = chain_wf("w1", [{"small": 5, "large": 2}, {"small": 5, "large": 2}],
                  priority=3, arrival_s=0)
    w2 = wf("w2", [("a", {"small": 4, "large": 4})], priority=9, arrival_s=10)
    state.arrive(WorkflowGraph(w1))
    state.arrive(WorkflowGraph(w2))

    def eligible():
        return [state.ref(h) for h in state.eligible_tasks("u1")]

    # higher priority first, then arrival, then intra-workflow topology
    assert eligible() == [("w2", "a"), ("w1", "t0")]
    assert state.momentary_demand("u1") == 2

    r = state.resources[0]
    state.apply("u1", [], [0], now=10)
    state.start_task(handle(state, "w2", "a"), 0, now=10)
    assert r.state is ResourceState.BUSY
    assert r.running == handle(state, "w2", "a")
    assert state.momentary_demand("u1") == 2  # running + eligible
    assert eligible() == [("w1", "t0")]

    state.finish_task(handle(state, "w2", "a"), now=14)
    assert eligible() == [("w1", "t0")]  # no children freed
    assert r.state is ResourceState.IDLE
    assert r.free_s == 14
    assert state.runs["w2"].done
    assert state.runs["w2"].last_finish_s == 14


def test_finish_unblocks_children():
    state = SystemState(two_type_system(), users(("u1", 100)))
    state.arrive(WorkflowGraph(chain_wf("w1", [{"small": 5}, {"small": 5}])))
    state.apply("u1", [], [0], now=0)
    state.start_task(handle(state, "w1", "t0"), 0, now=0)
    state.finish_task(handle(state, "w1", "t0"), now=5)
    assert [state.ref(h) for h in state.eligible_tasks("u1")] == [("w1", "t1")]


def test_joint_dag_spans_unfinished_tasks_of_all_workflows():
    state = SystemState(two_type_system(), users(("u1", 100)))
    state.arrive(WorkflowGraph(chain_wf("w1", [{"small": 5}, {"small": 5}])))
    state.arrive(WorkflowGraph(wf("w2", [("a", {"small": 4})])))
    t0, t1, a = handle(state, "w1", "t0"), handle(state, "w1", "t1"), handle(state, "w2", "a")
    assert [state.ref(h) for h in (t0, t1, a)] == [("w1", "t0"), ("w1", "t1"), ("w2", "a")]
    nodes, edges = state.joint_dag("u1")
    assert nodes == [t0, t1, a]  # arrival, then topological, order
    assert edges == [(t0, t1)]

    state.apply("u1", [], [0], now=0)
    state.start_task(t0, 0, now=0)
    nodes, _ = state.joint_dag("u1")
    assert t0 in nodes  # running still unfinished
    state.finish_task(t0, now=5)
    nodes, edges = state.joint_dag("u1")
    assert t0 not in nodes
    assert edges == []


def test_user_isolation():
    state = SystemState(two_type_system(), users(("u1", 100), ("u2", 100)))
    state.arrive(WorkflowGraph(wf("w1", [("a", {"small": 5})], user="u1")))
    state.arrive(WorkflowGraph(wf("w2", [("a", {"small": 5})], user="u2")))
    state.apply("u1", [], [0], now=0)
    assert state.idle_resources("u2") == []
    with pytest.raises(ValueError, match="resource 0 not idle for u2"):
        state.start_task(handle(state, "w2", "a"), 0, now=0)


def test_counts_by_type_buckets():
    state = SystemState(two_type_system(small=2, large=1), users(("u1", 100)))
    state.arrive(WorkflowGraph(wf("w1", [("a", {"small": 5, "large": 5})])))
    state.apply("u1", [], [0, 1], now=0)
    state.start_task(handle(state, "w1", "a"), 0, now=0)
    counts = state.counts_by_type("u1")
    assert counts == {"small": 2, "large": 0}
    assert state.idle_resources("u1") == [1]
    assert state.allocated_cost("u1") == 2
    assert state.supply("u1") == 2
    assert state.busy_count("u1") == 1


def test_all_done_vacuous_and_after_work():
    state = SystemState(two_type_system(), users(("u1", 100)))
    assert state.all_done
    state.arrive(WorkflowGraph(wf("w1", [("a", {"small": 1})])))
    assert not state.all_done


def test_resource_type_and_capacity_must_agree():
    with pytest.raises(ValueError):
        SystemConfig(
            types=(ResourceType("small", 1),),
            capacity={"huge": 3},
            interval_s=60,
        )


def test_capacity_exceeded_is_a_model_error():
    assert issubclass(CapacityExceeded, ModelError)
    assert issubclass(WorkloadInvalid, ModelError)


def test_graph_reuse_on_arrival():
    state = SystemState(two_type_system(), users(("u1", 100)))
    spec = wf("w1", [("a", {"small": 1})])
    graph = WorkflowGraph(spec)
    run = state.arrive(graph)
    assert run.graph is graph and run.spec is spec


def test_any_held_tracks_reservations():
    state = SystemState(two_type_system(small=1, large=1), users(("u1", 10), ("u2", 10)))
    assert not state.any_held()
    state.apply("u2", [], [1], now=0)  # the large machine
    assert state.any_held()
    state.apply("u1", [], [0], now=0)
    state.apply("u2", [1], [], now=60)
    assert state.any_held()
    state.apply("u1", [0], [], now=60)
    assert not state.any_held()
