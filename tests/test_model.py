"""Core data model and system state transitions."""

import json

import pytest

from conftest import HoldPolicy, chain_wf, small_only_system, two_type_system, users, wf
from wfasim.dagops import WorkflowGraph
from wfasim.model import (
    CapacityExceeded,
    ModelError,
    Resource,
    ResourceState,
    ResourceType,
    SystemConfig,
    TaskSpec,
    WorkloadInvalid,
    load_workload,
    min_runtime,
    save_workload,
    workflow_from_dict,
    workflow_to_dict,
)
from wfasim.state import SystemState


def test_system_config_helpers():
    sys_cfg = two_type_system(small=3, large=2, interval_s=60)
    assert sys_cfg.type_by_id("large").cost == 5
    assert sys_cfg.total_capacity() == 5


def test_min_runtime_is_fastest_choice():
    task = TaskSpec("t", {"small": 9, "large": 4})
    assert min_runtime(task) == 4


def test_workflow_json_round_trip(tmp_path):
    w = chain_wf("w1", [{"small": 3, "large": 1}, {"small": 2, "large": 2}],
                 user="alice", priority=7, arrival_s=30)
    doc = workflow_to_dict(w)
    again = workflow_from_dict(doc)
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
    state.reserve(r, "u1", now=0)
    assert r.state is ResourceState.IDLE  # no boot delay
    assert r.user == "u1"
    assert r.billing_end_s == 60
    assert r.reserved

    # early release is a state error: the billing window still runs
    with pytest.raises(ValueError):
        state.release(r, now=30)
    state.release(r, now=60)
    assert r.state is ResourceState.DOWN
    assert r.user is None


def test_reserve_for_unlisted_user_rejected_without_change():
    state = SystemState(small_only_system(count=1), users(("u1", 10)))
    r = state.resources[0]
    with pytest.raises(KeyError):
        state.reserve(r, "ghost", now=0)
    assert r.state is ResourceState.DOWN and r.user is None
    assert state.free_resources("small") == [r]


def test_reserve_with_boot_delay():
    state = SystemState(small_only_system(count=1, boot_delay_s=10), users(("u1", 10)))
    r = state.resources[0]
    state.reserve(r, "u1", now=0)
    assert r.state is ResourceState.BOOTING
    assert r.boot_ready_s == 10
    state.boot_complete(r, now=10)
    assert r.state is ResourceState.IDLE


def test_prolong_extends_expired_window():
    state = SystemState(small_only_system(count=1, interval_s=60), users(("u1", 10)))
    r = state.resources[0]
    state.reserve(r, "u1", now=0)
    state.prolong(r, now=60)
    assert r.billing_end_s == 120


def test_reserving_reserved_resource_rejected():
    state = SystemState(small_only_system(count=1), users(("u1", 10), ("u2", 10)))
    r = state.resources[0]
    state.reserve(r, "u1", now=0)
    with pytest.raises(CapacityExceeded):
        state.reserve(r, "u2", now=0)


def test_task_lifecycle_and_eligibility_order():
    state = SystemState(two_type_system(), users(("u1", 100)))
    w1 = chain_wf("w1", [{"small": 5, "large": 2}, {"small": 5, "large": 2}],
                  priority=3, arrival_s=0)
    w2 = wf("w2", [("a", {"small": 4, "large": 4})], priority=9, arrival_s=10)
    state.arrive(w1)
    state.arrive(w2)

    # higher priority first, then arrival, then intra-workflow topology
    assert state.eligible_tasks("u1") == [("w2", "a"), ("w1", "t0")]
    assert state.momentary_demand("u1") == 2

    r = state.resources[0]
    state.reserve(r, "u1", now=10)
    state.start_task("w2", "a", r, now=10)
    assert r.state is ResourceState.BUSY
    assert state.momentary_demand("u1") == 2  # running + eligible
    assert state.eligible_tasks("u1") == [("w1", "t0")]

    freed = state.finish_task("w2", "a", now=14)
    assert freed == []  # no children
    assert r.state is ResourceState.IDLE
    assert r.idle_since_s == 14
    assert state.runs["w2"].done
    assert state.runs["w2"].last_finish_s == 14


def test_finish_unblocks_children():
    state = SystemState(two_type_system(), users(("u1", 100)))
    state.arrive(chain_wf("w1", [{"small": 5}, {"small": 5}]))
    r = state.resources[0]
    state.reserve(r, "u1", now=0)
    state.start_task("w1", "t0", r, now=0)
    freed = state.finish_task("w1", "t0", now=5)
    assert freed == [("w1", "t1")]
    assert state.eligible_tasks("u1") == [("w1", "t1")]


def test_joint_dag_spans_unfinished_tasks_of_all_workflows():
    state = SystemState(two_type_system(), users(("u1", 100)))
    state.arrive(chain_wf("w1", [{"small": 5}, {"small": 5}]))
    state.arrive(wf("w2", [("a", {"small": 4})]))
    nodes, edges = state.joint_dag("u1")
    assert set(nodes) == {("w1", "t0"), ("w1", "t1"), ("w2", "a")}
    assert edges == [(("w1", "t0"), ("w1", "t1"))]

    r = state.resources[0]
    state.reserve(r, "u1", now=0)
    state.start_task("w1", "t0", r, now=0)
    nodes, _ = state.joint_dag("u1")
    assert ("w1", "t0") in nodes  # running still unfinished
    state.finish_task("w1", "t0", now=5)
    nodes, edges = state.joint_dag("u1")
    assert ("w1", "t0") not in nodes
    assert edges == []


def test_user_isolation():
    state = SystemState(two_type_system(), users(("u1", 100), ("u2", 100)))
    state.arrive(wf("w1", [("a", {"small": 5})], user="u1"))
    state.arrive(wf("w2", [("a", {"small": 5})], user="u2"))
    r = state.resources[0]
    state.reserve(r, "u1", now=0)
    assert state.idle_resources("u2") == []
    with pytest.raises(ValueError):
        state.start_task("w2", "a", r, now=0)


def test_counts_by_type_buckets():
    state = SystemState(two_type_system(small=2, large=1), users(("u1", 100)))
    state.arrive(wf("w1", [("a", {"small": 5, "large": 5})]))
    s0, s1 = state.resources[0], state.resources[1]
    state.reserve(s0, "u1", now=0)
    state.reserve(s1, "u1", now=0)
    state.start_task("w1", "a", s0, now=0)
    counts = state.counts_by_type("u1")
    assert counts == {"small": 2, "large": 0}
    assert state.idle_resources("u1") == [s1]
    assert state.allocated_cost("u1") == 2
    assert state.supply("u1") == 2
    assert state.busy_count("u1") == 1


def test_all_done_vacuous_and_after_work():
    state = SystemState(two_type_system(), users(("u1", 100)))
    assert state.all_done
    state.arrive(wf("w1", [("a", {"small": 1})]))
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
    run = state.arrive(spec, graph)
    assert run.graph is graph


def test_resource_reserved_property():
    r = Resource(id=0, rtype=ResourceType("small", 1))
    assert not r.reserved
    r.state = ResourceState.IDLE
    assert r.reserved
