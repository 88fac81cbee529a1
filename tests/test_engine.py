"""Simulation engine: event order, billing, determinism, conservation."""

import ast
import csv
import dataclasses
import gc
import importlib.util
import io
import os
import re
import signal
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from conftest import HoldPolicy, chain_wf, small_only_system, two_type_system, users, wf
from wfasim import dagops, engine, mip, scheduler
from wfasim.model import (
    BudgetTooSmall,
    BudgetViolation,
    CapacityExceeded,
    ResourceType,
    Stalled,
    SystemConfig,
    UserConfig,
    WorkloadInvalid,
)
from wfasim.policies import Decision, PfaConfig, PfaPolicy, PlfPolicy, ScfPolicy
from wfasim.policies import pfa as pfa_module
from wfasim.state import SystemState
from wfasim.workload import WL1, generate_workload


def run(workflows, system=None, budget=100, policy=None, **kw):
    system = system or two_type_system()
    return engine.run(
        workflows, system, users(("u1", budget)), policy or PfaPolicy(), **kw
    )


def test_empty_workload_traces_only_ticks_and_charges_nothing():
    result = run([], policy=HoldPolicy({"small": 1}))
    assert result.state.all_done
    assert {row[1] for row in result.trace} == {"tick"}
    assert result.cost_series["u1"] == []
    assert result.snapshots == []


def test_preallocated_single_task_finishes_at_runtime():
    w = wf("w1", [("a", {"small": 40})], arrival_s=0)
    result = run([w], system=small_only_system(count=1), policy=HoldPolicy({"small": 1}))
    finis = [row for row in result.trace if row[1] == "finish"]
    assert len(finis) == 1
    assert finis[0][0] == 40  # arrival 0 + runtime 40
    assert result.state.runs["w1"].last_finish_s == 40
    assert result.mean_slowdown("u1") == 1.0


def test_preallocated_chain_runs_back_to_back_and_stops_charging():
    # 40+40+30 = 110 s on one machine held from tick 0: intervals [0,60)
    # and [60,120) are charged, after which the resource is still held but
    # the run ends
    w = chain_wf("w1", [{"small": 40}, {"small": 40}, {"small": 30}])
    result = run([w], system=small_only_system(count=1), policy=HoldPolicy({"small": 1}))
    assert result.state.runs["w1"].last_finish_s == 110
    assert result.cost_series["u1"] == [1, 1]


def test_arrivals_respect_time():
    w = wf("w1", [("a", {"small": 10})], arrival_s=90)
    result = run([w], system=small_only_system(count=1), policy=HoldPolicy({"small": 1}))
    trace = result.trace
    arrive = next(row for row in trace if row[1] == "arrive")
    start = next(row for row in trace if row[1] == "start")
    assert arrive[0] == 90
    assert start[0] == 90
    assert result.state.runs["w1"].last_finish_s == 100


def test_boot_delay_defers_first_start():
    system = two_type_system(interval_s=60, boot_delay_s=12)
    w = wf("w1", [("a", {"small": 10, "large": 10})])
    result = run([w], system=system, budget=20)
    trace = result.trace
    boot = next(row for row in trace if row[1] == "boot")
    start = next(row for row in trace if row[1] == "start")
    assert boot[0] == 12
    assert start[0] >= 12


def test_every_task_starts_and_finishes_exactly_once():
    wfs = generate_workload(12, users=["u1"], rule=WL1, seed=5)
    result = run(wfs, budget=40)
    trace = result.trace
    starts = [(r[3], r[4]) for r in trace if r[1] == "start"]
    finishes = [(r[3], r[4]) for r in trace if r[1] == "finish"]
    tasks = {(w.id, t.id) for w in wfs for t in w.tasks}
    assert sorted(starts) == sorted(tasks)
    assert sorted(finishes) == sorted(tasks)
    assert len(set(starts)) == len(starts)
    assert result.state.all_done
    done_rows = [r for r in trace if r[1] == "workflow_done"]
    assert len(done_rows) == len(wfs)


@pytest.mark.parametrize("policy", [PfaPolicy, PlfPolicy, ScfPolicy])
def test_charges_never_exceed_budget(policy):
    wfs = generate_workload(10, users=["u1"], rule=WL1, seed=2)
    result = run(wfs, budget=17, policy=policy())
    assert result.cost_series["u1"]
    assert max(result.cost_series["u1"]) <= 17


@pytest.mark.parametrize("policy", [PfaPolicy, PlfPolicy, ScfPolicy])
def test_identical_seeds_give_identical_traces(tmp_path, policy):
    wfs = generate_workload(8, users=["u1", "u2"], rule=WL1, seed=3)
    sysc = two_type_system()
    uu = users(("u1", 30), ("u2", 30))
    a = engine.run(wfs, sysc, uu, policy(), seed=11)
    b = engine.run(wfs, sysc, uu, policy(), seed=11)
    assert a.trace == b.trace
    assert a.snapshots == b.snapshots
    assert a.cost_series == b.cost_series
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_trace_csv(pa)
    b.write_trace_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize("user, wf_id, task_ids, type_id, quoted", [
    ("u1", "w1", ("a", "b"), "large", False),
    ("u,1", "w1", ("a", "b"), "large", True),
    ("u1", 'w"1', ("a", "b"), "large", True),
    ("u1", "w1", ("a\nb", "b"), "large", True),
    ("u1", "w1", ("a", "b\r\nc"), "large", True),
    ("u1", "w1", ("a", "b"), "la,rge", True),
], ids=["plain", "comma-user", "quote-workflow", "lf-task", "crlf-task", "comma-type"])
def test_trace_csv_bytes_are_csv_writer_bytes(tmp_path, monkeypatch, user, wf_id, task_ids,
                                              type_id, quoted):
    system = SystemConfig(types=(ResourceType("small", 1), ResourceType(type_id, 5)),
                          capacity={"small": 1, type_id: 1}, interval_s=60)
    spec = wf(wf_id, [(tid, {"small": 20, type_id: 10}) for tid in task_ids],
              edges=[task_ids], user=user)
    # the run formats the trace, so csv.writer is watched from its start
    writers = []
    real_writer = engine.csv.writer
    monkeypatch.setattr(engine.csv, "writer", lambda fh: writers.append(fh) or real_writer(fh))
    result = engine.run([spec], system, users((user, 6)), HoldPolicy({"small": 1, type_id: 1}))
    result.write_trace_csv(tmp_path / "trace.csv")
    assert bool(writers) == quoted  # csv.writer only where a field needs quoting
    trace = result.trace
    assert any(row[6] == type_id for row in trace)
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        real_writer(fh).writerows([engine.TRACE_COLUMNS, *trace])
    assert (tmp_path / "trace.csv").read_bytes() == expected.read_bytes()


def file_bytes(fh):
    """What a run's trace file holds, read without moving its position."""
    fh.flush()
    return os.pread(fh.fileno(), os.fstat(fh.fileno()).st_size, 0)


def test_each_tick_flushes_its_interval_as_csv_text(tmp_path):
    # Each row is one record of CSV text from when it is made: each tick
    # writes the rows since the last one to the run's file, and the end of
    # the run writes the last interval's.
    wfs = generate_workload(8, users=["u1", "u2"], rule=WL1, seed=3)
    system = two_type_system(boot_delay_s=7)
    sim = engine._Sim(wfs, system, users(("u1", 12), ("u2", 20)), PfaPolicy(), 5, False)
    flushed = []  # (clock, pending rows parsed) at each flush
    flush = sim.flush_trace

    def record():
        rows = []
        for text in sim.trace:
            (fields,) = csv.reader(io.StringIO(text, newline=""))
            time_s, event, user, wf_id, task, resource, rtype, detail = fields
            rows.append((int(time_s), event, user, wf_id, task,
                         int(resource) if resource else "", rtype, detail))
        flushed.append((sim.state.clock, rows))
        flush()
        assert sim.trace == []
        # the file holds csv.writer's text of exactly the rows flushed so far
        buf = io.StringIO()
        csv.writer(buf).writerows(row for _clock, rows in flushed for row in rows)
        assert file_bytes(sim.trace_file) == buf.getvalue().encode(sim.trace_file.encoding)

    sim.flush_trace = record
    result = sim.run()
    assert sim.trace == []  # no row is left pending
    result.write_trace_csv(tmp_path / "trace.csv")
    header, _, body = (tmp_path / "trace.csv").read_bytes().partition(b"\r\n")
    assert header == ",".join(engine.TRACE_COLUMNS).encode()
    assert result.trace_file is sim.trace_file
    assert file_bytes(result.trace_file) == body
    # The first flush, at tick 0, holds the rows before it. Every later one
    # holds the rows from one tick, its first row, up to the next tick or the
    # end of the run.
    clocks = [clock for clock, _rows in flushed]
    assert clocks[:-1] == [k * system.interval_s for k in range(len(flushed) - 1)]
    assert all(row[1] != "tick" for row in flushed[0][1])
    for (opened, _), (clock, rows) in zip(flushed, flushed[1:]):
        assert rows[0][:2] == (opened, "tick")
        assert all(row[1] != "tick" and opened <= row[0] <= clock for row in rows[1:])
    # each flush added csv.writer's text of exactly its rows (checked in record)
    assert len(flushed) > 3
    trace = result.trace
    assert trace == [row for _clock, rows in flushed for row in rows]
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        csv.writer(fh).writerows([engine.TRACE_COLUMNS, *trace])
    assert (tmp_path / "trace.csv").read_bytes() == expected.read_bytes()


def test_reading_the_trace_leaves_it_as_it_was(tmp_path):
    wfs = generate_workload(8, users=["u1", "u2"], rule=WL1, seed=3)
    result = engine.run(wfs, two_type_system(), users(("u1", 30), ("u2", 30)), PlfPolicy(),
                        seed=4)
    trace = result.trace
    assert len(trace) > 20
    result.write_trace_csv(tmp_path / "a.csv")
    assert result.trace == trace
    result.write_trace_csv(tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert result.trace == trace


def test_a_runs_trace_file_is_closed_once_its_owner_is_collected(monkeypatch):
    opened = []
    temporary_file = engine.tempfile.TemporaryFile
    monkeypatch.setattr(engine.tempfile, "TemporaryFile",
                        lambda *a, **kw: opened.append(temporary_file(*a, **kw)) or opened[-1])
    # a run that returns: its result owns the file
    result = run([chain_wf("w1", [{"small": 20, "large": 10}] * 2)])
    assert opened == [result.trace_file] and not opened[0].closed
    del result
    gc.collect()
    assert opened[0].closed
    # a run that raises: the simulation that opened the file closes it
    with time_limit(3), pytest.raises(Stalled):
        run([chain_wf("w2", ONE_TASK)], budget=3, policy=PlfPolicy())
    gc.collect()
    assert len(opened) == 2 and opened[1].closed
    # invalid input is rejected before a file is opened
    with pytest.raises(WorkloadInvalid):
        run([chain_wf("w3", [{"small": 20, "large": 10, "tiny": 5}])])
    assert len(opened) == 2


def test_different_seeds_may_reorder_users_but_still_finish():
    wfs = generate_workload(6, users=["u1", "u2"], rule=WL1, seed=3)
    sysc = two_type_system()
    uu = users(("u1", 30), ("u2", 30))
    a = engine.run(wfs, sysc, uu, PfaPolicy(), seed=1)
    assert a.state.all_done


def test_snapshots_pair_demand_with_interval_charge():
    w = wf("w1", [("a", {"small": 50})])
    result = run([w], system=small_only_system(count=2), budget=2,
                 policy=PfaPolicy())
    first = result.snapshots[0]
    assert first.interval == 0
    assert first.user == "u1"
    assert first.demand == 1
    # charge covers what was reserved during that interval
    assert first.allocated_cost == result.cost_series["u1"][0]


@pytest.mark.parametrize(
    "policy",
    [PfaPolicy, lambda: PfaPolicy(PfaConfig(smoothing="ewma")), PlfPolicy, ScfPolicy],
    ids=["pfa-ma", "pfa-ewma", "plf", "scf"],
)
def test_trace_charges_match_snapshots(policy):
    # every tick but the last opens a billed interval, and the interval's
    # charge rows in the trace add up to the snapshot's charge
    wfs = generate_workload(8, users=["u1", "u2"], rule=WL1, seed=3)
    system = two_type_system(boot_delay_s=7)
    result = engine.run(wfs, system, users(("u1", 12), ("u2", 20)), policy(), seed=5)
    trace = result.trace
    ticks = [int(r[7].removeprefix("interval=")) for r in trace if r[1] == "tick"]
    assert ticks == sorted(set(ticks))
    assert {s.interval for s in result.snapshots} == set(ticks[:-1])
    charged: dict[tuple[int, str], int] = {}
    for r in trace:
        if r[1] == "charge":
            amount = int(r[7].partition("amount=")[2])
            key = (r[0] // system.interval_s, r[2])
            charged[key] = charged.get(key, 0) + amount
    assert charged
    for s in result.snapshots:
        assert charged.pop((s.interval, s.user), 0) == s.allocated_cost
    assert charged == {}


@pytest.mark.parametrize("policy", [PlfPolicy, ScfPolicy], ids=["plf", "scf"])
def test_plan_wakes_fall_inside_the_interval_that_installed_them(policy):
    # a plan places starts only before its horizon, the next tick, so every
    # wake is popped before its user's next plan is installed and no wake
    # is scheduled twice
    wfs = generate_workload(8, users=["u1", "u2"], rule=WL1, seed=3)
    system = two_type_system(boot_delay_s=7)
    sim = engine._Sim(wfs, system, users(("u1", 12), ("u2", 20)), policy(), 5, False)
    pushed = []
    push = sim.push

    def record(when, rank, data):
        pushed.append((sim.state.clock, when, rank, data))
        push(when, rank, data)

    sim.push = record
    sim.run()
    wakes = [(now, when, uid) for now, when, rank, uid in pushed if rank == engine._WAKE]
    assert len({uid for _now, _when, uid in wakes}) == 2
    interval = system.interval_s
    for now, when, _uid in wakes:
        assert now % interval == 0 and now < when < now + interval
    assert len({(uid, when) for _now, when, uid in wakes}) == len(wakes)


def test_decision_log_counts_ticks_per_user():
    wfs = generate_workload(4, users=["u1"], rule=WL1, seed=9)
    result = run(wfs, budget=20)
    assert result.ticks >= 1
    assert len(result.decision_log) == result.ticks
    stats = result.decision_stats()["pfa-ma"]
    assert stats["count"] == result.ticks
    assert stats["mean_s"] > 0


def test_diagnostics_written_for_pfa_only():
    wfs = generate_workload(3, users=["u1"], rule=WL1, seed=1)
    with_pfa = run(wfs, budget=20, policy=PfaPolicy())
    assert with_pfa.diagnostics
    keys = set(with_pfa.diagnostics[0])
    assert keys == {"t", "user", "rho", "nu", "mu_hat", "mu_tilde", "zeta",
                    "theta", "lambda", "sigma", "mu"}


# Machines 0 and 1 are small, 2 to 4 large. u1 holds 3, idle and past its
# first paid interval, so releasing it is valid, and 4, busy; u2 holds 0. So
# u1 holds 10 of its budget of 15, and only 1 and 2 are free. Each decision
# pairs that valid release (where it can) with one bad entry.
@pytest.mark.parametrize("decision, error, message", [
    (Decision(dealloc=[3], alloc=[-1]), ValueError, "resource -1, which is not a machine"),
    (Decision(dealloc=[3], alloc=[99]), ValueError, "resource 99, which is not a machine"),
    (Decision(dealloc=[-1]), ValueError, "released resource -1, which u1 does not hold"),
    (Decision(dealloc=[3, 99]), ValueError, "released resource 99, which u1 does not hold"),
    (Decision(dealloc=[3, 0]), ValueError, "released resource 0, which u1 does not hold"),
    (Decision(dealloc=[3, 4]), ValueError, "resource 4 not idle"),
    (Decision(dealloc=[3, 3]), ValueError, "resource 3 not idle"),
    (Decision(dealloc=[3], alloc=[0]), CapacityExceeded, "resource 0 is not free"),
    (Decision(dealloc=[3], alloc=[3]), CapacityExceeded, "resource 3 is not free"),
    (Decision(alloc=[1, 1]), CapacityExceeded, "resource 1 is not free"),
    (Decision(alloc=[1, 2]), BudgetViolation, "allocation for u1 would exceed budget"),
], ids=["negative-id", "id-out-of-range", "negative-release", "release-out-of-range",
        "foreign-release", "busy-release", "release-twice", "foreign-reservation",
        "release-and-reserve", "reserve-twice", "over-budget"])
def test_a_decision_naming_a_wrong_machine_is_rejected_before_any_change(
    decision, error, message
):
    system = two_type_system(small=2, large=3)
    w = wf("w1", [("a", {"small": 90, "large": 90})])
    sim = engine._Sim([], system, users(("u1", 15), ("u2", 20)), PfaPolicy(), 0,
                      collect_plans=False)
    state = sim.state
    state.apply("u1", [], [4, 3], 0)
    state.apply("u2", [], [0], 0)
    (graph,) = engine.validate_inputs([w], ["u1", "u2"], ["small", "large"], [])
    state.start_task(state.arrive(graph).base, 4, 0)
    before = [(r.state, r.user) for r in state.resources]
    with pytest.raises(error, match=re.escape(message)):
        sim.apply_decision("u1", decision, 60, 1)
    assert [(r.state, r.user) for r in state.resources] == before
    assert sim.trace == [] and file_bytes(sim.trace_file) == b""


def test_budget_violation_from_malicious_policy():
    class Grabber(PfaPolicy):
        def decide(self, view):
            decision = super().decide(view)
            free = view.observation.free_ids("large")
            decision.alloc.extend(free[:3])
            return decision

    wfs = generate_workload(4, users=["u1"], rule=WL1, seed=4)
    with pytest.raises(BudgetViolation):
        run(wfs, budget=6, policy=Grabber())


def test_plan_rows_collected_when_requested():
    wfs = generate_workload(3, users=["u1"], rule=WL1, seed=8)
    result = run(wfs, budget=20, policy=PlfPolicy(), collect_plans=True)
    assert result.plan_rows
    row = result.plan_rows[0]
    assert set(row) == {"t", "resource", "task", "start", "end"}


def test_poisson_arrivals_deterministic_and_ordered():
    wfs = generate_workload(30, users=["u1"], rule=WL1, seed=1)
    a = engine.poisson_arrivals(wfs, utilization=0.2, capacity=16, seed=7)
    b = engine.poisson_arrivals(wfs, utilization=0.2, capacity=16, seed=7)
    assert [w.arrival_s for w in a] == [w.arrival_s for w in b]
    assert [w.id for w in a] == [w.id for w in wfs]  # order preserved
    times = [w.arrival_s for w in a]
    assert times == sorted(times)
    assert all(t >= 0 for t in times)
    c = engine.poisson_arrivals(wfs, utilization=0.2, capacity=16, seed=8)
    assert [w.arrival_s for w in c] != times


@pytest.mark.parametrize("utilization,capacity", [
    (0, 16), (-0.2, 16), (float("nan"), 16), (float("inf"), 16), (0.2, 0),
])
def test_poisson_arrivals_reject_a_rate_that_is_not_positive(utilization, capacity):
    wfs = generate_workload(2, users=["u1"], rule=WL1, seed=1)
    with pytest.raises(ValueError, match="arrivals: "):
        engine.poisson_arrivals(wfs, utilization, capacity, seed=7)


def test_poisson_higher_utilization_packs_arrivals_tighter():
    wfs = generate_workload(40, users=["u1"], rule=WL1, seed=1)
    slow = engine.poisson_arrivals(wfs, utilization=0.1, capacity=16, seed=7)
    fast = engine.poisson_arrivals(wfs, utilization=0.8, capacity=16, seed=7)
    assert fast[-1].arrival_s < slow[-1].arrival_s


def test_multi_user_runs_isolate_budgets():
    wfs = generate_workload(10, users=["u1", "u2"], rule=WL1, seed=6)
    sysc = two_type_system()
    result = engine.run(wfs, sysc, users(("u1", 8), ("u2", 25)), PfaPolicy(), seed=0)
    assert max(result.cost_series["u1"], default=0) <= 8
    assert max(result.cost_series["u2"], default=0) <= 25
    assert result.state.all_done


def test_summary_has_external_shape():
    wfs = generate_workload(4, users=["u1"], rule=WL1, seed=2)
    result = run(wfs, budget=20)
    doc = result.summary()
    u1 = doc["per_user"]["u1"]
    assert set(u1) == {"mean_slowdown", "median_slowdown", "cost", "elasticity"}
    assert set(u1["elasticity"]) == {"aU", "aO", "tU", "tO"}
    assert "pfa-ma" in doc["per_policy_runtime_stats"]


def test_unknown_user_rejected_before_the_run():
    ghost = wf("w1", [("a", {"small": 10})], user="ghost", arrival_s=30)
    with pytest.raises(WorkloadInvalid) as err:
        run([wf("w0", [("a", {"small": 10, "large": 5})]), ghost])
    assert err.value.workflow_id == "w1"
    assert err.value.issues == ["UnknownUser(ghost)"]


def test_structural_issues_take_precedence_over_unknown_user():
    cyclic = wf("w1", [("a", {"small": 1}), ("b", {"small": 1})],
                edges=[("a", "b"), ("b", "a")], user="ghost")
    with pytest.raises(WorkloadInvalid) as err:
        run([cyclic])
    assert err.value.issues == ["CycleDetected"]


def test_runtime_on_unknown_type_rejected_before_the_run():
    # a runtime on a type the system lacks would set the ideal makespan:
    # 5 s on "huge" would halve it and double every slowdown
    task = {"small": 100, "large": 10}
    assert run([wf("w1", [("a", task)])]).mean_slowdown() == 10.0
    with pytest.raises(WorkloadInvalid) as err:
        engine._Sim([wf("w0", [("a", task)]), wf("w1", [("a", {**task, "huge": 5})])],
                    two_type_system(), users(("u1", 100)), PfaPolicy(), 0, False)
    assert err.value.workflow_id == "w1"
    assert err.value.issues == ["UnknownType(huge)"]


def test_task_without_runtime_on_a_held_type_rejected_before_the_run():
    # dynamic dispatch may pair a task with an idle machine of any type the
    # user holds, and the planners ask the oracle for every type
    small_only = chain_wf("w1", [{"small": 10}, {"small": 5}])
    with pytest.raises(WorkloadInvalid) as err:
        run([chain_wf("w0", [{"small": 10, "large": 5}]), small_only], budget=10)
    assert err.value.workflow_id == "w1"
    assert err.value.issues == ["MissingType(large)"]


@pytest.mark.parametrize("policy", [PfaPolicy, PlfPolicy, ScfPolicy])
def test_type_without_machines_needs_no_runtime(policy):
    small_only = chain_wf("w1", [{"small": 10}, {"small": 5}])
    result = run([small_only], system=two_type_system(large=0), budget=10, policy=policy())
    assert result.state.all_done


def test_each_workflow_graph_built_once(monkeypatch):
    builds = []
    original = dagops.WorkflowGraph.__init__

    def counting(self, spec, shared=None):
        builds.append(spec.id)
        original(self, spec, shared)

    monkeypatch.setattr(dagops.WorkflowGraph, "__init__", counting)
    wfs = generate_workload(5, users=["u1"], rule=WL1, seed=3)
    result = run(wfs, budget=20)
    assert result.state.all_done
    assert sorted(builds) == sorted(w.id for w in wfs)


def test_duplicate_workflow_id_rejected_before_the_run():
    first = wf("w1", [("a", {"small": 10, "large": 5})])
    later = wf("w1", [("b", {"small": 20})], arrival_s=30)
    with pytest.raises(WorkloadInvalid) as err:
        run([first, later])
    assert err.value.workflow_id == "w1"
    assert err.value.issues == ["DuplicateWorkflow"]


def test_duplicate_user_id_rejected_before_the_run():
    w = wf("w1", [("a", {"small": 10})])
    with pytest.raises(ValueError, match="duplicate user id 'u1'"):
        engine.run([w], two_type_system(), users(("u1", 10), ("u1", 20)), PfaPolicy())


BOTH = {"small": 10, "large": 5}


@pytest.mark.parametrize("invalid,issues", [
    ([wf("w1", [("a", BOTH)]), wf("w1", [("b", BOTH)])], ["DuplicateWorkflow"]),
    ([wf("w1", [("a", BOTH), ("b", BOTH)], edges=[("a", "b"), ("b", "a")])], ["CycleDetected"]),
    ([wf("w1", [("a", BOTH)], edges=[("a", "x")])], ["DanglingEdge(a->x)"]),
    ([chain_wf("w1", [BOTH, {**BOTH, "huge": 1}])], ["UnknownType(huge)"]),
    ([chain_wf("w1", [BOTH, {"small": 10}])], ["MissingType(large)"]),
], ids=["duplicate", "cycle", "dangling", "unknown-type", "missing-type"])
def test_engine_and_mip_reject_the_same_workload_alike(invalid, issues):
    # one validator: the simulator and the slot-grid model reject the same
    # single-user workloads, naming the same workflow and issues
    workflows = [wf("w0", [("a", BOTH)]), *invalid]
    with pytest.raises(WorkloadInvalid) as sim_err:
        run(workflows)
    with pytest.raises(WorkloadInvalid) as mip_err:
        mip.build_instance(workflows, 5, 2, 6, [("small", 1), ("large", 5)])
    assert (sim_err.value.workflow_id, sim_err.value.issues) == ("w1", issues)
    assert (mip_err.value.workflow_id, mip_err.value.issues) == ("w1", issues)


def test_reused_pfa_policy_repeats_its_run():
    # the policy's carry (EWMA shares and depth, throughput history) starts
    # fresh at tick 0, so a second run does not inherit the first run's end
    wfs = generate_workload(6, users=["u1", "u2"], rule=WL1, seed=3)
    sysc = two_type_system()
    uu = users(("u1", 30), ("u2", 30))
    policy = PfaPolicy(PfaConfig(smoothing="ewma"))
    a = engine.run(wfs, sysc, uu, policy, seed=4)
    b = engine.run(wfs, sysc, uu, policy, seed=4)
    assert a.trace == b.trace
    assert a.diagnostics == b.diagnostics


def test_engine_imports_nothing_from_pfa():
    # the engine hands every policy the same runtime-free facade; PFA's
    # internals stay behind the policy interface
    imported = []  # absolute module and module.name paths
    for node in ast.walk(ast.parse(Path(engine.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "wfasim" + ("." + module if module else "")
            imported += [module] + [f"{module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    assert "wfasim.state.UserFacade" in imported  # the walk sees relative imports
    from_pfa = [
        name for name in imported
        if name == "wfasim.policies.pfa"
        or name.startswith("wfasim.policies.pfa.")
        or name.rpartition(".")[2] in pfa_module.__all__
    ]
    assert from_pfa == []


def callers_of(method):
    """(module, enclosing class.function) of each ``.method(`` call in the
    package, in file and source order."""
    package = Path(engine.__file__).parent
    callers = []
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).with_suffix("").as_posix()

        def visit(node, scope):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = scope + (node.name,)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == method):
                callers.append((module, ".".join(scope)))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text()), ())
    return callers


def test_only_applied_decisions_reserve_machines():
    # every reservation passes the state's whole-decision check, budget
    # included, in SystemState.apply; the state has no other way to reserve
    # a machine, and only the engine's decision step calls it
    assert not hasattr(SystemState, "reserve")
    assert callers_of("apply") == [("engine", "_Sim.apply_decision")]


def test_only_a_tick_releases_machines():
    # releases are applied only with a tick's decisions, and every paid
    # interval ends at a tick, so no policy needs to see a billing end
    assert not hasattr(SystemState, "release")
    assert callers_of("apply") == [("engine", "_Sim.apply_decision")]
    assert callers_of("apply_decision") == [("engine", "_Sim.on_tick")]


def test_engine_leaves_machine_states_to_the_state():
    # the state checks every machine transition, so the engine names no
    # machine state and none of the errors a bad decision raises
    tree = ast.parse(Path(engine.__file__).read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name.rpartition(".")[2] for n in ast.walk(tree)
              if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    assert "SystemState" in names  # the walk sees the engine's names
    assert names & {"ResourceState", "CapacityExceeded", "BudgetViolation"} == set()


# -- termination: every run finishes or stops with a typed error ------------------


class Hang(Exception):
    pass


@contextmanager
def time_limit(seconds):
    """Raise Hang in the main thread once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise Hang(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


POLICIES = {
    "pfa-ma": PfaPolicy,
    "pfa-ewma": lambda: PfaPolicy(PfaConfig(smoothing="ewma")),
    "plf": PlfPolicy,
    "scf": ScfPolicy,
}
ONE_TASK = [{"small": 100, "large": 10}]


@pytest.mark.parametrize(
    "policy, budget, machines, error",
    [
        ("plf", 3, 4, Stalled),
        ("scf", 3, 4, Stalled),
        ("pfa-ma", 3, 4, BudgetTooSmall),
        ("plf", 0, 8, Stalled),
        ("scf", 0, 8, Stalled),
        ("pfa-ma", 0, 8, BudgetTooSmall),
        ("plf", 10, 0, Stalled),
        ("scf", 10, 0, Stalled),
        ("pfa-ma", 10, 0, Stalled),
    ],
)
def test_run_that_cannot_progress_stops_with_a_typed_error(policy, budget, machines, error):
    # budget 3 or 0 buys no machine of the 10 s type; at zero capacity there
    # is no machine at all
    system = two_type_system(small=machines, large=machines)
    with time_limit(3), pytest.raises(error):
        run([chain_wf("w1", ONE_TASK)], system=system, budget=budget,
            policy=POLICIES[policy]())


@pytest.mark.parametrize("policy", ["plf", "scf"])
def test_planners_run_a_task_on_a_slower_held_type(policy):
    # The child's fastest type, large, costs 5, over the budget of 3. The
    # planners still finish the chain, both tasks on the small machine they
    # can afford: so a planner budget floor at the dearest fastest type of
    # the workload's tasks would reject a run that completes.
    system = two_type_system(small=4, large=4)
    chain = chain_wf("w1", [{"small": 10, "large": 20}, {"small": 100, "large": 10}])
    with time_limit(3):
        result = run([chain], system=system, budget=3, policy=POLICIES[policy]())
    assert result.state.runs["w1"].last_finish_s == 110
    starts = [(row[4], row[5], row[6]) for row in result.trace if row[1] == "start"]
    assert starts == [("t0", 0, "small"), ("t1", 0, "small")]


@pytest.mark.parametrize("policy, small, large", [
    pytest.param(policy, small, large, id=policy if large else f"{policy}-small-only")
    for small, large in ((0, 2), (2, 0)) for policy in POLICIES
])
def test_pfa_profiles_only_the_types_with_machines(policy, small, large):
    # Each task runs twice as fast on large as on small, the cheaper type,
    # and one of the two has no machines. A PFA profile share on a
    # machineless small used to swap every large machine for small ones that
    # do not exist, and PLF and SCF planned every task on a machineless
    # large: each run stalled. Every policy now buys only the type it can.
    rt = {"small": 20, "large": 10}
    tasks = [("entry", rt), *((f"m{i:02d}", rt) for i in range(20)), ("exit", rt)]
    edges = [*(("entry", t) for t, _ in tasks[1:-1]), *((t, "exit") for t, _ in tasks[1:-1])]
    system = two_type_system(small=small, large=large)
    with time_limit(3):
        result = run([wf("fj", tasks, edges)], system=system, budget=20,
                     policy=POLICIES[policy]())
    assert result.state.all_done
    held = {t.id for t in system.types_with_machines()}
    assert {row[6] for row in result.trace if row[1] == "allocate"} == held


def test_stall_guard_gives_a_machine_released_mid_tick_another_tick():
    # u1 holds the only machine and finishes at 10 s; u2's work arrives at
    # 30 s. At tick 1, u1 releases the machine at its billing end. When u2
    # decided first, it found no free machine, so nothing is held after the
    # decisions and no event is pending, yet u2 can take the machine at tick 2.
    system = small_only_system(count=1)
    workflows = [chain_wf("w0", [{"small": 10}]),
                 chain_wf("w1", [{"small": 10}], user="u2", arrival_s=30)]
    late = []
    for seed in range(8):
        with time_limit(3):
            result = engine.run(workflows, system, users(("u1", 1), ("u2", 1)),
                                PfaPolicy(), seed=seed)
        assert result.state.all_done
        allocations = [(row[0], row[2]) for row in result.trace if row[1] == "allocate"]
        if (120, "u2") in allocations:
            late.append(seed)
    assert late  # some seed shuffled u2 ahead of u1 at tick 1


# appended to an id, each but the first makes csv quote the fields that hold it
ID_SUFFIXES = st.sampled_from(["", ",", '"', "\r", "\n", "\r\n"])


@st.composite
def small_system_run(draw):
    """1-2 types with 0-3 machines each, 1-2 users with budgets 0-12, and
    0-3 chains of 1-3 tasks. A task sometimes omits a type. Mostly, the ids
    of one kind may end in a character that csv quotes."""
    odd = draw(st.sampled_from(["", "user", "type", "workflow", "task"]))

    def suffix(kind):
        return draw(ID_SUFFIXES) if kind == odd else ""

    types = [ResourceType("small", draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        types.append(ResourceType("large" + suffix("type"), draw(st.integers(1, 6))))
    system = SystemConfig(
        types=tuple(types),
        capacity={t.id: draw(st.integers(0, 3)) for t in types},
        interval_s=60,
        boot_delay_s=draw(st.sampled_from([0, 7])),
    )
    user_ids = ["u1" + suffix("user"), "u2"][: draw(st.integers(1, 2))]
    budgets = [UserConfig(u, draw(st.integers(0, 12))) for u in user_ids]
    workflows = []
    for k in range(draw(st.sampled_from([1, 2, 3, 0]))):
        runtimes = []
        for _ in range(draw(st.integers(1, 3))):
            task = {t.id: draw(st.integers(1, 90)) for t in types}
            if len(task) > 1 and draw(st.integers(0, 4)) == 0:
                del task[draw(st.sampled_from(sorted(task)))]
            runtimes.append(task)
        task_ids = [f"t{i}" + suffix("task") for i in range(len(runtimes))]
        workflows.append(wf(
            f"w{k}" + suffix("workflow"), list(zip(task_ids, runtimes)),
            edges=list(zip(task_ids, task_ids[1:])),
            user=draw(st.sampled_from(user_ids)), arrival_s=draw(st.integers(0, 150)),
        ))
    policy = draw(st.sampled_from(sorted(POLICIES)))
    return workflows, system, budgets, policy


# No shrinking: a hang costs a whole alarm per attempt, and the drawn inputs
# are small enough to read as they are. Every draw writes the same file.
@settings(max_examples=200, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate],
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(small_system_run(), st.integers(0, 3))
def test_every_run_finishes_or_stops_with_a_typed_error(tmp_path, case, seed):
    workflows, system, budgets, policy = case
    with time_limit(3):
        try:
            result = engine.run(workflows, system, budgets, POLICIES[policy](), seed=seed)
        except (WorkloadInvalid, BudgetTooSmall, Stalled):
            return
    assert result.state.all_done
    # The trace parsed back from its text, quoted fields and empty resource
    # fields included, is what csv.writer writes as the trace file.
    trace = result.trace
    result.write_trace_csv(tmp_path / "trace.csv")
    buf = io.StringIO()
    csv.writer(buf).writerows([engine.TRACE_COLUMNS, *trace])
    assert (tmp_path / "trace.csv").read_bytes() == buf.getvalue().encode()
    # From the trace alone: each task starts once and finishes once, on the
    # machine it started on; no machine runs two tasks at once; and a machine
    # is released no earlier than one interval after it was reserved.
    tasks = Counter((w.id, t.id) for w in workflows for t in w.tasks)
    for event in ("start", "finish"):
        assert Counter((r[3], r[4]) for r in trace if r[1] == event) == tasks
    started = {(r[3], r[4]): (r[5], r[0]) for r in trace if r[1] == "start"}
    spans = sorted((*started[(r[3], r[4])], r[0], r[5]) for r in trace if r[1] == "finish")
    assert all(rid == finished_on for rid, _start, _end, finished_on in spans)
    for (rid, _start, end, _), (next_rid, next_start, _end, _) in zip(spans, spans[1:]):
        assert rid != next_rid or end <= next_start
    reserved_at = {}
    for r in trace:
        if r[1] == "allocate":
            reserved_at[r[5]] = r[0]
        elif r[1] == "release":
            assert r[0] - reserved_at.pop(r[5]) >= system.interval_s
    # Per (interval, user), the charge rows sum to the snapshot's cost, and
    # no snapshot's cost exceeds its user's budget.
    charged = Counter()
    for r in trace:
        if r[1] == "charge":
            charged[(r[0] // system.interval_s, r[2])] += int(r[7].rpartition("amount=")[2])
    billed = {(s.interval, s.user): s.allocated_cost for s in result.snapshots}
    assert charged == Counter({k: cost for k, cost in billed.items() if cost})
    budget = {u.id: u.budget for u in budgets}
    assert all(s.allocated_cost <= budget[s.user] for s in result.snapshots)


def _tripled(task, rtype_id):
    return 3 * task.runtime_by_type[rtype_id]


@pytest.mark.parametrize("planner", [PlfPolicy, ScfPolicy])
@pytest.mark.parametrize("boot_delay_s", [0, 7])
def test_skipping_a_wake_after_a_dispatch_at_its_instant_changes_no_output(
    planner, boot_delay_s, monkeypatch
):
    # With every runtime estimate tripled, tasks finish long before the plan
    # expects, so the next entries on a machine start at their wakes: wakes do
    # start tasks here. Skipping the wakes that follow a dispatch of their user
    # at the same instant must leave every output byte as it was.
    class Misled(planner):
        def decide(self, view):
            return super().decide(dataclasses.replace(view, oracle=_tripled))

    system = two_type_system(small=6, large=6, boot_delay_s=boot_delay_s)
    workflows = generate_workload(24, users=["u1", "u2"], rule=WL1, seed=5)
    workflows = engine.poisson_arrivals(workflows, 0.5, 12, 5)
    budgets = users(("u1", 20), ("u2", 15))
    dispatches = []
    plan_dispatch = scheduler.PlanRunner.dispatch

    def counted(self, state, user, now):
        dispatches.append((now, user))
        return plan_dispatch(self, state, user, now)

    monkeypatch.setattr(scheduler.PlanRunner, "dispatch", counted)
    skipping = engine.run(workflows, system, budgets, Misled(), seed=5, collect_plans=True)
    skipping_calls = len(dispatches)
    monkeypatch.setattr(scheduler.PlanRunner, "dispatched_at", lambda self, user: None)
    dispatches.clear()
    visiting = engine.run(workflows, system, budgets, Misled(), seed=5, collect_plans=True)

    assert skipping.trace == visiting.trace
    assert skipping.snapshots == visiting.snapshots
    assert skipping.plan_rows == visiting.plan_rows
    assert skipping.diagnostics == visiting.diagnostics
    assert skipping_calls < len(dispatches)  # some wakes were skipped
    # a start at an instant with no tick and no finish, boot or arrival of
    # its user can only come from a wake
    trace = visiting.trace
    ticks = {row[0] for row in trace if row[1] == "tick"}
    causes = {row[:3:2] for row in trace if row[1] in ("finish", "boot", "arrive")}
    assert any(row[1] == "start" and row[0] not in ticks and row[:3:2] not in causes
               for row in trace)


# -- measurement: opcode counts of a run are deterministic ------------------------


@pytest.mark.parametrize("policy", [PfaPolicy, PlfPolicy], ids=["pfa", "plf"])
def test_opcode_count_of_a_fixed_run_is_equal_across_calls(policy):
    # tools/ab.py compares two trees by the opcodes one engine.run executes,
    # a figure that means something only if it repeats exactly
    path = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
    spec = importlib.util.spec_from_file_location("ab", path)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    wfs = generate_workload(6, users=["u1", "u2"], rule=WL1, seed=3)
    system = two_type_system(boot_delay_s=7)

    def one_run():
        return engine.run(wfs, system, users(("u1", 12), ("u2", 20)), policy(), seed=5)

    # the first run in a process may also fill the interpreter's ABC caches
    assert any(row[1] == "finish" for row in one_run().trace)
    first, _ = ab.count_opcodes(one_run, engine.run.__code__)
    second, _ = ab.count_opcodes(one_run, engine.run.__code__)
    assert first == second > 0
