"""Simulation engine: event order, billing, determinism, conservation."""

import ast
from pathlib import Path

import pytest

from conftest import HoldPolicy, chain_wf, small_only_system, two_type_system, users, wf
from wfasim import dagops, engine
from wfasim.model import BudgetViolation, WorkloadInvalid
from wfasim.policies import PfaConfig, PfaPolicy, PlfPolicy, ScfPolicy
from wfasim.policies import pfa as pfa_module
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
    arrive = next(row for row in result.trace if row[1] == "arrive")
    start = next(row for row in result.trace if row[1] == "start")
    assert arrive[0] == 90
    assert start[0] == 90
    assert result.state.runs["w1"].last_finish_s == 100


def test_boot_delay_defers_first_start():
    system = two_type_system(interval_s=60, boot_delay_s=12)
    w = wf("w1", [("a", {"small": 10, "large": 10})])
    result = run([w], system=system, budget=20)
    boot = next(row for row in result.trace if row[1] == "boot")
    start = next(row for row in result.trace if row[1] == "start")
    assert boot[0] == 12
    assert start[0] >= 12


def test_every_task_starts_and_finishes_exactly_once():
    wfs = generate_workload(12, users=["u1"], rule=WL1, seed=5)
    result = run(wfs, budget=40)
    starts = [(r[3], r[4]) for r in result.trace if r[1] == "start"]
    finishes = [(r[3], r[4]) for r in result.trace if r[1] == "finish"]
    tasks = {(w.id, t.id) for w in wfs for t in w.tasks}
    assert sorted(starts) == sorted(tasks)
    assert sorted(finishes) == sorted(tasks)
    assert len(set(starts)) == len(starts)
    assert result.state.all_done
    done_rows = [r for r in result.trace if r[1] == "workflow_done"]
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
    ticks = [int(r[7].removeprefix("interval=")) for r in result.trace if r[1] == "tick"]
    assert ticks == sorted(set(ticks))
    assert {s.interval for s in result.snapshots} == set(ticks[:-1])
    charged: dict[tuple[int, str], int] = {}
    for r in result.trace:
        if r[1] == "charge":
            amount = int(r[7].partition("amount=")[2])
            key = (r[0] // system.interval_s, r[2])
            charged[key] = charged.get(key, 0) + amount
    assert charged
    for s in result.snapshots:
        assert charged.pop((s.interval, s.user), 0) == s.allocated_cost
    assert charged == {}


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


def test_budget_violation_from_malicious_policy():
    class Grabber(PfaPolicy):
        def decide(self, view):
            decision = super().decide(view)
            free = view.state.free_resources("large")
            decision.alloc.setdefault("large", []).extend(r.id for r in free[:3])
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
        run([wf("w0", [("a", {"small": 10})]), ghost])
    assert err.value.workflow_id == "w1"
    assert err.value.issues == ["UnknownUser(ghost)"]


def test_structural_issues_take_precedence_over_unknown_user():
    cyclic = wf("w1", [("a", {"small": 1}), ("b", {"small": 1})],
                edges=[("a", "b"), ("b", "a")], user="ghost")
    with pytest.raises(WorkloadInvalid) as err:
        run([cyclic])
    assert err.value.issues == ["CycleDetected"]


def test_each_workflow_graph_built_once(monkeypatch):
    builds = []
    original = dagops.WorkflowGraph.__init__

    def counting(self, spec):
        builds.append(spec.id)
        original(self, spec)

    monkeypatch.setattr(dagops.WorkflowGraph, "__init__", counting)
    wfs = generate_workload(5, users=["u1"], rule=WL1, seed=3)
    result = run(wfs, budget=20)
    assert result.state.all_done
    assert sorted(builds) == sorted(w.id for w in wfs)


def test_duplicate_workflow_id_rejected_before_the_run():
    first = wf("w1", [("a", {"small": 10})])
    later = wf("w1", [("b", {"small": 20})], arrival_s=30)
    with pytest.raises(WorkloadInvalid) as err:
        run([first, later])
    assert err.value.workflow_id == "w1"
    assert err.value.issues == ["DuplicateWorkflow"]


def test_duplicate_user_id_rejected_before_the_run():
    w = wf("w1", [("a", {"small": 10})])
    with pytest.raises(ValueError, match="duplicate user id 'u1'"):
        engine.run([w], two_type_system(), users(("u1", 10), ("u1", 20)), PfaPolicy())


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


def test_only_applied_decisions_reserve_machines():
    # every reservation passes the budget check in apply_decision; no other
    # code path in the package reserves a machine
    package = Path(engine.__file__).parent
    callers = []  # (module, enclosing class.function) of each .reserve( call
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).with_suffix("").as_posix()

        def visit(node, scope):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = scope + (node.name,)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "reserve"):
                callers.append((module, ".".join(scope)))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text()), ())
    assert callers == [("engine", "_Sim.apply_decision")]
