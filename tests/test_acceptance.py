"""Release gate: ten end-to-end checks over the assembled system.

Each check prints exactly one verdict line::

    [criterion N] PASS: <what was measured>

mirrored to the terminal through pytest's capture, then asserts. The ten
criteria, at a glance:

 1. budget safety      - no interval anywhere reserves beyond a user budget
 2. elasticity oracle  - metrics equal a naive recomputation bit for bit
 3. optimal baseline   - exact solver matches exhaustive search; heuristics
                         never beat it on profit or mean slowdown
 4. decision time      - the feedback autoscaler decides at least twice as
                         fast as both planning policies
 5. slowdown ordering  - and still yields the lowest mean slowdown
 6. budget monotonicity- more budget never hurts mean slowdown
 7. fairness by budget - the better-funded user is never worse off
 8. autoscaler laws    - firewall, fallback, wave bounds, reconcile bounds
 9. determinism        - identical config + seed gives byte-identical traces
10. workload realism   - generated workloads match the published statistics
"""

import csv
import dataclasses
import io
import itertools
import random
import statistics
from fractions import Fraction

import pytest

from conftest import chain_wf, users as mk_users
from test_metrics import as_tuple, oracle_elasticity
from test_mip import brute_force_optimum, random_instance
from wfasim import engine
from wfasim.metrics import elasticity
from wfasim.mip import (
    Infeasible,
    build_instance,
    check_solution,
    compare,
    realized_profit,
    run_finishes,
    solve_exact,
)
from wfasim.model import ResourceType, SystemConfig, UserConfig
from wfasim.policies import PfaConfig, PfaPolicy, PlfPolicy, ScfPolicy
from wfasim.policies.pfa import (
    ThroughputHistory,
    equal_shares,
    profile_supply,
    reconcile_profile,
    smooth_shares_ewma,
    smooth_shares_ma,
    tba_propagate,
)
from wfasim.workload import WL1, WL2, generate_workload, workload_statistics


_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdict_channel(capsys):
    """Route verdict lines past pytest's output capture to the terminal."""
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(f"\n{line}", flush=True)
    else:
        print(line, flush=True)
    assert ok, line


# -- shared experiment grid -------------------------------------------------
#
# The questions about budget safety, slowdown ordering, monotonicity, and
# fairness are all asked of the same two-user, two-type system, so one run
# grid feeds criteria 1, 5, 6, and 7: four policies x three seeds x five
# budget configurations (equal 60/80/100/120 at 20% utilization, and a
# differentiated 120/80 at 35% where the smaller budget actually binds).

SEEDS = (11, 12, 13)
N_WORKFLOWS = 120
CAPACITY = {"small": 32, "large": 32}
TOTAL_CAPACITY = 64
CONFIGS = (
    ("eq60", (60, 60), 0.2),
    ("eq80", (80, 80), 0.2),
    ("eq100", (100, 100), 0.2),
    ("eq120", (120, 120), 0.2),
    ("diff", (120, 80), 0.35),
)


def _system() -> SystemConfig:
    return SystemConfig(
        types=(ResourceType("small", 1), ResourceType("large", 5)),
        capacity=dict(CAPACITY),
        interval_s=60,
    )


def _policy_makers():
    return {
        "pfa-ma": lambda: PfaPolicy(),
        "pfa-ewma": lambda: PfaPolicy(PfaConfig(smoothing="ewma")),
        "plf": lambda: PlfPolicy(),
        "scf": lambda: ScfPolicy(),
    }


@dataclasses.dataclass(frozen=True)
class GridCell:
    mean_slowdown: float
    user_mean: dict
    max_cost: dict
    snapshot_rows: int
    over_budget_rows: int


@pytest.fixture(scope="module")
def grid():
    system = _system()
    cells = {}
    for seed in SEEDS:
        base = generate_workload(N_WORKFLOWS, users=["u1", "u2"], rule=WL1, seed=seed)
        for label, budgets, util in CONFIGS:
            workload = engine.poisson_arrivals(base, util, TOTAL_CAPACITY, seed)
            budget = {"u1": budgets[0], "u2": budgets[1]}
            user_cfg = [UserConfig(u, budget[u]) for u in ("u1", "u2")]
            for pname, make in _policy_makers().items():
                result = engine.run(list(workload), system, user_cfg, make(), seed=seed)
                cells[(label, pname, seed)] = GridCell(
                    mean_slowdown=result.mean_slowdown(),
                    user_mean={u: result.mean_slowdown(u) for u in ("u1", "u2")},
                    max_cost={
                        u: max(
                            (s.allocated_cost for s in result.snapshots if s.user == u),
                            default=0,
                        )
                        for u in ("u1", "u2")
                    },
                    snapshot_rows=len(result.snapshots),
                    over_budget_rows=sum(
                        1 for s in result.snapshots if s.allocated_cost > budget[s.user]
                    ),
                )
    return cells


# -- 1: budget safety --------------------------------------------------------


def test_criterion_01_budget_safety(grid):
    rows = sum(c.snapshot_rows for c in grid.values())
    over = sum(c.over_budget_rows for c in grid.values())
    binding = [
        grid[("diff", p, s)].max_cost["u2"] == 80
        for p in _policy_makers()
        for s in SEEDS
    ]
    detail = (
        f"{over} of {rows} interval rows reserve beyond budget across "
        f"{len(grid)} runs (tolerance 0); the 80-unit budget is reached "
        f"exactly in {sum(binding)}/{len(binding)} differentiated runs"
    )
    _verdict(1, over == 0, detail)


# -- 2: elasticity metrics against a naive oracle -----------------------------


def test_criterion_02_elasticity_oracle():
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(1000):
        n = rng.randint(0, 60)
        demand = [rng.randint(0, 30) for _ in range(n)]
        supply = [rng.randint(0, 30) for _ in range(n)]
        capacity = rng.choice([0, 1, 4, 8, 16, 25])
        got = as_tuple(elasticity(demand, supply, capacity))
        if got != oracle_elasticity(demand, supply, capacity):
            mismatches += 1
    _verdict(2, mismatches == 0, f"{mismatches} of 1000 randomized series "
             "deviate from naive recomputation (bit-exact comparison)")


# -- 3: exact optimizer vs exhaustive search and vs the heuristics ------------


def _slot_aligned_instance(seed):
    """A small instance whose slot grid lines up with simulator time, so a
    simulated schedule is one of the schedules the optimizer searched."""
    rng = random.Random(seed)
    resources = rng.choice([
        [("small", 1), ("large", 5)],
        [("small", 1), ("small", 1), ("large", 5)],
        [("small", 1), ("large", 5), ("large", 5)],
    ])
    specs = []
    for w in range(rng.randint(1, 3)):
        runtimes = []
        for _ in range(rng.randint(1, 3)):
            slow = rng.randint(1, 3)
            fast = max(1, slow - rng.randint(0, 1))
            runtimes.append({"small": slow * 30, "large": fast * 30})
        specs.append(
            chain_wf(
                f"w{w}",
                runtimes,
                arrival_s=rng.choice([0, 30, 60]),
                priority=rng.randint(0, 9),
            )
        )
    return build_instance(
        specs,
        slot_s=30,
        slots_per_billing=2,
        budget=rng.randint(5, 8),
        resources=resources,
    )


def test_criterion_03_exact_solver_and_heuristic_gap():
    # Part one: the branch-and-bound profit equals exhaustive enumeration on
    # 20 randomized instances within the small envelope.
    checked = 0
    for seed in itertools.count():
        if checked == 20:
            break
        assert seed < 400, "instance generator stopped producing small cases"
        inst = random_instance(seed)
        if len(inst.tasks) > 4 or len(inst.resources) != 2 or inst.slots > 8:
            continue
        checked += 1
        try:
            solution = solve_exact(inst)
        except Infeasible:
            assert brute_force_optimum(inst) is None, f"seed {seed}"
            continue
        assert check_solution(inst, solution) == [], f"seed {seed}"
        assert solution.profit == brute_force_optimum(inst), f"seed {seed}"

    # Part two: on 10 slot-aligned instances, no heuristic beats the optimum
    # on realized profit, and each heuristic's mean slowdown is at least the
    # optimal mean slowdown.
    picked = []
    for seed in itertools.count():
        if len(picked) == 10:
            break
        assert seed < 400, "instance generator stopped producing medium cases"
        inst = _slot_aligned_instance(seed)
        if len(inst.tasks) <= 8 and inst.slots <= 18:
            picked.append(inst)

    opt_slow = []
    heur_slow = {name: [] for name in _policy_makers()}
    profit_ok = 0
    comparisons = 0
    for inst in picked:
        optimal = solve_exact(inst)
        assert check_solution(inst, optimal) == []
        cap = {}
        for r in inst.resources:
            cap[r.rtype] = cap.get(r.rtype, 0) + 1
        system = SystemConfig(
            types=(ResourceType("small", 1), ResourceType("large", 5)),
            capacity=cap,
            interval_s=60,
        )
        first = True
        for name, make in _policy_makers().items():
            result = engine.run(
                list(inst.specs), system, mk_users(("u1", inst.budget)), make()
            )
            finishes = run_finishes(result)
            assert set(finishes) == {w.wf_id for w in inst.workflows}
            comparisons += 1
            if realized_profit(inst, finishes) <= optimal.profit:
                profit_ok += 1
            for row in compare(inst, optimal, finishes):
                if first:
                    opt_slow.append(row["optimal_slowdown"])
                heur_slow[name].append(row["heuristic_slowdown"])
            first = False

    mean_opt = statistics.fmean(opt_slow)
    means = {n: statistics.fmean(v) for n, v in heur_slow.items()}
    ordering_ok = all(m >= mean_opt for m in means.values())
    detail = (
        f"20/20 small instances match exhaustive search exactly; "
        f"{profit_ok}/{comparisons} heuristic runs realize profit <= optimal; "
        f"mean slowdown optimal {mean_opt:.3f} vs "
        + ", ".join(f"{n} {m:.3f}" for n, m in means.items())
    )
    _verdict(3, checked == 20 and profit_ok == comparisons and ordering_ok, detail)


# -- 4: decision-time ordering -------------------------------------------------


def test_criterion_04_decision_time_ordering():
    system = _system()
    user_cfg = [UserConfig("u1", 100), UserConfig("u2", 100)]
    workload = generate_workload(200, users=["u1", "u2"], rule=WL1, seed=21)
    workload = engine.poisson_arrivals(workload, 0.2, TOTAL_CAPACITY, 21)
    means = {}
    ticks = {}
    for make in (PfaPolicy, PlfPolicy, ScfPolicy):
        result = engine.run(list(workload), system, user_cfg, make(), seed=21)
        name, stats = next(iter(result.decision_stats().items()))
        means[name] = stats["mean_s"]
        ticks[name] = result.ticks
    enough = all(t >= 100 for t in ticks.values())
    r_plf = means["pfa-ma"] / means["plf"]
    r_scf = means["pfa-ma"] / means["scf"]
    detail = (
        f"mean decision time pfa-ma {means['pfa-ma']*1e3:.3f} ms, "
        f"plf {means['plf']*1e3:.3f} ms, scf {means['scf']*1e3:.3f} ms "
        f"over {min(ticks.values())}+ ticks; ratios {r_plf:.2f} and {r_scf:.2f} "
        f"(bar: <= 0.50)"
    )
    _verdict(4, enough and r_plf <= 0.5 and r_scf <= 0.5, detail)


# -- 5: slowdown ordering --------------------------------------------------------


def test_criterion_05_slowdown_ordering(grid):
    wins = 0
    per_seed = []
    for seed in SEEDS:
        pfa = grid[("eq100", "pfa-ma", seed)].mean_slowdown
        plf = grid[("eq100", "plf", seed)].mean_slowdown
        scf = grid[("eq100", "scf", seed)].mean_slowdown
        if pfa < plf and pfa < scf:
            wins += 1
        per_seed.append(f"seed {seed}: pfa {pfa:.2f} vs plf {plf:.2f}, scf {scf:.2f}")
    detail = (
        f"pfa-ma has the lowest mean slowdown in {wins}/3 replications "
        f"(need >= 2) at equal budgets 100 -- " + "; ".join(per_seed)
    )
    _verdict(5, wins >= 2, detail)


# -- 6: budget monotonicity ------------------------------------------------------


def test_criterion_06_budget_monotonicity(grid):
    pairs = []
    ok = True
    for name in _policy_makers():
        low = statistics.fmean(grid[("eq60", name, s)].mean_slowdown for s in SEEDS)
        high = statistics.fmean(grid[("eq120", name, s)].mean_slowdown for s in SEEDS)
        ok = ok and high <= low
        pairs.append(f"{name} {low:.3f} -> {high:.3f}")
    detail = "mean slowdown from budget 60 to 120: " + ", ".join(pairs)
    _verdict(6, ok, detail)


# -- 7: fairness by budget -------------------------------------------------------


def test_criterion_07_fairness_by_budget(grid):
    pairs = []
    ok = True
    for name in _policy_makers():
        u1 = statistics.fmean(grid[("diff", name, s)].user_mean["u1"] for s in SEEDS)
        u2 = statistics.fmean(grid[("diff", name, s)].user_mean["u2"] for s in SEEDS)
        ok = ok and u1 <= u2
        pairs.append(f"{name} {u1:.3f} <= {u2:.3f}")
    detail = "budget-120 user vs budget-80 user mean slowdown: " + ", ".join(pairs)
    _verdict(7, ok, detail)


# -- 8: autoscaler property suite ------------------------------------------------


def _trace_bytes(result) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(engine.TRACE_COLUMNS)
    writer.writerows(result.trace)
    return buf.getvalue().encode()


def _run_with_oracle_scale(policy, scale: int):
    """Simulate a small mixed workload; optionally hand every policy a
    runtime oracle that exaggerates all estimates by an integer factor."""
    system = SystemConfig(
        types=(ResourceType("small", 1), ResourceType("large", 5)),
        capacity={"small": 8, "large": 8},
        interval_s=60,
    )
    user_cfg = [UserConfig("u1", 40), UserConfig("u2", 40)]
    workload = generate_workload(16, users=["u1", "u2"], rule=WL1, seed=7)
    workload = engine.poisson_arrivals(workload, 0.3, 16, 7)
    sim = engine._Sim(list(workload), system, user_cfg, policy, 7, collect_plans=False)
    if scale != 1:
        original = sim.build_view

        def warped(uid, now, tick):
            view = original(uid, now, tick)
            return dataclasses.replace(
                view,
                oracle=lambda task, rtype: scale * task.runtime_by_type[rtype],
            )

        sim.build_view = warped
    return sim.run()


def _random_dag(rng):
    n = rng.randint(1, 30)
    nodes = [("w", f"t{i}") for i in range(n)]
    edges = [
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.25
    ]
    return nodes, edges


def test_criterion_08_pfa_property_suite():
    failures = []

    # Observability firewall: tripling every runtime estimate changes nothing
    # for the feedback autoscaler, while the planning policy canary confirms
    # the perturbation actually reaches the decision layer.
    pfa_base = _trace_bytes(_run_with_oracle_scale(PfaPolicy(), 1))
    pfa_warp = _trace_bytes(_run_with_oracle_scale(PfaPolicy(), 3))
    scf_base = _trace_bytes(_run_with_oracle_scale(ScfPolicy(), 1))
    scf_warp = _trace_bytes(_run_with_oracle_scale(ScfPolicy(), 3))
    if pfa_base != pfa_warp:
        failures.append("firewall: perturbed oracle changed the trace")
    if scf_base == scf_warp:
        failures.append("firewall canary: perturbation did not reach policies")

    rng = random.Random(8)

    # Equal-share fallback: empty or fully idle history yields exactly 1/|R|.
    for _ in range(200):
        n = rng.randint(1, 6)
        history = ThroughputHistory([f"r{i}" for i in range(n)])
        for _ in range(rng.randint(0, 5)):
            history.record({}, {})  # idle interval: no completions, nothing allocated
        depth = rng.randint(0, 12)
        expected = [Fraction(1, n)] * n
        if smooth_shares_ma(history, depth, n) != expected:
            failures.append(f"ma fallback: n={n} depth={depth}")
            break
        if smooth_shares_ewma(history, None, Fraction(7, 10), n) != expected:
            failures.append(f"ewma fallback: n={n}")
            break

    # Wave bounds: peak <= total <= node count, and the total is
    # non-decreasing in the lookahead depth.
    for _ in range(300):
        nodes, edges = _random_dag(rng)
        prev_total = 0
        totals = []
        for depth in (1, 2, 3, 5, 8, None):
            total, peak, waves = tba_propagate(nodes, edges, depth)
            if not (peak <= total <= len(nodes)):
                failures.append(f"wave bounds: {peak} <= {total} <= {len(nodes)}")
            if total < prev_total:
                failures.append(f"wave monotonicity: {totals + [total]}")
            prev_total = total
            totals.append(total)
        if failures:
            break

    # Reconcile: never exceeds the budget, and a scale-down lands within one
    # extra instance per type of the predicted demand.
    for _ in range(500):
        n = rng.randint(1, 4)
        costs = [rng.randint(1, 7) for _ in range(n)]
        budget = rng.randint(max(costs), 60)
        shares = [Fraction(rng.randint(0, 5)) for _ in range(n)]
        total_share = sum(shares)
        if total_share:
            shares = [s / total_share for s in shares]
        _, counts, total = profile_supply(shares, costs, budget)
        predicted = rng.randint(0, 40)
        final = reconcile_profile(counts, predicted, costs, budget)
        spend = sum(c * q for c, q in zip(final, costs))
        if spend > budget:
            failures.append(f"reconcile budget: spend {spend} > {budget}")
            break
        if total > predicted and not (predicted <= sum(final) <= predicted + n):
            failures.append(
                f"scale-down band: {predicted} <= {sum(final)} <= {predicted + n}"
            )
            break

    detail = (
        "firewall (byte-identical under 3x oracle + canary), equal-share "
        "fallback x200, wave bounds/monotonicity x300, reconcile bounds x500"
        + ("" if not failures else " -- " + "; ".join(failures))
    )
    _verdict(8, not failures, detail)


# -- 9: determinism ----------------------------------------------------------------


def test_criterion_09_determinism():
    sizes = []
    ok = True
    for make in (PfaPolicy, PlfPolicy, ScfPolicy):
        blobs = []
        for _ in range(2):
            system = _system()
            user_cfg = [UserConfig("u1", 100), UserConfig("u2", 100)]
            workload = generate_workload(
                N_WORKFLOWS, users=["u1", "u2"], rule=WL1, seed=11
            )
            workload = engine.poisson_arrivals(workload, 0.2, TOTAL_CAPACITY, 11)
            result = engine.run(list(workload), system, user_cfg, make(), seed=11)
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(engine.TRACE_COLUMNS)
            writer.writerows(result.trace)
            for s in result.snapshots:
                writer.writerow(
                    (s.interval, s.user, s.demand, s.supply, s.busy, s.allocated_cost)
                )
            blobs.append(buf.getvalue().encode())
        ok = ok and blobs[0] == blobs[1]
        sizes.append(f"{make().name} {len(blobs[0])} bytes")
    detail = (
        "trace+snapshot bytes identical across independent rebuilds "
        "(tolerance 0): " + ", ".join(sizes)
    )
    _verdict(9, ok, detail)


# -- 10: workload statistics ---------------------------------------------------------


def test_criterion_10_workload_statistics():
    checks = []
    ok = True
    for rule, label, target_runtime in ((WL1, "WL-I", 6.3), (WL2, "WL-II", 6.9)):
        for seed in (0, 1, 2):
            stats = workload_statistics(
                generate_workload(600, users=["u1", "u2"], rule=rule, seed=seed)
            )
            tasks_ok = abs(stats["mean_tasks"] - 74) / 74 < 0.20
            runtime_ok = abs(stats["mean_runtime"] - target_runtime) / target_runtime < 0.20
            ok = ok and tasks_ok and runtime_ok
            checks.append(
                f"{label}/{seed}: size {stats['mean_tasks']:.1f} vs 74, "
                f"runtime {stats['mean_runtime']:.2f} vs {target_runtime}"
            )
    detail = "600-workflow draws within 20% of targets -- " + "; ".join(checks)
    _verdict(10, ok, detail)
