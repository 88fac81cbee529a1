"""Slot-grid optimizer: exact solver vs exhaustive enumeration, LP export,
solution checking, and the bridge to simulated runs."""

import dataclasses
import hashlib
import json
import random
import re

import pytest

from conftest import chain_wf, diamond_wf, save_instance, users, wf
from wfasim import dagops, engine
from wfasim.mip import (
    HorizonTooShort,
    Infeasible,
    LimitExceeded,
    SolveLimits,
    WorkloadMismatch,
    assemble_solution,
    build_instance,
    check_solution,
    compare,
    export_lp,
    load_instance,
    realized_profit,
    run_finishes,
    solution_to_dict,
    solve_exact,
    trivial_horizon,
    value_function,
)
from wfasim.model import ResourceType, SystemConfig, WorkloadInvalid
from wfasim.policies import PfaPolicy, PlfPolicy, ScfPolicy


# -- reference optimum -----------------------------------------------------
#
# A plain recursive enumeration over every (resource, start) placement with
# the feasibility rules coded directly: per-slot occupancy, parents end
# before children start, arrivals, the horizon, and a per-interval charge
# for each resource that is busy at all in that interval. It shares no code
# with the branch-and-bound solver it cross-checks.


def brute_force_optimum(instance):
    T = instance.slots
    L = instance.slots_per_billing
    n = len(instance.tasks)

    def interval(slot):
        return (slot - 1) // L + 1

    def reward(wf_row, t):
        return 1 if t <= wf_row.earliest_completion else wf_row.earliest_completion - t

    options = []
    for task in instance.tasks:
        arrival = instance.workflow(task.wf_index).arrival_slot
        opts = []
        for r in instance.resources:
            runtime = task.runtimes[r.index - 1]
            for t in range(arrival, T - runtime + 2):
                opts.append((r.index, t, t + runtime - 1))
        options.append(opts)

    best = None
    busy = set()
    ends = {}

    def place(j):
        nonlocal best
        if j > n:
            active = {}
            for k, slot in busy:
                active.setdefault(interval(slot), set()).add(k)
            for members in active.values():
                spend = sum(instance.resources[k - 1].cost for k in members)
                if spend > instance.budget:
                    return
            profit = 0
            for wf_row in instance.workflows:
                finish = max(ends[i] for i in wf_row.task_indices)
                profit += reward(wf_row, finish)
            if best is None or profit > best:
                best = profit
            return
        task = instance.tasks[j - 1]
        for k, t, end in options[j - 1]:
            if any(t <= ends[p] for p in task.parents):
                continue
            cells = [(k, s) for s in range(t, end + 1)]
            if any(c in busy for c in cells):
                continue
            busy.update(cells)
            ends[j] = end
            place(j + 1)
            busy.difference_update(cells)
            del ends[j]

    place(1)
    return best


# -- instance builders -------------------------------------------------------

TWO_RES = [("small", 1), ("large", 5)]


def solo_instance(runtime_s, slot_s=5, per_billing=5, budget=1, arrival_s=0):
    spec = wf("solo", [("t0", {"small": runtime_s})], arrival_s=arrival_s)
    return build_instance(
        [spec], slot_s=slot_s, slots_per_billing=per_billing, budget=budget,
        resources=[("small", 1)],
    )


def chain2_instance(budget):
    """Two-task chain, 2 slots per task on small, 1 on large."""
    spec = chain_wf("c2", [{"small": 10, "large": 5}, {"small": 10, "large": 5}])
    return build_instance(
        [spec], slot_s=5, slots_per_billing=2, budget=budget, resources=TWO_RES,
    )


# -- grid rounding and per-workflow deadlines --------------------------------


def test_runtime_rounds_to_nearest_slot_half_up():
    spec = wf("r", [("a", {"small": 4}), ("b", {"small": 15}), ("c", {"small": 26})],
              edges=[("a", "b"), ("b", "c")])
    inst = build_instance([spec], slot_s=10, slots_per_billing=2, budget=1,
                          resources=[("small", 1)])
    assert [t.runtimes for t in inst.tasks] == [(1,), (2,), (3,)]


def test_value_is_one_on_time_then_falls_linearly():
    inst = solo_instance(runtime_s=25)  # 5 slots, deadline 5
    assert inst.workflow(1).earliest_completion == 5
    assert value_function(inst, 1, 1) == 1
    assert value_function(inst, 1, 5) == 1
    assert value_function(inst, 1, 6) == -1
    assert value_function(inst, 1, 7) == -2
    with pytest.raises(ValueError):
        value_function(inst, 1, 0)


def test_arrival_seconds_map_to_one_based_slots():
    specs = [wf(f"w{i}", [("t", {"small": 5})], arrival_s=s)
             for i, s in enumerate([0, 30, 32])]
    inst = build_instance(specs, slot_s=5, slots_per_billing=2, budget=1,
                          resources=[("small", 1)])
    assert [w.arrival_slot for w in inst.workflows] == [1, 7, 7]


def test_chain_deadline_uses_fastest_critical_path():
    inst = chain2_instance(budget=6)
    # arrival slot 1 plus the 2-slot critical path on the large, minus 1
    assert inst.workflow(1).earliest_completion == 2


def test_parent_indices_are_topological():
    d = diamond_wf("d", {"small": 5}, {"small": 5}, {"small": 5}, {"small": 5})
    inst = build_instance([d], slot_s=5, slots_per_billing=2, budget=1,
                          resources=[("small", 1)])
    assert [t.parents for t in inst.tasks] == [(), (1,), (1,), (2, 3)]


def test_trivial_horizon_prefers_affordable_resources():
    spec = wf("w", [("t", {"small": 10, "large": 5})])
    assert trivial_horizon([spec], 5, budget=1, resources=TWO_RES) == 2
    assert trivial_horizon([spec], 5, budget=6, resources=TWO_RES) == 1


def test_default_horizon_is_whole_billing_intervals():
    inst = solo_instance(runtime_s=25, per_billing=4)
    assert inst.slots == 8
    assert inst.billing_intervals == 2


def test_horizon_validation():
    spec = wf("w", [("t", {"small": 25})])
    with pytest.raises(ValueError):
        build_instance([spec], 5, 2, 1, [("small", 1)], horizon_slots=7)
    with pytest.raises(HorizonTooShort):
        build_instance([spec], 5, 2, 1, [("small", 1)], horizon_slots=4)


def test_build_instance_builds_each_graph_once(monkeypatch):
    builds = []
    original = dagops.WorkflowGraph.__init__

    def counting(self, spec, shared=None):
        builds.append(spec.id)
        original(self, spec, shared)

    monkeypatch.setattr(dagops.WorkflowGraph, "__init__", counting)
    d = diamond_wf("d", {"small": 5}, {"small": 5}, {"small": 5}, {"small": 5})
    build_instance([d, chain_wf("c", [{"small": 5}] * 2)], 5, 2, 1, [("small", 1)])
    assert builds == ["d", "c"]


def test_build_rejects_bad_input():
    good = wf("w", [("t", {"small": 5})])
    with pytest.raises(ValueError):
        build_instance([], 5, 2, 1, [("small", 1)])
    with pytest.raises(ValueError):
        build_instance([good], 5, 2, 1, [])
    with pytest.raises(ValueError):
        build_instance([good], 5, 2, 0, [("small", 1)])
    other = wf("v", [("t", {"small": 5})], user="u2")
    with pytest.raises(ValueError):
        build_instance([good, other], 5, 2, 1, [("small", 1)])
    loop = wf("loop", [("a", {"small": 5}), ("b", {"small": 5})],
              edges=[("a", "b"), ("b", "a")])
    with pytest.raises(WorkloadInvalid):
        build_instance([loop], 5, 2, 1, [("small", 1)])


def test_build_rejects_duplicate_workflow_ids():
    # realized_profit and compare look finishes up by workflow id
    one = wf("same", [("t", {"small": 5})])
    two = wf("same", [("u", {"small": 10})], arrival_s=5)
    with pytest.raises(WorkloadInvalid) as err:
        build_instance([one, two], 5, 2, 1, [("small", 1)])
    assert err.value.workflow_id == "same"
    assert err.value.issues == ["DuplicateWorkflow"]


def test_build_rejects_task_without_runtime_on_a_listed_type():
    spec = chain_wf("c2", [{"small": 10, "large": 5}, {"small": 10}])
    with pytest.raises(WorkloadInvalid) as err:
        build_instance([spec], 5, 2, 6, [("small", 1), ("large", 5)])
    assert err.value.workflow_id == "c2"
    assert err.value.issues == ["MissingType(large)"]
    # a runtime on a type the instance does not list would enter the ideal
    # makespan, so it is rejected as the engine rejects it
    with pytest.raises(WorkloadInvalid) as err:
        build_instance([spec], 5, 2, 6, [("small", 1)])
    assert err.value.workflow_id == "c2"
    assert err.value.issues == ["UnknownType(large)"]


# -- LP text ------------------------------------------------------------------


def lp_counts(text: str) -> dict[str, int]:
    """Variable and constraint counts recovered from LP text."""
    section = None
    constraints = 0
    generals: set[str] = set()
    binaries: set[str] = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        lowered = line.lower()
        if lowered in ("maximize", "minimize", "subject to", "bounds", "generals", "binaries", "end"):
            section = lowered
            continue
        if section == "subject to" and ":" in line:
            constraints += 1
        elif section == "generals":
            generals.update(line.split())
        elif section == "binaries":
            binaries.update(line.split())
    return {
        "constraints": constraints,
        "binaries": len(binaries),
        "generals": len(generals),
        "variables": len(binaries) + len(generals),
    }


def test_lp_counts_for_one_task_two_slots():
    # 1 task, 1 resource, T=2, runtime 1 slot: two starts, one billing
    # interval. Binaries: 2 x + 1 y + 2 u. Generals: 1 z. Constraints:
    # c1, c2, c3a, c3b, c6, c7, c8, c9 (no c4 rows: never two covers).
    inst = solo_instance(runtime_s=5, per_billing=2)
    counts = lp_counts(export_lp(inst))
    assert counts == {"constraints": 8, "binaries": 5, "generals": 1, "variables": 6}


def test_lp_rows_spell_out_the_model():
    inst = solo_instance(runtime_s=5, per_billing=2)
    text = export_lp(inst)
    assert " c1_1: x_1_1_1 + x_1_1_2 = 1" in text
    assert " c9_1: 1 y_1_1 <= 1" in text
    assert "Maximize" in text and "End" in text


def test_lp_busy_count_merges_repeat_coverage():
    # A 2-slot task covers both slots of its interval, so its start
    # variable must appear with coefficient 2 in the busy-count row.
    inst = solo_instance(runtime_s=10, per_billing=2)
    text = export_lp(inst)
    assert " c2_1_1: 2 x_1_1_1 - z_1_1 = 0" in text


def test_lp_budget_row_prices_each_resource():
    inst = chain2_instance(budget=6)
    text = export_lp(inst)
    assert " c9_1: 1 y_1_1 + 5 y_2_1 <= 6" in text


# -- solution assembly and checking -------------------------------------------


def test_assemble_places_completion_at_last_finish():
    inst = chain2_instance(budget=1)
    sol = assemble_solution(inst, {1: (1, 1), 2: (1, 3)})
    assert sol.u == ((1, 4),)
    assert sol.profit == -2
    assert sol.z[(1, 1)] == 2 and sol.z[(1, 2)] == 2
    assert sol.y[(2, 1)] == 0
    assert check_solution(inst, sol) == []


def fresh_valid():
    inst = chain2_instance(budget=6)
    return inst, assemble_solution(inst, {1: (2, 1), 2: (2, 2)})


def test_check_flags_duplicate_start():
    inst, sol = fresh_valid()
    sol.x = sol.x + ((2, 1, 1),)
    assert any("constr1" in issue for issue in check_solution(inst, sol))


def test_check_flags_overlap():
    inst = chain2_instance(budget=1)
    sol = assemble_solution(inst, {1: (1, 1), 2: (1, 2)})
    issues = check_solution(inst, sol)
    assert any("constr4" in issue for issue in issues)
    assert any("constr5" in issue for issue in issues)


def test_check_flags_child_before_parent_end():
    inst = chain2_instance(budget=6)
    sol = assemble_solution(inst, {1: (1, 1), 2: (2, 2)})
    issues = check_solution(inst, sol)
    assert any("constr5" in issue for issue in issues)
    assert not any("constr4" in issue for issue in issues)


def test_check_flags_start_before_arrival():
    spec = wf("w", [("t", {"small": 5})], arrival_s=10)
    inst = build_instance([spec], 5, 2, 1, [("small", 1)])
    sol = assemble_solution(inst, {1: (1, 1)})
    assert any("constr6" in issue for issue in check_solution(inst, sol))


def test_check_flags_missing_completion():
    inst, sol = fresh_valid()
    sol.u = ()
    assert any("constr7" in issue for issue in check_solution(inst, sol))


def test_check_flags_completion_before_last_task():
    inst, sol = fresh_valid()
    sol.u = ((1, 1),)
    assert any("constr8" in issue for issue in check_solution(inst, sol))


def test_check_flags_budget_overrun():
    inst, sol = fresh_valid()
    tight = dataclasses.replace(inst, budget=4)
    assert any("constr9" in issue for issue in check_solution(tight, sol))


def test_check_flags_inconsistent_activity_vars():
    inst, sol = fresh_valid()
    sol.y = dict(sol.y)
    sol.y[(2, 1)] = 0
    assert any("constr3" in issue for issue in check_solution(inst, sol))
    inst, sol = fresh_valid()
    sol.z = dict(sol.z)
    sol.z[(2, 1)] = 1
    assert any("constr2" in issue for issue in check_solution(inst, sol))


def test_check_flags_misstated_profit():
    inst, sol = fresh_valid()
    sol.profit += 1
    issues = check_solution(inst, sol)
    assert issues and all("profit" in issue for issue in issues)


def test_check_flags_domain_violations():
    inst, sol = fresh_valid()
    sol.x = ((1, 2, 0), (2, 2, 2))
    assert any("domain" in issue for issue in check_solution(inst, sol))


@pytest.mark.parametrize("x, u, issue", [
    (((1, 2, 1), (2, 2, 2), (3, 2, 1)), ((1, 2),), "domain: unknown task 3"),
    (((1, 2, 1), (2, 3, 2)), ((1, 2),), "domain: unknown resource 3"),
    (((1, 2, 1), (2, 2, 2)), ((1, 2), (2, 2)), "domain: unknown workflow 2"),
    (((1, 2, 1), (2, 2, 2)), ((1, 3),), "domain: completion slot 3 outside horizon"),
    (((1, 2, 1), (2, 2, 2)), ((1, 0),), "domain: completion slot 0 outside horizon"),
])
def test_check_names_each_domain_violation(x, u, issue):
    inst, sol = fresh_valid()  # two slots; tasks 1 and 2 on resource 2
    sol.x, sol.u = x, u
    assert issue in check_solution(inst, sol)


# -- exact solver --------------------------------------------------------------


def test_single_task_runs_immediately():
    inst = solo_instance(runtime_s=5, per_billing=2)
    sol = solve_exact(inst)
    assert sol.profit == 1
    assert sol.x == ((1, 1, 1),)
    assert check_solution(inst, sol) == []


def test_budget_forces_slow_resource():
    inst = chain2_instance(budget=1)
    sol = solve_exact(inst)
    assert sol.profit == -2
    assert {k for _, k, _ in sol.x} == {1}
    assert sol.profit == brute_force_optimum(inst)


def test_budget_admits_fast_resource():
    inst = chain2_instance(budget=6)
    sol = solve_exact(inst)
    assert sol.profit == 1
    assert {k for _, k, _ in sol.x} == {2}
    assert sol.profit == brute_force_optimum(inst)


def test_contention_delays_one_workflow():
    specs = [wf(f"w{i}", [("t", {"small": 5})]) for i in range(2)]
    inst = build_instance(specs, 5, 2, 1, [("small", 1)])
    sol = solve_exact(inst)
    assert sol.profit == 0  # one on time (+1), one a slot late (-1)
    assert sol.profit == brute_force_optimum(inst)


def test_twin_resources_run_diamond_in_parallel():
    d = diamond_wf("d", {"small": 5}, {"small": 5}, {"small": 5}, {"small": 5})
    twins = [("small", 1), ("small", 1)]
    wide = build_instance([d], 5, 2, 2, twins)
    sol = solve_exact(wide)
    assert sol.profit == 1 == brute_force_optimum(wide)
    tight = build_instance([d], 5, 2, 1, twins)
    sol = solve_exact(tight)
    assert sol.profit == -1 == brute_force_optimum(tight)
    assert check_solution(tight, sol) == []


def random_instance(seed):
    rng = random.Random(seed)
    resources = rng.choice([
        [("small", 1), ("large", 5)],
        [("small", 1), ("small", 1)],
        [("small", 2), ("large", 3)],
        [("small", 1)],
    ])
    types = sorted({r[0] for r in resources})
    lengths = rng.choice([[1], [2], [3], [1, 1], [1, 2], [2, 1]])
    specs = []
    for w, length in enumerate(lengths):
        runtimes = []
        for _ in range(length):
            fast = rng.randint(1, 2)
            rt = {}
            for t in types:
                stretch = rng.randint(0, 1) if t == "small" and len(types) > 1 else 0
                rt[t] = (fast + stretch) * 5
            runtimes.append(rt)
        specs.append(chain_wf(f"w{w}", runtimes, arrival_s=rng.choice([0, 5, 10])))
    return build_instance(
        specs,
        slot_s=5,
        slots_per_billing=rng.choice([2, 3]),
        budget=rng.randint(1, 6),
        resources=resources,
    )


@pytest.mark.parametrize("seed", range(18))
def test_solver_matches_exhaustive_enumeration(seed):
    inst = random_instance(seed)
    try:
        sol = solve_exact(inst)
    except Infeasible:
        assert brute_force_optimum(inst) is None
        return
    assert check_solution(inst, sol) == []
    assert sol.profit == brute_force_optimum(inst)



# -- the exported LP, read and solved by an independent solver ---------------


def read_lp(text):
    """The model in ``export_lp``'s text, as arguments of
    ``scipy.optimize.milp``: the cost vector (the negated objective, since
    milp minimizes), the constraints and the variable bounds and
    integrality. It reads the LP subset that ``export_lp`` writes: one row
    per line, each term ``[+|-] [coefficient] name``."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint
    from scipy.sparse import coo_array

    index: dict[str, int] = {}

    def linear(tokens):
        terms, sign, coef = {}, 1, 1
        for tok in tokens:
            if tok in ("+", "-"):
                sign = 1 if tok == "+" else -1
            elif tok[0].isdigit():
                coef = int(tok)
            else:
                j = index.setdefault(tok, len(index))
                terms[j] = terms.get(j, 0) + sign * coef
                sign, coef = 1, 1
        return terms

    section, objective, rows, bounds, integer = None, {}, [], {}, set()
    for line in text.splitlines():
        tokens = line.split()
        if not line.startswith(" "):
            section = None if line.startswith("\\") else line
        elif section == "Maximize":
            objective = linear(tokens[1:])  # tokens[0] is "obj:"
        elif section == "Subject To":
            *lhs, op, rhs = tokens[1:]
            rows.append((linear(lhs), op, int(rhs)))
        elif section == "Bounds":
            lo, _, name, _, hi = tokens
            bounds[index.setdefault(name, len(index))] = (int(lo), int(hi))
        elif section in ("Generals", "Binaries"):
            for name in tokens:
                integer.add(j := index.setdefault(name, len(index)))
                if section == "Binaries":
                    bounds[j] = (0, 1)
    n = len(index)
    cost = np.zeros(n)
    for j, v in objective.items():
        cost[j] = -v
    entries = [(i, j, v) for i, (terms, _, _) in enumerate(rows) for j, v in terms.items()]
    i, j, v = zip(*entries)
    matrix = coo_array((v, (i, j)), shape=(len(rows), n)).tocsr()
    lower = [rhs if op in ("=", ">=") else -np.inf for _, op, rhs in rows]
    upper = [rhs if op in ("=", "<=") else np.inf for _, op, rhs in rows]
    var_lo, var_hi = zip(*(bounds.get(j, (0, np.inf)) for j in range(n)))
    return dict(
        c=cost,
        constraints=LinearConstraint(matrix, lower, upper),
        integrality=[int(j in integer) for j in range(n)],
        bounds=Bounds(var_lo, var_hi),
    )


def test_highs_solves_the_exported_lp_to_the_exact_optimum():
    # HiGHS reads the model only through the LP text, so a row that export_lp
    # writes wrong moves its optimum away from the exact search's, which
    # shares no code with the text.
    milp = pytest.importorskip("scipy.optimize").milp
    wrong = []
    for seed in range(200):
        inst = random_instance(seed)
        found = milp(**read_lp(export_lp(inst)))
        try:
            profit = solve_exact(inst).profit
        except Infeasible:
            profit = None
        assert found.status in (0, 2), (seed, found.message)  # optimal or infeasible
        if (None if found.status == 2 else round(-found.fun)) != profit:
            wrong.append((seed, found.fun, profit))
    assert wrong == []


def test_highs_solves_the_criterion_3_instances_to_the_exact_optimum():
    # the slot-aligned instances that criterion 3 compares the heuristics on,
    # picked as it picks them
    milp = pytest.importorskip("scipy.optimize").milp
    from test_acceptance import _slot_aligned_instance

    picked = []
    for seed in range(400):
        inst = _slot_aligned_instance(seed)
        if len(inst.tasks) <= 8 and inst.slots <= 18:
            picked.append((seed, inst))
        if len(picked) == 10:
            break
    assert len(picked) == 10
    solved, wrong = 0, []
    for seed, inst in picked:
        try:
            profit = solve_exact(inst).profit
        except LimitExceeded:
            continue
        except Infeasible:
            profit = None
        found = milp(**read_lp(export_lp(inst)))
        assert found.status in (0, 2), (seed, found.message)  # optimal or infeasible
        solved += 1
        if (None if found.status == 2 else round(-found.fun)) != profit:
            wrong.append((seed, found.fun, profit))
    assert wrong == [] and solved > 0

def test_infeasible_when_nothing_is_affordable():
    spec = wf("w", [("t", {"large": 5})])
    inst = build_instance([spec], 5, 2, 1, [("large", 5)])
    assert brute_force_optimum(inst) is None
    with pytest.raises(Infeasible):
        solve_exact(inst)


def test_solve_limits():
    long = chain_wf("long", [{"small": 5}] * 9)
    inst = build_instance([long], 5, 3, 1, [("small", 1)])
    with pytest.raises(LimitExceeded):
        solve_exact(inst)

    wide = wf("w", [("t", {"small": 5})])
    inst = build_instance([wide], 5, 1, 1, [("small", 1)] * 5)
    with pytest.raises(LimitExceeded):
        solve_exact(inst)

    slow = solo_instance(runtime_s=130, per_billing=2)
    assert slow.slots == 26
    with pytest.raises(LimitExceeded):
        solve_exact(slow)

    inst = chain2_instance(budget=6)
    with pytest.raises(LimitExceeded):
        solve_exact(inst, SolveLimits(max_tasks=1))


def test_limits_boundary_is_inclusive():
    specs = [wf(f"w{i}", [("t", {"small": 5})]) for i in range(8)]
    inst = build_instance(specs, 5, 3, 4, [("small", 1)] * 4)
    assert len(inst.tasks) == 8 and len(inst.resources) == 4
    assert inst.slots <= 24
    sol = solve_exact(inst)
    assert check_solution(inst, sol) == []
    assert sol.profit == 4 - 4  # four on time, four one slot late


# -- files ---------------------------------------------------------------------


def test_instance_round_trip(tmp_path):
    inst = chain2_instance(budget=6)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert again == inst
    assert solve_exact(again).profit == solve_exact(inst).profit


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "nope"}')
    with pytest.raises(ValueError):
        load_instance(path)


def test_solution_serializes_flat():
    inst = chain2_instance(budget=6)
    doc = solution_to_dict(solve_exact(inst))
    assert doc["schema"] == "wfasim-mip-solution-1"
    assert doc["profit"] == 1
    assert [2, 2, 1] in doc["x"] or [1, 2, 1] in doc["x"]
    assert all(len(row) == 3 for row in doc["y"])


# -- bridge to simulated runs ---------------------------------------------------


def test_realized_profit_rounds_finish_up_to_slots():
    inst = chain2_instance(budget=1)
    assert realized_profit(inst, {"c2": 10}) == 1
    assert realized_profit(inst, {"c2": 11}) == -1
    assert realized_profit(inst, {"c2": 20}) == -2
    with pytest.raises(WorkloadMismatch):
        realized_profit(inst, {})


def test_compare_reports_both_slowdowns():
    inst = chain2_instance(budget=6)
    sol = solve_exact(inst)
    rows = compare(inst, sol, {"c2": 20})
    assert rows == [
        {"workflow": "c2", "optimal_slowdown": 1.0, "heuristic_slowdown": 2.0}
    ]
    with pytest.raises(WorkloadMismatch):
        compare(inst, sol, {"c2": 20, "extra": 5})


def test_simulated_profit_never_beats_optimum():
    # Slot-aligned runtimes and arrivals, so a simulated schedule is one of
    # the schedules the optimizer already searched.
    specs = [
        chain_wf("a", [{"small": 60, "large": 30}, {"small": 60, "large": 30}]),
        chain_wf("b", [{"small": 60, "large": 30}, {"small": 60, "large": 30}],
                 priority=2),
    ]
    inst = build_instance(specs, slot_s=30, slots_per_billing=2, budget=6,
                          resources=TWO_RES)
    optimal = solve_exact(inst)
    assert check_solution(inst, optimal) == []
    system = SystemConfig(
        types=(ResourceType("small", 1), ResourceType("large", 5)),
        capacity={"small": 1, "large": 1},
        interval_s=60,
    )
    for policy in (PfaPolicy(), PlfPolicy(), ScfPolicy()):
        result = engine.run(list(inst.specs), system, users(("u1", 6)), policy)
        finishes = run_finishes(result)
        assert set(finishes) == {"a", "b"}
        assert realized_profit(inst, finishes) <= optimal.profit


# -- golden LP text and solutions -----------------------------------------------
#
# SHA-256 digests of export_lp's text and of solve_exact's x, taken before
# export_lp gained its cover index. Substring and lp_counts checks cannot see
# a reordered row, term or variable, or a different optimum of equal profit;
# these digests do. Update one only for a change that is meant to alter the
# model's text or the solver's branching order, and say so in CHANGES.md.


def wide_instance(seed):
    """A diamond and a chain on 2 + 2 machines of unequal cost, with seeded
    runtimes, arrivals, interval length and budget."""
    rng = random.Random(seed)

    def runtimes():
        fast = rng.randint(1, 2)
        return {"small": (fast + rng.randint(0, 2)) * 5, "large": fast * 5}

    specs = [
        diamond_wf("d", runtimes(), runtimes(), runtimes(), runtimes(),
                   arrival_s=rng.choice([0, 5])),
        chain_wf("c", [runtimes(), runtimes()], arrival_s=rng.choice([5, 10, 15])),
    ]
    return build_instance(
        specs, slot_s=5, slots_per_billing=rng.choice([2, 3, 4]), budget=rng.randint(5, 8),
        resources=[("small", 1), ("small", 1), ("large", 5), ("large", 5)],
    )


def golden_instances():
    insts = {f"wide{seed}": wide_instance(seed) for seed in range(6)}
    insts.update({f"random{seed}": random_instance(seed) for seed in (5, 14)})
    return insts


# name -> (SHA-256 of export_lp's text, SHA-256 of x as JSON)
GOLDEN_MIP = {
    "random14": (
        "3906df4d5c131ac49f1b61eb5a2a7df80a4da4fbe849cdd73d62152f8740d0ff",
        "e2442a866cbc6a9834895a7c5269584958b2144115f358599d9d31eee7d805f0",
    ),
    "random5": (
        "12f8471eb27c6cddb9662407f15036d76d067b36570a98bc010bce0aa5a4fbf4",
        "83d8924178ad02fbf42dc7cb774b3b6970e84c8b5002e76b85f390a63f1290b7",
    ),
    "wide0": (
        "e1c365e9c3007907f74aab00ed47b352dd126f221929635dc550bc1007e2a759",
        "062d17d5cf1a8de9a02fe44fd65824f805fe2239eefdd376ec5b1a748d392cdd",
    ),
    "wide1": (
        "d990b66768ffb1a3edf8e5eee8506b5e6dfdee346a91075d24b6307a7270b111",
        "93878f053b57c47325323201e313844eb14de90aab8503531c50ed5225eb6add",
    ),
    "wide2": (
        "ff05c748005ca5275daab602171a7184b4dd7d2b3025966cd74b7f0eb2d22bef",
        "712d5a27309ea28f41e108cbf2794ac497050d33920635889f2c607ebeef5f56",
    ),
    "wide3": (
        "421100785f052109e17d34c4ad662090547929ef99f48186ea9f91e603d22ac5",
        "d00649fbcb8a2b2ce5a95c6825c23554e2c035e05e485a4b0e3f19582415d429",
    ),
    "wide4": (
        "74592b04ab70b7579ff1310795af54261b4bae826f444e0d4016b1bb850bdaf6",
        "b0c8a912793b942aef321a3410c7da3c44964af9a13946f3eadb60182ab5fa70",
    ),
    "wide5": (
        "c17c1f4167ded8616514bb82b5e290e2c583a436300a825059b6ffc6dbec3562",
        "32331d6679380869cf5f6743391d9099fa1cc32ecc408c820f9baa78825bd596",
    ),
}


def x_digest(sol):
    return hashlib.sha256(json.dumps([list(row) for row in sol.x]).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_MIP))
def test_lp_text_and_solution_match_golden_digests(name):
    inst = golden_instances()[name]
    lp_sha, x_sha = GOLDEN_MIP[name]
    assert hashlib.sha256(export_lp(inst).encode()).hexdigest() == lp_sha
    sol = solve_exact(inst)
    assert check_solution(inst, sol) == []
    assert x_digest(sol) == x_sha


def test_golden_set_covers_every_row_shape():
    insts = golden_instances()
    assert set(insts) == set(GOLDEN_MIP)

    def chained(inst):
        return sum(any(inst.task(j).parents for j in w.task_indices) for w in inst.workflows)

    def spans_boundary(inst, sol):
        L = inst.slots_per_billing
        return any((t - 1) // L != (t + inst.task(j).runtimes[k - 1] - 2) // L
                   for j, k, t in sol.x)

    assert any(chained(inst) >= 2 for inst in insts.values())
    assert any(w.arrival_slot > 1 for inst in insts.values() for w in inst.workflows)
    assert any(len({r.cost for r in inst.resources}) > 1 for inst in insts.values())
    assert any(spans_boundary(inst, solve_exact(inst)) for inst in insts.values())
    # a start variable counted twice in one busy-count row
    assert any(re.search(r" c2_\d+_\d+: (.* )?[2-9] x_", export_lp(inst))
               for inst in insts.values())
