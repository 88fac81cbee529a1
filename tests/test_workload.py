"""Synthetic workload generator: scaling, type rules, families, statistics."""

import pytest

from wfasim.dagops import validate_workflow
from wfasim.model import min_runtime
from wfasim.workload import (
    FAMILIES,
    WL1,
    WL2,
    DagRecipe,
    RuntimeModel,
    SizeModel,
    generate_workflow,
    generate_workload,
    scale_runtimes,
    second_type_rule,
    workload_statistics,
)


def test_scale_runtimes_round_half_up_with_floor():
    assert scale_runtimes(300) == 10
    assert scale_runtimes(10) == 1  # 0.33 rounds to 0, floored to 1
    assert scale_runtimes(45) == 2  # 1.5 rounds up
    assert scale_runtimes(75) == 3  # 2.5 rounds up (half-up, not banker's)
    with pytest.raises(ValueError):
        scale_runtimes(0)


def test_second_type_rule_lookup():
    assert second_type_rule("wl1") is WL1
    assert second_type_rule("wl2") is WL2
    with pytest.raises(ValueError):
        second_type_rule("wl3")
    assert WL1.max_deviation == 0.5 and WL1.random_assignment
    assert WL2.max_deviation == 1.0 and not WL2.random_assignment


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        DagRecipe("escher-stairs")


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_yields_valid_single_entry_exit_dags(family):
    for i in range(25):
        w = generate_workflow(
            i, DagRecipe(family), users=["u1"], types=("small", "large"),
            rule=WL1, seed=13,
        )
        assert validate_workflow(w) == [], (family, i)
        assert len(w.tasks) >= 4


def test_workflows_are_deterministic_per_seed_and_index():
    a = generate_workload(6, users=["u1"], rule=WL1, seed=42)
    b = generate_workload(6, users=["u1"], rule=WL1, seed=42)
    from wfasim.model import workflow_to_dict

    assert [workflow_to_dict(w) for w in a] == [workflow_to_dict(w) for w in b]
    c = generate_workload(6, users=["u1"], rule=WL1, seed=43)
    assert [workflow_to_dict(w) for w in a] != [workflow_to_dict(w) for w in c]


def test_seed_lists_derive_independent_streams():
    a = generate_workload(4, users=["u1"], rule=WL1, seed=[7, 0])
    b = generate_workload(4, users=["u1"], rule=WL1, seed=[7, 1])
    from wfasim.model import workflow_to_dict

    assert [workflow_to_dict(w) for w in a] != [workflow_to_dict(w) for w in b]


def test_ids_priorities_users_arrivals():
    wfs = generate_workload(10, users=["ua", "ub"], rule=WL1, seed=3,
                            id_prefix="job")
    assert [w.id for w in wfs] == [f"job{i:04d}" for i in range(10)]
    assert {w.user for w in wfs} <= {"ua", "ub"}
    assert all(0 <= w.priority <= 9 for w in wfs)
    assert all(w.arrival_s == 0 for w in wfs)


def test_families_cycle_through_the_mix():
    wfs = generate_workload(6, users=["u1"], rule=WL1, seed=3)
    # the recipe cycles index % 3, so a truncated prefix keeps the balance
    shapes = [len(w.tasks) for w in wfs]
    assert len(shapes) == 6


def test_wl1_keeps_types_within_half_deviation():
    wfs = generate_workload(40, users=["u1"], rule=WL1, seed=21)
    for w in wfs:
        for t in w.tasks:
            lo, hi = sorted(t.runtime_by_type.values())
            assert 1 <= lo
            # deviation is at most 50%, so the sorted pair is within a
            # factor 2 plus rounding slack
            assert hi <= 2 * lo + 1, (w.id, t.id, t.runtime_by_type)


def test_wl2_puts_the_deviation_on_the_second_type():
    wfs = generate_workload(40, users=["u1"], rule=WL2, seed=22)
    saw_extreme = False
    for w in wfs:
        for t in w.tasks:
            base = t.runtime_by_type["small"]
            second = t.runtime_by_type["large"]
            assert 1 <= second <= 2 * base
            if second > 2 * base * 0.8 or second < base * 0.3:
                saw_extreme = True
    assert saw_extreme  # the full ±100% range is actually exercised


def test_statistics_match_calibration_targets_for_wl1():
    wfs = generate_workload(600, users=["u1", "u2"], rule=WL1, seed=0)
    stats = workload_statistics(wfs)
    assert stats["workflows"] == 600
    assert abs(stats["mean_tasks"] - 74) / 74 < 0.20
    assert abs(stats["median_tasks"] - 38) / 38 < 0.20
    assert abs(stats["mean_runtime"] - 6.3) / 6.3 < 0.20
    assert abs(stats["median_runtime"] - 1.5) / 1.5 < 0.20


def test_statistics_match_calibration_targets_for_wl2():
    wfs = generate_workload(600, users=["u1", "u2"], rule=WL2, seed=0)
    stats = workload_statistics(wfs)
    assert abs(stats["mean_tasks"] - 74) / 74 < 0.20
    assert abs(stats["mean_runtime"] - 6.9) / 6.9 < 0.20


def test_statistics_fields():
    wfs = generate_workload(20, users=["u1"], rule=WL1, seed=1)
    stats = workload_statistics(wfs)
    assert set(stats) >= {
        "workflows", "mean_tasks", "median_tasks", "std_tasks",
        "mean_runtime", "median_runtime", "mean_runtime_by_type",
        "mean_total_fastest_runtime",
    }
    total = sum(min_runtime(t) for w in wfs for t in w.tasks) / len(wfs)
    assert stats["mean_total_fastest_runtime"] == pytest.approx(total)


@pytest.mark.parametrize("model, fields, named", [
    (SizeModel, {"min_tasks": 12, "max_tasks": 4}, "min_tasks <= max_tasks"),
    (SizeModel, {"min_tasks": 0}, "1 <= min_tasks"),
    (SizeModel, {"log_median": 0}, "log_median"),
    (SizeModel, {"log_sigma": -0.1}, "log_sigma"),
    (SizeModel, {"log_median": float("inf")}, "log_median"),
    (RuntimeModel, {"scale_divisor": 0}, "scale_divisor"),
    (RuntimeModel, {"log_median": -1}, "log_median"),
    (RuntimeModel, {"log_sigma": float("nan")}, "log_sigma"),
])
def test_generator_models_own_their_ranges(model, fields, named):
    # min_tasks above max_tasks used to clamp every workflow to max_tasks
    with pytest.raises(ValueError, match=named):
        model(**fields)


def test_generator_rejects_a_type_named_twice():
    # the second runtime used to overwrite the first, leaving one type
    with pytest.raises(ValueError, match="two distinct types"):
        generate_workload(2, users=["u1"], types=("small", "small"))


def test_size_bounds_respected():
    wfs = generate_workload(200, users=["u1"], rule=WL1, seed=11)
    sizes = [len(w.tasks) for w in wfs]
    assert min(sizes) >= 4
    assert max(sizes) <= 500
