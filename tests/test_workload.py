"""Synthetic workload generator: scaling, type rules, families, statistics."""

import gc
import hashlib
import json

import pytest

from wfasim.dagops import validate_workflow
from wfasim.model import min_runtime, workflow_to_dict
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


def test_equal_edges_are_one_object_across_workflows():
    edges = [e for w in generate_workload(12, users=["u1"], seed=5) for e in w.edges]
    assert len({id(e) for e in edges}) == len(set(edges)) < len(edges)


def test_generated_tasks_hold_tuples_and_no_dict():
    # a task holds its id, the call's one type tuple and an int tuple of
    # runtimes, and equal runtime tuples are one object; the WL1 swap
    # reorders the runtimes, not the types
    tasks = [t for w in generate_workload(12, users=["u1"], rule=WL1, seed=5) for t in w.tasks]
    assert not [t for t in tasks if any(isinstance(r, dict) for r in gc.get_referents(t))]
    assert len({id(t.types) for t in tasks}) == 1
    assert tasks[0].types == ("small", "large")
    runtimes = [t.runtimes for t in tasks]
    assert len({id(r) for r in runtimes}) == len(set(runtimes)) < len(runtimes)
    assert all(len(r) == 2 and min(r) >= 1 for r in runtimes)


@pytest.mark.parametrize("rule", [WL1, WL2], ids=["wl1", "wl2"])
def test_equal_tasks_are_one_object_within_a_call(rule):
    # tasks at one position, so with one id, and with equal runtimes are
    # one TaskSpec; tasks that differ in either are separate objects
    tasks = [(pos, t) for w in generate_workload(40, users=["u1"], rule=rule, seed=5)
             for pos, t in enumerate(w.tasks)]
    first = {}
    for pos, t in tasks:
        assert t.id == f"t{pos:03d}"
        assert first.setdefault((pos, t.runtimes), t) is t
    assert len({id(t) for _, t in tasks}) == len(first) < len(tasks)


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


@pytest.mark.parametrize("seed, named", [
    (-1, "-1"), (1.5, "1.5"), ([3, -2], "-2"), ((3, 1.0), "1.0"), (["3"], "'3'"),
    ([True], "True"),
])
def test_generator_rejects_a_seed_word_that_is_not_a_non_negative_int(seed, named):
    with pytest.raises(ValueError, match=f"non-negative ints, got {named}$"):
        generate_workload(2, users=["u1"], seed=seed)


def test_size_bounds_respected():
    wfs = generate_workload(200, users=["u1"], rule=WL1, seed=11)
    sizes = [len(w.tasks) for w in wfs]
    assert min(sizes) >= 4
    assert max(sizes) <= 500


# -- byte identity of generated workloads ------------------------------------------

_CHAIN_SIZES = SizeModel(log_median=3.0, log_sigma=0.4, min_tasks=1, max_tasks=3)
_SHORT_RUNTIMES = RuntimeModel(log_median=20.0, log_sigma=2.0, scale_divisor=7)

# case -> generate_workload arguments; each case's digest is pinned below
GENERATOR_CASES = {
    "wl1-all-families": dict(count=24, users=["u1", "u2"], rule=WL1, seed=5),
    "wl2-all-families": dict(count=24, users=["u1", "u2"], rule="wl2", seed=5),
    "wl1-fan-reduce": dict(count=8, users=["u1"], families=("fan-reduce",), seed=[3, 1]),
    "wl1-layered-pipelines": dict(count=8, users=["u1"], families=("layered-pipelines",),
                                  seed=[3, 2]),
    "wl2-wide-join": dict(count=8, users=["a", "b", "c"], rule=WL2, families=("wide-join",),
                          seed=[3, 3]),
    "wl1-chains": dict(count=40, users=["u1"], size_model=_CHAIN_SIZES, seed=2),
    "wl2-custom-runtimes": dict(count=12, users=["u1"], rule=WL2, types=("cpu", "gpu"),
                                runtime_model=_SHORT_RUNTIMES,
                                families=("layered-pipelines", "fan-reduce"), seed=[9]),
}

# SHA-256 of the sorted-key JSON of each case's workflow_to_dict list
GOLDEN_WORKLOADS = {
    "wl1-all-families": "106689ed05f11dc14ce643e3fd3a89da086f1ef38d2eef41fe31ff302de3e24d",
    "wl1-chains": "b25c4cdfa18db54dcb8ee69a19d60f321184cf5019a64259e385de85fe79acf4",
    "wl1-fan-reduce": "d72986f22eed2ddd76a8ee3ed47da27b82840f1d2825979eb8bb56e254cb50fb",
    "wl1-layered-pipelines": "aa38e58bed1bef6465e0a2fe6128fb10fe4d2a27b4b48402d542e5c17d71ab75",
    "wl2-all-families": "0cd9c508bac8759473f5c1ce2403a5c7cb03c4d9cb6c8b42291316b8fd7bbf3e",
    "wl2-custom-runtimes": "2a2abdc2e0c34b43a6625db83aab0872643cee4f70ae90269c66d35d69187714",
    "wl2-wide-join": "e7b429347d05af671496a415c993e3587eb89844c2edb470147eb9e2a757e280",
}
# the same digest of one workflow made by generate_workflow on its own
GOLDEN_SINGLE_WORKFLOW = "f7ccb5934b6c344870fabeaa8bf5ed0333a0e28b42ff35d360ae2406e29dc88e"


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
def test_generated_workload_bytes_match_golden_digest(case):
    # The per-task draw order is the generator's reproducibility contract:
    # any change to it, or to how a draw becomes a runtime, changes these.
    wfs = generate_workload(**GENERATOR_CASES[case])
    assert _digest([workflow_to_dict(w) for w in wfs]) == GOLDEN_WORKLOADS[case]


def test_a_workflow_generated_on_its_own_matches_golden_digest():
    w = generate_workflow(7, DagRecipe("wide-join"), ["u1", "u2"], ("s", "l"), WL2,
                          seed=[4, 4], id_prefix="x")
    assert _digest(workflow_to_dict(w)) == GOLDEN_SINGLE_WORKFLOW
