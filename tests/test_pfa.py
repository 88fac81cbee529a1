"""Throughput-profiled autoscaler: worked examples and invariants.

Expected values in the frozen examples were derived by hand from the stage
definitions before implementation; the derivations are inlined as comments.
"""

import dataclasses
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_wf, two_type_system, users
from wfasim.model import BudgetTooSmall
from wfasim.policies.base import PolicyView
from wfasim.policies.pfa import (
    IdleInfo,
    PfaConfig,
    PfaObservation,
    PfaPolicy,
    PfaState,
    ThroughputHistory,
    equal_shares,
    lookahead_depth_ewma,
    lookahead_depth_ma,
    pfa_decide,
    predict_demand,
    profile_supply,
    reconcile_profile,
    smooth_shares_ewma,
    smooth_shares_ma,
    tba_propagate,
)
from wfasim.state import SystemState, UserFacade

TYPES = (("small", 1), ("large", 5))


def history(*records, window=50):
    """records: (completed per type, allocated per type) pairs, oldest first."""
    h = ThroughputHistory(("small", "large"), window=window)
    for completed, allocated in records:
        h.record(
            {"small": completed[0], "large": completed[1]},
            {"small": allocated[0], "large": allocated[1]},
        )
    return h


def observation(
    nodes=(),
    edges=(),
    hist=None,
    budget=12,
    allocated=None,
    idle=(),
    free_small=20,
    free_large=10,
    now=0,
    tick=0,
):
    idle_map = {}
    for info in idle:
        idle_map.setdefault(info[3], ())
        idle_map[info[3]] = idle_map[info[3]] + (IdleInfo(info[0], info[1], info[2]),)
    return PfaObservation(
        now=now,
        tick=tick,
        user_id="u1",
        budget=budget,
        types=TYPES,
        allocated=allocated or {},
        idle=idle_map,
        free_ids={
            "small": tuple(range(100, 100 + free_small)),
            "large": tuple(range(300, 300 + free_large)),
        },
        joint_nodes=tuple(nodes),
        joint_edges=tuple(edges),
        history=hist or history(),
    )


def chain_nodes(n, wf_id="w1"):
    nodes = [(wf_id, f"t{i}") for i in range(n)]
    edges = [(nodes[i], nodes[i + 1]) for i in range(n - 1)]
    return nodes, edges


# -- throughput history ----------------------------------------------------------


def test_throughput_is_completions_per_allocated():
    h = history(((6, 2), (3, 1)))
    assert h.throughput(0) == [F(2), F(2)]


def test_throughput_zero_allocation_gives_zero():
    h = history(((4, 0), (2, 0)))
    assert h.throughput(0) == [F(2), F(0)]


def test_throughput_lag_indexes_backwards():
    h = history(((1, 0), (1, 1)), ((8, 0), (2, 1)))
    assert h.throughput(0) == [F(4), F(0)]  # newest
    assert h.throughput(1) == [F(1), F(0)]
    assert h.throughput(2) is None  # beyond recorded history


def test_history_window_is_bounded():
    h = history(*[((i, 0), (1, 0)) for i in range(60)], window=50)
    assert len(h) == 50
    assert h.throughput(0) == [F(59), F(0)]


# -- share smoothing -------------------------------------------------------------


def test_ma_averages_retained_intervals():
    # shares per interval: (1/4, 3/4) then (3/4, 1/4); lookback 1 keeps both,
    # so the average is (1/2, 1/2)
    h = history(((1, 3), (1, 1)), ((3, 1), (1, 1)))
    assert smooth_shares_ma(h, depth=1, n_types=2) == [F(1, 2), F(1, 2)]


def test_ma_skips_idle_intervals():
    # the idle middle interval contributes nothing; retained averages the
    # two active ones
    h = history(((1, 3), (1, 1)), ((0, 0), (1, 1)), ((3, 1), (1, 1)))
    assert smooth_shares_ma(h, depth=2, n_types=2) == [F(1, 2), F(1, 2)]


def test_ma_empty_history_falls_back_to_equal():
    assert smooth_shares_ma(history(), depth=10, n_types=2) == [F(1, 2), F(1, 2)]


def test_ma_all_or_nothing_when_a_type_never_appears():
    # only the small type ever completed anything; the per-type sum for
    # large is zero, so the whole estimate falls back to equal shares
    h = history(((2, 0), (1, 1)))
    assert smooth_shares_ma(h, depth=5, n_types=2) == [F(1, 2), F(1, 2)]


def test_ma_depth_zero_uses_only_newest_interval():
    h = history(((3, 1), (1, 1)), ((1, 3), (1, 1)))
    assert smooth_shares_ma(h, depth=0, n_types=2) == [F(1, 4), F(3, 4)]


def test_ewma_falls_back_on_any_zero_throughput_type():
    # instant shares would be (1, 0): the large type starved, so smoothing
    # resets to equal shares instead
    h = history(((2, 0), (1, 1)))
    got = smooth_shares_ewma(h, [F(9, 10), F(1, 10)], F(7, 10), 2)
    assert got == [F(1, 2), F(1, 2)]


def test_ewma_blends_previous_and_current():
    # prev (1, 0), current (1/2, 1/2): 0.7*prev + 0.3*current
    h = history(((2, 2), (1, 1)))
    got = smooth_shares_ewma(h, [F(1), F(0)], F(7, 10), 2)
    assert got == [F(17, 20), F(3, 20)]


def test_ewma_cold_start_without_previous():
    h = history(((2, 2), (1, 1)))
    got = smooth_shares_ewma(h, None, F(7, 10), 2)
    assert got == [F(1, 2), F(1, 2)]


# -- profile sizing --------------------------------------------------------------


def test_profile_supply_worked_example():
    # shares (1/2, 1/2), costs (1, 5), budget 12: weighted (1/2, 5/2),
    # fractions (1/6, 5/6); counts floor(12/6 /1)=2 and floor(10 /5)=2
    fractions, counts, total = profile_supply([F(1, 2), F(1, 2)], [1, 5], 12)
    assert fractions == [F(1, 6), F(5, 6)]
    assert counts == [2, 2]
    assert total == 4


def test_profile_supply_rejects_budget_below_priciest_type():
    with pytest.raises(BudgetTooSmall):
        profile_supply([F(1, 2), F(1, 2)], [1, 5], 4)


def test_profile_supply_all_zero_shares():
    fractions, counts, total = profile_supply([F(0), F(0)], [1, 5], 12)
    assert fractions == [F(0), F(0)]
    assert counts == [0, 0]
    assert total == 0


# -- token propagation -----------------------------------------------------------


def test_tba_chain_with_depth_two():
    nodes, edges = chain_nodes(3)
    theta, peak, waves = tba_propagate(nodes, edges, depth=2)
    assert (theta, peak, waves) == (2, 1, [1, 1])


def test_tba_diamond_unbounded():
    nodes = [("w", x) for x in "abcd"]
    edges = [
        (("w", "a"), ("w", "b")),
        (("w", "a"), ("w", "c")),
        (("w", "b"), ("w", "d")),
        (("w", "c"), ("w", "d")),
    ]
    theta, peak, waves = tba_propagate(nodes, edges, depth=None)
    assert (theta, peak, waves) == (4, 2, [1, 2, 1])


def test_tba_counts_running_frontier():
    # tasks with no unfinished parents include those currently running
    nodes, edges = chain_nodes(2)
    theta, peak, waves = tba_propagate(nodes, edges, depth=1)
    assert (theta, peak, waves) == (1, 1, [1])


def test_tba_depth_zero():
    nodes, edges = chain_nodes(3)
    assert tba_propagate(nodes, edges, depth=0) == (0, 0, [])


def test_tba_empty_dag():
    assert tba_propagate([], [], depth=None) == (0, 0, [])


# -- lookahead depth -------------------------------------------------------------


def test_depth_ma_worked_example():
    # collected throughputs {2, 4}: mean 3, ceiling 3
    h = history(((2, 4), (1, 1)))
    depth, values = lookahead_depth_ma(h, depth=5)
    assert depth == 3
    assert sorted(values) == [F(2), F(4)]


def test_depth_ma_unbounded_when_no_signal():
    assert lookahead_depth_ma(history(), depth=5) == (None, [])
    h = history(((0, 0), (1, 1)))
    assert lookahead_depth_ma(h, depth=5)[0] is None


def test_depth_ma_fractional_mean_rounds_up():
    # values {1, 2}: mean 3/2, ceiling 2
    h = history(((1, 2), (1, 1)))
    assert lookahead_depth_ma(h, depth=5)[0] == 2


def test_depth_ewma_blend():
    # previous depth 1, current mean (2+4)/2 = 3: ceil(0.7 + 0.9) = 2
    h = history(((2, 4), (1, 1)))
    depth, mean = lookahead_depth_ewma(h, prev_depth=1, alpha=F(7, 10))
    assert depth == 2
    assert mean == F(3)


def test_depth_ewma_idle_interval_is_unbounded():
    h = history(((0, 0), (2, 2)))
    assert lookahead_depth_ewma(h, prev_depth=4, alpha=F(7, 10)) == (None, None)


# -- demand prediction and reconciliation ------------------------------------------


def test_predict_demand_divides_by_throughput():
    assert predict_demand(theta=8, peak=3, mean_throughput=F(2)) == 4
    assert predict_demand(theta=7, peak=3, mean_throughput=F(2)) == 4  # ceil


def test_predict_demand_falls_back_to_peak():
    assert predict_demand(theta=8, peak=3, mean_throughput=None) == 3
    assert predict_demand(theta=8, peak=3, mean_throughput=F(0)) == 3


def test_reconcile_scale_down():
    # counts (5, 5) for predicted 6: factor 6/10, ceil gives (3, 3)
    assert reconcile_profile([5, 5], 6, [1, 5], 30) == [3, 3]


def test_reconcile_exact_match_is_identity():
    assert reconcile_profile([2, 2], 4, [1, 5], 12) == [2, 2]


def test_reconcile_inflation_worked_example():
    # counts (2, 2) cost 12 = budget, predicted 6: no headroom to add small
    # instances, so swap one large (5) for five smalls: (7, 1), total 8 >= 6
    assert reconcile_profile([2, 2], 6, [1, 5], 12) == [7, 1]


def test_reconcile_inflation_prefers_additions_within_budget():
    # counts (1, 1) cost 6, budget 9, predicted 4: two added smalls reach the
    # prediction with budget to spare, so no swap happens
    assert reconcile_profile([1, 1], 4, [1, 5], 9) == [3, 1]


def test_reconcile_swap_skipped_for_unit_bundles():
    # equal costs: a swap never raises the count, so inflation stops
    assert reconcile_profile([1, 1], 5, [2, 2], 4) == [1, 1]


# -- full decisions ----------------------------------------------------------------


def test_cold_start_worked_example():
    # empty history: equal shares, profile (2, 2); four independent tasks
    # form a single wave, no throughput signal, so demand = peak = 4 and the
    # profile stands; allocation buys exactly the profile
    nodes = [("w1", f"t{i}") for i in range(4)]
    obs = observation(nodes=nodes, budget=12)
    decision = pfa_decide(obs, PfaConfig(smoothing="ma"), PfaState())
    d = decision.diagnostics
    assert d["rho"] == [0.5, 0.5]
    assert d["nu"] == [float(F(1, 6)), float(F(5, 6))]
    assert d["mu_hat"] == [2, 2]
    assert d["mu_tilde"] == 4
    assert d["zeta"] is None
    assert (d["theta"], d["lambda"], d["sigma"]) == (4, 4, 4)
    assert d["mu"] == [2, 2]
    assert decision.alloc == {"small": [100, 101], "large": [300, 301]}
    assert decision.dealloc == []


def test_decision_allocation_never_exceeds_budget():
    # forced inflation: final profile (7, 1) costs 12 with nothing owned;
    # only free capacity limits the purchase
    nodes = [("w1", f"t{i}") for i in range(6)]
    h = history(((1, 1), (1, 1)))  # throughput 1 per resource, depth 1
    obs = observation(nodes=nodes, hist=h, budget=12, free_small=5)
    decision = pfa_decide(obs, PfaConfig(smoothing="ma"), PfaState())
    d = decision.diagnostics
    assert d["sigma"] == 6
    assert d["mu"] == [7, 1]
    # only 5 small machines exist; spend stays within budget
    assert decision.alloc["small"] == [100, 101, 102, 103, 104]
    assert decision.alloc["large"] == [300]
    spent = 5 * 1 + 1 * 5
    assert spent <= obs.budget


def test_release_order_and_billing_gate():
    # no work left: the target profile is empty, surplus 3 smalls; release
    # order is (billing end, idle since, id)
    idle = (
        (5, 60, 10, "small"),
        (3, 60, 5, "small"),
        (7, 30, 50, "small"),
    )
    obs = observation(allocated={"small": 3}, idle=idle, now=60, budget=12)
    decision = pfa_decide(obs, PfaConfig(smoothing="ma"), PfaState())
    assert decision.diagnostics["mu"] == [0, 0]
    assert decision.dealloc == [7, 3, 5]


def test_release_skips_resources_inside_billing_window():
    idle = ((4, 120, 0, "small"),)  # billing end in the future
    obs = observation(allocated={"small": 1}, idle=idle, now=60, budget=12)
    decision = pfa_decide(obs, PfaConfig(smoothing="ma"), PfaState())
    assert decision.dealloc == []


def test_ewma_carry_flows_between_decisions():
    carry = PfaState()
    nodes = [("w1", "t0")]
    h = history(((2, 2), (1, 1)))
    obs = observation(nodes=nodes, hist=h, budget=12)
    pfa_decide(obs, PfaConfig(smoothing="ewma"), carry)
    assert carry.prev_shares == [F(1, 2), F(1, 2)]
    assert carry.prev_depth == 2  # ceil(0.7*1 + 0.3*2)

    # an idle interval leaves the depth carry at its last finite value
    h2 = history(((0, 0), (1, 1)))
    obs2 = observation(nodes=nodes, hist=h2, budget=12)
    pfa_decide(obs2, PfaConfig(smoothing="ewma"), carry)
    assert carry.prev_depth == 2


def test_policy_requires_observation():
    policy = PfaPolicy()
    view = PolicyView(
        now=0, tick=0, user=None, config=None, state=None, oracle=None,
        rng=None, observation=None,
    )
    with pytest.raises(ValueError):
        policy.decide(view)


def test_policy_names_and_config_validation():
    assert PfaPolicy().name == "pfa-ma"
    assert PfaPolicy(PfaConfig(smoothing="ewma")).name == "pfa-ewma"
    with pytest.raises(ValueError):
        PfaConfig(smoothing="bogus")
    with pytest.raises(ValueError):
        PfaConfig(alpha="1.5")
    for depth in (2.5, True, "3"):
        with pytest.raises(TypeError):
            PfaConfig(ma_depth=depth)


def test_observation_structurally_excludes_runtimes():
    fields = {f.name for f in dataclasses.fields(PfaObservation)}
    assert fields == {
        "now", "tick", "user_id", "budget", "types", "allocated",
        "idle", "free_ids", "joint_nodes", "joint_edges", "history",
    }


def test_user_facade_exposes_only_runtime_free_queries():
    public = {name for name in dir(UserFacade) if not name.startswith("_")}
    assert public == {
        "user_id", "counts_by_type", "idle", "free_ids", "joint_dag", "finished_by_type",
    }
    # slots only: no instance dict to hang a path to runs or runtimes on
    assert UserFacade.__slots__ == ("_state", "user_id")
    assert not hasattr(UserFacade(None, "u1"), "__dict__")

    state = SystemState(two_type_system(small=2, large=1), users(("u1", 12)))
    state.arrive(chain_wf("w1", [{"small": 5, "large": 2}] * 2))
    state.reserve(state.resources[0], "u1", now=0)
    state.start_task("w1", "t0", state.resources[0], now=0)
    state.finish_task("w1", "t0", now=5)
    facade = UserFacade(state, "u1")
    answers = [
        facade.counts_by_type(), facade.idle("small"), facade.free_ids("small"),
        facade.joint_dag(), facade.finished_by_type(),
    ]

    def leaves(x):
        if isinstance(x, dict):
            return [leaf for k, v in x.items() for leaf in leaves(k) + leaves(v)]
        if isinstance(x, (list, tuple)):
            return [leaf for v in x for leaf in leaves(v)]
        return [x]

    assert {type(leaf) for a in answers for leaf in leaves(a)} == {int, str}
    assert facade.idle("small") == ((0, 60, 5),)
    assert facade.free_ids("small") == (1,)
    assert facade.joint_dag() == ([("w1", "t1")], [])
    assert facade.finished_by_type() == {"small": 1, "large": 0}


def facade_view(state, tick, now):
    # no state, oracle or rng: the policy must decide from the facade alone
    return PolicyView(
        now=now, tick=tick, user=state.users["u1"], config=state.config, state=None,
        oracle=None, rng=None, observation=UserFacade(state, "u1"),
    )


def test_policy_records_finished_delta_against_current_allocation():
    state = SystemState(two_type_system(), users(("u1", 12)))
    state.arrive(chain_wf("w1", [{"small": 5, "large": 2}] * 3))
    policy = PfaPolicy()
    first = policy.decide(facade_view(state, tick=0, now=0))
    assert "observe" in first.step_seconds
    assert policy._carry["u1"].history is not None
    assert len(policy._carry["u1"].history) == 0  # nothing recorded at tick 0
    small = state.resources[:2]  # machines 0 and 1 are small
    for r in small:
        state.reserve(r, "u1", now=0)
    state.start_task("w1", "t0", small[0], now=0)
    state.finish_task("w1", "t0", now=5)
    policy.decide(facade_view(state, tick=1, now=60))
    # one task finished on small while two small machines were held
    assert policy._carry["u1"].history.throughput(0) == [F(1, 2), F(0)]
    state.start_task("w1", "t1", small[1], now=60)
    state.finish_task("w1", "t1", now=65)
    policy.decide(facade_view(state, tick=2, now=120))
    assert policy._carry["u1"].history.throughput(0) == [F(1, 2), F(0)]
    assert len(policy._carry["u1"].history) == 2
    # a new run starts at tick 0 with a fresh carry
    policy.decide(facade_view(state, tick=0, now=0))
    assert len(policy._carry["u1"].history) == 0


# -- invariants over randomized inputs ----------------------------------------------


@st.composite
def random_dag(draw):
    n = draw(st.integers(0, 12))
    nodes = [("w", f"t{i}") for i in range(n)]
    edges = []
    for j in range(1, n):
        for i in range(j):
            if draw(st.booleans()):
                edges.append((nodes[i], nodes[j]))
    return nodes, edges


@settings(max_examples=200, deadline=None)
@given(random_dag(), st.integers(1, 5) | st.none())
def test_tba_bounds(dag, depth):
    nodes, edges = dag
    theta, peak, waves = tba_propagate(nodes, edges, depth)
    assert peak <= theta <= len(nodes)
    assert theta == sum(waves)
    assert peak == (max(waves) if waves else 0)
    if depth is None and nodes:
        assert theta == len(nodes)  # exhaustive propagation tokenizes all


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(0, 6), min_size=2, max_size=4),
    predicted=st.integers(0, 40),
    budget=st.integers(5, 60),
)
def test_reconcile_respects_budget_and_scale_down_band(counts, predicted, budget):
    costs = [1, 5, 2, 3][: len(counts)]
    spent = sum(c * q for c, q in zip(counts, costs))
    if spent > budget:
        counts = [0 for _ in counts]
    final = reconcile_profile(counts, predicted, costs, budget)
    assert all(c >= 0 for c in final)
    assert sum(c * q for c, q in zip(final, costs)) <= budget
    total = sum(counts)
    if total > predicted:
        # scale-down lands within one extra instance per type of the target
        assert predicted <= sum(final) <= predicted + len(counts)


@settings(max_examples=100, deadline=None)
@given(
    records=st.lists(
        st.tuples(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
        ),
        max_size=6,
    ),
    smoothing=st.sampled_from(["ma", "ewma"]),
    n_tasks=st.integers(0, 8),
    budget=st.integers(5, 40),
)
def test_decisions_are_pure_functions_of_the_observation(
    records, smoothing, n_tasks, budget
):
    nodes, edges = chain_nodes(n_tasks) if n_tasks else ((), ())
    obs = observation(nodes=nodes, edges=edges, hist=history(*records), budget=budget)
    config = PfaConfig(smoothing=smoothing)
    one = pfa_decide(obs, config, PfaState())
    two = pfa_decide(obs, config, PfaState())
    assert json.dumps(one.diagnostics, sort_keys=True) == json.dumps(
        two.diagnostics, sort_keys=True
    )
    assert one.alloc == two.alloc
    assert one.dealloc == two.dealloc


@settings(max_examples=100, deadline=None)
@given(
    records=st.lists(
        st.tuples(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
        ),
        max_size=6,
    )
)
def test_share_vectors_are_distributions(records):
    h = history(*records)
    for shares in (
        smooth_shares_ma(h, depth=10, n_types=2),
        smooth_shares_ewma(h, None, F(7, 10), 2),
    ):
        assert sum(shares) == 1
        assert all(0 <= s <= 1 for s in shares)


def test_equal_share_fallback_on_empty_history():
    assert smooth_shares_ma(history(), 10, 3) == equal_shares(3)
    assert smooth_shares_ewma(history(), None, F(7, 10), 3) == equal_shares(3)
