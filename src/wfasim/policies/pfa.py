"""Proactive feedback autoscaler.

Chooses per-type resource counts for the next interval from two signals
only: the user's historical task throughput per resource type, and the
structure of the user's unfinished workflow DAG. The policy is deliberately
blind to runtime estimates: it builds its :class:`PfaObservation`, which
carries no runtime information at all, from the runtime-free user facade
and the throughput history it keeps itself.

All ratio arithmetic uses exact fractions so floor/ceil decisions never
depend on float rounding.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from ..model import BudgetTooSmall
from .base import Decision, Policy, PolicyView

TaskRef = tuple[str, str]


class IdleInfo(NamedTuple):
    """Release candidate: an idle resource and its billing position."""

    resource_id: int
    billing_end_s: int
    idle_since_s: int


class _HistoryEntry(NamedTuple):
    """One finished interval: raw throughput row plus derived values that are
    fixed the moment the interval ends (total, normalized shares)."""

    tau: tuple[Fraction, ...]
    total: Fraction
    shares: tuple[Fraction, ...] | None  # None when the interval was idle


class ThroughputHistory:
    """Per-interval completion and allocation counts for one user.

    A bounded ring of past intervals, newest last. Entry k lags the current
    decision by k intervals; entry 0 is the interval that just ended.
    """

    def __init__(self, type_ids: Sequence[str], window: int = 50):
        if window < 1:
            raise ValueError("history window must be >= 1")
        self.type_ids = tuple(type_ids)
        # per-type tasks completed per allocated resource, fixed at record time
        self._rows: deque[_HistoryEntry] = deque(maxlen=window)

    def record(self, completed: Mapping[str, int], allocated: Mapping[str, int]) -> None:
        row = []
        for t in self.type_ids:
            n = int(allocated.get(t, 0))
            row.append(Fraction(int(completed.get(t, 0)), n) if n > 0 else Fraction(0))
        tau = tuple(row)
        total = sum(tau, Fraction(0))
        shares = tuple(t / total for t in tau) if total > 0 else None
        self._rows.append(_HistoryEntry(tau, total, shares))

    def __len__(self) -> int:
        return len(self._rows)

    def _entry(self, lag: int) -> _HistoryEntry | None:
        if lag < 0 or lag >= len(self._rows):
            return None
        return self._rows[-1 - lag]

    def throughput(self, lag: int = 0) -> list[Fraction] | None:
        """Tasks completed per allocated resource at the given lag.

        Returns one value per type (zero where nothing was allocated), or
        None when the history does not reach back that far.
        """
        entry = self._entry(lag)
        return None if entry is None else list(entry.tau)


@dataclass(frozen=True)
class PfaObservation:
    """Everything the autoscaler may look at. No runtimes, by construction."""

    now: int
    tick: int
    user_id: str
    budget: int
    types: tuple[tuple[str, int], ...]  # (type id, cost per interval)
    allocated: Mapping[str, int]  # reserved count per type
    idle: Mapping[str, tuple[IdleInfo, ...]]  # idle resources per type
    free_ids: Mapping[str, tuple[int, ...]]  # unreserved resource ids per type
    joint_nodes: tuple[TaskRef, ...]
    joint_edges: tuple[tuple[TaskRef, TaskRef], ...]
    history: ThroughputHistory


@dataclass(frozen=True)
class PfaConfig:
    """Smoothing setup: moving average over ``ma_depth`` intervals, or
    exponentially weighted with factor ``alpha`` (given as a decimal string
    or float; converted exactly)."""

    smoothing: str = "ma"  # "ma" | "ewma"
    ma_depth: int = 10
    alpha: float | str | Fraction = "0.7"

    def __post_init__(self) -> None:
        if self.smoothing not in ("ma", "ewma"):
            raise ValueError("smoothing must be 'ma' or 'ewma'")
        if not isinstance(self.ma_depth, int) or isinstance(self.ma_depth, bool):
            raise TypeError("ma_depth must be an int")
        if self.ma_depth < 0:
            raise ValueError("ma_depth must be >= 0")
        a = self.alpha_fraction()
        if not 0 <= a < 1:
            raise ValueError("alpha must be in [0, 1)")

    def alpha_fraction(self) -> Fraction:
        return Fraction(str(self.alpha))

    def history_window(self) -> int:
        return max(self.ma_depth + 1, 50)


@dataclass
class PfaState:
    """Carried between ticks: previous smoothed shares and lookahead depth,
    the throughput history, and the per-type finished counts last seen."""

    prev_shares: list[Fraction] | None = None
    prev_depth: int = 1
    history: ThroughputHistory | None = None
    finished: Mapping[str, int] = field(default_factory=dict)


def equal_shares(n: int) -> list[Fraction]:
    return [Fraction(1, n) for _ in range(n)]


def instant_shares(tau: Sequence[Fraction]) -> list[Fraction]:
    """Normalize per-type throughput to shares; all zero when idle."""
    total = sum(tau)
    if total == 0:
        return [Fraction(0) for _ in tau]
    return [t / total for t in tau]


def _lag_window(history: ThroughputHistory, depth: int) -> list[_HistoryEntry]:
    """History entries for lags 0..depth, stopping where history runs out."""
    entries = []
    for lag in range(depth + 1):
        entry = history._entry(lag)
        if entry is None:
            break
        entries.append(entry)
    return entries


def _smooth_shares_ma(window: list[_HistoryEntry], n_types: int) -> list[Fraction]:
    retained = [e.shares for e in window if e.shares is not None]
    if not retained:
        return equal_shares(n_types)
    sums = [sum(shares[i] for shares in retained) for i in range(n_types)]
    if any(s == 0 for s in sums):
        return equal_shares(n_types)
    return [s / len(retained) for s in sums]


def smooth_shares_ma(
    history: ThroughputHistory, depth: int, n_types: int
) -> list[Fraction]:
    """Average the instant shares over intervals within the lookback that had
    any throughput. If no interval qualifies, or any type never appears with
    throughput in the retained set, every type gets an equal share."""
    return _smooth_shares_ma(_lag_window(history, depth), n_types)


def smooth_shares_ewma(
    history: ThroughputHistory, prev: Sequence[Fraction] | None, alpha: Fraction, n_types: int
) -> list[Fraction]:
    """Exponentially weighted update of the share vector. Falls back to equal
    shares whenever any type had no throughput in the interval that just
    ended (including the cold start)."""
    entry = history._entry(0)
    if entry is None or any(t == 0 for t in entry.tau):
        return equal_shares(n_types)
    current = entry.shares if entry.shares is not None else instant_shares(entry.tau)
    if prev is None:
        prev = equal_shares(n_types)
    return [alpha * p + (1 - alpha) * c for p, c in zip(prev, current)]


def profile_supply(
    shares: Sequence[Fraction], costs: Sequence[int], budget: int
) -> tuple[list[Fraction], list[int], int]:
    """Split the budget across types weighted by cost-scaled shares.

    Returns (budget fractions, affordable instance counts, total count).
    Requires the budget to cover at least one instance of the priciest type.
    """
    if budget < max(costs):
        raise BudgetTooSmall(f"budget {budget} below max type cost {max(costs)}")
    weighted = [q * s for q, s in zip(costs, shares)]
    denom = sum(weighted)
    if denom == 0:
        fractions = [Fraction(0) for _ in shares]
    else:
        fractions = [w / denom for w in weighted]
    counts = [int(budget * f / q) for f, q in zip(fractions, costs)]
    return fractions, counts, sum(counts)


def tba_propagate(
    nodes: Sequence[TaskRef],
    edges: Sequence[tuple[TaskRef, TaskRef]],
    depth: int | None,
) -> tuple[int, int, list[int]]:
    """Token-based demand assessment over the joint unfinished DAG.

    Tokens start on the frontier (tasks with no unfinished parents; this
    includes tasks currently running) as wave 1. Each following wave covers
    tasks whose parents all hold tokens. Stops after ``depth`` waves, or at
    exhaustion when depth is None.

    Returns (total tokenized, peak wave size, wave sizes).
    """
    if depth is not None and depth < 1:
        return 0, 0, []
    indeg = {n: 0 for n in nodes}
    children: dict[TaskRef, list[TaskRef]] = {}
    for a, b in edges:
        indeg[b] += 1
        children.setdefault(a, []).append(b)
    frontier = [n for n in nodes if indeg[n] == 0]
    waves: list[int] = []
    while frontier and (depth is None or len(waves) < depth):
        waves.append(len(frontier))
        nxt: list[TaskRef] = []
        for n in frontier:
            for c in children.get(n, ()):
                indeg[c] -= 1
                if indeg[c] == 0:
                    nxt.append(c)
        frontier = nxt
    return sum(waves), max(waves, default=0), waves


def _lookahead_depth_ma(
    window: list[_HistoryEntry],
) -> tuple[int | None, list[Fraction], Fraction]:
    values: list[Fraction] = []
    total = Fraction(0)
    for entry in window:
        if entry.total > 0:
            values.extend(entry.tau)
            total += entry.total
    if not values or total == 0:
        return None, values, total
    return math.ceil(total / len(values)), values, total


def lookahead_depth_ma(
    history: ThroughputHistory, depth: int
) -> tuple[int | None, list[Fraction]]:
    """Wave lookahead depth from the mean historical throughput.

    Collects every per-type throughput value from lookback intervals that had
    any throughput. Returns (depth, collected values); depth is None
    (unbounded) when nothing was collected.
    """
    result, values, _total = _lookahead_depth_ma(_lag_window(history, depth))
    return result, values


def lookahead_depth_ewma(
    history: ThroughputHistory, prev_depth: int, alpha: Fraction
) -> tuple[int | None, Fraction | None]:
    """Exponentially weighted lookahead depth.

    Returns (depth, mean current throughput); both None-ish on an idle
    interval, where the depth is unbounded.
    """
    entry = history._entry(0)
    if entry is None or entry.total == 0:
        return None, None
    mean = entry.total / len(entry.tau)
    return math.ceil(alpha * prev_depth + (1 - alpha) * mean), mean


def predict_demand(theta: int, peak: int, mean_throughput: Fraction | None) -> int:
    """Expected concurrent resource demand for the next interval.

    Divides the tokenized task count by the mean per-resource throughput;
    with no throughput signal, falls back to the peak wave size (level of
    parallelism)."""
    if mean_throughput is None or mean_throughput == 0:
        return peak
    return math.ceil(Fraction(theta) / mean_throughput)


def reconcile_profile(
    counts: Sequence[int],
    predicted: int,
    costs: Sequence[int],
    budget: int,
) -> list[int]:
    """Fit the affordable per-type counts to the predicted demand.

    Oversupply scales every type down proportionally (ceiling). Undersupply
    inflates: first add instances of each type except the priciest while the
    budget allows, then repeatedly swap one instance of a pricier type for
    floor(q_k / q_cheaper) instances of the next cheaper type, which keeps
    cost while raising the count, until the prediction is met or no swap
    helps.
    """
    counts = list(counts)
    total = sum(counts)
    if total == predicted:
        return counts
    if total > predicted:
        factor = Fraction(predicted, total)
        return [math.ceil(factor * c) for c in counts]

    order = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    spent = sum(c * q for c, q in zip(counts, costs))
    for i in order[:-1]:
        while total < predicted and spent + costs[i] <= budget:
            counts[i] += 1
            spent += costs[i]
            total += 1
    progressed = True
    while total < predicted and progressed:
        progressed = False
        for pos in range(1, len(order)):
            k = order[pos]
            cheaper = order[pos - 1]
            bundle = costs[k] // costs[cheaper]
            if bundle <= 1:
                continue  # swap would not increase the count
            while counts[k] > 0 and total < predicted:
                counts[k] -= 1
                counts[cheaper] += bundle
                spent += bundle * costs[cheaper] - costs[k]
                total += bundle - 1
                progressed = True
    return counts


def pfa_decide(
    obs: PfaObservation, config: PfaConfig, carry: PfaState
) -> Decision:
    """One full decision: smooth, size the profile, predict demand,
    reconcile, then pick concrete allocations and releases."""
    type_ids = [t for t, _ in obs.types]
    costs = [q for _, q in obs.types]
    n = len(type_ids)
    steps: dict[str, float] = {}

    t0 = time.perf_counter()
    alpha = config.alpha_fraction()
    if config.smoothing == "ma":
        window = _lag_window(obs.history, config.ma_depth)
        shares = _smooth_shares_ma(window, n)
    else:
        shares = smooth_shares_ewma(obs.history, carry.prev_shares, alpha, n)
    steps["smooth"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    fractions, counts, total = profile_supply(shares, costs, obs.budget)
    steps["profile"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if config.smoothing == "ma":
        depth, tau_values, tau_total = _lookahead_depth_ma(window)
        mean_tp = tau_total / len(tau_values) if tau_values and tau_total else None
    else:
        depth, mean_tp = lookahead_depth_ewma(obs.history, carry.prev_depth, alpha)
    theta, peak, _waves = tba_propagate(obs.joint_nodes, obs.joint_edges, depth)
    predicted = predict_demand(theta, peak, mean_tp)
    steps["predict"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    final = reconcile_profile(counts, predicted, costs, obs.budget)
    steps["reconcile"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    dealloc: list[int] = []
    kept: dict[str, int] = {}
    for i, tid in enumerate(type_ids):
        have = obs.allocated.get(tid, 0)
        surplus = have - final[i]
        releasable = [r for r in obs.idle.get(tid, ()) if r.billing_end_s <= obs.now]
        if surplus > 0 and releasable:
            releasable.sort(key=lambda r: (r.billing_end_s, r.idle_since_s, r.resource_id))
            chosen = releasable[: min(surplus, len(releasable))]
            dealloc.extend(r.resource_id for r in chosen)
            kept[tid] = have - len(chosen)
        else:
            kept[tid] = have

    alloc: dict[str, list[int]] = {}
    running_cost = sum(kept[tid] * q for tid, q in obs.types)
    for i in sorted(range(n), key=lambda i: (costs[i], i)):
        tid = type_ids[i]
        want = max(0, final[i] - kept[tid])
        if want <= 0:
            continue
        pool = list(obs.free_ids.get(tid, ()))
        picked: list[int] = []
        for rid in pool:
            if len(picked) >= want or running_cost + costs[i] > obs.budget:
                break
            picked.append(rid)
            running_cost += costs[i]
        if picked:
            alloc[tid] = picked
    steps["apply"] = time.perf_counter() - t0

    # carry smoothing state forward
    carry.prev_shares = shares
    if depth is not None:
        carry.prev_depth = depth

    diagnostics = {
        "t": obs.tick,
        "user": obs.user_id,
        "rho": [float(s) for s in shares],
        "nu": [float(f) for f in fractions],
        "mu_hat": counts,
        "mu_tilde": total,
        "zeta": depth,
        "theta": theta,
        "lambda": peak,
        "sigma": predicted,
        "mu": final,
    }
    return Decision(alloc=alloc, dealloc=dealloc, plan=None,
                    diagnostics=diagnostics, step_seconds=steps)


class PfaPolicy(Policy):
    """Throughput-profiled autoscaler with dynamic task placement."""

    mode = "dynamic"

    def __init__(self, config: PfaConfig | None = None):
        self.config = config or PfaConfig()
        self.name = f"pfa-{self.config.smoothing}"
        self._carry: dict[str, PfaState] = {}

    def decide(self, view: PolicyView) -> Decision:
        # Only the runtime-free facade and the view's scalars are consulted:
        # the firewall against runtime knowledge is structural.
        if view.observation is None:
            raise ValueError("PFA requires an observation facade")
        t0 = time.perf_counter()
        obs, carry = self.observe(view)
        observe_s = time.perf_counter() - t0
        decision = pfa_decide(obs, self.config, carry)
        decision.step_seconds = {"observe": observe_s, **decision.step_seconds}
        return decision

    def observe(self, view: PolicyView) -> tuple[PfaObservation, PfaState]:
        """Record the interval that just ended, then snapshot the user.

        The carry starts fresh at tick 0. Later decisions record the tasks
        finished since the previous one against the machines allocated now:
        only applied decisions change allocations, so these were held
        through the whole interval."""
        facade = view.observation
        type_ids = tuple(t.id for t in view.config.types)
        counts = facade.counts_by_type()
        allocated = {t: counts[t]["allocated"] for t in type_ids}
        finished = facade.finished_by_type()
        carry = self._carry.get(facade.user_id)
        if carry is None or view.tick == 0:
            history = ThroughputHistory(type_ids, self.config.history_window())
            carry = self._carry[facade.user_id] = PfaState(history=history)
        else:
            carry.history.record(
                {t: finished[t] - carry.finished[t] for t in type_ids}, allocated
            )
        carry.finished = finished
        nodes, edges = facade.joint_dag()
        obs = PfaObservation(
            now=view.now,
            tick=view.tick,
            user_id=facade.user_id,
            budget=view.user.budget,
            types=tuple((t.id, t.cost) for t in view.config.types),
            allocated=allocated,
            idle={t: tuple(IdleInfo._make(i) for i in facade.idle(t)) for t in type_ids},
            free_ids={t: facade.free_ids(t) for t in type_ids},
            joint_nodes=tuple(nodes),
            joint_edges=tuple(edges),
            history=carry.history,
        )
        return obs, carry


__all__ = [
    "IdleInfo",
    "PfaConfig",
    "PfaObservation",
    "PfaPolicy",
    "PfaState",
    "ThroughputHistory",
    "equal_shares",
    "instant_shares",
    "lookahead_depth_ewma",
    "lookahead_depth_ma",
    "pfa_decide",
    "predict_demand",
    "profile_supply",
    "reconcile_profile",
    "smooth_shares_ewma",
    "smooth_shares_ma",
    "tba_propagate",
]
