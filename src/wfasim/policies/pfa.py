"""Proactive feedback autoscaler.

Chooses per-type resource counts for the next interval from two signals
only: the user's historical task throughput per resource type, and the
structure of the user's unfinished workflow DAG. The policy is deliberately
blind to runtime estimates: it builds its :class:`PfaObservation`, which
carries no runtime information at all, from the runtime-free user facade
and the throughput history it keeps itself.

All ratio arithmetic is exact, so floor/ceil decisions never depend on float
rounding. Inside a decision a vector of ratios is a list of integer
numerators over one shared positive denominator (a ``_Ratios`` pair); the
public helpers take and return :class:`~fractions.Fraction` values.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

from ..model import BudgetTooSmall
from .base import Decision, Policy, PolicyView, pick_free

TaskRef = Hashable  # a task handle from the user facade, or any DAG node id
_Ratios = tuple[list[int], int]  # (numerators, common denominator > 0)


class _HistoryEntry(NamedTuple):
    """One finished interval, fixed the moment it ends: the throughput of
    type i is ``tau[i] / den``, and ``total`` is ``sum(tau)``. When the total
    is positive, ``tau[i] / total`` is the type's instant share."""

    tau: tuple[int, ...]
    den: int
    total: int


def _ceil_div(num: int, den: int) -> int:
    return -(-num // den)


def _ratios(values: Iterable[Fraction | int]) -> _Ratios:
    values = list(values)
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _fractions(ratios: _Ratios) -> list[Fraction]:
    nums, den = ratios
    return [Fraction(n, den) for n in nums]


def _equal(n: int) -> _Ratios:
    return [1] * n, n


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
        held = [int(allocated.get(t, 0)) for t in self.type_ids]
        den = math.lcm(*(n for n in held if n > 0))
        tau = tuple(
            int(completed.get(t, 0)) * (den // n) if n > 0 else 0
            for t, n in zip(self.type_ids, held)
        )
        self._rows.append(_HistoryEntry(tau, den, sum(tau)))

    def __len__(self) -> int:
        return len(self._rows)

    def _entry(self, lag: int) -> _HistoryEntry | None:
        if lag < 0 or lag >= len(self._rows):
            return None
        return self._rows[-1 - lag]

    def _recent(self, depth: int) -> list[_HistoryEntry]:
        """Entries for lags 0..depth, stopping where history runs out."""
        return list(islice(reversed(self._rows), depth + 1))

    def throughput(self, lag: int = 0) -> list[Fraction] | None:
        """Tasks completed per allocated resource at the given lag.

        Returns one value per type (zero where nothing was allocated), or
        None when the history does not reach back that far.
        """
        entry = self._entry(lag)
        return None if entry is None else [Fraction(t, entry.den) for t in entry.tau]


@dataclass(frozen=True)
class PfaObservation:
    """Everything the autoscaler may look at. No runtimes, by construction.

    The unfinished DAG is seen from its frontier: the tasks with no
    unfinished parent (running ones included), each task's children, and
    each task's count of unfinished parents. Idle machines and free ids are
    read per type, and only for the types a decision acts on."""

    tick: int
    user_id: str
    budget: int
    types: tuple[tuple[str, int], ...]  # (type id, cost per interval)
    allocated: Mapping[str, int]  # reserved count per type
    idle: Callable[[str], Iterable[tuple[int, int]]]  # (id, idle since) of a type's idle machines
    free_ids: Callable[[str], Sequence[int]]  # unreserved ids of a type, lowest first
    frontier: tuple[TaskRef, ...]
    children: Callable[[TaskRef], Sequence[TaskRef]]
    unfinished_parents: Callable[[TaskRef], int]
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


@dataclass
class PfaState:
    """Carried between ticks: previous smoothed shares and lookahead depth,
    the throughput history, and the per-type finished counts last seen."""

    prev_shares: _Ratios | None = None
    prev_depth: int = 1
    history: ThroughputHistory | None = None
    finished: Mapping[str, int] = field(default_factory=dict)


def equal_shares(n: int) -> list[Fraction]:
    return [Fraction(1, n) for _ in range(n)]


def _smooth_ma(window: list[_HistoryEntry], n_types: int) -> _Ratios:
    retained = [e for e in window if e.total > 0]
    if not retained:
        return _equal(n_types)
    # sum of tau[i] / total over the retained entries, over their lcm
    den = math.lcm(*(e.total for e in retained))
    sums = [0] * n_types
    for e in retained:
        scale = den // e.total
        for i, t in enumerate(e.tau):
            sums[i] += t * scale
    if 0 in sums:
        return _equal(n_types)
    return sums, den * len(retained)


def smooth_shares_ma(
    history: ThroughputHistory, depth: int, n_types: int
) -> list[Fraction]:
    """Average the instant shares over intervals within the lookback that had
    any throughput. If no interval qualifies, or any type never appears with
    throughput in the retained set, every type gets an equal share."""
    return _fractions(_smooth_ma(history._recent(depth), n_types))


def _smooth_ewma(
    entry: _HistoryEntry | None, prev: _Ratios | None, alpha: Fraction, n_types: int
) -> _Ratios:
    if entry is None or 0 in entry.tau:
        return _equal(n_types)
    a, b = alpha.numerator, alpha.denominator
    prev_nums, prev_den = prev if prev is not None else _equal(n_types)
    # a/b * p/prev_den + (b-a)/b * t/total, over b * prev_den * total
    nums = [
        a * p * entry.total + (b - a) * t * prev_den
        for p, t in zip(prev_nums, entry.tau)
    ]
    den = b * prev_den * entry.total
    g = math.gcd(den, *nums)
    return [x // g for x in nums], den // g


def smooth_shares_ewma(
    history: ThroughputHistory, prev: Sequence[Fraction] | None, alpha: Fraction, n_types: int
) -> list[Fraction]:
    """Exponentially weighted update of the share vector. Falls back to equal
    shares whenever any type had no throughput in the interval that just
    ended (including the cold start)."""
    prev_ratios = None if prev is None else _ratios(prev)
    return _fractions(_smooth_ewma(history._entry(0), prev_ratios, alpha, n_types))


def _profile(
    shares: _Ratios, costs: Sequence[int], budget: int
) -> tuple[list[int], int, list[int], int]:
    """(cost-weighted share numerators, their sum, counts, total count)."""
    if budget < max(costs):
        raise BudgetTooSmall(f"budget {budget} below max type cost {max(costs)}")
    weighted = [q * s for q, s in zip(costs, shares[0])]
    denom = sum(weighted)
    if denom == 0:
        counts = [0] * len(weighted)
    else:
        # floor(budget * (w / denom) / q)
        counts = [budget * w // (denom * q) for w, q in zip(weighted, costs)]
    return weighted, denom, counts, sum(counts)


def profile_supply(
    shares: Sequence[Fraction], costs: Sequence[int], budget: int
) -> tuple[list[Fraction], list[int], int]:
    """Split the budget across types weighted by cost-scaled shares.

    Returns (budget fractions, affordable instance counts, total count).
    Requires the budget to cover at least one instance of the priciest type.
    """
    weighted, denom, counts, total = _profile(_ratios(shares), costs, budget)
    fractions = [Fraction(w, denom) if denom else Fraction(0) for w in weighted]
    return fractions, counts, total


def tba_walk(
    frontier: Sequence[TaskRef],
    children: Callable[[TaskRef], Iterable[TaskRef]],
    unfinished_parents: Callable[[TaskRef], int],
    depth: int | None,
) -> tuple[int, int, list[int]]:
    """Token-based demand assessment, walking only the waves it counts.

    Tokens start on the frontier (tasks with no unfinished parents; this
    includes tasks currently running) as wave 1. Each following wave covers
    tasks whose parents all hold tokens: a task joins once its local copy of
    the unfinished-parent count falls to zero. Stops after ``depth`` waves,
    or at exhaustion when depth is None. Nothing beyond the last counted wave
    is read, and no in-degree table is built.

    Returns (total tokenized, peak wave size, wave sizes).
    """
    if depth is not None and depth < 1:
        return 0, 0, []
    waves: list[int] = []
    left: dict[TaskRef, int] = {}  # decremented copies of the parent counts
    wave = frontier
    while wave:
        waves.append(len(wave))
        if len(waves) == depth:
            break
        nxt: list[TaskRef] = []
        for ref in wave:
            for child in children(ref):
                count = left.get(child)
                if count is None:
                    count = unfinished_parents(child)
                count -= 1
                if count == 0:
                    nxt.append(child)
                else:
                    left[child] = count
        wave = nxt
    return sum(waves), max(waves, default=0), waves


def tba_propagate(
    nodes: Sequence[TaskRef],
    edges: Sequence[tuple[TaskRef, TaskRef]],
    depth: int | None,
) -> tuple[int, int, list[int]]:
    """Token-based demand assessment over an explicit DAG: derives the
    frontier, children and in-degrees from the edge list and runs
    :func:`tba_walk`, the walk PFA runs on the user's unfinished DAG."""
    indeg = dict.fromkeys(nodes, 0)
    children: dict[TaskRef, list[TaskRef]] = {}
    for a, b in edges:
        indeg[b] += 1
        children.setdefault(a, []).append(b)
    frontier = [n for n in nodes if indeg[n] == 0]
    return tba_walk(frontier, lambda n: children.get(n, ()), indeg.__getitem__, depth)


def _lookahead_ma(window: list[_HistoryEntry]) -> tuple[int | None, tuple[int, int] | None]:
    """(depth, mean) from the mean of every per-type throughput in the
    intervals that had any; the mean is a (numerator, denominator) pair, and
    both are None when there is no such value."""
    retained = [e for e in window if e.total > 0]
    if not retained:
        return None, None
    den = math.lcm(*(e.den for e in retained))
    num = sum(e.total * (den // e.den) for e in retained)
    den *= sum(len(e.tau) for e in retained)
    return _ceil_div(num, den), (num, den)


def _lookahead_ewma(
    entry: _HistoryEntry | None, prev_depth: int, alpha: Fraction
) -> tuple[int | None, tuple[int, int] | None]:
    """(EWMA depth, mean) of the newest interval; both None when it had none."""
    if entry is None or entry.total == 0:
        return None, None
    num, den = entry.total, entry.den * len(entry.tau)  # the mean throughput
    a, b = alpha.numerator, alpha.denominator
    # ceil(a/b * prev_depth + (b-a)/b * num/den)
    return _ceil_div(a * prev_depth * den + (b - a) * num, b * den), (num, den)


def _predict(theta: int, peak: int, mean: tuple[int, int] | None) -> int:
    """Demand: tokenized tasks over the mean throughput, else the peak wave."""
    if mean is None:
        return peak
    return _ceil_div(theta * mean[1], mean[0])


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
        return [_ceil_div(predicted * c, total) for c in counts]

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
    if config.smoothing == "ma":
        window = obs.history._recent(config.ma_depth)
        shares = _smooth_ma(window, n)
    else:
        alpha = config.alpha_fraction()
        entry = obs.history._entry(0)
        shares = _smooth_ewma(entry, carry.prev_shares, alpha, n)
    steps["smooth"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    weighted, denom, counts, total = _profile(shares, costs, obs.budget)
    steps["profile"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if config.smoothing == "ma":
        depth, mean = _lookahead_ma(window)
    else:
        depth, mean = _lookahead_ewma(entry, carry.prev_depth, alpha)
    theta, peak, _waves = tba_walk(
        obs.frontier, obs.children, obs.unfinished_parents, depth
    )
    predicted = _predict(theta, peak, mean)
    steps["predict"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    final = reconcile_profile(counts, predicted, costs, obs.budget)
    steps["reconcile"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    dealloc: list[int] = []
    kept: dict[str, int] = {}
    for i, tid in enumerate(type_ids):
        have = obs.allocated.get(tid, 0)
        kept[tid] = have
        surplus = have - final[i]
        if surplus <= 0:
            continue
        # longest idle first, ties to the lower id
        chosen = sorted((since, rid) for rid, since in obs.idle(tid))[:surplus]
        dealloc.extend(rid for _since, rid in chosen)
        kept[tid] = have - len(chosen)

    # cheapest first; the stable sort keeps equal-cost types in config order
    picked = pick_free(
        obs.free_ids,
        sorted(obs.types, key=lambda t: t[1]),
        {tid: final[i] - kept[tid] for i, tid in enumerate(type_ids)},
        obs.budget - sum(kept[tid] * q for tid, q in obs.types),
    )
    steps["apply"] = time.perf_counter() - t0

    # carry smoothing state forward
    carry.prev_shares = shares
    if depth is not None:
        carry.prev_depth = depth

    share_nums, share_den = shares
    diagnostics = {
        "t": obs.tick,
        "user": obs.user_id,
        # int / int rounds correctly, as float(Fraction) does
        "rho": [s / share_den for s in share_nums],
        "nu": [w / denom if denom else 0.0 for w in weighted],
        "mu_hat": counts,
        "mu_tilde": total,
        "zeta": depth,
        "theta": theta,
        "lambda": peak,
        "sigma": predicted,
        "mu": final,
    }
    return Decision(alloc=[rid for rid, _t in picked], dealloc=dealloc, plan=None,
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
        if not obs.types:  # no machine to reserve, so nothing to decide
            return Decision(step_seconds={"observe": observe_s})
        decision = pfa_decide(obs, self.config, carry)
        decision.step_seconds = {"observe": observe_s, **decision.step_seconds}
        return decision

    def observe(self, view: PolicyView) -> tuple[PfaObservation, PfaState]:
        """Record the interval that just ended, then snapshot the user.

        The carry starts fresh at tick 0. Later decisions record the tasks
        finished since the previous one against the machines allocated now:
        only applied decisions change allocations, so these were held
        through the whole interval. Only types with machines are listed."""
        facade = view.observation
        types = tuple((t.id, t.cost) for t in view.config.types_with_machines())
        type_ids = tuple(t for t, _ in types)
        allocated = facade.counts_by_type()
        finished = facade.finished_by_type()
        carry = self._carry.get(facade.user_id)
        if carry is None or view.tick == 0:
            # MA reads the last ma_depth + 1 intervals, EWMA the last one
            history = ThroughputHistory(type_ids, self.config.ma_depth + 1)
            carry = self._carry[facade.user_id] = PfaState(history=history)
        else:
            carry.history.record(
                {t: finished[t] - carry.finished[t] for t in type_ids}, allocated
            )
        carry.finished = finished
        obs = PfaObservation(
            tick=view.tick,
            user_id=facade.user_id,
            budget=view.user.budget,
            types=types,
            allocated=allocated,
            idle=facade.idle,
            free_ids=facade.free_ids,
            frontier=facade.frontier(),
            children=facade.children,
            unfinished_parents=facade.unfinished_parents,
            history=carry.history,
        )
        return obs, carry


__all__ = [
    "PfaConfig",
    "PfaObservation",
    "PfaPolicy",
    "PfaState",
    "ThroughputHistory",
    "equal_shares",
    "pfa_decide",
    "profile_supply",
    "reconcile_profile",
    "smooth_shares_ewma",
    "smooth_shares_ma",
    "tba_propagate",
    "tba_walk",
]
