"""Synthetic workload generation.

Workflows come from three structural recipes (a fan-out with an aggregation
chain, layered pipelines with barrier tasks, and a wide batch of short
branches with a join), sized by a clamped log-normal. Task runtimes are
log-normal in raw seconds, scaled down by an integer divisor with a 1 s
floor; a second runtime within a bounded deviation of the first covers the
other resource type.

All sampling is per workflow from a seed-derived stream, so any workflow is
reproducible from (seed, index) alone. The stream and its draws, in this
order, are the reproducibility contract:

0. the seed words (each a non-negative int) plus the index go through
   ``SeedSequence`` into a PCG64 stream, and the draws are those of numpy's
   ``Generator`` on it, made by :mod:`wfasim._pcg64` in pure Python;
1. the size's log-normal;
2. the family's shape draws (none for a chain of at most 3 tasks);
3. per task, in id order: the raw runtime's log-normal, then the deviation
   as ``lo + (hi - lo) * random()`` (one draw, the value of
   ``uniform(lo, hi)``), then, under a rule with random assignment (WL1),
   the swap's ``random()``; one bulk call makes all of a workflow's task
   draws;
4. the priority, then the user.

A change to any draw, its order or how it becomes a value changes the
generated bytes; ``tests/test_workload.py`` pins them. The generated bytes
no longer depend on the installed numpy, or on whether numpy is installed
at all: they are those numpy 2.4 draws, and ``tests/test_pcg64.py`` checks
the draws against the installed numpy where there is one.

The workflows of one :func:`generate_workload` call share their task id
strings and their ``(parent id, child id)`` edge pairs: equal ids and equal
edges are one object. Their tasks share one ``types`` tuple, the two type
ids (a WL1 swap reorders the runtimes, not the types), and equal
``runtimes`` tuples are one object too: no task holds a dict. Equal tasks,
the same id with the same runtimes, are one ``TaskSpec``. Specs are never
mutated, so the sharing shows only in memory.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import dataclass

from ._pcg64 import Generator as Rng
from .model import TaskSpec, WorkflowSpec, min_runtime

FAMILIES = ("fan-reduce", "layered-pipelines", "wide-join")

# log-normal parameters chosen so a large generated sample lands near
# mean 74 / median 38 / std 95 tasks per workflow
SIZE_LOG_MEDIAN = 38.0
SIZE_LOG_SIGMA = 1.2
SIZE_MIN = 4
SIZE_MAX = 500

# raw seconds before the /30 scale; tuned for scaled mean ~6.3 s, median ~1.5 s
RAW_RUNTIME_LOG_MEDIAN = 50.0
RAW_RUNTIME_LOG_SIGMA = 1.6
SCALE_DIVISOR = 30


def scale_runtimes(raw_seconds: float, divisor: int = SCALE_DIVISOR) -> int:
    """Scale a raw runtime down to simulation seconds: half-up, 1 s floor."""
    if raw_seconds <= 0:
        raise ValueError("raw runtime must be positive")
    return max(1, math.floor(raw_seconds / divisor + 0.5))


def _check_log_normal(model: object) -> None:
    if not 0 < model.log_median < math.inf:  # NaN fails both comparisons
        raise ValueError(f"log_median must be a finite number > 0, got {model.log_median}")
    if not 0 <= model.log_sigma < math.inf:
        raise ValueError(f"log_sigma must be a finite number >= 0, got {model.log_sigma}")


@dataclass(frozen=True)
class RuntimeModel:
    log_median: float = RAW_RUNTIME_LOG_MEDIAN
    log_sigma: float = RAW_RUNTIME_LOG_SIGMA
    scale_divisor: int = SCALE_DIVISOR

    def __post_init__(self) -> None:
        _check_log_normal(self)
        if self.scale_divisor < 1:
            raise ValueError(f"scale_divisor must be >= 1, got {self.scale_divisor}")


@dataclass(frozen=True)
class SizeModel:
    log_median: float = SIZE_LOG_MEDIAN
    log_sigma: float = SIZE_LOG_SIGMA
    min_tasks: int = SIZE_MIN
    max_tasks: int = SIZE_MAX

    def __post_init__(self) -> None:
        _check_log_normal(self)
        if not 1 <= self.min_tasks <= self.max_tasks:
            raise ValueError(f"need 1 <= min_tasks <= max_tasks, "
                             f"got {self.min_tasks} and {self.max_tasks}")


@dataclass(frozen=True)
class SecondTypeRule:
    """How the second resource type's runtime relates to the first.

    The second runtime is base * (1 + d) with d uniform in
    [-max_deviation, +max_deviation], rounded half-up, floored at 1 s.
    With random_assignment the pair is shuffled over the two types;
    otherwise the deviated runtime always lands on the second type.
    """

    name: str
    max_deviation: float
    random_assignment: bool


WL1 = SecondTypeRule("wl1", 0.5, True)
WL2 = SecondTypeRule("wl2", 1.0, False)

_RULES = {"wl1": WL1, "wl2": WL2}


def second_type_rule(name: str) -> SecondTypeRule:
    try:
        return _RULES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown runtime rule {name!r}; expected wl1 or wl2") from None


# -- DAG recipes -----------------------------------------------------------
# Each builder returns edges over node indices 0..n-1 where node 0 is the
# single entry and node n-1 the single exit, for n >= 4.


def _fan_reduce(n: int, rng: Rng) -> list[tuple[int, int]]:
    middle = n - 2
    # n >= 4, so middle >= 2 and agg <= max(1, round(0.3 * middle)) < middle
    agg = max(1, int(round(middle * rng.uniform(0.1, 0.3))))
    workers = middle - agg
    edges = []
    first_agg = 1 + workers
    for w in range(1, 1 + workers):
        edges.append((0, w))
        edges.append((w, first_agg))
    for a in range(first_agg, first_agg + agg - 1):
        edges.append((a, a + 1))
    edges.append((first_agg + agg - 1, n - 1))
    return edges


def _layered_pipelines(n: int, rng: Rng) -> list[tuple[int, int]]:
    middle = n - 2
    width = rng.integers(2, max(3, min(12, middle // 2 + 1)) + 1)
    layers: list[list[int]] = []
    nxt = 1
    remaining = middle
    while remaining > 0:
        take = min(width, remaining)
        layers.append(list(range(nxt, nxt + take)))
        nxt += take
        remaining -= take
        if remaining > 0:  # barrier between parallel layers
            layers.append([nxt])
            nxt += 1
            remaining -= 1
    edges = []
    prev = [0]
    for layer in layers:
        for a in prev:
            for b in layer:
                edges.append((a, b))
        prev = layer
    for a in prev:
        edges.append((a, n - 1))
    return edges


def _wide_join(n: int, rng: Rng) -> list[tuple[int, int]]:
    middle = n - 2
    edges = []
    nxt = 1
    remaining = middle
    while remaining > 0:
        length = 2 if remaining >= 2 and rng.random() < 0.4 else 1
        head = nxt
        edges.append((0, head))
        for i in range(length - 1):
            edges.append((nxt + i, nxt + i + 1))
        nxt += length
        remaining -= length
        edges.append((nxt - 1, n - 1))
    return edges


_BUILDERS = {
    "fan-reduce": _fan_reduce,
    "layered-pipelines": _layered_pipelines,
    "wide-join": _wide_join,
}


@dataclass(frozen=True)
class DagRecipe:
    family: str

    def __post_init__(self):
        if self.family not in _BUILDERS:
            raise ValueError(
                f"unknown workflow family {self.family!r}; expected one of {FAMILIES}"
            )

    def build(self, n: int, rng: Rng) -> list[tuple[int, int]]:
        if n < 1:
            raise ValueError("workflow needs at least one task")
        if n <= 3:  # too small for a family's shape: a chain
            return [(i, i + 1) for i in range(n - 1)]
        return _BUILDERS[self.family](n, rng)


# -- generation -------------------------------------------------------------

_NO_SWAP = itertools.repeat(1.0)  # a swap draw that never swaps, for rules without one


class _Generator:
    """What the workflows of one generator call share: the models'
    constants, one id string per task position, grown as sizes need, one
    ``(parent id, child id)`` pair per pair of positions, made the first
    time an edge needs it, the tuple of the two type ids, one tuple per
    distinct pair of runtimes, and one task per position and pair of
    runtimes, made the first time a workflow needs it."""

    def __init__(
        self,
        users: list[str],
        types: tuple[str, str],
        rule: SecondTypeRule,
        runtime_model: RuntimeModel,
        size_model: SizeModel,
        seed: int | list[int],
        id_prefix: str,
    ):
        if len(types) != 2 or types[0] == types[1]:
            raise ValueError(f"the runtime rules need two distinct types, got {list(types)}")
        self.users, self.types, self.rule = users, tuple(types), rule
        self.runtime_model, self.size_model = runtime_model, size_model
        self.seed_words = list(seed) if isinstance(seed, (list, tuple)) else [seed]
        for word in self.seed_words:
            if not isinstance(word, int) or isinstance(word, bool) or word < 0:
                raise ValueError(f"seed words must be non-negative ints, got {word!r}")
        self.id_prefix = id_prefix
        self.runtimes: dict[tuple[int, int], tuple[int, int]] = {}
        self.task_ids: list[str] = []
        self.edge_pairs: list[dict[int, tuple[str, str]]] = []  # by parent position
        self.task_specs: list[dict[tuple[int, int], TaskSpec]] = []  # by position

    def workflow(self, index: int, recipe: DagRecipe) -> WorkflowSpec:
        """Build one workflow, reproducible from (seed, index) alone."""
        rng = Rng([*self.seed_words, index])
        sizes = self.size_model
        size = round(rng.lognormal(math.log(sizes.log_median), sizes.log_sigma))
        size = min(max(size, sizes.min_tasks), sizes.max_tasks)
        edges_ix = recipe.build(size, rng)
        ids, pairs, specs = self.task_ids, self.edge_pairs, self.task_specs
        if len(ids) < size:
            ids.extend(f"t{j:03d}" for j in range(len(ids), size))
            pairs.extend({} for _ in range(len(pairs), size))
            specs.extend({} for _ in range(len(specs), size))
        edges = []
        for a, b in edges_ix:
            row = pairs[a]
            pair = row.get(b)
            if pair is None:
                pair = row[b] = (ids[a], ids[b])
            edges.append(pair)

        model, rule, floor = self.runtime_model, self.rule, math.floor
        mu, sigma, divisor = math.log(model.log_median), model.log_sigma, model.scale_divisor
        # the deviation is uniform(lo, hi), that is lo + (hi - lo) * random()
        lo = -rule.max_deviation
        span = rule.max_deviation - lo
        swap = rule.random_assignment
        draws = iter(rng.task_draws(size, mu, sigma, 2 if swap else 1))
        types, task, share = self.types, TaskSpec.aligned, self.runtimes.setdefault
        tasks = []
        for task_id, shared, raw, deviation, flip in zip(ids[:size], specs, draws, draws,
                                                         draws if swap else _NO_SWAP):
            base = scale_runtimes(raw, divisor)
            other = max(1, floor(base * (1 + (lo + span * deviation)) + 0.5))
            pair = (other, base) if flip < 0.5 else (base, other)
            spec = shared.get(pair)
            if spec is None:
                pair = share(pair, pair)
                spec = shared[pair] = task(task_id, types, pair)
            tasks.append(spec)

        priority = rng.integers(0, 10)
        user = self.users[rng.integers(0, len(self.users))]
        return WorkflowSpec(
            id=f"{self.id_prefix}{index:04d}",
            user=user,
            priority=priority,
            arrival_s=0,
            tasks=tuple(tasks),
            edges=tuple(edges),
        )


def generate_workflow(
    index: int,
    recipe: DagRecipe,
    users: list[str],
    types: tuple[str, str],
    rule: SecondTypeRule,
    runtime_model: RuntimeModel | None = None,
    size_model: SizeModel | None = None,
    seed: int | list[int] = 0,
    id_prefix: str = "wf",
) -> WorkflowSpec:
    """Build one workflow, reproducible from (seed, index) alone."""
    return _Generator(
        users, types, rule, runtime_model or RuntimeModel(), size_model or SizeModel(),
        seed, id_prefix,
    ).workflow(index, recipe)


def generate_workload(
    count: int,
    users: list[str],
    rule: SecondTypeRule | str = WL1,
    families: tuple[str, ...] = FAMILIES,
    types: tuple[str, str] = ("small", "large"),
    runtime_model: RuntimeModel | None = None,
    size_model: SizeModel | None = None,
    seed: int | list[int] = 0,
    id_prefix: str = "wf",
) -> list[WorkflowSpec]:
    """Generate a mixed workload, cycling through the recipe families.

    All arrival times are 0; re-stamp them with poisson_arrivals for a
    utilization-targeted arrival process.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not users:
        raise ValueError("at least one user required")
    if isinstance(rule, str):
        rule = second_type_rule(rule)
    gen = _Generator(
        users, types, rule, runtime_model or RuntimeModel(), size_model or SizeModel(),
        seed, id_prefix,
    )
    recipes = [DagRecipe(f) for f in families]
    return [gen.workflow(i, recipes[i % len(recipes)]) for i in range(count)]


def workload_statistics(workflows: list[WorkflowSpec]) -> dict[str, float]:
    """Summary statistics over a workload.

    Task runtimes are averaged over the resource types before the
    mean/median, matching how the targets are stated.
    """
    sizes = [len(wf.tasks) for wf in workflows]
    task_avgs: list[float] = []
    per_type_sums: dict[str, int] = {}
    per_type_counts: dict[str, int] = {}
    totals_fastest = []
    for wf in workflows:
        totals_fastest.append(sum(min_runtime(t) for t in wf.tasks))
        for t in wf.tasks:
            values = t.runtimes
            task_avgs.append(sum(values) / len(values))
            for tid, rt in zip(t.types, values):
                per_type_sums[tid] = per_type_sums.get(tid, 0) + rt
                per_type_counts[tid] = per_type_counts.get(tid, 0) + 1
    return {
        "workflows": len(workflows),
        "mean_tasks": statistics.fmean(sizes),
        "median_tasks": statistics.median(sizes),
        "std_tasks": statistics.pstdev(sizes),
        "mean_runtime": statistics.fmean(task_avgs),
        "median_runtime": statistics.median(task_avgs),
        "mean_runtime_by_type": {
            tid: per_type_sums[tid] / per_type_counts[tid] for tid in sorted(per_type_sums)
        },
        "mean_total_fastest_runtime": statistics.fmean(totals_fastest),
    }


__all__ = [
    "FAMILIES",
    "DagRecipe",
    "RuntimeModel",
    "SecondTypeRule",
    "SizeModel",
    "WL1",
    "WL2",
    "generate_workflow",
    "generate_workload",
    "scale_runtimes",
    "second_type_rule",
    "workload_statistics",
]
