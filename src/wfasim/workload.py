"""Synthetic workload generation.

Workflows come from three structural recipes (a fan-out with an aggregation
chain, layered pipelines with barrier tasks, and a wide batch of short
branches with a join), sized by a clamped log-normal. Task runtimes are
log-normal in raw seconds, scaled down by an integer divisor with a 1 s
floor; a second runtime within a bounded deviation of the first covers the
other resource type.

All sampling is per workflow from a seed-derived stream, so any workflow is
reproducible from (seed, index) alone.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

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


def _fan_reduce(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    middle = n - 2
    agg = max(1, int(round(middle * float(rng.uniform(0.1, 0.3)))))
    if agg >= middle:
        agg = middle - 1
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


def _layered_pipelines(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    middle = n - 2
    width = int(rng.integers(2, max(3, min(12, middle // 2 + 1)) + 1))
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


def _wide_join(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    middle = n - 2
    edges = []
    nxt = 1
    remaining = middle
    while remaining > 0:
        length = 2 if remaining >= 2 and float(rng.random()) < 0.4 else 1
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

    def build(self, n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
        if n < 1:
            raise ValueError("workflow needs at least one task")
        if n <= 3:  # too small for a family's shape: a chain
            return [(i, i + 1) for i in range(n - 1)]
        return _BUILDERS[self.family](n, rng)


# -- generation -------------------------------------------------------------


def _task_runtimes(
    rng: np.random.Generator,
    types: tuple[str, str],
    model: RuntimeModel,
    rule: SecondTypeRule,
) -> dict[str, int]:
    raw = float(rng.lognormal(math.log(model.log_median), model.log_sigma))
    base = scale_runtimes(raw, model.scale_divisor)
    dev = float(rng.uniform(-rule.max_deviation, rule.max_deviation))
    second = max(1, math.floor(base * (1 + dev) + 0.5))
    if rule.random_assignment and float(rng.random()) < 0.5:
        return {types[0]: second, types[1]: base}
    return {types[0]: base, types[1]: second}


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
    runtime_model = runtime_model or RuntimeModel()
    size_model = size_model or SizeModel()
    seed_words = [seed] if isinstance(seed, int) else list(seed)
    rng = np.random.default_rng([*seed_words, index])
    size = int(
        np.clip(
            round(float(rng.lognormal(math.log(size_model.log_median), size_model.log_sigma))),
            size_model.min_tasks,
            size_model.max_tasks,
        )
    )
    edges_ix = recipe.build(size, rng)
    task_ids = [f"t{j:03d}" for j in range(size)]
    tasks = tuple(
        TaskSpec(task_ids[j], _task_runtimes(rng, types, runtime_model, rule))
        for j in range(size)
    )
    edges = tuple((task_ids[a], task_ids[b]) for a, b in edges_ix)
    priority = int(rng.integers(0, 10))
    user = users[int(rng.integers(0, len(users)))]
    return WorkflowSpec(
        id=f"{id_prefix}{index:04d}",
        user=user,
        priority=priority,
        arrival_s=0,
        tasks=tasks,
        edges=edges,
    )


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
    if len(types) != 2 or types[0] == types[1]:
        raise ValueError(f"the runtime rules need two distinct types, got {list(types)}")
    if isinstance(rule, str):
        rule = second_type_rule(rule)
    runtime_model = runtime_model or RuntimeModel()
    size_model = size_model or SizeModel()
    recipes = [DagRecipe(f) for f in families]
    return [
        generate_workflow(
            i,
            recipes[i % len(recipes)],
            users,
            types,
            rule,
            runtime_model,
            size_model,
            seed,
            id_prefix,
        )
        for i in range(count)
    ]


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
            values = list(t.runtime_by_type.values())
            task_avgs.append(sum(values) / len(values))
            for tid, rt in t.runtime_by_type.items():
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
