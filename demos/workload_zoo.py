"""The synthetic workload generator: three DAG families, two runtime rules.

Real scientific workflows are not random graphs; they come in recognizable
shapes. The generator cycles through three family recipes:

  fan-reduce          wide data-parallel stages funneling into reducers
  layered-pipelines   parallel chains with occasional cross-links
  wide-join           broad independent heads joined by a narrow tail

Sizes follow a heavy-tailed lognormal (median ~38 tasks, occasionally
hundreds), runtimes a scaled lognormal. Each task gets a runtime per
resource type: rule wl1 draws the second type within +/-50% of the first,
rule wl2 within +/-100% -- the second rule makes picking the right machine
type matter more.

Run:  python3 demos/workload_zoo.py [--seed S]
"""

import argparse
import collections
import statistics

from wfasim.dagops import WorkflowGraph, ideal_makespan, validate_workflow
from wfasim.workload import (
    FAMILIES,
    WL1,
    WL2,
    DagRecipe,
    generate_workflow,
    generate_workload,
    workload_statistics,
)


def level_profile(spec) -> list[int]:
    """Tasks per depth level, a cheap fingerprint of the DAG's shape."""
    level: list[int] = []  # by topological index
    for parents in WorkflowGraph(spec).parents:
        level.append(1 + max((level[p] for p in parents), default=-1))
    counts = collections.Counter(level)
    return [counts[i] for i in range(max(counts) + 1)]


def sketch(profile, width=40) -> str:
    peak = max(profile)
    lines = []
    runs = [(depth, count) for depth, count in enumerate(profile)]
    i = 0
    while i < len(runs):
        j = i
        while j + 1 < len(runs) and runs[j + 1][1] == runs[i][1]:
            j += 1
        depth, count = runs[i]
        label = f"level {depth:>3}" if i == j else f"levels {depth}-{runs[j][0]}"
        bar = "#" * max(1, round(count / peak * width))
        lines.append(f"    {label:<12} {bar} {count}{' each' if i != j else ''}")
        i = j + 1
    return "\n".join(lines)


def mid_sized(family: str, index: int, seed: int):
    """First draw from this family's stream with a sketchable size."""
    recipe = DagRecipe(family)
    for i in range(index, index + 60, len(FAMILIES)):
        spec = generate_workflow(
            i, recipe, users=["u1"], types=("small", "large"), rule=WL1, seed=seed
        )
        if 25 <= len(spec.tasks) <= 90:
            return spec
    return spec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    print("One mid-sized workflow per family (tasks per dependency level):\n")
    for i, family in enumerate(FAMILIES):
        spec = mid_sized(family, i, args.seed)
        assert validate_workflow(spec) == []
        profile = level_profile(spec)
        print(
            f"  {family}: {len(spec.tasks)} tasks, {len(spec.edges)} edges, "
            f"ideal makespan {ideal_makespan(spec)} s"
        )
        print(sketch(profile))
        print()

    print("Runtime rules over a 600-workflow draw (per-task mean seconds):")
    for rule, label in ((WL1, "wl1 (+/- 50%)"), (WL2, "wl2 (+/-100%)")):
        workflows = generate_workload(
            600, users=["u1", "u2"], rule=rule, seed=args.seed
        )
        stats = workload_statistics(workflows)
        spreads = []
        for w in workflows:
            for t in w.tasks:
                a, b = sorted(t.runtime_by_type.values())
                spreads.append(b / a)
        print(
            f"  {label:<14} mean runtime {stats['mean_runtime']:.2f} s, "
            f"mean size {stats['mean_tasks']:.1f} tasks, "
            f"mean slow/fast runtime ratio {statistics.fmean(spreads):.2f}"
        )


if __name__ == "__main__":
    main()
