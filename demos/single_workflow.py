"""Walk one diamond-shaped workflow through the simulator, step by step.

A four-task DAG (prepare -> two parallel transforms -> merge) arrives at
t=0 for a user with a 12-unit budget. The feedback autoscaler starts blind:
it has no throughput history, so its first profile is an equal budget split
across the two resource types. As intervals complete, the printed diagnostic
stream shows the share vector (rho), the demand prediction (sigma), and the
final per-type allocation (mu) adapting to what actually ran.

Run:  python3 demos/single_workflow.py
"""

from wfasim import engine
from wfasim.dagops import ideal_makespan
from wfasim.model import ResourceType, SystemConfig, TaskSpec, UserConfig, WorkflowSpec
from wfasim.policies import PfaPolicy


def diamond() -> WorkflowSpec:
    tasks = (
        TaskSpec("prepare", {"small": 90, "large": 45}),
        TaskSpec("transform-a", {"small": 120, "large": 60}),
        TaskSpec("transform-b", {"small": 150, "large": 75}),
        TaskSpec("merge", {"small": 60, "large": 30}),
    )
    edges = (
        ("prepare", "transform-a"),
        ("prepare", "transform-b"),
        ("transform-a", "merge"),
        ("transform-b", "merge"),
    )
    return WorkflowSpec(
        id="diamond", user="alice", priority=5, arrival_s=0, tasks=tasks, edges=edges
    )


def main() -> None:
    system = SystemConfig(
        types=(ResourceType("small", 1), ResourceType("large", 5)),
        capacity={"small": 6, "large": 2},
        interval_s=60,
    )
    workflow = diamond()
    print("One workflow, four tasks, 60 s autoscaling/billing intervals.")
    print(f"Ideal makespan on the fastest type: {ideal_makespan(workflow)} s\n")

    result = engine.run(
        [workflow], system, [UserConfig("alice", 12)], PfaPolicy(), seed=1
    )

    trace = result.trace  # parsed from the run's trace file on each read
    print("Event trace (time, event, task, resource type):")
    for row in trace:
        time_s, event, _user, _wf, task, _res, rtype, detail = row
        label = task or detail or ""
        print(f"  {time_s:>5} s  {event:<14} {label:<14} {rtype or ''}")

    print("\nAutoscaler diagnostics per decision:")
    print("  tick  shares rho (small, large)   predicted sigma   allocation mu")
    for d in result.diagnostics:
        rho = ", ".join(f"{v:.2f}" for v in d["rho"])
        print(f"  {d['t']:>4}  ({rho})          {d['sigma']:>8}          {d['mu']}")

    finish = next(row[0] for row in trace if row[1] == "workflow_done")
    slowdown = result.mean_slowdown()
    print(f"\nWorkflow finished at {finish} s; slowdown vs ideal = {slowdown:.2f}.")
    total_cost = sum(result.cost_series["alice"])
    print(f"Total reserved cost: {total_cost} units, never above 12 per interval.")


if __name__ == "__main__":
    main()
