"""Shared builders for test workloads and systems."""

from __future__ import annotations

import json
from pathlib import Path

from wfasim.model import (
    ResourceType,
    SystemConfig,
    TaskSpec,
    UserConfig,
    WorkflowSpec,
    workflow_to_dict,
)
from wfasim.policies import Decision, Policy

SMALL = ResourceType("small", 1)
LARGE = ResourceType("large", 5)


def two_type_system(small=8, large=8, interval_s=60, boot_delay_s=0) -> SystemConfig:
    return SystemConfig(
        types=(SMALL, LARGE),
        capacity={"small": small, "large": large},
        interval_s=interval_s,
        boot_delay_s=boot_delay_s,
    )


def small_only_system(count=4, interval_s=60, boot_delay_s=0) -> SystemConfig:
    return SystemConfig(
        types=(SMALL,),
        capacity={"small": count},
        interval_s=interval_s,
        boot_delay_s=boot_delay_s,
    )


def wf(wf_id, tasks, edges=(), user="u1", priority=5, arrival_s=0) -> WorkflowSpec:
    """tasks: list of (task_id, {type: runtime}) pairs."""
    specs = tuple(TaskSpec(tid, dict(rts)) for tid, rts in tasks)
    return WorkflowSpec(
        wf_id, user, priority, arrival_s, specs, tuple(tuple(e) for e in edges)
    )


def chain_wf(wf_id, runtimes, **kw) -> WorkflowSpec:
    """A linear chain; runtimes is a list of {type: seconds} dicts."""
    tasks = [(f"t{i}", dict(r)) for i, r in enumerate(runtimes)]
    edges = [(f"t{i}", f"t{i+1}") for i in range(len(runtimes) - 1)]
    return wf(wf_id, tasks, edges, **kw)


def diamond_wf(wf_id, entry, left, right, exit_, **kw) -> WorkflowSpec:
    tasks = [("a", entry), ("b", left), ("c", right), ("d", exit_)]
    edges = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    return wf(wf_id, tasks, edges, **kw)


def edge_maps(spec: WorkflowSpec) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """(parents, children) of every task id, each list in edge order, read
    from ``spec.edges`` alone: the reference side of graph and state tests."""
    parents: dict[str, list[str]] = {t.id: [] for t in spec.tasks}
    children: dict[str, list[str]] = {t.id: [] for t in spec.tasks}
    for p, c in spec.edges:
        parents[c].append(p)
        children[p].append(c)
    return parents, children


def reference_order(spec: WorkflowSpec) -> tuple[str, ...]:
    """Topological order by repeated scan: next comes the smallest task id
    not yet placed whose parents all are. A cycle ends the order early."""
    parents, _ = edge_maps(spec)
    order: list[str] = []
    placed: set[str] = set()
    while ready := [t for t, ps in parents.items() if t not in placed and placed.issuperset(ps)]:
        tid = min(ready)
        order.append(tid)
        placed.add(tid)
    return tuple(order)


def handle(state, wf_id, task_id) -> int:
    """The handle of one task of an arrived workflow: its run's base plus
    the task's topological index."""
    run = state.runs[wf_id]
    return run.base + run.graph.topo_order.index(task_id)


def users(*pairs) -> list[UserConfig]:
    return [UserConfig(uid, budget) for uid, budget in pairs]


def save_instance(instance, path) -> None:
    """Write a ``mip`` instance as the file ``mip.load_instance`` reads."""
    doc = {
        "schema": "wfasim-mip-1",
        "slot_s": instance.slot_s,
        "slots": instance.slots,
        "slots_per_billing": instance.slots_per_billing,
        "budget": instance.budget,
        "resources": [{"type": r.rtype, "cost": r.cost} for r in instance.resources],
        "workflows": [workflow_to_dict(wf) for wf in instance.specs],
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


class HoldPolicy(Policy):
    """Reserves the lowest free ids of each type at tick 0, then never acts.

    counts: {type id: machines to hold}."""

    name = "hold"

    def __init__(self, counts):
        self.counts = counts

    def decide(self, view):
        if view.tick != 0:
            return Decision()
        free = view.observation.free_ids
        return Decision(alloc=[rid for t, n in self.counts.items() for rid in free(t)[:n]])
