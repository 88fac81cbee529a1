"""Integer-programming baseline for desk-size scheduling instances.

Time is a 1-based grid of equal slots grouped into billing intervals of a
fixed length. A schedule assigns each task one (resource, start slot) pair;
a workflow's completion is its last task's final slot. Profit rewards each
workflow 1 when it finishes by its earliest possible completion time and
penalizes each later slot linearly. A resource is billed for an interval
exactly when at least one of its slots is busy there.

The module builds instances from workflow specs, exports the model as LP
text, solves small instances exactly by branch and bound, validates
solutions constraint by constraint, and compares the optimal schedule
against simulated runs of the same workload.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .dagops import critical_path_length
from .engine import validate_inputs
from .metrics import slowdown
from .model import ModelError, WorkflowSpec, workflow_from_row
from .schema import INSTANCE, check


class HorizonTooShort(ModelError):
    """The slot horizon cannot fit even a trivial sequential schedule."""


class LimitExceeded(ModelError):
    """Instance is larger than the exact solver's configured limits."""


class Infeasible(ModelError):
    """No schedule satisfies the constraints."""


class WorkloadMismatch(ModelError):
    """Compared artifacts were built from different workloads."""


@dataclass(frozen=True)
class MipResource:
    index: int  # 1-based
    rtype: str
    cost: int


@dataclass(frozen=True)
class MipTask:
    index: int  # 1-based, parents always have lower indices
    wf_index: int
    wf_id: str
    task_id: str
    runtimes: tuple[int, ...]  # slots, one entry per resource
    parents: tuple[int, ...]  # task indices this task depends on


@dataclass(frozen=True)
class MipWorkflow:
    index: int  # 1-based
    wf_id: str
    arrival_slot: int
    earliest_completion: int  # arrival_slot + critical path slots - 1
    task_indices: tuple[int, ...]
    ideal_s: int  # the workflow's ideal makespan in seconds, off the grid


@dataclass(frozen=True)
class MipInstance:
    slot_s: int
    slots: int  # horizon T
    slots_per_billing: int  # L
    budget: int
    resources: tuple[MipResource, ...]
    tasks: tuple[MipTask, ...]
    workflows: tuple[MipWorkflow, ...]
    specs: tuple[WorkflowSpec, ...]

    @property
    def billing_intervals(self) -> int:
        return self.slots // self.slots_per_billing

    def task(self, index: int) -> MipTask:
        return self.tasks[index - 1]

    def workflow(self, index: int) -> MipWorkflow:
        return self.workflows[index - 1]


@dataclass
class MipSolution:
    x: tuple[tuple[int, int, int], ...]  # (task, resource, start slot)
    u: tuple[tuple[int, int], ...]  # (workflow, completion slot)
    y: dict[tuple[int, int], int]  # (resource, interval) -> 0/1
    z: dict[tuple[int, int], int]  # (resource, interval) -> busy slots
    profit: int

    def completions(self) -> dict[int, int]:
        return {w: t for w, t in self.u}


@dataclass(frozen=True)
class SolveLimits:
    max_tasks: int = 8
    max_resources: int = 4
    max_slots: int = 24


def _slots(runtime_s: int, slot_s: int) -> int:
    return max(1, math.floor(runtime_s / slot_s + 0.5))


def value_function(instance: MipInstance, wf_index: int, t: int) -> int:
    """Reward for finishing a workflow in slot t: 1 on time, linearly
    negative after the earliest possible completion."""
    if t < 1:
        raise ValueError("slots are 1-based")
    deadline = instance.workflow(wf_index).earliest_completion
    return 1 if t <= deadline else deadline - t


def trivial_horizon(
    workflows: list[WorkflowSpec],
    slot_s: int,
    budget: int,
    resources: list[tuple[str, int]],
) -> int:
    """Slots needed to run everything back to back on one resource of the
    type needing fewest slots among those the budget affords (all if none)."""
    affordable = [r for r in resources if r[1] <= budget] or list(resources)
    last_arrival = max(wf.arrival_s // slot_s + 1 for wf in workflows)
    return last_arrival - 1 + min(
        sum(_slots(t.runtimes[t.types.index(rtype)], slot_s) for wf in workflows for t in wf.tasks)
        for rtype in dict.fromkeys(r[0] for r in affordable)
    )


def build_instance(
    workflows: list[WorkflowSpec],
    slot_s: int,
    slots_per_billing: int,
    budget: int,
    resources: list[tuple[str, int]],
    horizon_slots: int | None = None,
) -> MipInstance:
    """Round a workload onto the slot grid.

    resources lists individual machines as (type id, cost per billing
    interval). The horizon defaults to the trivial sequential bound rounded
    up to a whole number of billing intervals.
    """
    if not workflows:
        raise ValueError("instance needs at least one workflow")
    if not resources:
        raise ValueError("instance needs at least one resource")
    costs: dict[str, int] = {}
    for rtype, cost in resources:
        if costs.setdefault(rtype, cost) != cost:
            raise ValueError(f"instance.resources: expected one cost per type, "
                             f"got {costs[rtype]} and {cost} for {rtype!r}")
    if slot_s < 1 or slots_per_billing < 1 or budget < 1:
        raise ValueError("slot length, interval length, and budget must be positive")
    users = {wf.user for wf in workflows}
    if len(users) > 1:
        raise ValueError("the model covers a single user's workload")
    listed = [rtype for rtype, _cost in resources]
    graphs = validate_inputs(workflows, list(users), listed, listed)

    res = tuple(
        MipResource(k + 1, rtype, cost) for k, (rtype, cost) in enumerate(resources)
    )
    tasks: list[MipTask] = []
    wf_rows: list[MipWorkflow] = []
    specs = tuple(workflows)
    for w, (wf, graph) in enumerate(zip(specs, graphs), start=1):
        arrival_slot = wf.arrival_s // slot_s + 1
        first = len(tasks) + 1  # the index of the workflow's topological index 0
        for i, (task, ps) in enumerate(zip(graph.tasks, graph.parents)):
            # slotted once per type, then read for each listed machine; the
            # task's types are the listed ones, as validate_inputs checked
            by_type = {rtype: _slots(s, slot_s) for rtype, s in zip(task.types, task.runtimes)}
            runtimes = tuple([by_type[rtype] for rtype in listed])
            parents = tuple(sorted(first + p for p in ps))
            tasks.append(MipTask(first + i, w, wf.id, task.id, runtimes, parents))
        cp = critical_path_length(graph, [min(t.runtimes) for t in tasks[first - 1:]])
        indices = tuple(range(first, len(tasks) + 1))
        wf_rows.append(
            MipWorkflow(w, wf.id, arrival_slot, arrival_slot + cp - 1, indices, graph.ideal_s)
        )

    bound = trivial_horizon(list(specs), slot_s, budget, resources)
    if horizon_slots is None:
        horizon_slots = math.ceil(bound / slots_per_billing) * slots_per_billing
    if horizon_slots % slots_per_billing != 0:
        raise ValueError("horizon must be a whole number of billing intervals")
    if horizon_slots < bound:
        raise HorizonTooShort(
            f"horizon {horizon_slots} slots cannot fit the trivial bound {bound}"
        )
    return MipInstance(
        slot_s=slot_s,
        slots=horizon_slots,
        slots_per_billing=slots_per_billing,
        budget=budget,
        resources=res,
        tasks=tuple(tasks),
        workflows=tuple(wf_rows),
        specs=specs,
    )


# -- variable grid -----------------------------------------------------------


def _start_slots(instance: MipInstance, task: MipTask, k: int) -> range:
    """Feasible start slots for a task on resource k: not before its
    workflow's arrival, finishing within the horizon."""
    arrival = instance.workflow(task.wf_index).arrival_slot
    runtime = task.runtimes[k - 1]
    return range(arrival, instance.slots - runtime + 2)


def _interval_of(instance: MipInstance, t: int) -> int:
    return (t - 1) // instance.slots_per_billing + 1


def _variable_grid(
    instance: MipInstance,
) -> tuple[dict[int, list[tuple[int, int, str]]], dict[int, list[list[str]]]]:
    """Each task's start variables as (resource, start, name) rows, ordered
    by resource then start, and the cover index: cover[k][slot] lists the
    start variables whose run occupies that slot of resource k."""
    x_by_task: dict[int, list[tuple[int, int, str]]] = {}
    cover = {r.index: [[] for _ in range(instance.slots + 1)] for r in instance.resources}
    for task in instance.tasks:
        rows = x_by_task[task.index] = []
        for r in instance.resources:
            k = r.index
            runtime = task.runtimes[k - 1]
            by_slot = cover[k]
            for t in _start_slots(instance, task, k):
                name = f"x_{task.index}_{k}_{t}"
                rows.append((k, t, name))
                for slot in range(t, t + runtime):
                    by_slot[slot].append(name)
    return x_by_task, cover


# -- LP export ----------------------------------------------------------------


def export_lp(instance: MipInstance) -> str:
    """Render the model as LP text (Maximize / Subject To / Bounds /
    Generals / Binaries) that standard solvers accept.

    The c2 and c4 rows read the cover index, which is filled in one forward
    pass over tasks in index order and each task's starts in ascending
    order. Every cover list is therefore ordered by task, then start, and a
    c2 row merges a name's repeats at its first appearance, scanning the
    interval's slots in order. The text depends on that order byte for byte.
    """
    T = instance.slots
    L = instance.slots_per_billing
    M = instance.billing_intervals
    x_by_task, cover = _variable_grid(instance)
    # sum of t * x over a task's starts, shared by its c5 and c6 rows
    start_sum = {
        j: " ".join(f"+ {t} {name}" for _, t, name in rows) for j, rows in x_by_task.items()
    }

    lines: list[str] = []
    lines.append(f"\\ {len(instance.tasks)} tasks, {len(instance.resources)} resources,")
    lines.append(f"\\ {T} slots in {M} billing intervals of {L}, budget {instance.budget}")
    lines.append("Maximize")
    obj_terms = []
    for wf in instance.workflows:
        for t in range(1, T + 1):
            h = value_function(instance, wf.index, t)
            if h >= 0:
                obj_terms.append(f"+ {h} u_{wf.index}_{t}")
            else:
                obj_terms.append(f"- {-h} u_{wf.index}_{t}")
    lines.append(" obj: " + " ".join(obj_terms))
    lines.append("Subject To")

    # each task starts exactly once
    for task in instance.tasks:
        terms = " + ".join(name for _, _, name in x_by_task[task.index])
        lines.append(f" c1_{task.index}: {terms} = 1")

    # busy-slot count per resource and billing interval
    for r in instance.resources:
        by_slot = cover[r.index]
        for m in range(1, M + 1):
            coef: dict[str, int] = {}
            for names in by_slot[(m - 1) * L + 1 : m * L + 1]:
                for name in names:
                    coef[name] = coef.get(name, 0) + 1
            if coef:
                lhs = " + ".join(
                    (name if n == 1 else f"{n} {name}") for name, n in coef.items()
                )
                lines.append(f" c2_{r.index}_{m}: {lhs} - z_{r.index}_{m} = 0")
            else:
                lines.append(f" c2_{r.index}_{m}: z_{r.index}_{m} = 0")

    # active flag tracks busy slots (linearized y = min(1, z))
    for r in instance.resources:
        for m in range(1, M + 1):
            lines.append(f" c3a_{r.index}_{m}: z_{r.index}_{m} - {L} y_{r.index}_{m} <= 0")
            lines.append(f" c3b_{r.index}_{m}: y_{r.index}_{m} - z_{r.index}_{m} <= 0")

    # no overlap on any resource slot
    for r in instance.resources:
        for t, terms in enumerate(cover[r.index][1:], start=1):
            if len(terms) > 1:
                lines.append(f" c4_{r.index}_{t}: " + " + ".join(terms) + " <= 1")

    # parent finishes before child starts
    for task in instance.tasks:
        for p in task.parents:
            parent = instance.task(p)
            parent_terms = " ".join(
                f"- {t + parent.runtimes[k - 1]} {name}" for k, t, name in x_by_task[p]
            )
            lines.append(f" c5_{task.index}_{p}: {start_sum[task.index]} {parent_terms} >= 0")

    # no start before the workflow arrives
    for wf in instance.workflows:
        for j in wf.task_indices:
            lines.append(f" c6_{wf.index}_{j}: {start_sum[j]} >= {wf.arrival_slot}")

    # one completion slot per workflow
    for wf in instance.workflows:
        terms = " + ".join(f"u_{wf.index}_{t}" for t in range(1, T + 1))
        lines.append(f" c7_{wf.index}: {terms} = 1")

    # every task ends by its workflow's completion slot
    for wf in instance.workflows:
        u_terms = " ".join(f"- {t} u_{wf.index}_{t}" for t in range(1, T + 1))
        for j in wf.task_indices:
            task = instance.task(j)
            ends = " ".join(
                f"+ {t + task.runtimes[k - 1] - 1} {name}" for k, t, name in x_by_task[j]
            )
            lines.append(f" c8_{wf.index}_{j}: {ends} {u_terms} <= 0")

    # per-interval budget over active resources
    for m in range(1, M + 1):
        terms = " + ".join(f"{r.cost} y_{r.index}_{m}" for r in instance.resources)
        lines.append(f" c9_{m}: {terms} <= {instance.budget}")

    lines.append("Bounds")
    z_names = []
    for r in instance.resources:
        for m in range(1, M + 1):
            name = f"z_{r.index}_{m}"
            z_names.append(name)
            lines.append(f" 0 <= {name} <= {L}")
    lines.append("Generals")
    lines.append(" " + " ".join(z_names))
    lines.append("Binaries")
    binaries = [name for rows in x_by_task.values() for _, _, name in rows]
    binaries += [f"y_{r.index}_{m}" for r in instance.resources for m in range(1, M + 1)]
    binaries += [f"u_{w.index}_{t}" for w in instance.workflows for t in range(1, T + 1)]
    for i in range(0, len(binaries), 8):
        lines.append(" " + " ".join(binaries[i : i + 8]))
    lines.append("End")
    return "\n".join(lines) + "\n"


# -- solution assembly and checking ------------------------------------------


def assemble_solution(
    instance: MipInstance, starts: dict[int, tuple[int, int]]
) -> MipSolution:
    """Derive the full variable assignment from task (resource, start)
    choices, with each workflow's completion at its actual last slot."""
    x = tuple(sorted((j, k, t) for j, (k, t) in starts.items()))
    M = instance.billing_intervals
    z: dict[tuple[int, int], int] = {
        (r.index, m): 0 for r in instance.resources for m in range(1, M + 1)
    }
    for j, (k, t) in starts.items():
        runtime = instance.task(j).runtimes[k - 1]
        for slot in range(t, t + runtime):
            z[(k, _interval_of(instance, slot))] += 1
    y = {key: (1 if count > 0 else 0) for key, count in z.items()}
    u = []
    profit = 0
    for wf in instance.workflows:
        finish = max(
            starts[j][1] + instance.task(j).runtimes[starts[j][0] - 1] - 1
            for j in wf.task_indices
        )
        u.append((wf.index, finish))
        profit += value_function(instance, wf.index, finish)
    return MipSolution(x=x, u=tuple(u), y=y, z=z, profit=profit)


def check_solution(instance: MipInstance, solution: MipSolution) -> list[str]:
    """All constraint families plus variable domains; empty means valid."""
    issues: list[str] = []
    T = instance.slots
    L = instance.slots_per_billing
    M = instance.billing_intervals

    starts_by_task: dict[int, list[tuple[int, int]]] = {t.index: [] for t in instance.tasks}
    for j, k, t in solution.x:
        if j < 1 or j > len(instance.tasks):
            issues.append(f"domain: unknown task {j}")
            continue
        if k < 1 or k > len(instance.resources):
            issues.append(f"domain: unknown resource {k}")
            continue
        if t < 1 or t > T:
            issues.append(f"domain: start slot {t} outside horizon")
            continue
        starts_by_task[j].append((k, t))

    for task in instance.tasks:
        if len(starts_by_task[task.index]) != 1:
            issues.append(
                f"constr1: task {task.index} starts {len(starts_by_task[task.index])} times"
            )

    # occupancy per resource slot
    occupancy: dict[tuple[int, int], int] = {}
    for j, placements in starts_by_task.items():
        for k, t in placements:
            runtime = instance.task(j).runtimes[k - 1]
            if t + runtime - 1 > T:
                issues.append(f"constr8: task {j} runs past the horizon")
            for slot in range(t, min(t + runtime, T + 1)):
                occupancy[(k, slot)] = occupancy.get((k, slot), 0) + 1
    for (k, slot), n in sorted(occupancy.items()):
        if n > 1:
            issues.append(f"constr4: resource {k} slot {slot} holds {n} tasks")

    for (k, m), value in solution.z.items():
        if not (0 <= value <= L):
            issues.append(f"domain: z[{k},{m}]={value} outside [0,{L}]")
    for r in instance.resources:
        for m in range(1, M + 1):
            busy = sum(
                occupancy.get((r.index, slot), 0)
                for slot in range((m - 1) * L + 1, m * L + 1)
            )
            if solution.z.get((r.index, m), 0) != busy:
                issues.append(
                    f"constr2: z[{r.index},{m}]={solution.z.get((r.index, m), 0)} != busy {busy}"
                )
            y = solution.y.get((r.index, m), 0)
            if y not in (0, 1):
                issues.append(f"domain: y[{r.index},{m}]={y} not binary")
            z = solution.z.get((r.index, m), 0)
            if y != min(1, max(z, 0)):
                issues.append(f"constr3: y[{r.index},{m}]={y} but z={z}")

    for task in instance.tasks:
        if len(starts_by_task[task.index]) != 1:
            continue
        k, t = starts_by_task[task.index][0]
        for p in task.parents:
            if len(starts_by_task[p]) != 1:
                continue
            pk, pt = starts_by_task[p][0]
            parent_end_next = pt + instance.task(p).runtimes[pk - 1]
            if t < parent_end_next:
                issues.append(f"constr5: task {task.index} starts before parent {p} ends")

    for wf in instance.workflows:
        for j in wf.task_indices:
            if len(starts_by_task[j]) != 1:
                continue
            _, t = starts_by_task[j][0]
            if t < wf.arrival_slot:
                issues.append(f"constr6: task {j} starts before arrival of workflow {wf.index}")

    completions: dict[int, list[int]] = {wf.index: [] for wf in instance.workflows}
    for w, t in solution.u:
        if w < 1 or w > len(instance.workflows):
            issues.append(f"domain: unknown workflow {w}")
            continue
        if t < 1 or t > T:
            issues.append(f"domain: completion slot {t} outside horizon")
            continue
        completions[w].append(t)
    for wf in instance.workflows:
        if len(completions[wf.index]) != 1:
            issues.append(
                f"constr7: workflow {wf.index} finishes {len(completions[wf.index])} times"
            )
            continue
        done = completions[wf.index][0]
        for j in wf.task_indices:
            if len(starts_by_task[j]) != 1:
                continue
            k, t = starts_by_task[j][0]
            if t + instance.task(j).runtimes[k - 1] - 1 > done:
                issues.append(f"constr8: task {j} ends after workflow {wf.index} completion")

    for m in range(1, M + 1):
        spend = sum(
            r.cost * solution.y.get((r.index, m), 0) for r in instance.resources
        )
        if spend > instance.budget:
            issues.append(f"constr9: interval {m} spends {spend} over budget {instance.budget}")

    expected_profit = sum(
        value_function(instance, w, ts[0])
        for w, ts in completions.items()
        if len(ts) == 1
    )
    if not issues and solution.profit != expected_profit:
        issues.append(f"profit: stated {solution.profit} != {expected_profit}")
    return issues


# -- exact solver ---------------------------------------------------------------


def solve_exact(instance: MipInstance, limits: SolveLimits | None = None) -> MipSolution:
    """Profit-maximal schedule by depth-first branch and bound.

    Branches on the lowest-indexed unscheduled task, resources in ascending
    (cost, index) order, start slots ascending from the earliest feasible.
    The bound charges every workflow the value of its earliest achievable
    completion given the partial schedule (contention ignored), which is
    admissible because the value function is non-increasing. Identical
    spare resources are interchangeable, so only the first unused one of
    each kind is tried.
    """
    limits = limits or SolveLimits()
    S = len(instance.tasks)
    V = len(instance.resources)
    T = instance.slots
    L = instance.slots_per_billing
    M = instance.billing_intervals
    if S > limits.max_tasks or V > limits.max_resources or T > limits.max_slots:
        raise LimitExceeded(
            f"{S} tasks / {V} resources / {T} slots exceed limits "
            f"{limits.max_tasks}/{limits.max_resources}/{limits.max_slots}"
        )

    order = sorted(instance.resources, key=lambda r: (r.cost, r.index))
    signature = {
        r.index: (r.cost, tuple(task.runtimes[r.index - 1] for task in instance.tasks))
        for r in instance.resources
    }
    same_as_prev: dict[int, int | None] = {}
    seen: dict[tuple, int] = {}
    for r in order:
        sig = signature[r.index]
        same_as_prev[r.index] = seen.get(sig)
        seen[sig] = r.index

    arrival = [instance.workflow(t.wf_index).arrival_slot for t in instance.tasks]
    min_rt = [min(t.runtimes) for t in instance.tasks]
    wf_tasks = [(wf.earliest_completion, wf.task_indices) for wf in instance.workflows]
    interval = [0] + [(t - 1) // L + 1 for t in range(1, T + 1)]  # slot -> interval

    busy = [0] * (V + 1)  # bitmask per resource, bit t-1 = slot t
    busy_in_interval = [[0] * (M + 1) for _ in range(V + 1)]
    interval_cost = [0] * (M + 1)
    chosen: dict[int, tuple[int, int]] = {}
    used = [False] * (V + 1)
    best_profit = None
    best_starts: dict[int, tuple[int, int]] = {}

    # Earliest finish of every task: the placed end of each task before the
    # one branched on next (dfs sets it when it places the task), and the
    # contention-free estimate from there on (bound recomputes only those).
    est = [0] * (S + 1)
    parents = [()] + [task.parents for task in instance.tasks]

    def bound(next_task: int) -> int:
        for j in range(next_task, S + 1):
            start = arrival[j - 1]
            for p in parents[j]:
                if est[p] >= start:
                    start = est[p] + 1
            est[j] = start + min_rt[j - 1] - 1
        total = 0
        for deadline, indices in wf_tasks:
            finish = max([est[j] for j in indices])
            total += 1 if finish <= deadline else deadline - finish  # value_function
        return total

    def dfs(j: int) -> None:
        nonlocal best_profit, best_starts
        if j > S:
            profit = bound(j)
            if best_profit is None or profit > best_profit:
                best_profit = profit
                best_starts = dict(chosen)
            return
        task = instance.tasks[j - 1]
        ready = arrival[j - 1]
        for p in task.parents:
            ready = max(ready, est[p] + 1)
        for r in order:
            k = r.index
            prev = same_as_prev[k]
            if prev is not None and not used[prev] and not used[k]:
                continue  # interchangeable with an untouched earlier twin
            runtime = task.runtimes[k - 1]
            window = (1 << runtime) - 1
            for t in range(ready, T - runtime + 2):
                mask = window << (t - 1)
                if busy[k] & mask:
                    continue
                over = False
                for m in range(interval[t], interval[t + runtime - 1] + 1):
                    if busy_in_interval[k][m] == 0 and interval_cost[m] + r.cost > instance.budget:
                        over = True
                        break
                if over:
                    continue
                busy[k] |= mask
                for slot in range(t, t + runtime):
                    m = interval[slot]
                    if busy_in_interval[k][m] == 0:
                        interval_cost[m] += r.cost
                    busy_in_interval[k][m] += 1
                est[j] = t + runtime - 1
                chosen[j] = (k, t)
                was_used = used[k]
                used[k] = True
                promising = best_profit is None or bound(j + 1) > best_profit
                if promising:
                    dfs(j + 1)
                used[k] = was_used
                del chosen[j]
                for slot in range(t, t + runtime):
                    m = interval[slot]
                    busy_in_interval[k][m] -= 1
                    if busy_in_interval[k][m] == 0:
                        interval_cost[m] -= r.cost
                busy[k] &= ~mask
                if not promising:
                    break  # later starts only weaken the bound

    dfs(1)
    if best_profit is None:
        raise Infeasible("no feasible schedule within the horizon and budget")
    return assemble_solution(instance, best_starts)


# -- comparison against simulated runs ---------------------------------------


def realized_profit(instance: MipInstance, finishes: dict[str, int]) -> int:
    """Map simulated finish times (seconds) onto the slot grid and price
    them with the same value function."""
    total = 0
    for wf in instance.workflows:
        if wf.wf_id not in finishes:
            raise WorkloadMismatch(f"workflow {wf.wf_id} missing from the run")
        slot = -(-finishes[wf.wf_id] // instance.slot_s)
        total += value_function(instance, wf.index, slot)
    return total


def compare(
    instance: MipInstance,
    solution: MipSolution,
    finishes: dict[str, int],
) -> list[dict]:
    """Per-workflow slowdown pairs: the optimal schedule vs a simulated one.

    finishes maps workflow id to simulated last finish (seconds). Both
    sides divide by the same ideal makespan.
    """
    if set(finishes) != {wf.wf_id for wf in instance.workflows}:
        raise WorkloadMismatch("runs cover different workflow sets")
    completion = solution.completions()
    rows = []
    for wf, spec in zip(instance.workflows, instance.specs):
        opt_end_s = completion[wf.index] * instance.slot_s
        rows.append(
            {
                "workflow": wf.wf_id,
                "optimal_slowdown": slowdown(spec.arrival_s, opt_end_s, wf.ideal_s),
                "heuristic_slowdown": slowdown(spec.arrival_s, finishes[wf.wf_id], wf.ideal_s),
            }
        )
    return rows


def run_finishes(result) -> dict[str, int]:
    """Last finish per workflow from a RunResult."""
    return {wf_id: run.last_finish_s for wf_id, run in result.state.runs.items()}


# -- instance and solution files ----------------------------------------------


def load_instance(path: str | Path) -> MipInstance:
    """Read an instance file (``schema.INSTANCE``). A missing or mistyped
    field raises ConfigError naming its path."""
    doc = check(json.loads(Path(path).read_text()), INSTANCE, "instance")
    shared: dict[tuple, tuple] = {}
    return build_instance(
        [workflow_from_row(w, shared) for w in doc["workflows"]],
        slot_s=doc["slot_s"],
        slots_per_billing=doc["slots_per_billing"],
        budget=doc["budget"],
        resources=[(r["type"], r["cost"]) for r in doc["resources"]],
        horizon_slots=doc.get("slots"),
    )


def solution_to_dict(solution: MipSolution) -> dict:
    return {
        "schema": "wfasim-mip-solution-1",
        "profit": solution.profit,
        "x": [list(row) for row in solution.x],
        "u": [list(row) for row in solution.u],
        "y": [[k, m, v] for (k, m), v in sorted(solution.y.items())],
        "z": [[k, m, v] for (k, m), v in sorted(solution.z.items())],
    }


__all__ = [
    "HorizonTooShort",
    "Infeasible",
    "LimitExceeded",
    "MipInstance",
    "MipResource",
    "MipSolution",
    "MipTask",
    "MipWorkflow",
    "SolveLimits",
    "WorkloadMismatch",
    "assemble_solution",
    "build_instance",
    "check_solution",
    "compare",
    "export_lp",
    "load_instance",
    "realized_profit",
    "run_finishes",
    "solution_to_dict",
    "solve_exact",
    "trivial_horizon",
    "value_function",
]
