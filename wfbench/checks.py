"""Output checks computed apart from the simulator.

Everything here reads the program's outputs (the trace CSV a run writes, the
schedule a MIP solve returns) and tests them against properties recomputed
from the benchmark's own inputs. Nothing calls back into the code under
test, so a fault in the simulator cannot also hide itself in the check.

Each checker returns a list of issues; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import hashlib
from collections import defaultdict
from pathlib import Path

TRACE_HEADER = ["time_s", "event", "user", "workflow", "task", "resource", "rtype", "detail"]


# -- workflow structure -------------------------------------------------------


def topological(task_ids, edges) -> list[str]:
    """Kahn's order over (parent, child) edges; raises on a cycle."""
    indeg = {t: 0 for t in task_ids}
    children = defaultdict(list)
    for p, c in edges:
        indeg[c] += 1
        children[p].append(c)
    ready = [t for t in task_ids if indeg[t] == 0]
    order = []
    while ready:
        t = ready.pop()
        order.append(t)
        for c in children[t]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    if len(order) != len(indeg):
        raise ValueError("cycle in workflow edges")
    return order


def longest_path(task_ids, edges, weight) -> int:
    """Longest path through the DAG where each task weighs weight[task]."""
    parents = defaultdict(list)
    for p, c in edges:
        parents[c].append(p)
    finish: dict[str, int] = {}
    for t in topological(task_ids, edges):
        finish[t] = max((finish[p] for p in parents[t]), default=0) + weight[t]
    return max(finish.values(), default=0)


def fastest_critical_path(spec) -> int:
    """Critical path of a workflow spec with every task on its fastest type."""
    weight = {t.id: min(t.runtime_by_type.values()) for t in spec.tasks}
    return longest_path([t.id for t in spec.tasks], spec.edges, weight)


# -- simulation traces --------------------------------------------------------


def read_trace(path: str | Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != TRACE_HEADER:
        raise ValueError(f"{path}: unexpected trace header")
    return rows[1:]


def check_trace(rows, workflows, costs: dict[str, int], budgets: dict[str, int]) -> list[str]:
    """All simulation output properties, from the trace rows alone.

    ``workflows`` are the input specs, ``costs`` maps type id to its price per
    interval and ``budgets`` maps user id to its budget per interval.
    """
    issues: list[str] = []
    specs = {wf.id: wf for wf in workflows}
    starts: dict[tuple[str, str], tuple[int, int, str]] = {}
    finishes: dict[tuple[str, str], tuple[int, int, str]] = {}
    arrivals: dict[str, int] = {}
    done: dict[str, int] = {}
    held: dict[int, tuple[str, str]] = {}  # resource -> (user, type)
    charges: dict[int, dict[tuple[str, str], tuple[int, int]]] = {}
    held_at: dict[int, dict[tuple[str, str], int]] = {}  # at each tick's billing
    tick_times: list[int] = []

    def close_tick() -> None:
        # Billing runs last at its timestamp, so the machines held once a
        # tick's timestamp has passed are the ones its billing charges.
        snapshot: dict[tuple[str, str], int] = defaultdict(int)
        for owner, rt in held.values():
            snapshot[(owner, rt)] += 1
        held_at[tick_times[-1]] = dict(snapshot)

    for row in rows:
        time_s, event, user, wf_id, task_id, resource, rtype, detail = row
        t = int(time_s)
        if tick_times and t > tick_times[-1] and tick_times[-1] not in held_at:
            close_tick()
        if event == "arrive":
            arrivals[wf_id] = t
        elif event == "allocate":
            rid = int(resource)
            if rid in held:
                issues.append(f"t={t}: resource {rid} allocated while held")
            held[rid] = (user, rtype)
        elif event == "release":
            rid = int(resource)
            if held.get(rid, (None,))[0] != user:
                issues.append(f"t={t}: resource {rid} released by {user} but not held by it")
            held.pop(rid, None)
        elif event == "start":
            ref = (wf_id, task_id)
            rid = int(resource)
            if ref in starts:
                issues.append(f"task {wf_id}/{task_id} started twice")
            starts[ref] = (t, rid, rtype)
            if held.get(rid) != (user, rtype):
                issues.append(f"t={t}: {wf_id}/{task_id} started on resource {rid} not held by {user}")
        elif event == "finish":
            ref = (wf_id, task_id)
            if ref in finishes:
                issues.append(f"task {wf_id}/{task_id} finished twice")
            finishes[ref] = (t, int(resource), rtype)
        elif event == "workflow_done":
            done[wf_id] = t
        elif event == "tick":
            tick_times.append(t)
        elif event == "charge":
            fields = dict(part.split("=") for part in detail.split(";"))
            charges.setdefault(t, {})[(user, rtype)] = (int(fields["count"]), int(fields["amount"]))

    if tick_times and tick_times[-1] not in held_at:
        close_tick()
    issues += _check_tasks(specs, starts, finishes)
    issues += _check_machines(starts, finishes)
    issues += _check_billing(charges, held_at, costs, budgets)
    issues += _check_workflows(specs, arrivals, done, finishes)
    return issues


def _check_tasks(specs, starts, finishes) -> list[str]:
    issues = []
    for wf in specs.values():
        for task in wf.tasks:
            ref = (wf.id, task.id)
            if ref not in starts:
                issues.append(f"task {wf.id}/{task.id} never started")
                continue
            if ref not in finishes:
                issues.append(f"task {wf.id}/{task.id} never finished")
                continue
            t0, rid, rtype = starts[ref]
            t1, rid_end, rtype_end = finishes[ref]
            if (rid, rtype) != (rid_end, rtype_end):
                issues.append(f"task {wf.id}/{task.id} finished on another resource")
            want = task.runtime_by_type.get(rtype)
            if t1 - t0 != want:
                issues.append(
                    f"task {wf.id}/{task.id} ran {t1 - t0} s on {rtype}, spec says {want}"
                )
        for p, c in wf.edges:
            if (wf.id, c) in starts and (wf.id, p) in finishes:
                if starts[(wf.id, c)][0] < finishes[(wf.id, p)][0]:
                    issues.append(f"task {wf.id}/{c} started before parent {p} finished")
    extra = set(starts) - {(wf.id, t.id) for wf in specs.values() for t in wf.tasks}
    if extra:
        issues.append(f"{len(extra)} started tasks are not in the input")
    return issues


def _check_machines(starts, finishes) -> list[str]:
    issues = []
    by_resource: dict[int, list[tuple[int, int, tuple]]] = defaultdict(list)
    for ref, (t0, rid, _rtype) in starts.items():
        if ref in finishes:
            by_resource[rid].append((t0, finishes[ref][0], ref))
    for rid, spans in by_resource.items():
        spans.sort()
        for (a0, a1, ra), (b0, _b1, rb) in zip(spans, spans[1:]):
            if b0 < a1:
                issues.append(f"resource {rid} runs {ra} and {rb} at once")
    return issues


def _check_billing(charges, held_at, costs, budgets) -> list[str]:
    """Charges equal the machines held at each billing boundary and stay
    within budget. A boundary with no charge rows must hold nothing, except
    the run's last tick, where the engine stops billing."""
    issues = []
    for t, rows in charges.items():
        expect = held_at.get(t)
        if expect is None:
            issues.append(f"t={t}: charge rows outside a tick")
            continue
        if set(rows) != set(expect):
            issues.append(f"t={t}: charged {sorted(rows)} but held {sorted(expect)}")
        per_user: dict[str, int] = defaultdict(int)
        for (user, rtype), (count, amount) in rows.items():
            if count != expect.get((user, rtype)):
                issues.append(f"t={t}: {user} charged for {count} {rtype}, holds {expect.get((user, rtype))}")
            if amount != count * costs[rtype]:
                issues.append(f"t={t}: {user} charged {amount} for {count} {rtype}")
            per_user[user] += amount
        for user, amount in per_user.items():
            if amount > budgets[user]:
                issues.append(f"t={t}: {user} charged {amount} over budget {budgets[user]}")
    last_tick = max(held_at, default=None)
    for t, expect in held_at.items():
        if t not in charges and expect and t != last_tick:
            issues.append(f"t={t}: machines held but not charged")
    return issues


def _check_workflows(specs, arrivals, done, finishes) -> list[str]:
    issues = []
    for wf in specs.values():
        if arrivals.get(wf.id) != wf.arrival_s:
            issues.append(f"workflow {wf.id} arrived at {arrivals.get(wf.id)}, spec says {wf.arrival_s}")
            continue
        if wf.id not in done:
            issues.append(f"workflow {wf.id} never completed")
            continue
        last = max((finishes[(wf.id, t.id)][0] for t in wf.tasks if (wf.id, t.id) in finishes), default=None)
        if last != done[wf.id]:
            issues.append(f"workflow {wf.id} done at {done[wf.id]}, last task finished at {last}")
        if done[wf.id] - wf.arrival_s < fastest_critical_path(wf):
            issues.append(f"workflow {wf.id} responded faster than its critical path")
    return issues


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(str(path).encode())
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- MIP schedules ------------------------------------------------------------


class SlotModel:
    """The benchmark's own reading of a slot-grid instance.

    Built from the aligned workflow specs the benchmark generated (every
    runtime and arrival a whole number of slots), the machine list and the
    budget. ``task_refs`` lists (workflow id, task id) in the solver's
    1-based task numbering, the one piece taken from the program's instance.
    """

    def __init__(self, specs, machines, slot_s, slots_per_billing, horizon, budget, task_refs):
        self.slot_s = slot_s
        self.L = slots_per_billing
        self.T = horizon
        self.budget = budget
        self.costs = [cost for _rtype, cost in machines]
        self.types = [rtype for rtype, _cost in machines]
        self.refs = list(task_refs)
        self.wf_of = {}
        self.runtime = {}  # (ref, machine index 0-based) -> slots
        self.parents = defaultdict(list)
        self.arrival = {}
        self.deadline = {}
        for wf in specs:
            self.arrival[wf.id] = wf.arrival_s // slot_s + 1
            slots = {t.id: {r: s // slot_s for r, s in t.runtime_by_type.items()} for t in wf.tasks}
            for t in wf.tasks:
                self.wf_of[(wf.id, t.id)] = wf.id
                for k, rtype in enumerate(self.types):
                    self.runtime[((wf.id, t.id), k)] = slots[t.id][rtype]
            for p, c in wf.edges:
                self.parents[(wf.id, c)].append((wf.id, p))
            cp = longest_path(
                [t.id for t in wf.tasks], wf.edges, {t: min(v.values()) for t, v in slots.items()}
            )
            self.deadline[wf.id] = self.arrival[wf.id] + cp - 1

    def value(self, wf_id: str, slot: int) -> int:
        d = self.deadline[wf_id]
        return 1 if slot <= d else d - slot

    def profit(self, ends: dict) -> int:
        last: dict[str, int] = {}
        for ref, end in ends.items():
            wf = self.wf_of[ref]
            last[wf] = max(last.get(wf, 0), end)
        return sum(self.value(wf, t) for wf, t in last.items())

    def check(self, x, stated_profit: int) -> list[str]:
        """Validate a schedule given as (task no., machine no., start slot)."""
        issues = []
        placed: dict[tuple, tuple[int, int]] = {}
        for j, k, t in x:
            if not (1 <= j <= len(self.refs) and 1 <= k <= len(self.costs)):
                issues.append(f"unknown task {j} or machine {k}")
                continue
            ref = self.refs[j - 1]
            if ref in placed:
                issues.append(f"task {ref} starts twice")
            placed[ref] = (k - 1, t)
        missing = [ref for ref in self.refs if ref not in placed]
        if missing:
            issues.append(f"tasks {missing} never start")
            return issues
        ends = {}
        busy: dict[tuple[int, int], tuple] = {}
        for ref, (k, t) in placed.items():
            end = t + self.runtime[(ref, k)] - 1
            ends[ref] = end
            if t < self.arrival[self.wf_of[ref]]:
                issues.append(f"task {ref} starts before its workflow arrives")
            if end > self.T:
                issues.append(f"task {ref} runs past the horizon")
            for slot in range(t, end + 1):
                if (k, slot) in busy:
                    issues.append(f"machine {k + 1} runs {busy[(k, slot)]} and {ref} in slot {slot}")
                busy[(k, slot)] = ref
        for ref, (k, t) in placed.items():
            for p in self.parents[ref]:
                if t <= ends[p]:
                    issues.append(f"task {ref} starts before parent {p} ends")
        for m, spend in self.interval_spend(busy).items():
            if spend > self.budget:
                issues.append(f"interval {m} spends {spend} over budget {self.budget}")
        if not issues and self.profit(ends) != stated_profit:
            issues.append(f"stated profit {stated_profit}, recomputed {self.profit(ends)}")
        return issues

    def interval_spend(self, busy) -> dict[int, int]:
        active = defaultdict(set)
        for k, slot in busy:
            active[(slot - 1) // self.L + 1].add(k)
        return {m: sum(self.costs[k] for k in ks) for m, ks in active.items()}

    def option_count(self) -> int:
        n = 1
        for ref in self.refs:
            n *= sum(max(0, self.T - self.runtime[(ref, k)] + 2 - self.arrival[self.wf_of[ref]])
                     for k in range(len(self.costs)))
        return n

    def enumerate_optimum(self) -> int | None:
        """Best profit over every feasible schedule, by plain enumeration.

        Only feasibility prunes the search (a partial schedule that already
        overlaps, breaks precedence or overspends an interval stays
        infeasible as it grows), never the objective.
        """
        order = topological(self.refs, [(p, ref) for ref in self.refs for p in self.parents[ref]])
        best = None
        busy: dict[tuple[int, int], tuple] = {}
        ends: dict[tuple, int] = {}

        def place(i):
            nonlocal best
            if i == len(order):
                p = self.profit(ends)
                if best is None or p > best:
                    best = p
                return
            ref = order[i]
            ready = self.arrival[self.wf_of[ref]]
            for p in self.parents[ref]:
                ready = max(ready, ends[p] + 1)
            for k in range(len(self.costs)):
                rt = self.runtime[(ref, k)]
                for t in range(ready, self.T - rt + 2):
                    slots = [(k, s) for s in range(t, t + rt)]
                    if any(s in busy for s in slots):
                        continue
                    for s in slots:
                        busy[s] = ref
                    if all(v <= self.budget for v in self.interval_spend(busy).values()):
                        ends[ref] = t + rt - 1
                        place(i + 1)
                        del ends[ref]
                    for s in slots:
                        del busy[s]

        place(0)
        return best

    def realized_profit(self, finish_s: dict[str, int]) -> int:
        """Price simulated workflow finish times (seconds) on the slot grid."""
        return sum(self.value(wf, -(-t // self.slot_s)) for wf, t in finish_s.items())
