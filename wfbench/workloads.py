"""The benchmark's workloads: inputs made from a seed, the operations of one
pass, and the checks on what a pass wrote.

A simulation pass does, for each policy and system configuration of the
workload, what one ``wfasim run`` replication does: ``engine.run``,
``RunResult.summary()`` and every output file. A MIP pass exports, solves and
checks each instance of a seeded set.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from wfasim import engine, mip, workload
from wfasim.model import ResourceType, SystemConfig, TaskSpec, UserConfig, WorkflowSpec
from wfasim.policies import PfaConfig, PfaPolicy, PlfPolicy, ScfPolicy

import checks

POLICIES = {
    "pfa-ma": lambda: PfaPolicy(PfaConfig()),
    "pfa-ewma": lambda: PfaPolicy(PfaConfig(smoothing="ewma")),
    "plf": PlfPolicy,
    "scf": ScfPolicy,
}
TYPES = (ResourceType("small", 1), ResourceType("large", 5))
COSTS = {t.id: t.cost for t in TYPES}
INTERVAL_S = 60
# Generator seed of the simulation workloads' workflow corpus, the first seed
# of the acceptance grid. The run's seed draws the arrival process and the
# simulation's own random choices; see README.md for why the corpus is fixed.
CORPUS_SEED = 11


@dataclass(frozen=True)
class SimConfig:
    """One system configuration of a simulation workload."""

    label: str
    workflows: int
    users: tuple[tuple[str, int], ...]  # (user id, budget per interval)
    machines_per_type: int
    utilization: float


@dataclass
class Operation:
    """One unit of a pass, timed on its own."""

    name: str
    tasks: int
    run: Callable[[], object]


class SimWorkload:
    """Policies run on generated workloads, as ``wfasim run`` would."""

    def __init__(self, policies, configs):
        self.policies = policies
        self.configs = configs

    def setup(self, seed: int) -> dict:
        """Build every configuration's workflows: the generated corpus, with
        arrival times drawn from the run's seed."""
        inputs = {}
        corpora = {}
        for cfg in self.configs:
            users = tuple(u for u, _ in cfg.users)
            if (cfg.workflows, users) not in corpora:
                corpora[(cfg.workflows, users)] = workload.generate_workload(
                    cfg.workflows, users=list(users), rule=workload.WL1, seed=CORPUS_SEED
                )
            base = corpora[(cfg.workflows, users)]
            capacity = cfg.machines_per_type * len(TYPES)
            inputs[cfg.label] = engine.poisson_arrivals(base, cfg.utilization, capacity, seed)
        return inputs

    def describe(self, inputs) -> dict:
        return {
            cfg.label: {
                "workflows": len(inputs[cfg.label]),
                "tasks": sum(len(wf.tasks) for wf in inputs[cfg.label]),
                "machines": cfg.machines_per_type * len(TYPES),
                "users": len(cfg.users),
            }
            for cfg in self.configs
        }

    def operations(self, inputs, seed: int, out_dir: Path) -> list[Operation]:
        ops = []
        for cfg in self.configs:
            system = SystemConfig(
                types=TYPES,
                capacity={t.id: cfg.machines_per_type for t in TYPES},
                interval_s=INTERVAL_S,
            )
            users = [UserConfig(u, b) for u, b in cfg.users]
            workflows = inputs[cfg.label]
            tasks = sum(len(wf.tasks) for wf in workflows)
            for name in self.policies:
                op_dir = out_dir / f"{name}@{cfg.label}"
                op_dir.mkdir(parents=True, exist_ok=True)
                ops.append(Operation(
                    f"{name}@{cfg.label}",
                    tasks,
                    _replication(workflows, system, users, name, seed, op_dir),
                ))
        return ops

    def check(self, inputs, outputs: dict) -> list[str]:
        """Trace checks on every replication a pass wrote."""
        issues = []
        for cfg in self.configs:
            budgets = dict(cfg.users)
            for name in self.policies:
                op = f"{name}@{cfg.label}"
                if op not in outputs:
                    continue  # the operation failed and is counted as such
                rows = checks.read_trace(Path(outputs[op]) / "trace.csv")
                issues += [f"{op}: {i}" for i in checks.check_trace(rows, inputs[cfg.label], COSTS, budgets)]
        return issues

    def digest(self, outputs: dict) -> str:
        """Digest of the deterministic files; decision logs and metrics hold
        wall-clock decision times and are left out."""
        paths = []
        for op in sorted(outputs):
            for name in ("trace.csv", "snapshots.csv", "diagnostics.jsonl", "plans.jsonl"):
                path = Path(outputs[op]) / name
                if path.exists():
                    paths.append(path)
        return checks.file_digest(paths)


def _replication(workflows, system, users, policy_name, seed, out: Path):
    def run() -> str:
        result = engine.run(workflows, system, users, POLICIES[policy_name](), seed=seed)
        summary = result.summary()
        result.write_trace_csv(out / "trace.csv")
        result.write_snapshots_csv(out / "snapshots.csv")
        result.write_decision_log_csv(out / "decisions.csv")
        if result.diagnostics:
            result.write_diagnostics_jsonl(out / "diagnostics.jsonl")
        if result.plan_rows:
            result.write_plans_jsonl(out / "plans.jsonl")
        (out / "metrics.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
        return str(out)

    return run


# -- MIP ------------------------------------------------------------------------

MIP_SLOT_S = 2
MIP_SLOTS_PER_BILLING = 3
MIP_MACHINES = (("small", 1), ("small", 1), ("large", 5), ("large", 5))
MIP_LIMITS = mip.SolveLimits()
# Short generator runtimes, so that an instance fits the solver's 24 slots.
MIP_RUNTIMES = workload.RuntimeModel(log_median=60.0, log_sigma=0.7, scale_divisor=30)
MIP_SIZES = workload.SizeModel(log_median=3.0, log_sigma=0.4, min_tasks=2, max_tasks=3)
# The largest enumeration the exhaustive cross-check takes on.
ENUMERATION_LIMIT = 60_000


@dataclass
class MipCase:
    instance: mip.MipInstance
    model: checks.SlotModel


class MipWorkload:
    """Seeded single-user instances within the exact solver's limits."""

    def __init__(self, instances: int):
        self.instances = instances

    def setup(self, seed: int) -> list[MipCase]:
        rng = random.Random(seed)
        cases = []
        attempt = 0
        while len(cases) < self.instances:
            attempt += 1
            specs = _instance_specs(rng, [seed, attempt])
            budget = rng.choice((5, 6))
            try:
                inst = mip.build_instance(
                    specs, MIP_SLOT_S, MIP_SLOTS_PER_BILLING, budget, list(MIP_MACHINES)
                )
            except mip.HorizonTooShort:
                continue
            if len(inst.tasks) > MIP_LIMITS.max_tasks or inst.slots > MIP_LIMITS.max_slots:
                continue  # over the exact solver's limits: not part of the set
            model = checks.SlotModel(
                specs, MIP_MACHINES, MIP_SLOT_S, MIP_SLOTS_PER_BILLING, inst.slots, budget,
                [(t.wf_id, t.task_id) for t in inst.tasks],
            )
            cases.append(MipCase(inst, model))
        return cases

    def describe(self, cases) -> dict:
        return {
            "instances": len(cases),
            "tasks": sum(len(c.instance.tasks) for c in cases),
            "slots": sorted({c.instance.slots for c in cases}),
            "budgets": sorted({c.instance.budget for c in cases}),
            "enumerable": sum(1 for c in cases if c.model.option_count() <= ENUMERATION_LIMIT),
        }

    def operations(self, cases, seed: int, out_dir: Path) -> list[Operation]:
        return [
            Operation(f"instance{i:03d}", len(c.instance.tasks), _solve(c.instance))
            for i, c in enumerate(cases)
        ]

    def check(self, cases, outputs: dict) -> list[str]:
        issues = []
        for i, case in enumerate(cases):
            name = f"instance{i:03d}"
            if name not in outputs:
                continue  # the operation failed and is counted as such
            _lp_size, program_issues, profit, x = outputs[name]
            issues += [f"{name}: check_solution: {p}" for p in program_issues]
            issues += [f"{name}: {p}" for p in case.model.check(x, profit)]
            if case.model.option_count() <= ENUMERATION_LIMIT:
                best = case.model.enumerate_optimum()
                if best != profit:
                    issues.append(f"{name}: optimum {profit}, enumeration finds {best}")
            for policy, realized in _simulated_profits(case).items():
                if realized > profit:
                    issues.append(f"{name}: {policy} realizes {realized} over the optimum {profit}")
        return issues

    def digest(self, outputs: dict) -> str:
        text = json.dumps(
            {k: [v[0], v[2], [list(r) for r in v[3]]] for k, v in sorted(outputs.items())}
        )
        return checks.text_digest(text)


def _instance_specs(rng: random.Random, gen_seed) -> list[WorkflowSpec]:
    """One or two generator workflows, runtimes and arrivals put on the slot
    grid so that a simulated schedule is one the solver also considers."""
    count = rng.choice((1, 2, 2))
    generated = workload.generate_workload(
        count, users=["u1"], rule=workload.WL1, runtime_model=MIP_RUNTIMES,
        size_model=MIP_SIZES, seed=gen_seed,
    )
    specs = []
    for wf in generated:
        tasks = tuple(
            TaskSpec(t.id, {r: max(1, round(s / MIP_SLOT_S)) * MIP_SLOT_S
                            for r, s in t.runtime_by_type.items()})
            for t in wf.tasks
        )
        arrival = rng.choice((0, 0, 1, 2)) * MIP_SLOT_S
        specs.append(WorkflowSpec(wf.id, wf.user, wf.priority, arrival, tasks, wf.edges))
    return specs


def _solve(inst: mip.MipInstance):
    def run():
        lp = mip.export_lp(inst)
        solution = mip.solve_exact(inst, MIP_LIMITS)
        issues = mip.check_solution(inst, solution)
        return len(lp), issues, solution.profit, solution.x

    return run


def _simulated_profits(case: MipCase) -> dict[str, int]:
    """Realized profit of every policy simulated on the instance's system."""
    inst = case.instance
    counts: dict[str, int] = {}
    for rtype, _cost in MIP_MACHINES:
        counts[rtype] = counts.get(rtype, 0) + 1
    system = SystemConfig(
        types=TYPES, capacity=counts, interval_s=MIP_SLOT_S * MIP_SLOTS_PER_BILLING
    )
    users = [UserConfig("u1", inst.budget)]
    out = {}
    for name, make in POLICIES.items():
        result = engine.run(list(inst.specs), system, users, make())
        finish = {row[3]: row[0] for row in result.trace if row[1] == "workflow_done"}
        out[name] = case.model.realized_profit(finish)
    return out


GRID = (
    SimConfig("u20", 120, (("u1", 100), ("u2", 100)), 32, 0.2),
    SimConfig("u35", 120, (("u1", 120), ("u2", 80)), 32, 0.35),
)
SCALED = (
    SimConfig(
        "u35x8", 480, tuple((f"u{i}", 120 if i % 2 else 80) for i in range(1, 9)), 128, 0.35
    ),
)

WORKLOADS = {
    "grid-feedback": SimWorkload(("pfa-ma", "pfa-ewma"), GRID),
    "grid-planning": SimWorkload(("plf", "scf"), GRID),
    "scaled-mixed": SimWorkload(("pfa-ma", "plf"), SCALED),
    "mip-exact": MipWorkload(instances=800),
}
