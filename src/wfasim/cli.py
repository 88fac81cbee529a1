"""Command-line experiment driver.

Subcommands:
  run      simulate a workload under a policy, writing traces and metrics
  gen      generate a synthetic workload file from a generator spec
  mip      export, solve, or compare a slot-grid scheduling instance

Config and spec files are strict JSON, checked against :mod:`wfasim.schema`;
unknown keys are rejected so experiment files stay reproducible.

Exit codes: 0 success, 2 invalid config/spec/input or a file that cannot be
read or written, 3 instance over the exact solver's limits, 4 engine
invariant violation (a budget or capacity breach, which a correct policy
never triggers).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import statistics
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import engine, mip, workload
from .model import (
    BudgetViolation,
    CapacityExceeded,
    ModelError,
    ResourceType,
    SystemConfig,
    UserConfig,
    load_workload,
    save_workload,
)
from .policies import PfaConfig, PfaPolicy, PlfPolicy, Policy, ScfPolicy
from .schema import GENSPEC, RUN, ConfigError, check


def parse_policy(doc: dict) -> Policy:
    """A fresh policy from a checked policy object."""
    knobs = {k: doc[k] for k in ("smoothing", "ma_depth", "alpha") if k in doc}
    name = doc["name"]
    if name == "pfa":
        # PfaConfig owns the bounds; this only names the object in its errors
        try:
            return PfaPolicy(PfaConfig(**knobs))
        except ValueError as exc:
            raise ConfigError(f"config.policy: {exc}") from exc
    if knobs:
        raise ConfigError(f"config.policy: keys {sorted(knobs)} only apply to pfa")
    if name == "plf":
        return PlfPolicy()
    if name == "scf":
        return ScfPolicy()
    raise ConfigError(f"config.policy.name: unknown name {name!r}")


def generate_from_spec(spec: dict, where: str) -> tuple[list, dict[str, list]]:
    """Workflows for a checked genspec: the combined interleaved workload
    plus each named set separately. ``where`` names the spec in errors."""
    if "sets" not in spec and "count" not in spec:
        raise ConfigError(f"{where}: either sets or count is required")
    names = [s["name"] for s in spec.get("sets", ())]
    for idx, name in enumerate(names):  # each set writes its own file, named by it
        if name in names[:idx]:
            raise ConfigError(f"{where}.sets[{idx}].name: expected a name no earlier set "
                              f"uses, got {name!r}")
    families = spec.get("families", workload.FAMILIES)
    for fam in families:  # checked even where sets name the families
        workload.DagRecipe(fam)
    common = dict(
        users=list(spec["users"]),
        runtime_model=workload.RuntimeModel(**spec.get("runtime_model", {})),
        size_model=workload.SizeModel(**spec.get("size_model", {})),
        **{k: spec[k] for k in ("rule", "types") if k in spec},
    )
    per_set = {
        s["name"]: workload.generate_workload(
            s["count"], families=(s["family"],), seed=[spec["seed"], idx],
            id_prefix=f"{s['name']}-", **common,
        )
        for idx, s in enumerate(spec.get("sets", ()))
    }
    if per_set:
        rounds = itertools.zip_longest(*per_set.values())
        combined = [wf for row in rounds for wf in row if wf is not None]
    else:
        combined = workload.generate_workload(
            spec["count"], families=tuple(families), seed=spec["seed"], **common
        )
    if "arrivals" in spec:  # gen has no system, so no default capacity
        combined = stamp_arrivals(combined, spec["arrivals"], 0, spec["seed"])
    return combined, per_set


def stamp_arrivals(workflows: list, arrivals: dict, capacity: int, seed: int) -> list:
    """Poisson arrival times from a checked arrivals object; ``capacity``
    and ``seed`` apply where it gives none."""
    return engine.poisson_arrivals(workflows, float(arrivals["utilization"]),
                                   arrivals.get("capacity", capacity),
                                   arrivals.get("seed", seed))


# -- run ------------------------------------------------------------------------


def _replication(args: tuple) -> dict:
    """One isolated replication; runs in a worker process under --jobs. The
    policy is parsed here, so every replication starts with fresh policy state."""
    (system, users, policy_doc, workflows, rep, seed, out_dir, collect_plans) = args
    policy = parse_policy(policy_doc)
    result = engine.run(
        workflows, system, users, policy, seed=seed, collect_plans=collect_plans
    )
    out = Path(out_dir)
    result.write_trace_csv(out / f"trace_r{rep}.csv")
    result.write_snapshots_csv(out / f"snapshots_r{rep}.csv")
    result.write_decision_log_csv(out / f"decisions_r{rep}.csv")
    if result.diagnostics:
        result.write_diagnostics_jsonl(out / f"diagnostics_r{rep}.jsonl")
    if result.plan_rows:
        result.write_plans_jsonl(out / f"plans_r{rep}.jsonl")
    summary = result.summary()
    (out / f"metrics_r{rep}.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return {"replication": rep, "seed": seed, "summary": summary}


def load_run_workload(config: dict, base: Path, system: SystemConfig) -> list:
    """The workflows of a checked run config, with their arrivals stamped."""
    wl = config["workload"]
    if ("file" in wl) == ("genspec" in wl):
        raise ConfigError("config.workload: exactly one of file or genspec required")
    if "file" in wl:
        path = base / wl["file"]  # an absolute file replaces the base
        if not path.exists():
            raise ConfigError(f"config.workload.file: file not found: {path}")
        workflows = load_workload(path)
    else:
        workflows, _ = generate_from_spec(wl["genspec"], "config.workload.genspec")
    if "arrivals" in wl:
        workflows = stamp_arrivals(workflows, wl["arrivals"], system.total_capacity(),
                                   config["seed"])
    return workflows


def cmd_run(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    config = check(json.loads(config_path.read_text()), RUN, "config")
    doc = config["system"]
    system = SystemConfig(
        types=tuple(ResourceType(t["id"], t["cost"]) for t in doc["types"]),
        capacity=doc["capacity"],
        interval_s=doc["interval_s"],
        boot_delay_s=doc["boot_delay_s"],
    )
    held = system.types_with_machines()
    if not held:
        raise ConfigError(f"config.system.capacity: expected at least one machine, "
                          f"got {doc['capacity']!r}")
    users = [UserConfig(u["id"], u["budget"]) for u in config["users"]]
    policy = parse_policy(config["policy"])  # reject a bad policy before any work
    workflows = load_run_workload(config, config_path.parent, system)
    # invalid input exits before --out is created
    engine.validate_inputs(workflows, [u.id for u in users], [t.id for t in system.types],
                           [t.id for t in held])
    cheapest, dearest = min(t.cost for t in held), max(t.cost for t in held)
    for u in users:  # a budget that buys no machine can never run the user's work
        if u.budget < cheapest and any(wf.user == u.id for wf in workflows):
            raise ConfigError(f"config.users[{u.id!r}].budget: {u.budget} buys no machine; "
                              f"the cheapest type with machines costs {cheapest}")
        # pfa sizes every user's profile on every tick, with work or without
        if isinstance(policy, PfaPolicy) and u.budget < dearest:
            raise ConfigError(f"config.users[{u.id!r}].budget: {u.budget} is below {dearest}; "
                              f"pfa needs one machine of the dearest type with machines")
    seed = config["seed"] if args.seed is None else args.seed
    reps, collect_plans = config["replications"], config["collect_plans"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    jobs = [
        (system, users, config["policy"], workflows, rep, seed + rep, str(out), collect_plans)
        for rep in range(reps)
    ]
    if args.jobs > 1 and reps > 1:
        # the pool starts all its workers at once: no more than there is work for
        with ProcessPoolExecutor(max_workers=min(args.jobs, reps)) as pool:
            results = list(pool.map(_replication, jobs))
    else:
        results = [_replication(j) for j in jobs]

    combined = {
        "schema": "wfasim-metrics-1",
        "policy": config["policy"]["name"],
        "seed": seed,
        "replications": results,
    }
    (out / "metrics.json").write_text(json.dumps(combined, indent=1, sort_keys=True) + "\n")
    print(f"wrote {reps} replication(s) to {out}")
    return 0


# -- gen ------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    spec = check(json.loads(Path(args.spec).read_text()), GENSPEC, "genspec")
    combined, per_set = generate_from_spec(spec, "genspec")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_workload(combined, out)
    written = [out]
    for name, workflows in per_set.items():
        set_path = out.with_name(f"{out.stem}-{name}{out.suffix or '.json'}")
        save_workload(workflows, set_path)
        written.append(set_path)
    for path in written:
        print(f"wrote {path}")
    return 0


# -- mip ------------------------------------------------------------------------


def _mip_system(instance: mip.MipInstance) -> tuple[SystemConfig, list[UserConfig]]:
    """Simulation setup equivalent to an instance: same machines, the
    billing interval spanning one slot group, the single user's budget."""
    costs = {r.rtype: r.cost for r in instance.resources}  # build_instance allows one per type
    system = SystemConfig(
        types=tuple(ResourceType(t, costs[t]) for t in sorted(costs)),
        capacity=dict(Counter(r.rtype for r in instance.resources)),
        interval_s=instance.slot_s * instance.slots_per_billing,
    )
    user = instance.specs[0].user
    return system, [UserConfig(user, instance.budget)]


def cmd_mip(args: argparse.Namespace) -> int:
    instance_path = Path(args.instance)
    instance = mip.load_instance(instance_path)
    if args.mip_cmd == "export":
        out = Path(args.out) if args.out else instance_path.with_suffix(".lp")
        out.write_text(mip.export_lp(instance))
        print(f"wrote {out}")
        return 0
    if args.mip_cmd == "solve":
        solution = mip.solve_exact(instance)
        issues = mip.check_solution(instance, solution)
        if issues:
            raise AssertionError(f"solver produced an invalid solution: {issues}")
        out = Path(args.out) if args.out else instance_path.with_suffix(".solution.json")
        out.write_text(json.dumps(mip.solution_to_dict(solution), indent=1) + "\n")
        print(f"wrote {out} (profit {solution.profit})")
        return 0
    # compare: optimal schedule vs every policy simulated on the same workload
    solution = mip.solve_exact(instance)
    system, users = _mip_system(instance)
    policies: list[Policy] = [
        PfaPolicy(PfaConfig()),
        PfaPolicy(PfaConfig(smoothing="ewma")),
        PlfPolicy(),
        ScfPolicy(),
    ]
    out = Path(args.out) if args.out else instance_path.with_suffix(".compare.csv")
    rows = []
    for policy in policies:
        result = engine.run(list(instance.specs), system, users, policy, seed=args.seed or 0)
        finishes = mip.run_finishes(result)
        pairs = mip.compare(instance, solution, finishes)
        profit = mip.realized_profit(instance, finishes)
        for pair in pairs:
            rows.append(
                (policy.name, pair["workflow"],
                 f"{pair['optimal_slowdown']:.6f}", f"{pair['heuristic_slowdown']:.6f}")
            )
        mean_h = statistics.fmean(p["heuristic_slowdown"] for p in pairs)
        mean_o = statistics.fmean(p["optimal_slowdown"] for p in pairs)
        print(
            f"{policy.name}: realized profit {profit} vs optimal {solution.profit}; "
            f"mean slowdown {mean_h:.3f} vs optimal {mean_o:.3f}"
        )
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("policy", "workflow", "optimal_slowdown", "heuristic_slowdown"))
        writer.writerows(rows)
    print(f"wrote {out}")
    return 0


# -- entry point -------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfasim", description="budget-constrained autoscaling simulator"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="simulate a workload under a policy")
    p_run.add_argument("--config", required=True, help="experiment config JSON")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--jobs", type=_positive_int, default=1, help="parallel replications")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_gen = sub.add_parser("gen", help="generate a workload file")
    p_gen.add_argument("--spec", required=True, help="generator spec JSON")
    p_gen.add_argument("--out", required=True, help="workload JSON path")
    p_gen.set_defaults(func=cmd_gen)

    p_mip = sub.add_parser("mip", help="slot-grid optimal baseline")
    p_mip.add_argument("mip_cmd", choices=("export", "solve", "compare"))
    p_mip.add_argument("--instance", required=True, help="instance JSON")
    p_mip.add_argument("--out", default=None, help="output file")
    p_mip.add_argument("--seed", type=int, default=0, help="simulation seed for compare")
    p_mip.set_defaults(func=cmd_mip)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except mip.LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (BudgetViolation, CapacityExceeded, AssertionError) as exc:
        print(f"engine invariant violated: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError, ModelError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
