"""Command-line experiment driver.

Subcommands:
  run      simulate a workload under a policy, writing traces and metrics
  gen      generate a synthetic workload file from a generator spec
  mip      export, solve, or compare a slot-grid scheduling instance

Config and spec files are strict JSON with a versioned "schema" field;
unknown keys are rejected so experiment files stay reproducible.

Exit codes: 0 success, 2 invalid config/spec/input, 3 instance over the
exact solver's limits, 4 engine invariant violation (a budget or capacity
breach, which a correct policy never triggers).
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
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
    WorkloadInvalid,
    load_workload,
    save_workload,
)
from .policies import PfaConfig, PfaPolicy, PlfPolicy, Policy, ScfPolicy

CONFIG_SCHEMA = "wfasim-config-1"
GENSPEC_SCHEMA = "wfasim-genspec-1"


class ConfigError(ValueError):
    pass


def _check_keys(obj: dict, where: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - required - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _as_int(value: object, where: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected an integer, got {value!r}") from None


def _expect(value: object, kind: type, where: str) -> None:
    if not isinstance(value, kind):
        what = "a list" if kind is list else "an object"
        raise ConfigError(f"{where}: expected {what}, got {value!r}")


def parse_system(doc: dict) -> SystemConfig:
    _check_keys(doc, "system", {"types", "capacity", "interval_s"}, {"boot_delay_s"})
    _expect(doc["types"], list, "system.types")
    _expect(doc["capacity"], dict, "system.capacity")
    types = []
    for row in doc["types"]:
        _check_keys(row, "system.types[]", {"id", "cost"})
        types.append(ResourceType(str(row["id"]), _as_int(row["cost"], "system.types[].cost")))
    return SystemConfig(
        types=tuple(types),
        capacity={str(k): _as_int(v, f"system.capacity.{k}") for k, v in doc["capacity"].items()},
        interval_s=_as_int(doc["interval_s"], "system.interval_s"),
        boot_delay_s=_as_int(doc.get("boot_delay_s", 0), "system.boot_delay_s"),
    )


def parse_users(rows: list) -> list[UserConfig]:
    _expect(rows, list, "users")
    users = []
    for row in rows:
        _check_keys(row, "users[]", {"id", "budget"})
        users.append(UserConfig(str(row["id"]), _as_int(row["budget"], "users[].budget")))
    if not users:
        raise ConfigError("users: at least one user required")
    return users


def parse_policy(doc: dict) -> Policy:
    _check_keys(doc, "policy", {"name"}, {"smoothing", "ma_depth", "alpha"})
    name = doc["name"]
    if name == "pfa":
        # PfaConfig owns the bounds; this only turns its errors into ConfigError
        try:
            config = PfaConfig(
                smoothing=doc.get("smoothing", "ma"),
                ma_depth=doc.get("ma_depth", 10),
                alpha=str(doc.get("alpha", "0.7")),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"policy: {exc}") from exc
        return PfaPolicy(config)
    extras = {"smoothing", "ma_depth", "alpha"} & set(doc)
    if extras:
        raise ConfigError(f"policy: keys {sorted(extras)} only apply to pfa")
    if name == "plf":
        return PlfPolicy()
    if name == "scf":
        return ScfPolicy()
    raise ConfigError(f"policy: unknown name {name!r}")


def parse_genspec(doc: dict) -> dict:
    """Validate a generator spec; returns it with defaults filled in."""
    _check_keys(
        doc,
        "genspec",
        {"schema"},
        {"seed", "count", "rule", "users", "types", "families", "sets", "arrivals",
         "runtime_model", "size_model"},
    )
    if doc.get("schema") != GENSPEC_SCHEMA:
        raise ConfigError(f"genspec: schema must be {GENSPEC_SCHEMA!r}")
    out = {
        "seed": int(doc.get("seed", 0)),
        "rule": doc.get("rule", "wl1"),
        "users": [str(u) for u in doc.get("users", ["u1"])],
        "types": tuple(doc.get("types", ["small", "large"])),
        "arrivals": None,
        "runtime_model": None,
        "size_model": None,
        "sets": None,
        "count": None,
        "families": tuple(doc.get("families", workload.FAMILIES)),
    }
    workload.second_type_rule(out["rule"])
    for fam in out["families"]:
        workload.DagRecipe(fam)
    if "runtime_model" in doc:
        _check_keys(doc["runtime_model"], "genspec.runtime_model", set(),
                    {"log_median", "log_sigma", "scale_divisor"})
        out["runtime_model"] = workload.RuntimeModel(**doc["runtime_model"])
    if "size_model" in doc:
        _check_keys(doc["size_model"], "genspec.size_model", set(),
                    {"log_median", "log_sigma", "min_tasks", "max_tasks"})
        out["size_model"] = workload.SizeModel(**doc["size_model"])
    if "arrivals" in doc:
        _check_keys(doc["arrivals"], "genspec.arrivals", {"utilization"}, {"capacity", "seed"})
        out["arrivals"] = {
            "utilization": float(doc["arrivals"]["utilization"]),
            "capacity": int(doc["arrivals"].get("capacity", 0)),
            "seed": int(doc["arrivals"].get("seed", out["seed"])),
        }
    if "sets" in doc:
        sets = []
        for row in doc["sets"]:
            _check_keys(row, "genspec.sets[]", {"name", "family", "count"})
            workload.DagRecipe(row["family"])
            sets.append({"name": str(row["name"]), "family": row["family"],
                         "count": int(row["count"])})
        if not sets:
            raise ConfigError("genspec: sets must not be empty")
        out["sets"] = sets
    elif "count" in doc:
        out["count"] = int(doc["count"])
        if out["count"] < 1:
            raise ConfigError("genspec: count must be >= 1")
    else:
        raise ConfigError("genspec: either sets or count is required")
    return out


def generate_from_spec(spec: dict) -> tuple[list, dict[str, list]]:
    """Workflows for a parsed genspec: the combined interleaved workload
    plus each named set separately."""
    common = dict(
        users=spec["users"],
        rule=spec["rule"],
        types=spec["types"],
        runtime_model=spec["runtime_model"],
        size_model=spec["size_model"],
    )
    per_set: dict[str, list] = {}
    if spec["sets"] is None:
        combined = workload.generate_workload(
            spec["count"], families=spec["families"], seed=spec["seed"], **common
        )
    else:
        for idx, s in enumerate(spec["sets"]):
            per_set[s["name"]] = workload.generate_workload(
                s["count"],
                families=(s["family"],),
                seed=[spec["seed"], idx],
                id_prefix=f"{s['name']}-",
                **common,
            )
        combined = []
        lists = list(per_set.values())
        longest = max(len(v) for v in lists)
        for i in range(longest):
            for v in lists:
                if i < len(v):
                    combined.append(v[i])
    if spec["arrivals"]:
        arr = spec["arrivals"]
        combined = engine.poisson_arrivals(
            combined, arr["utilization"], arr["capacity"], arr["seed"]
        )
    return combined, per_set


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
    wl = config["workload"]
    _check_keys(wl, "workload", set(), {"file", "genspec", "arrivals"})
    if ("file" in wl) == ("genspec" in wl):
        raise ConfigError("workload: exactly one of file or genspec required")
    if "file" in wl:
        path = Path(wl["file"])
        if not path.is_absolute():
            path = base / path
        if not path.exists():
            raise ConfigError(f"workload: file not found: {path}")
        workflows = load_workload(path)
    else:
        spec = parse_genspec(wl["genspec"])
        workflows, _ = generate_from_spec(spec)
    if "arrivals" in wl:
        _check_keys(wl["arrivals"], "workload.arrivals", {"utilization"}, {"capacity", "seed"})
        capacity = int(wl["arrivals"].get("capacity", system.total_capacity()))
        workflows = engine.poisson_arrivals(
            workflows,
            float(wl["arrivals"]["utilization"]),
            capacity,
            int(wl["arrivals"].get("seed", config.get("seed", 0))),
        )
    return workflows


def cmd_run(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    config = json.loads(config_path.read_text())
    _check_keys(
        config,
        "config",
        {"schema", "system", "users", "policy", "workload"},
        {"seed", "replications", "collect_plans"},
    )
    if config.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(f"config: schema must be {CONFIG_SCHEMA!r}")
    seed = config.get("seed", 0)
    reps = config.get("replications", 1)
    collect_plans = config.get("collect_plans", False)
    if type(seed) is not int:  # a bool is an int to isinstance
        raise ConfigError(f"config: seed must be an int, got {seed!r}")
    if type(reps) is not int or reps < 1:
        raise ConfigError(f"config: replications must be an int >= 1, got {reps!r}")
    if not isinstance(collect_plans, bool):
        raise ConfigError(f"config: collect_plans must be true or false, got {collect_plans!r}")
    system = parse_system(config["system"])
    users = parse_users(config["users"])
    parse_policy(config["policy"])  # reject a bad policy before any work
    workflows = load_run_workload(config, config_path.parent, system)
    # invalid input exits before --out is created
    held = [t for t, count in system.capacity.items() if count > 0]
    engine.validate_inputs(workflows, [u.id for u in users], [t.id for t in system.types], held)
    if args.seed is not None:
        seed = args.seed
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    jobs = [
        (system, users, config["policy"], workflows, rep, seed + rep, str(out), collect_plans)
        for rep in range(reps)
    ]
    if args.jobs > 1 and reps > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
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
    spec = parse_genspec(json.loads(Path(args.spec).read_text()))
    combined, per_set = generate_from_spec(spec)
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
    costs: dict[str, int] = {}
    counts: dict[str, int] = {}
    for r in instance.resources:
        if r.rtype in costs and costs[r.rtype] != r.cost:
            raise ConfigError(f"instance: type {r.rtype} has inconsistent costs")
        costs[r.rtype] = r.cost
        counts[r.rtype] = counts.get(r.rtype, 0) + 1
    system = SystemConfig(
        types=tuple(ResourceType(t, costs[t]) for t in sorted(costs)),
        capacity=counts,
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
    except (ConfigError, WorkloadInvalid, mip.WorkloadMismatch, mip.HorizonTooShort,
            FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except mip.LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (BudgetViolation, CapacityExceeded, AssertionError) as exc:
        print(f"engine invariant violated: {exc}", file=sys.stderr)
        return 4
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
