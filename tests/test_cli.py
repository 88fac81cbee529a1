"""Command-line surface: config validation, file outputs, exit codes."""

import json

import pytest

from conftest import chain_wf, save_instance
from wfasim import cli, engine, mip
from wfasim.cli import main, parse_policy
from wfasim.model import BudgetViolation, load_workload, workflow_to_dict

SIZE_SMALL = {"log_median": 6, "log_sigma": 0.4, "min_tasks": 4, "max_tasks": 12}


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=1))
    return path


def genspec(**extra):
    doc = {"schema": "wfasim-genspec-1", "seed": 5, "size_model": SIZE_SMALL}
    doc.update(extra)
    return doc


def run_config(tmp_path, **overrides):
    doc = {
        "schema": "wfasim-config-1",
        "seed": 3,
        "replications": 2,
        "collect_plans": True,
        "system": {
            "types": [{"id": "small", "cost": 1}, {"id": "large", "cost": 5}],
            "capacity": {"small": 4, "large": 2},
            "interval_s": 60,
        },
        "users": [{"id": "u1", "budget": 20}],
        "policy": {"name": "plf"},
        "workload": {
            "genspec": genspec(count=6),
            "arrivals": {"utilization": 0.3},
        },
    }
    doc.update(overrides)
    return write_json(tmp_path / "config.json", doc)


# -- gen ----------------------------------------------------------------------


def test_gen_writes_combined_and_per_set_files(tmp_path):
    spec = write_json(tmp_path / "spec.json", genspec(sets=[
        {"name": "seta", "family": "fan-reduce", "count": 3},
        {"name": "setb", "family": "wide-join", "count": 2},
    ]))
    out = tmp_path / "wl.json"
    assert main(["gen", "--spec", str(spec), "--out", str(out)]) == 0

    combined = load_workload(out)
    assert [w.id for w in combined] == [
        "seta-0000", "setb-0000", "seta-0001", "setb-0001", "seta-0002",
    ]
    seta = load_workload(tmp_path / "wl-seta.json")
    setb = load_workload(tmp_path / "wl-setb.json")
    assert [w.id for w in seta] == ["seta-0000", "seta-0001", "seta-0002"]
    assert [w.id for w in setb] == ["setb-0000", "setb-0001"]


def test_gen_is_byte_deterministic(tmp_path):
    spec = write_json(tmp_path / "spec.json", genspec(sets=[
        {"name": "s", "family": "layered-pipelines", "count": 2},
    ]))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--spec", str(spec), "--out", str(a)]) == 0
    assert main(["gen", "--spec", str(spec), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a-s.json").read_bytes() == (tmp_path / "b-s.json").read_bytes()


def test_gen_count_makes_single_file(tmp_path):
    spec = write_json(tmp_path / "spec.json", genspec(count=4))
    out = tmp_path / "flat.json"
    assert main(["gen", "--spec", str(spec), "--out", str(out)]) == 0
    assert len(load_workload(out)) == 4
    assert list(tmp_path.glob("flat-*.json")) == []


def test_gen_rejects_unknown_key(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", genspec(count=2, bogus=1))
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "x.json")]) == 2
    assert "bogus" in capsys.readouterr().err


REPEATED_SETS = [{"name": "a", "family": "fan-reduce", "count": 2},
                 {"name": "a", "family": "wide-join", "count": 3}]


@pytest.mark.parametrize("cmd", ["gen", "run"])
def test_a_genspec_that_repeats_a_set_name_is_rejected_before_writing(tmp_path, capsys, cmd):
    # each set is written to a file named by it; a repeated name used to
    # drop the first set's workflows without a word
    if cmd == "gen":
        spec = write_json(tmp_path / "spec.json", genspec(sets=REPEATED_SETS))
        argv, where = ["gen", "--spec", str(spec)], "genspec"
    else:
        config = run_config(tmp_path, workload={"genspec": genspec(sets=REPEATED_SETS)})
        argv, where = ["run", "--config", str(config)], "config.workload.genspec"
    assert main([*argv, "--out", str(tmp_path / "o" / "wl.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {where}.sets[1].name: expected a name no earlier set uses, got 'a'\n")
    assert not (tmp_path / "o").exists()


def test_gen_rejects_a_negative_seed_by_name(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", genspec(count=2, seed=-1))
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err == "error: seed words must be non-negative ints, got -1\n"
    assert not (tmp_path / "x.json").exists()


def test_gen_requires_sets_or_count(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", genspec())
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "x.json")]) == 2
    assert "sets or count" in capsys.readouterr().err


@pytest.mark.parametrize("arrivals,message", [
    ({"utilization": 0, "capacity": 8}, "utilization must be"),
    ({"utilization": 0.3}, "capacity must be"),  # gen has no system to default to
])
def test_gen_rejects_arrivals_without_a_positive_rate(tmp_path, capsys, arrivals, message):
    spec = write_json(tmp_path / "spec.json", genspec(count=2, arrivals=arrivals))
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "x.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


# -- run ----------------------------------------------------------------------


def test_run_writes_every_replication_artifact(tmp_path):
    config = run_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0

    for rep in (0, 1):
        assert (out / f"trace_r{rep}.csv").exists()
        assert (out / f"snapshots_r{rep}.csv").exists()
        assert (out / f"decisions_r{rep}.csv").exists()
        assert (out / f"plans_r{rep}.jsonl").exists()
        assert (out / f"metrics_r{rep}.json").exists()

    combined = json.loads((out / "metrics.json").read_text())
    assert combined["schema"] == "wfasim-metrics-1"
    assert combined["policy"] == "plf"
    assert combined["seed"] == 3
    assert [r["replication"] for r in combined["replications"]] == [0, 1]
    assert [r["seed"] for r in combined["replications"]] == [3, 4]
    summary = combined["replications"][0]["summary"]
    assert "per_user" in summary and "u1" in summary["per_user"]
    assert {"mean_slowdown", "median_slowdown", "cost", "elasticity"} <= set(
        summary["per_user"]["u1"]
    )


def test_run_is_deterministic_outside_timing_logs(tmp_path):
    config = run_config(tmp_path, policy={"name": "pfa"}, replications=1)
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["run", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out2)]) == 0

    for name in ("trace_r0.csv", "snapshots_r0.csv", "diagnostics_r0.jsonl"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def stable_metrics(path):
        doc = json.loads(path.read_text())
        doc.pop("per_policy_runtime_stats", None)
        return doc

    assert stable_metrics(out1 / "metrics_r0.json") == stable_metrics(
        out2 / "metrics_r0.json"
    )


def test_run_parallel_jobs_match_serial(tmp_path):
    config = run_config(tmp_path)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["run", "--config", str(config), "--out", str(serial)]) == 0
    assert main(
        ["run", "--config", str(config), "--jobs", "2", "--out", str(parallel)]
    ) == 0
    for rep in (0, 1):
        name = f"trace_r{rep}.csv"
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


@pytest.mark.parametrize("jobs, reps, workers", [(100000, 2, 2), (3, 5, 3)])
def test_run_starts_no_more_workers_than_replications(tmp_path, monkeypatch, jobs, reps,
                                                      workers):
    # the pool forks all its workers at once, so asking for more than there
    # are replications only starts idle processes; this fake starts none
    asked = []

    class InProcess:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcess)
    config = run_config(tmp_path, replications=reps)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--jobs", str(jobs), "--out", str(out)]) == 0
    assert asked == [workers]
    assert len(json.loads((out / "metrics.json").read_text())["replications"]) == reps


def test_run_seed_flag_overrides_config(tmp_path):
    for policy in ("pfa", "plf", "scf"):  # every name parse_policy accepts
        config = run_config(tmp_path, policy={"name": policy}, replications=1)
        out = tmp_path / policy
        assert main(["run", "--config", str(config), "--seed", "9", "--out", str(out)]) == 0
        combined = json.loads((out / "metrics.json").read_text())
        assert combined["policy"] == policy
        assert combined["seed"] == 9
        assert combined["replications"][0]["seed"] == 9
        assert (out / "plans_r0.jsonl").exists() == (policy != "pfa")


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    config = run_config(tmp_path, bogus=True)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "bogus" in capsys.readouterr().err


def test_run_rejects_wrong_schema(tmp_path, capsys):
    config = run_config(tmp_path, schema="wfasim-config-0")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "schema" in capsys.readouterr().err


def test_run_rejects_pfa_knobs_on_other_policies(tmp_path, capsys):
    config = run_config(tmp_path, policy={"name": "scf", "ma_depth": 4})
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "only apply to pfa" in capsys.readouterr().err


@pytest.mark.parametrize("knob, value", [("ma_depth", 0), ("alpha", 0), ("alpha", "0.999")])
def test_parse_policy_accepts_pfa_bounds_at_their_edges(knob, value):
    policy = parse_policy({"name": "pfa", knob: value})
    assert str(getattr(policy.config, knob)) == str(value)


@pytest.mark.parametrize(
    "knob, value",
    [("ma_depth", -1), ("ma_depth", 2.5), ("ma_depth", True),
     ("alpha", "-0.001"), ("alpha", 1), ("alpha", "x")],
)
def test_run_rejects_pfa_knob_past_its_bound(tmp_path, capsys, knob, value):
    config = run_config(tmp_path, policy={"name": "pfa", knob: value})
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config.policy") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_run_rejects_unknown_policy_name(tmp_path, capsys):
    # a policy that never reserves a machine would never finish this workload
    config = run_config(tmp_path, policy={"name": "none"})
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "unknown name 'none'" in capsys.readouterr().err


def test_run_accepts_pfa_ma_depth_zero(tmp_path):
    config = run_config(tmp_path, policy={"name": "pfa", "ma_depth": 0}, replications=1)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0


def test_run_workload_needs_exactly_one_source(tmp_path, capsys):
    config = run_config(
        tmp_path, workload={"file": "wl.json", "genspec": genspec(count=2)}
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_run_reads_workload_file_relative_to_config(tmp_path):
    spec = write_json(tmp_path / "spec.json", genspec(count=3))
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "wl.json")]) == 0
    config = run_config(tmp_path, workload={"file": "wl.json"}, replications=1)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "trace_r0.csv").exists()


def test_run_missing_workload_file(tmp_path, capsys):
    config = run_config(tmp_path, workload={"file": "absent.json"})
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "not found" in capsys.readouterr().err


def test_run_out_under_a_file_exits_2(tmp_path, capsys):
    config = run_config(tmp_path, replications=1)
    (tmp_path / "file").write_text("")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "file" / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 20] Not a directory")


def test_gen_out_under_a_file_exits_2(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", genspec(count=2))
    (tmp_path / "file").write_text("")
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "file" / "wl.json")]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 17] File exists")


def test_run_config_that_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")
    assert not (tmp_path / "o").exists()


def test_run_invalid_json_config(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "error" in capsys.readouterr().err


# -- mip ----------------------------------------------------------------------


@pytest.fixture()
def instance_path(tmp_path):
    spec = chain_wf("c2", [{"small": 10, "large": 5}, {"small": 10, "large": 5}])
    inst = mip.build_instance(
        [spec], slot_s=5, slots_per_billing=2, budget=6,
        resources=[("small", 1), ("large", 5)],
    )
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    return path


def test_mip_export_writes_lp(instance_path):
    assert main(["mip", "export", "--instance", str(instance_path)]) == 0
    text = instance_path.with_suffix(".lp").read_text()
    assert text.startswith("\\")
    assert "Maximize" in text and "End" in text


def test_mip_solve_writes_checked_solution(instance_path, capsys):
    assert main(["mip", "solve", "--instance", str(instance_path)]) == 0
    doc = json.loads(instance_path.with_suffix(".solution.json").read_text())
    assert doc["schema"] == "wfasim-mip-solution-1"
    assert doc["profit"] == 1
    assert "profit 1" in capsys.readouterr().out


def test_mip_compare_simulates_every_policy(instance_path, capsys):
    assert main(["mip", "compare", "--instance", str(instance_path)]) == 0
    lines = instance_path.with_suffix(".compare.csv").read_text().splitlines()
    assert lines[0] == "policy,workflow,optimal_slowdown,heuristic_slowdown"
    policies = [line.split(",")[0] for line in lines[1:]]
    assert policies == ["pfa-ma", "pfa-ewma", "plf", "scf"]
    assert "vs optimal" in capsys.readouterr().out


def test_mip_solve_over_limits_is_exit_code_3(tmp_path, capsys):
    spec = chain_wf("long", [{"small": 5}] * 9)
    inst = mip.build_instance([spec], 5, 3, 1, [("small", 1)])
    path = tmp_path / "big.json"
    save_instance(inst, path)
    assert main(["mip", "solve", "--instance", str(path)]) == 3
    assert "exceed" in capsys.readouterr().err


def test_mip_missing_instance_file(tmp_path, capsys):
    assert main(["mip", "solve", "--instance", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_run_rejects_workflow_of_unlisted_user(tmp_path, capsys):
    config = run_config(tmp_path, workload={
        "genspec": genspec(count=4, users=["u1", "ghost"]),
        "arrivals": {"utilization": 0.3},
    })
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "UnknownUser(ghost)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_rejects_runtime_on_unknown_type(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", genspec(count=2))
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "wl.json")]) == 0
    doc = json.loads((tmp_path / "wl.json").read_text())
    doc["workflows"][1]["tasks"][0]["runtimes"]["huge"] = 1
    write_json(tmp_path / "wl.json", doc)
    config = run_config(tmp_path, workload={"file": "wl.json"}, replications=1)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "UnknownType(huge)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_mip_compare_rejects_runtime_on_a_type_the_instance_lacks(tmp_path, capsys):
    # The instance holds only small machines. A large runtime would set the
    # ideal makespan that compare divides by, so every subcommand rejects it
    # before writing, as run rejects a runtime on a type the system lacks.
    spec = chain_wf("c2", [{"small": 10, "large": 5}] * 2)
    path = write_json(tmp_path / "inst.json", {
        "schema": "wfasim-mip-1", "slot_s": 5, "slots_per_billing": 2, "budget": 6,
        "resources": [{"type": "small", "cost": 1}] * 2,
        "workflows": [workflow_to_dict(spec)],
    })
    for cmd, suffix in (("export", ".lp"), ("solve", ".solution.json"),
                        ("compare", ".compare.csv")):
        assert main(["mip", cmd, "--instance", str(path)]) == 2
        assert "UnknownType(large)" in capsys.readouterr().err
        assert not path.with_suffix(suffix).exists()


def test_mip_rejects_an_instance_that_gives_one_type_two_costs(tmp_path, capsys):
    # the instance builder checks the costs, so every subcommand rejects the
    # file alike, before writing
    spec = chain_wf("c2", [{"small": 10}] * 2)
    path = write_json(tmp_path / "inst.json", {
        "schema": "wfasim-mip-1", "slot_s": 5, "slots_per_billing": 2, "budget": 6,
        "resources": [{"type": "small", "cost": 1}, {"type": "small", "cost": 2}],
        "workflows": [workflow_to_dict(spec)],
    })
    for cmd, suffix in (("export", ".lp"), ("solve", ".solution.json"),
                        ("compare", ".compare.csv")):
        assert main(["mip", cmd, "--instance", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: instance.resources: expected one cost per type, got 1 and 2 for 'small'\n")
        assert not path.with_suffix(suffix).exists()


def test_mip_rejects_task_without_runtime_on_a_listed_type(instance_path, capsys):
    doc = json.loads(instance_path.read_text())
    del doc["workflows"][0]["tasks"][1]["runtimes"]["large"]
    instance_path.write_text(json.dumps(doc))
    assert main(["mip", "export", "--instance", str(instance_path)]) == 2
    assert "MissingType(large)" in capsys.readouterr().err
    assert not instance_path.with_suffix(".lp").exists()


def test_run_rejects_task_without_runtime_on_a_held_type(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", genspec(count=2))
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "wl.json")]) == 0
    doc = json.loads((tmp_path / "wl.json").read_text())
    del doc["workflows"][1]["tasks"][0]["runtimes"]["large"]
    write_json(tmp_path / "wl.json", doc)
    config = run_config(tmp_path, workload={"file": "wl.json"}, replications=1)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "MissingType(large)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_that_cannot_progress_exits_2(tmp_path, capsys):
    # budget 3 buys a small machine, but plf plans on the fastest type,
    # large at cost 5, so it never reserves one, and nothing else can
    # happen once every workflow has arrived
    doc = {"workflows": [workflow_to_dict(chain_wf("w1", [{"small": 100, "large": 10}]))]}
    write_json(tmp_path / "wl.json", doc)
    config = run_config(tmp_path, users=[{"id": "u1", "budget": 3}],
                        workload={"file": "wl.json"}, replications=1)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "no machine is held and no event is pending" in capsys.readouterr().err


def test_run_rejects_a_budget_that_buys_no_machine_before_writing(tmp_path, capsys):
    config = run_config(tmp_path, users=[{"id": "u1", "budget": 0}], replications=1)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: config.users['u1'].budget: 0 buys no machine; "
        "the cheapest type with machines costs 1")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("budgets", [
    [("u1", 3)],  # the user who owns the work
    [("u1", 20), ("u2", 3)],  # a user without work: pfa decides for it too
], ids=["owner", "no-work"])
def test_run_rejects_a_pfa_budget_below_the_dearest_type_before_writing(
    tmp_path, capsys, budgets
):
    config = run_config(
        tmp_path, users=[{"id": u, "budget": b} for u, b in budgets], policy={"name": "pfa"},
        system={"types": [{"id": "small", "cost": 1}, {"id": "large", "cost": 5}],
                "capacity": {"small": 4, "large": 4}, "interval_s": 60},
        replications=1,
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    user = budgets[-1][0]
    assert capsys.readouterr().err.startswith(
        f"error: config.users['{user}'].budget: 3 is below 5; "
        "pfa needs one machine of the dearest type with machines")
    assert not (tmp_path / "o").exists()


def test_an_engine_invariant_violation_exits_4(tmp_path, capsys, monkeypatch):
    def violate(*args, **kwargs):
        raise BudgetViolation("interval 0: user u1 charged 21 over budget 20")

    monkeypatch.setattr(engine, "run", violate)
    config = run_config(tmp_path, replications=1)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err.startswith(
        "engine invariant violated: interval 0: user u1 charged 21 over budget 20")


def test_run_rejects_duplicate_user_ids(tmp_path, capsys):
    config = run_config(tmp_path, users=[{"id": "u1", "budget": 20}, {"id": "u1", "budget": 9}])
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "duplicate user id 'u1'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_rejects_duplicate_workflow_ids(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", genspec(count=2))
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "wl.json")]) == 0
    doc = json.loads((tmp_path / "wl.json").read_text())
    doc["workflows"][1]["id"] = doc["workflows"][0]["id"]
    write_json(tmp_path / "wl.json", doc)
    config = run_config(tmp_path, workload={"file": "wl.json"}, replications=1)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "DuplicateWorkflow" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("arrivals,message", [
    ({"utilization": 0}, "utilization must be"),
    ({"utilization": -0.2}, "utilization must be"),
    ({"utilization": float("nan")}, "utilization: expected a number, got nan"),
    ({"utilization": 0.3, "capacity": 0}, "capacity must be"),
])
def test_run_rejects_arrivals_without_a_positive_rate(tmp_path, capsys, arrivals, message):
    config = run_config(tmp_path, workload={"genspec": genspec(count=2), "arrivals": arrivals})
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    ("replications", 0), ("replications", -2), ("replications", True),
    ("seed", "3"), ("seed", 3.5), ("seed", True),
    ("collect_plans", "no"),
])
def test_run_rejects_bad_config_scalar_before_writing(tmp_path, capsys, key, value):
    config = run_config(tmp_path, **{key: value})
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: config.{key}: expected ")
    assert not (tmp_path / "o").exists()


def _null_budget(doc):
    doc["users"][0]["budget"] = None


@pytest.mark.parametrize("edit, named", [
    (lambda doc: doc["system"].update(interval_s=None),
     "config.system.interval_s: expected an integer, got None"),
    (_null_budget, "config.users['u1'].budget: expected an integer, got None"),
    (lambda doc: doc["system"].update(capacity=5), "config.system.capacity: expected an object"),
    (lambda doc: doc["system"].update(types=3), "config.system.types: expected a list"),
], ids=["interval_s-null", "budget-null", "capacity-int", "types-int"])
def test_run_rejects_mistyped_system_or_user_field_before_writing(tmp_path, capsys, edit, named):
    doc = json.loads(run_config(tmp_path).read_text())
    edit(doc)
    config = write_json(tmp_path / "config.json", doc)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {named}")
    assert not (tmp_path / "o").exists()


def test_run_rejects_a_system_without_machines_before_writing(tmp_path, capsys):
    config = json.loads(run_config(tmp_path).read_text())
    config["system"]["capacity"] = {}
    write_json(tmp_path / "config.json", config)
    assert main(["run", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: config.system.capacity: expected at least one machine, got {}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_run_rejects_jobs_below_one(tmp_path, capsys, jobs):
    config = run_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config), "--jobs", jobs, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--jobs: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


DROP = object()  # parametrize value: delete the field


@pytest.mark.parametrize("field, value, named", [
    ("edges", DROP, "missing fields ['edges']"),
    ("tasks", 5, ".tasks: expected a list, got 5"),
    ("priority", None, "priority: expected an integer"),
    ("edges", [["t0"]], ".edges[0]: expected a [parent, child] pair, got ['t0']"),
    ("runtimes", DROP, ".tasks['t000']: missing fields ['runtimes']"),
    ("runtimes", {"small": None}, ".tasks['t000'].runtimes.small: expected an integer, got None"),
    ("priority", float("inf"), "priority: expected an integer"),
])
def test_run_rejects_malformed_workload_file_naming_the_field(
    tmp_path, capsys, field, value, named
):
    spec = write_json(tmp_path / "spec.json", genspec(count=2))
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "wl.json")]) == 0
    doc = json.loads((tmp_path / "wl.json").read_text())
    target = doc["workflows"][1]
    if field == "runtimes":
        target = target["tasks"][0]
    if value is DROP:
        del target[field]
    else:
        target[field] = value
    write_json(tmp_path / "wl.json", doc)
    config = run_config(tmp_path, workload={"file": "wl.json"}, replications=1)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: workload.workflows[{doc['workflows'][1]['id']!r}]")
    assert named in err
    assert not (tmp_path / "o").exists()


def test_run_rejects_workload_file_without_workflows(tmp_path, capsys):
    write_json(tmp_path / "wl.json", {"flows": []})
    config = run_config(tmp_path, workload={"file": "wl.json"}, replications=1)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: workload: unknown fields ['flows']")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, value", [
    ("slot_s", "5"), ("budget", "6"), ("slots", "8"), ("slots_per_billing", 2.0),
    ("resources", [{"type": "small"}, {"type": "large", "cost": 5}]),
    ("workflows", {}),
])
def test_mip_rejects_malformed_instance_naming_the_field(instance_path, capsys, field, value):
    doc = json.loads(instance_path.read_text())
    doc[field] = value
    instance_path.write_text(json.dumps(doc))
    assert main(["mip", "export", "--instance", str(instance_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: instance.{field}")
    assert not instance_path.with_suffix(".lp").exists()
