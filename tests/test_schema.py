"""Every field of every input document, set to each kind of bad value.

The field paths come from the schema tables themselves, so a field added to
a table is fuzzed here with no edit. Each case must exit 0 or 2, never with
a traceback, and a case that exits 2 must have written no output.
"""

import copy
import json

import pytest

from wfasim import schema
from wfasim.cli import main

BAD = [None, "x", 2.5, [], {}, True, -1, 0, float("inf")]

SIZES = {"log_median": 4, "log_sigma": 0.2, "min_tasks": 3, "max_tasks": 5}
RUNTIMES = {"log_median": 50, "log_sigma": 1.0, "scale_divisor": 30}
GENSPEC_COUNT = {
    "schema": "wfasim-genspec-1", "seed": 5, "count": 2, "rule": "wl2",
    "users": ["u1"], "types": ["small", "large"], "families": ["fan-reduce", "wide-join"],
    "arrivals": {"utilization": 0.5, "capacity": 4, "seed": 7},
    "runtime_model": RUNTIMES, "size_model": SIZES,
}
GENSPEC_SETS = {
    "schema": "wfasim-genspec-1", "size_model": SIZES,
    "sets": [{"name": "a", "family": "fan-reduce", "count": 1},
             {"name": "b", "family": "layered-pipelines", "count": 1}],
}
RUN_GENSPEC = {
    "schema": "wfasim-config-1", "seed": 3, "replications": 1, "collect_plans": True,
    "system": {
        "types": [{"id": "small", "cost": 1}, {"id": "large", "cost": 5}],
        "capacity": {"small": 2, "large": 2},
        "interval_s": 60,
        "boot_delay_s": 5,
    },
    "users": [{"id": "u1", "budget": 20}],
    "policy": {"name": "pfa", "smoothing": "ma", "ma_depth": 3, "alpha": "0.5"},
    "workload": {"genspec": GENSPEC_COUNT, "arrivals": {"utilization": 0.5, "capacity": 4,
                                                        "seed": 1}},
}
RUN_FILE = {**RUN_GENSPEC, "workload": {"file": "wl.json"}}
RUN_SETS = {**RUN_GENSPEC, "workload": {"genspec": GENSPEC_SETS}}


def _workflow(wf_id, arrival_s):
    rt = {"small": 4, "large": 2}
    return {
        "id": wf_id, "user": "u1", "priority": 5, "arrival_s": arrival_s,
        "tasks": [{"id": "a", "runtimes": rt}, {"id": "b", "runtimes": rt},
                  {"id": "c", "runtimes": rt}],
        "edges": [["a", "b"], ["b", "c"]],
    }


WORKLOAD = {"workflows": [_workflow("w1", 0), _workflow("w2", 30)]}
INSTANCE = {
    "schema": "wfasim-mip-1", "slot_s": 2, "slots_per_billing": 2, "budget": 6, "slots": 8,
    "resources": [{"type": "small", "cost": 1}, {"type": "large", "cost": 5}],
    "workflows": [_workflow("w1", 0)],
}


def walk(kind, path=()):
    """Every position a table defines: a field, each value of a map ("*")
    and each item of a list ("[]")."""
    if type(kind) is schema.Opt:
        yield from walk(kind.kind, path)
    elif type(kind) is dict:
        for key, field in kind.items():
            yield path + (key,)
            yield from walk(field, path + (key,))
    elif type(kind) is schema.ListOf:
        yield path + ("[]",)
        yield from walk(kind.item, path + ("[]",))


def slots(node, path):
    """The (container, key) pairs a position names in a document."""
    head, rest = path[0], path[1:]
    if head == "[]":
        keys = range(len(node)) if type(node) is list else ()
    elif head == "*":
        keys = list(node) if type(node) is dict else ()
    else:
        keys = (head,) if type(node) is dict and head in node else ()
    for key in keys:
        if rest:
            yield from slots(node[key], rest)
        else:
            yield node, key


def run_case(tmp, command, fuzzed):
    """Run one command on a fuzzed document: its exit code, or the exception
    that escaped, and the outputs it left behind."""
    tmp.mkdir()
    (tmp / "wl.json").write_text(json.dumps(WORKLOAD))
    if command == "run":
        (tmp / "config.json").write_text(json.dumps(fuzzed))
        argv = ["run", "--config", str(tmp / "config.json"), "--out", str(tmp / "out")]
    elif command == "run-file":
        (tmp / "config.json").write_text(json.dumps(RUN_FILE))
        (tmp / "wl.json").write_text(json.dumps(fuzzed))
        argv = ["run", "--config", str(tmp / "config.json"), "--out", str(tmp / "out")]
    elif command == "gen":
        (tmp / "spec.json").write_text(json.dumps(fuzzed))
        argv = ["gen", "--spec", str(tmp / "spec.json"), "--out", str(tmp / "out.json")]
    else:
        (tmp / "inst.json").write_text(json.dumps(fuzzed))
        argv = ["mip", "export", "--instance", str(tmp / "inst.json"), "--out",
                str(tmp / "out.lp")]
    try:
        code = main(argv)
    except Exception as exc:  # an escape is the finding, reported with the rest
        code = f"{type(exc).__name__}: {exc}"
    return code, sorted(p.name for p in tmp.glob("out*"))


DOCUMENTS = {
    # table, the command reading it, and valid examples: each position is
    # fuzzed in the first example that holds it
    "run": (schema.RUN, "run", [RUN_GENSPEC, RUN_FILE, RUN_SETS]),
    "genspec": (schema.GENSPEC, "gen", [GENSPEC_COUNT, GENSPEC_SETS]),
    "workload": (schema.WORKLOAD, "run-file", [WORKLOAD]),
    "instance": (schema.INSTANCE, "mip", [INSTANCE]),
}


@pytest.mark.parametrize("document", list(DOCUMENTS))
def test_every_field_set_to_a_bad_value_exits_0_or_2_writing_nothing_on_2(
    tmp_path, capsys, document
):
    table, command, examples = DOCUMENTS[document]
    assert run_case(tmp_path / "valid", command, examples[0])[0] == 0
    positions = list(walk(table))
    unheld = [p for p in positions if not any(any(slots(ex, p)) for ex in examples)]
    assert not unheld, f"no example holds {unheld}"

    failures = []
    for n, path in enumerate(positions):
        example = next(ex for ex in examples if any(slots(ex, path)))
        for m, value in enumerate(BAD):
            fuzzed = copy.deepcopy(example)
            for node, key in slots(fuzzed, path):
                node[key] = copy.deepcopy(value)
            code, outputs = run_case(tmp_path / f"c{n}-{m}", command, fuzzed)
            if code not in (0, 2) or (code == 2 and outputs):
                failures.append((".".join(path), value, code, outputs))
    capsys.readouterr()
    assert not failures, "\n".join(map(repr, failures))
