"""Each output checker must reject a corrupted copy of a real output.

Run from the repository root:

    python3 -m pytest wfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from wfasim import engine, mip  # noqa: E402
from wfasim.dagops import ideal_makespan  # noqa: E402
from wfasim.model import SystemConfig, UserConfig  # noqa: E402
from wfasim.workload import WL1, generate_workload  # noqa: E402

BUDGETS = {"u1": 30, "u2": 20}


@pytest.fixture(scope="module")
def real_trace(tmp_path_factory):
    """A small real run of the dynamic and the planning dispatcher."""
    flows = generate_workload(8, users=["u1", "u2"], rule=WL1, seed=3)
    flows = engine.poisson_arrivals(flows, 0.5, 16, seed=3)
    system = SystemConfig(types=workloads.TYPES, capacity={"small": 8, "large": 8}, interval_s=60)
    users = [UserConfig(u, b) for u, b in BUDGETS.items()]
    out = {}
    for policy in ("pfa-ma", "plf"):
        result = engine.run(flows, system, users, workloads.POLICIES[policy](), seed=3)
        path = tmp_path_factory.mktemp(policy) / "trace.csv"
        result.write_trace_csv(path)
        out[policy] = checks.read_trace(path)
    return flows, out


def check(flows, rows):
    return checks.check_trace(rows, flows, workloads.COSTS, BUDGETS)


def find(rows, event, **fields):
    cols = {"user": 2, "workflow": 3, "task": 4, "resource": 5, "rtype": 6}
    for i, row in enumerate(rows):
        if row[1] == event and all(row[cols[k]] == v for k, v in fields.items()):
            return i
    raise LookupError(event, fields)


@pytest.mark.parametrize("policy", ["pfa-ma", "plf"])
def test_real_output_passes(real_trace, policy):
    flows, traces = real_trace
    assert check(flows, traces[policy]) == []


def test_child_started_before_parent_finished(real_trace):
    flows, traces = real_trace
    rows = [list(r) for r in traces["pfa-ma"]]
    wf = next(w for w in flows if w.edges)
    parent, child = wf.edges[0]
    p_end = int(rows[find(rows, "finish", workflow=wf.id, task=parent)][0])
    s = find(rows, "start", workflow=wf.id, task=child)
    f = find(rows, "finish", workflow=wf.id, task=child)
    shift = int(rows[s][0]) - (p_end - 1)
    rows[s][0] = str(int(rows[s][0]) - shift)
    rows[f][0] = str(int(rows[f][0]) - shift)
    assert any("before parent" in i for i in check(flows, rows))


def test_two_tasks_on_one_machine(real_trace):
    flows, traces = real_trace
    rows = [list(r) for r in traces["pfa-ma"]]
    starts = [i for i, r in enumerate(rows) if r[1] == "start"]
    a = rows[starts[0]]
    b_index = next(i for i in starts[1:] if rows[i][5] != a[5] and rows[i][6] == a[6]
                   and rows[i][2] == a[2])
    b = rows[b_index]
    f = find(rows, "finish", workflow=b[3], task=b[4])
    runtime = int(rows[f][0]) - int(b[0])
    for i, t in ((b_index, int(a[0])), (f, int(a[0]) + runtime)):
        rows[i][0] = str(t)
        rows[i][5] = a[5]
    assert any("at once" in i for i in check(flows, rows))


def test_interval_charged_over_budget(real_trace):
    flows, traces = real_trace
    rows = [list(r) for r in traces["pfa-ma"]]
    i = next(i for i, r in enumerate(rows) if r[1] == "charge" and r[6] == "large")
    user = rows[i][2]
    count = BUDGETS[user] // workloads.COSTS["large"] + 1
    rows[i][7] = f"count={count};amount={count * workloads.COSTS['large']}"
    issues = check(flows, rows)
    assert any("over budget" in i for i in issues)


def test_charge_without_held_machines(real_trace):
    flows, traces = real_trace
    rows = [list(r) for r in traces["plf"]]
    i = find(rows, "release")
    del rows[i]  # the machine now stays held, but billing stops charging it
    assert any("held" in i for i in check(flows, rows))


def test_missing_finish(real_trace):
    flows, traces = real_trace
    rows = [list(r) for r in traces["plf"]]
    del rows[find(rows, "finish")]
    assert any("never finished" in i for i in check(flows, rows))


def test_wrong_runtime(real_trace):
    flows, traces = real_trace
    rows = [list(r) for r in traces["plf"]]
    i = find(rows, "finish")
    rows[i][0] = str(int(rows[i][0]) + 1)
    assert any("spec says" in i for i in check(flows, rows))


def test_response_below_critical_path():
    flows = generate_workload(1, users=["u1"], rule=WL1, seed=5)
    wf = flows[0]
    cp = checks.fastest_critical_path(wf)
    assert cp == ideal_makespan(wf)
    rows = [["0", "arrive", "u1", wf.id, "", "", "", ""],
            [str(cp - 1), "workflow_done", "u1", wf.id, "", "", "", ""]]
    assert any("critical path" in i for i in check(flows, rows))


# -- MIP ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mip_cases():
    cases = workloads.MipWorkload(instances=12).setup(7)
    return [(c, mip.solve_exact(c.instance)) for c in cases]


def test_optimal_schedules_pass(mip_cases):
    for case, sol in mip_cases:
        assert case.model.check(sol.x, sol.profit) == []


def test_enumeration_matches_solver(mip_cases):
    small = [(c, s) for c, s in mip_cases if c.model.option_count() <= workloads.ENUMERATION_LIMIT]
    assert small
    for case, sol in small:
        assert case.model.enumerate_optimum() == sol.profit


def test_mispriced_schedule(mip_cases):
    case, sol = mip_cases[0]
    assert any("stated profit" in i for i in case.model.check(sol.x, sol.profit + 1))


def test_overlapping_schedule(mip_cases):
    case, sol = next((c, s) for c, s in mip_cases if len(s.x) >= 2)
    (j1, k1, t1), (j2, _k2, _t2) = sol.x[0], sol.x[1]
    x = [(j1, k1, t1), (j2, k1, t1)] + list(sol.x[2:])
    assert case.model.check(x, sol.profit) != []


def test_schedule_before_arrival(mip_cases):
    case, sol = next((c, s) for c, s in mip_cases
                     if any(wf.arrival_slot > 1 for wf in c.instance.workflows))
    late = {wf.index for wf in case.instance.workflows if wf.arrival_slot > 1}
    x = [(j, k, 1 if case.instance.task(j).wf_index in late else t) for j, k, t in sol.x]
    assert any("arrives" in i for i in case.model.check(x, sol.profit))


def test_schedule_over_budget(mip_cases):
    case, sol = mip_cases[0]
    # every task on its own large machine in slot one breaks the budget of 5
    x = [(j, 3 + (n % 2), 1 + 10 * (n // 2)) for n, (j, _k, _t) in enumerate(sol.x)]
    assert any("over budget" in i for i in case.model.check(x, sol.profit))


def test_missing_task_in_schedule(mip_cases):
    case, sol = mip_cases[0]
    assert any("never start" in i for i in case.model.check(sol.x[1:], sol.profit))


# -- determinism between passes ------------------------------------------------------


class _DriftingWorkload:
    """Writes different output on every pass, as a nondeterministic run would."""

    def __init__(self):
        self.calls = 0

    def setup(self, seed):
        return None

    def operations(self, inputs, seed, out_dir):
        self.calls += 1
        calls = self.calls
        return [workloads.Operation("op", 1, lambda: calls)]

    def check(self, inputs, outputs):
        return []

    def digest(self, outputs):
        return str(outputs["op"])


def test_digest_mismatch_fails_the_run():
    run = bench.Run(_DriftingWorkload(), seed=0)
    bench.measure(run, seconds=0)
    assert not run.correct
    assert any("digest" in i for i in run.issues)
