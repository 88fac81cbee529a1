"""Golden output hashes: the exact bytes of a small fixed run are pinned.

Criterion 9 compares two runs of the same code, so it cannot see a change
that reorders dispatch the same way every time. These digests pin the bytes
themselves: any change to event order, dispatch order or machine choice
changes them. Update a digest only for a change that is meant to alter
simulation output, and say so in CHANGES.md.
"""

import hashlib

import pytest

from conftest import two_type_system, users
from wfasim import engine
from wfasim.policies import PfaConfig, PfaPolicy, PlfPolicy, ScfPolicy
from wfasim.workload import WL1, generate_workload

# SHA-256 of trace.csv followed by snapshots.csv
GOLDEN = {
    "pfa-ma": "b5110941eafeccf1486fe348e76ceb979f3a2c033c35a767b190f2c5e6419cfd",
    "pfa-ewma": "c2907867d23d7f9149ebfc9bbc6b06225c5e50915e9b438b954082f127c77af1",
    "plf": "a260a7bfe5b95628fe3d3af268ca54eb78825ccb15d71845c4dd1c8e66625d9d",
    "scf": "e09bd7191c5cd883ff1e57cab2a84a4bcc2e0ce4309d6ebb70ba4d360cb83937",
}


def pfa_ewma():
    return PfaPolicy(PfaConfig(smoothing="ewma"))


@pytest.mark.parametrize(
    "make", [PfaPolicy, pfa_ewma, PlfPolicy, ScfPolicy], ids=lambda m: m().name
)
def test_fixed_run_output_bytes_match_golden_digest(make, tmp_path):
    # 36 workflows (2750 tasks), 2 users, 6 + 6 machines with a boot delay,
    # at utilization 0.6 so tasks queue and several machines idle at once
    system = two_type_system(small=6, large=6, interval_s=60, boot_delay_s=12)
    workflows = generate_workload(36, users=["u1", "u2"], rule=WL1, seed=7)
    workflows = engine.poisson_arrivals(workflows, 0.6, 12, 7)
    result = engine.run(workflows, system, users(("u1", 20), ("u2", 20)), make(), seed=7)
    # the trace parses back from its text as ints and strings, one per column
    trace = result.trace
    assert {type(v) for row in trace for v in row} <= {int, str}
    assert {len(row) for row in trace} == {len(engine.TRACE_COLUMNS)}
    result.write_trace_csv(tmp_path / "trace.csv")
    result.write_snapshots_csv(tmp_path / "snapshots.csv")
    blob = (tmp_path / "trace.csv").read_bytes() + (tmp_path / "snapshots.csv").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[make().name]
