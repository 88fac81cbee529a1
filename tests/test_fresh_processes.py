"""Runs in fresh interpreters.

Output bytes must not depend on ``PYTHONHASHSEED``, which changes the
iteration order of sets and of dicts built from them; a test process has one
hash seed, so other seeds need their own processes. The benchmark's traced
run must end in one result line, whatever the program's internals look like
to the span wrappers. The program must run without numpy, which a test
process may already hold.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
@pytest.mark.parametrize("policy", ["PfaPolicy", "PlfPolicy"])
def test_golden_digests_hold_under_hash_seed(policy, hash_seed, tmp_path):
    # the golden test itself, with its digests, in a process with this seed
    code = (
        "import pathlib, sys, test_golden\n"
        "test_golden.test_fixed_run_output_bytes_match_golden_digest(\n"
        f"    test_golden.{policy}, pathlib.Path(sys.argv[1]))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "tests"))))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]


def numbers(x):
    if isinstance(x, dict):
        return [n for v in x.values() for n in numbers(v)]
    if isinstance(x, list):
        return [n for v in x for n in numbers(v)]
    return [x] if isinstance(x, (int, float)) and not isinstance(x, bool) else []


@pytest.mark.parametrize("workload", ["grid-feedback", "grid-planning"])
def test_traced_benchmark_run_ends_in_a_finite_result(workload):
    proc = subprocess.run(
        [sys.executable, "wfbench/run.py", "--workload", workload,
         "--seed", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    values = numbers(result["metrics"])
    assert len(values) == len(result["metrics"])
    assert all(math.isfinite(v) for v in values)


def test_the_cli_and_the_generator_import_no_numpy():
    code = (
        "import sys, wfasim.cli\n"
        "from wfasim.workload import generate_workload\n"
        "generate_workload(6, users=['u1', 'u2'], seed=1)\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
