"""Run acceptance criterion 4 (decision-time ordering) many times, each in a
fresh process, and summarize its two ratios.

Usage::

    python3 tools/criterion4.py <repo root> [--runs N]

Each run is ``python -m pytest tests/test_acceptance.py -k criterion_04 -s
-p no:cacheprovider`` in ``<repo root>``, with ``<repo root>/src`` first on
``PYTHONPATH``, one after another so that no two runs share the cores.
Neither pytest's cache nor bytecode is written, so nothing in the checkout
changes. A run alone can read differently from one inside the full suite,
whose earlier tests change what the garbage collector holds: run the suite
for that reading.

The script prints each run's verdict and its two ratios (PFA's mean
decision time over PLF's, and over SCF's; the bar is 0.50), then the
minimum, median and maximum of each ratio and the count of failed runs. It
exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

VERDICT = re.compile(r"\[criterion 4\] (PASS|FAIL): .*ratios ([0-9.]+) and ([0-9.]+)")
COMMAND = ("-m", "pytest", "tests/test_acceptance.py", "-k", "criterion_04", "-q", "-s",
           "-p", "no:cacheprovider")


def one_run(root: Path) -> tuple[bool, float, float] | None:
    """Run criterion 4 once; its verdict and ratios, or None if the run
    printed no verdict."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *COMMAND], cwd=root, env=env,
                          capture_output=True, text=True)
    match = VERDICT.search(proc.stdout)
    if match is None:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    return match[1] == "PASS" and proc.returncode == 0, float(match[2]), float(match[3])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, help="the checkout to test")
    parser.add_argument("--runs", type=int, default=20, help="fresh processes to run")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    root = args.root.resolve()
    plf, scf, failed = [], [], 0
    for k in range(1, args.runs + 1):
        result = one_run(root)
        if result is None:
            failed += 1
            print(f"run {k:2d}: no verdict", flush=True)
            continue
        ok, r_plf, r_scf = result
        failed += not ok
        plf.append(r_plf)
        scf.append(r_scf)
        print(f"run {k:2d}: {'PASS' if ok else 'FAIL'}  plf {r_plf:.2f}  scf {r_scf:.2f}",
              flush=True)
    for name, ratios in (("plf", plf), ("scf", scf)):
        if ratios:
            print(f"{name} ratio: min {min(ratios):.2f}  median {statistics.median(ratios):.2f}"
                  f"  max {max(ratios):.2f}")
    print(f"failed: {failed} of {args.runs}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
