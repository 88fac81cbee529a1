"""The benchmark's traced run still finds every boundary it measures at.

``wfbench/spans.py`` wraps program names (module globals, and methods in
their own class body) by looking them up. A name the program no longer has
is skipped without a word, and the per-layer metrics measured at that
boundary drop out of the traced report. Renaming or moving such a name fails
this test instead.
"""

import json
import sys
from pathlib import Path

from conftest import chain_wf, small_only_system, users
from wfasim import engine, mip
from wfasim.policies import PfaPolicy

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_every_declared_boundary():
    sys.path.insert(0, str(ROOT / "wfbench"))
    try:
        import spans
    finally:
        sys.path.remove(str(ROOT / "wfbench"))
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(spans.PER_LAYER) == declared

    tracer = spans.Tracer()
    tracer.install()
    try:
        boundaries = {b for _unit, b in spans.PER_LAYER.values() if b is not None}
        assert boundaries - tracer.installed == set()
    finally:
        tracer.uninstall()


def test_engine_and_mip_validate_each_workflow_at_the_traced_boundary():
    # dagops.validate_s is measured at engine.validate_workflow; a validator
    # that stopped calling through that name would read 0 without failing.
    # A run validates and compiles each workflow once: a second pass would
    # cost time without changing any output.
    sys.path.insert(0, str(ROOT / "wfbench"))
    try:
        import spans
    finally:
        sys.path.remove(str(ROOT / "wfbench"))
    workflows = [chain_wf("w1", [{"small": 10}] * 2), chain_wf("w2", [{"small": 5}])]
    tracer = spans.Tracer()
    tracer.install()
    try:
        engine.run(workflows, small_only_system(), users(("u1", 10)), PfaPolicy())
        in_run = [s[0] for s in tracer.spans].count("dagops.validate")
        builds = [s[0] for s in tracer.spans].count("dagops.graph_build")
        mip.build_instance(workflows[:1], 5, 2, 6, [("small", 1)])
        in_build = [s[0] for s in tracer.spans].count("dagops.validate") - in_run
    finally:
        tracer.uninstall()
    assert (in_run, builds, in_build) == (2, 2, 1)
