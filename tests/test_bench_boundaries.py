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
