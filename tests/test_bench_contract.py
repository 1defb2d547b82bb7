"""The benchmark's tracer (bench/spans.py) reaches into hyperpos by name.

It rebinds module-level functions, counts `HomoPoly.__init__` calls by
replacing the method, and reads attributes of the results it keeps.  A
refactor that renames any of these would silently break `--trace 1`, so the
names are pinned here.  spans.py is loaded from its path and is not changed.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from hyperpos.polyring import HomoPoly

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"
MODULES = ("cli", "groebner", "heights", "polyring", "position", "replace", "weights")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hyperpos():
    return SimpleNamespace(**{name: importlib.import_module("hyperpos." + name)
                              for name in MODULES})


def test_every_target_is_a_callable(spans):
    for module, func, _ in spans.TARGETS:
        target = getattr(importlib.import_module("hyperpos." + module), func, None)
        assert callable(target), f"{module}.{func}"


def test_replace_binds_poly_combine():
    hp = _hyperpos()
    assert hp.replace.poly_combine is hp.polyring.poly_combine


def test_homopoly_init_is_a_plain_function():
    assert inspect.isfunction(HomoPoly.__init__)


def test_traced_session_reports_every_layer(spans, tmp_path, capsys):
    hp = _hyperpos()
    conf = tmp_path / "lines.json"
    conf.write_text(json.dumps({"ambient": 2, "variety": [],
                                "family": ["x0", "x1", "x2", "x0 + x1 + x2"]}))
    conic = hp.position.build_variety([hp.polyring.parse_poly("x0*x2 - x1^2", 3)])
    init = HomoPoly.__init__
    tracer = spans.Tracer(hp)
    tracer.install()
    try:
        for command in ("delta", "replace"):
            assert hp.cli.main([command, "--config", str(conf), "--no-cache"]) == 0
        hp.heights.sample_points(conic, 5)
        hp.polyring.HomoPoly.zero(3)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert HomoPoly.__init__ is init
    metrics = tracer.layer_metrics(1, 0, 0, 0)
    assert metrics["polyring.parse.calls"] == 4 + 4
    # parse_poly builds its result unchecked: the one counted constructor call
    # is the zero polynomial's
    assert metrics["polyring.homopoly.inits"] == 1
    assert metrics["groebner.basis.calls"] > 0
    assert metrics["position.gb_calls_per_subset"] >= 0
    assert metrics["replace.candidates"] >= 2
    assert metrics["heights.sample_points.points"] == 5


def test_bench_smoke_passes():
    """`bench/run.py --smoke` runs every workload, traced and untraced, at a
    tiny size: answers must match bench/pinned.json and metric names
    BENCHMARK.json.  It writes only under the ignored .benchrun/."""
    done = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1:] == ['{"smoke": "ok"}'], done.stderr
    assert done.returncode == 0
