"""The benchmark's hooks into the program resolve and fire.

benchmark/spans.py measures the program from outside: it replaces names
that `cli`, `runner`, `planner`, `config`, `io` and the attractor look
up at call time. A refactor that drops or renames a hooked name, or
calls it other than through its module's globals, would break the
benchmark's `setup_s` or `--trace 1`; these tests fail instead. The
benchmark module is loaded read-only.
"""
import importlib.util
import json
import os

import pytest

from wavenav.cli import main

SPANS_PY = os.path.join(os.path.dirname(__file__), os.pardir,
                        "benchmark", "spans.py")
TINY = {
    "grid": {"nx": 21, "ny": 21},
    "start": [4, 4],
    "target": [16, 16],
    "max_steps": 400,
    "attractor": {"sigma": 0.031},
    "coupling": {"hold": 2},
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(json.dumps(TINY))
    return str(path)


@pytest.mark.parametrize("owner,attr",
                         [(owner, attr) for owner, attr, _, _ in spans.TARGETS])
def test_trace_target_resolves(owner, attr):
    assert callable(getattr(spans.resolve(owner), attr))


def test_setup_clock_patch_points_resolve_and_fire(tiny_cfg, tmp_path, capsys):
    clock = spans.SetupClock()
    try:
        clock.install()  # raises AttributeError if a patch point is gone
        # a config load opens a window, the first wave step closes it:
        # through planner.step_wave for a traversal ...
        assert main(["run", tiny_cfg, "--out", str(tmp_path / "a"),
                     "--max-steps", "3"]) == 2
        assert clock.take() > 0.0
        # ... and through runner.step_wave for a wave-only run
        assert main(["run", tiny_cfg, "--out", str(tmp_path / "b"),
                     "--max-steps", "3", "--set", "start=null"]) == 0
        assert clock.take() > 0.0
    finally:
        clock._patches.restore()
    capsys.readouterr()


def test_every_trace_target_records_a_span(tiny_cfg, tmp_path, capsys):
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert main(["verify", tiny_cfg, "--out", str(tmp_path / "a"),
                     "--frame-stride", "100"]) == 0
        assert main(["render", tiny_cfg, "--out", str(tmp_path / "b"),
                     "--max-steps", "3", "--set", "start=null"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    recorded = {span[0] for span in tracer.spans}
    assert {name for _, _, name, _ in spans.TARGETS} <= recorded
