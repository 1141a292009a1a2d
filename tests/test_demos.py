"""The quick demos still run against the library API."""
import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "demos")


@pytest.mark.parametrize("script,expect", [
    ("01_expanding_wave.py", "expansion speed"),
    ("02_bump_basics.py", "centers while driven east"),
    ("03_simple_traversal.py", "frames:"),
    ("04_mazes.py", "complex,reached"),
    ("05_annihilation.py", "midpoint spike times"),
    ("06_heterogeneous.py", "homogeneous block maze: reached"),
    ("07_oracle.py", "reachable nodes"),
])
def test_demo_runs(script, expect, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demos write under ./demo_out
    runpy.run_path(os.path.join(DEMOS, script), run_name="__main__")
    assert expect in capsys.readouterr().out
