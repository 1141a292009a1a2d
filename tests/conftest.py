import dataclasses
import os

import pytest

from wavenav.config import load_config
from wavenav.io import report_row
from wavenav.runner import verify_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                            "src", "wavenav", "scenarios")


def scenario_path(name: str) -> str:
    return os.path.join(SCENARIO_DIR, name + ".cfg")


def load_scenario(name: str, seed: int | None = None):
    cfg = load_config(scenario_path(name))
    if seed is not None:
        cfg.synapse = dataclasses.replace(cfg.synapse, seed=seed)
    return cfg


@pytest.fixture(scope="session")
def maze_results():
    """Run and verify the three shipped mazes once per test session."""
    out = {}
    for name in ("s_maze", "block", "complex"):
        cfg = load_scenario(name)
        result, record = verify_scenario(cfg)
        out[name] = (cfg, result, report_row(record))
    return out


@pytest.fixture(scope="session")
def simple_result():
    cfg = load_scenario("simple")
    result, record = verify_scenario(cfg)
    return cfg, result, report_row(record)
