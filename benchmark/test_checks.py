"""Self-tests for the benchmark's output checks.

    python3 -m pytest -q benchmark/test_checks.py

They need neither the program nor its outputs: each checker is shown a
well-formed output and a hand-corrupted copy of it.
"""
import json
import math
import os

import numpy as np
import pytest

import checks
from workloads import OPEN71

SCENARIOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "src", "wavenav", "scenarios")
HEADER = "t,bump_x,bump_y,delta_x,delta_y,overlap_size,exc_spikes,wavefront_hit"


def scenario(name: str) -> dict:
    with open(os.path.join(SCENARIOS, name + ".cfg"), encoding="utf-8") as fh:
        return json.load(fh)


def trajectory(points, path_length=None, outcome="reached") -> str:
    """A trajectory.csv in the program's format, one row per point."""
    if path_length is None:
        path_length = sum(math.hypot(b[0] - a[0], b[1] - a[1])
                          for a, b in zip(points, points[1:]) if a != b)
    lines = [HEADER] + [f"{t},{x},{y},0,0,0,0,0" for t, (x, y) in enumerate(points)]
    lines.append(f"# outcome={outcome} steps={len(points)} wavefronts=1"
                 f" path_length={path_length:.9g}")
    return "\n".join(lines) + "\n"


def detour():
    """Points from block.cfg's start under the block to its target."""
    pts = [(4, y) for y in range(20, 29)]
    pts += [(x, 28) for x in range(5, 37)]
    pts += [(36, y) for y in range(27, 21, -1)]
    return pts


@pytest.mark.parametrize("cfg, expected", [
    (scenario("block"), 37.80), (scenario("s_maze"), 90.43),
    (scenario("complex"), 48.77), (scenario("simple"), 45.25),
    (OPEN71, 82.02)])
def test_optimum_matches_expected(cfg, expected):
    assert round(checks.optimum_length(cfg), 2) == expected


def test_optimum_of_open_grid_is_octile():
    cfg = {"grid": {"nx": 9, "ny": 5}, "start": [0, 0], "target": [8, 3]}
    assert checks.optimum_length(cfg) == pytest.approx(5 + 3 * math.sqrt(2))


def test_well_formed_traversal_passes():
    report = {"outcome": "reached", "bfs_length": "45.2548"}
    assert checks.check_traversal(scenario("block"), trajectory(detour()),
                                  37.80, 0, report) == []


def test_bump_on_blocked_node_rejected():
    pts = detour()
    pts[12] = (20, 20)  # inside block.cfg's centre rectangle
    problems = checks.check_traversal(scenario("block"), trajectory(pts), 37.80, 0)
    assert any("blocked" in p for p in problems)


def test_wrong_footer_length_rejected():
    pts = detour()
    text = trajectory(pts, path_length=len(pts) - 2.0)
    problems = checks.check_traversal(scenario("block"), text, 37.80, 0)
    assert any("footer says" in p for p in problems)


def test_footer_counting_hop_from_start_accepted():
    pts = detour()  # begins at block.cfg's start (4, 20)
    text = trajectory(pts[3:], path_length=3.0 + (len(pts) - 4))
    assert checks.check_traversal(scenario("block"), text, 37.80, 0) == []


def test_unreached_target_and_bad_exit_rejected():
    pts = detour()[:-3]
    problems = checks.check_traversal(scenario("block"), trajectory(pts), 37.80, 2)
    assert any("exit code" in p for p in problems)
    assert any("not within" in p for p in problems)


def test_straight_line_floor_measured_from_config_start():
    # simple.cfg: start (4, 4), target (36, 36), arrival radius 2
    floor = checks.straight_line_floor(scenario("simple"))
    assert floor == pytest.approx(32 * math.sqrt(2) - 2)
    # a diagonal from (5, 5), one node past the start, falls short of it
    assert 30 * math.sqrt(2) < floor < 31 * math.sqrt(2)


def test_report_optimum_below_reference_rejected():
    report = {"outcome": "reached", "bfs_length": "37.5000"}
    problems = checks.check_traversal(scenario("block"), trajectory(detour()),
                                      37.80, 0, report)
    assert any("below the optimum" in p for p in problems)


def ring(n=11, c=5, r=3):
    ys, xs = np.mgrid[0:n, 0:n]
    return np.abs(np.hypot(xs - c, ys - c) - r) < 0.5


def test_square_symmetry_rejects_asymmetric_frame():
    frame = ring()
    assert checks.is_square_symmetric(frame, 5, 5)
    frame[1, 2] = ~frame[1, 2]
    assert not checks.is_square_symmetric(frame, 5, 5)


def test_mirror_symmetry_rejects_asymmetric_frame():
    frame = np.zeros((5, 9), dtype=bool)
    frame[2, [1, 7]] = True
    assert checks.is_mirror_symmetric(frame, 2, 6)
    frame[0, 3] = True
    assert not checks.is_mirror_symmetric(frame, 2, 6)


def test_frame_coding_catches_hidden_spike():
    blocked = np.zeros((3, 3), dtype=bool)
    blocked[0, 0] = True
    frame = np.array([[128, 0, 255], [0, 0, 0], [255, 0, 0]], dtype=np.uint8)
    assert checks.check_frame(frame, blocked, 2) == []
    # a spike on the blocked node is counted by the log but rendered 128
    assert checks.check_frame(frame, blocked, 3)
    frame[1, 1] = 7
    assert checks.check_frame(frame, blocked, 2)


def emissions(steps=200, period=50):
    """Spike masks of a source at (0, 0) bursting every `period` steps,
    each burst followed by a one-node front."""
    masks = [np.zeros((3, 3), dtype=bool) for _ in range(steps)]
    for t in range(0, steps, period):
        masks[t][0, 0] = masks[t + 1][0, 0] = True  # the source bursts: allowed
        masks[t + 2][1, 1] = True
        masks[t + 3][2, 2] = True
    return masks


def test_regular_cycles_pass():
    assert checks.check_cycles(emissions(), [(0, 0)]) == ([], 3, 0)


def test_doubled_spike_counted():
    masks = emissions()
    masks[54][1, 1] = True
    assert checks.check_cycles(masks, [(0, 0)]) == ([], 3, 1)


def test_render_without_emissions_rejected():
    masks = [np.zeros((3, 3), dtype=bool) for _ in range(1000)]
    problems, cycles, doubled = checks.check_cycles(masks, [(0, 0)])
    assert problems and cycles == 0 and doubled == 0


def test_merged_bursts_rejected():
    problems, _, _ = checks.check_cycles(emissions(1000, 250), [(0, 0)])
    assert any("silent" in p for p in problems)


def test_cycle_without_front_rejected():
    masks = emissions()
    masks[52][1, 1] = masks[53][2, 2] = False
    problems, _, _ = checks.check_cycles(masks, [(0, 0)])
    assert any("no front" in p for p in problems)


def test_emission_starts_split_bursts_at_gaps():
    spiking = [False, True, True, False, True] + [False] * 10 + [True, True]
    assert checks.emission_starts(spiking) == [1, 15]


def test_front_speed_of_unit_ring():
    masks = {t: ring(n=41, c=20, r=t) for t in range(0, 20, 5)}
    assert checks.front_speed(masks, 20, 20) == pytest.approx(1.0, abs=0.05)
