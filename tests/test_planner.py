import math

import numpy as np
import pytest

from wavenav.attractor import AttractorParams, bump_width
from wavenav.manifold import build_manifold, euclidean_distance
from wavenav.planner import (CouplingParams, detect_overlap, direction_vector,
                             path_length, run_planner)


def mask_of(m, coords):
    mask = np.zeros(m.n, dtype=bool)
    for x, y in coords:
        mask[m.index(x, y)] = True
    return mask


def test_detect_overlap_examples():
    m = build_manifold(41, 41)
    c = mask_of(m, [(10, 10), (11, 10)])
    p = mask_of(m, [(11, 10), (12, 10)])
    assert detect_overlap(c, p, m) == (11.0, 10.0)
    assert detect_overlap(c, mask_of(m, [(30, 30)]), m) is None
    both = mask_of(m, [(3, 4), (5, 4)])
    assert detect_overlap(both, both, m) == (4.0, 4.0)


def test_direction_vector_examples():
    m = build_manifold(41, 41)
    v = direction_vector((11.0, 10.0), m.index(14, 10), m)
    assert v == pytest.approx((-3 / 41, 0.0))
    assert direction_vector((14.0, 10.0), m.index(14, 10), m) == (0.0, 0.0)
    v = direction_vector((10.0, 10.5), m.index(12, 10), m)
    assert v == pytest.approx((-2 / 41, 0.5 / 41))


def test_coupling_params_validation():
    assert CouplingParams().resolved_hold() == 12
    assert CouplingParams(R=12, hold=2).validate().resolved_hold() == 2
    with pytest.raises(ValueError):
        CouplingParams(R=4, hold=6).validate()
    with pytest.raises(ValueError):
        CouplingParams(R=0).validate()
    with pytest.raises(ValueError):
        CouplingParams(arrival_radius=0.5).validate()


def test_precondition_checks():
    m = build_manifold(21, 21, obstacles=[(10, 10, 11, 11)])
    with pytest.raises(ValueError):
        run_planner(m, m.index(10, 10), m.index(4, 4))
    with pytest.raises(ValueError):
        run_planner(m, m.index(4, 4), m.index(11, 11))
    with pytest.raises(ValueError):
        run_planner(m, m.index(4, 4), m.index(4, 4))
    with pytest.raises(ValueError):
        run_planner(m, m.index(4, 4), m.index(5, 4))


def test_degenerate_start_near_target():
    # warm-up pulls a corner-seeded bump inward; the very first arrival
    # check then already passes
    m = build_manifold(41, 41)
    result = run_planner(m, m.index(4, 4), m.index(6, 6),
                         attractor_params=AttractorParams(sigma=0.031))
    assert result.outcome == "reached"
    assert len(result.trajectory) == 1
    assert result.wavefronts_used == 0


def test_budget_exhaustion_is_an_outcome():
    m = build_manifold(41, 41)
    result = run_planner(m, m.index(4, 4), m.index(36, 36),
                         coupling=CouplingParams(max_steps=10))
    assert result.outcome == "step_budget_exhausted"
    assert len(result.trajectory) == 10


def test_simple_traversal_invariants(simple_result):
    cfg, result, _ = simple_result
    m = cfg.build()
    assert result.outcome == "reached"
    assert 6 <= result.wavefronts_used <= 12

    steps = [rec.t for rec in result.trajectory]
    assert steps == sorted(set(steps))

    hits = [rec.t for rec in result.trajectory if rec.wavefront_hit]
    assert all(b - a >= cfg.coupling.R for a, b in zip(hits, hits[1:]))

    target = m.index(*cfg.targets[0])
    hit_dists = [euclidean_distance(m, rec.bump_center, target)
                 for rec in result.trajectory if rec.wavefront_hit]
    assert all(b <= a + 1e-9 for a, b in zip(hit_dists, hit_dists[1:]))

    tx, ty = cfg.targets[0]
    lx, ly = result.path[-1]
    assert math.hypot(lx - tx, ly - ty) <= cfg.coupling.arrival_radius
    assert all(a != b for a, b in zip(result.path, result.path[1:]))


def test_path_starts_at_configured_start(simple_result):
    cfg, result, _ = simple_result
    assert result.path[0] == cfg.start
    # corner seed relaxes one node inward before the run starts, and that
    # first hop counts toward the path length
    assert result.path[1] == (5, 5)


def test_obstacle_safety(maze_results):
    for name, (cfg, result, _) in maze_results.items():
        m = cfg.build()
        assert result.outcome == "reached", name
        for rec in result.trajectory:
            assert not m.is_blocked(rec.bump_center)
        for x, y in result.path:
            assert not m.is_blocked(m.index(x, y))


def test_displacement_per_front_bounded_by_half_width():
    m = build_manifold(41, 41)
    widths = []

    def observer(t, wave, bump, spikes_e):
        widths.append(bump_width(bump))

    result = run_planner(m, m.index(4, 4), m.index(36, 36),
                         attractor_params=AttractorParams(sigma=0.031),
                         coupling=CouplingParams(hold=2), observer=observer)
    assert result.outcome == "reached"
    hits = [rec for rec in result.trajectory if rec.wavefront_hit]
    centers = {rec.t: rec.bump_center for rec in result.trajectory}
    for a, b in zip(hits, hits[1:]):
        ax, ay = m.coords(centers[a.t])
        bx, by = m.coords(centers[b.t])
        moved = math.hypot(bx - ax, by - ay)
        assert moved <= 0.5 * widths[a.t] + 1e-9


def test_block_maze_tie_break_depends_on_jitter_seed():
    m = build_manifold(41, 41, obstacles=[(14, 14, 26, 26)])
    sides = {}
    for jitter_seed in (2, 5):
        p = AttractorParams(sigma=0.031, jitter_seed=jitter_seed,
                            jitter_mag=0.01)
        result = run_planner(m, m.index(4, 20), m.index(36, 20),
                             attractor_params=p,
                             coupling=CouplingParams(hold=2, max_steps=1500))
        assert result.outcome == "reached"
        ys = [y for x, y in result.path if 15 <= x <= 25]
        assert max(ys) < 14 or min(ys) > 26, "path must clear the block"
        sides[jitter_seed] = "above" if max(ys) < 14 else "below"
    assert sides[2] != sides[5]


def test_bump_lost_outcome():
    # weights that cannot sustain a bump extinguish it during warm-up
    m = build_manifold(21, 21)
    p = AttractorParams(J=0.01, sigma=0.03)
    result = run_planner(m, m.index(4, 4), m.index(16, 16), attractor_params=p)
    assert result.outcome == "bump_lost"
    assert result.path == []


def test_path_length_examples(simple_result):
    _, result, _ = simple_result
    total = path_length(result)
    assert total == pytest.approx(
        sum(math.hypot(b[0] - a[0], b[1] - a[1])
            for a, b in zip(result.path, result.path[1:])))
    assert total <= 1.3 * 45.25
