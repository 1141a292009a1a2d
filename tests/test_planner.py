import math

import numpy as np
import pytest
from conftest import load_scenario

from wavenav.attractor import AttractorParams, init_bump
from wavenav.manifold import build_manifold, euclidean_distance
from wavenav.oracle import geometric_length
from wavenav.planner import (CouplingParams, detect_overlap, direction_vector,
                             path_length, run_planner)
from wavenav.wave import SynapseConfig


def mask_of(m, coords):
    mask = np.zeros(m.n, dtype=bool)
    for x, y in coords:
        mask[m.index(x, y)] = True
    return mask


def first_of(m, steps):
    """First-spike steps: -1, except the given {(x, y): step}."""
    first = np.full(m.n, -1, dtype=np.int32)
    for (x, y), t in steps.items():
        first[m.index(x, y)] = t
    return first


def test_detect_overlap_examples():
    m = build_manifold(41, 41)
    c = mask_of(m, [(10, 10), (11, 10)])
    p = mask_of(m, [(11, 10), (12, 10)])
    first = first_of(m, {(11, 10): 7, (12, 10): 7})
    assert detect_overlap(c, p, first, m) == (11.0, 10.0)
    assert detect_overlap(c, mask_of(m, [(30, 30)]), first, m) is None
    # the aim is the footprint's earliest arrivals, not the live overlap
    first = first_of(m, {(10, 10): 3, (11, 10): 7, (12, 10): 7})
    assert detect_overlap(c, p, first, m) == (10.0, 10.0)
    both = mask_of(m, [(3, 4), (4, 4), (5, 4)])
    first = first_of(m, {(3, 4): 5, (4, 4): 5, (5, 4): 5})
    assert detect_overlap(both, both, first, m) == (4.0, 4.0)
    # a mirror tie: two equal earliest groups on either side of a block;
    # the aim goes to the one that holds the lowest node index
    c = mask_of(m, [(x, y) for x in range(17, 24) for y in range(10, 17)])
    p = mask_of(m, [(20, 10), (21, 10), (20, 16), (21, 16)])
    first = first_of(m, {(20, 10): 40, (21, 10): 40, (20, 16): 40,
                         (21, 16): 40, (19, 13): 50})
    assert detect_overlap(c, p, first, m) == (20.5, 10.0)


def test_direction_vector_examples():
    m = build_manifold(41, 41)
    v = direction_vector((11.0, 10.0), m.index(14, 10), m)
    assert v == pytest.approx((-3 / 41, 0.0))
    assert direction_vector((14.0, 10.0), m.index(14, 10), m) == (0.0, 0.0)
    v = direction_vector((10.0, 10.5), m.index(12, 10), m)
    assert v == pytest.approx((-2 / 41, 0.5 / 41))


def test_coupling_params_validation():
    assert CouplingParams().resolved_hold() == 12
    assert CouplingParams(R=12, hold=2).resolved_hold() == 2
    with pytest.raises(ValueError):
        CouplingParams(R=4, hold=6)
    with pytest.raises(ValueError):
        CouplingParams(R=0)
    with pytest.raises(ValueError):
        CouplingParams(arrival_radius=0.5)


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
    m = cfg.manifold
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


def assert_coupling_windows(result, coupling):
    """Hits at least R steps apart, each hit's delta held for `hold` steps."""
    hits = [rec for rec in result.trajectory if rec.wavefront_hit]
    assert hits
    assert all(b.t - a.t >= coupling.R for a, b in zip(hits, hits[1:]))
    held = {t: hit.delta for hit in hits
            for t in range(hit.t, hit.t + coupling.resolved_hold())}
    for rec in result.trajectory:
        assert rec.delta == held.get(rec.t, (0.0, 0.0)), rec.t
    assert result.wavefronts_used == len(hits)


def test_refractory_and_hold_windows(simple_result):
    cfg, result, _ = simple_result
    assert cfg.coupling.resolved_hold() == 2 < cfg.coupling.R
    assert_coupling_windows(result, cfg.coupling)
    # hold left at its default, R: delta is held for the whole window
    m = build_manifold(21, 21)
    coupling = CouplingParams(max_steps=400)
    assert coupling.hold is None
    result = run_planner(m, m.index(2, 2), m.index(18, 18),
                         attractor_params=AttractorParams(sigma=0.031),
                         coupling=coupling)
    assert result.wavefronts_used >= 2
    assert_coupling_windows(result, coupling)


def test_path_starts_at_configured_start(simple_result):
    cfg, result, _ = simple_result
    assert result.path[0] == cfg.start
    # corner seed relaxes one node inward before the run starts, and that
    # first hop counts toward the path length
    assert result.path[1] == (5, 5)


def test_obstacle_safety(maze_results):
    for name, (cfg, result, _) in maze_results.items():
        m = cfg.manifold
        assert result.outcome == "reached", name
        for rec in result.trajectory:
            assert not m.is_blocked(rec.bump_center)
        for x, y in result.path:
            assert not m.is_blocked(m.index(x, y))


def test_displacement_per_front_bounded_by_half_width():
    m = build_manifold(41, 41)
    widths = []

    def write_frame(t, spikes_e, activity):
        # the bump's width: the largest axis extent of its nonzero support
        on = activity > 0.0
        widths.append(max(np.ptp(m.xs[on]), np.ptp(m.ys[on])) + 1)

    result = run_planner(m, m.index(4, 4), m.index(36, 36),
                         attractor_params=AttractorParams(sigma=0.031),
                         coupling=CouplingParams(hold=2),
                         write_frame=write_frame)
    assert result.outcome == "reached"
    hits = [rec for rec in result.trajectory if rec.wavefront_hit]
    centers = {rec.t: rec.bump_center for rec in result.trajectory}
    for a, b in zip(hits, hits[1:]):
        ax, ay = m.coords(centers[a.t])
        bx, by = m.coords(centers[b.t])
        moved = math.hypot(bx - ax, by - ay)
        assert moved <= 0.5 * widths[a.t] + 1e-9


def fast_path_case(name):
    """(m, start, target, synapse, attractor, coupling) of a run the
    golden rows do not pin."""
    if name == "31x23_obstacle_hold_3":
        m = build_manifold(31, 23, obstacles=[(13, 0, 16, 14)])
        return (m, m.index(4, 4), m.index(26, 6), SynapseConfig(),
                AttractorParams(sigma=0.031),
                CouplingParams(R=8, hold=3, max_steps=800))
    cfg = load_scenario("block_heterogeneous", seed=4)
    m = cfg.manifold
    return (m, m.index(*cfg.start), m.index(*cfg.targets[0]), cfg.synapse,
            cfg.attractor, cfg.coupling)


@pytest.mark.parametrize("name", ["31x23_obstacle_hold_3",
                                  "block_heterogeneous_seed_4"])
def test_overlap_read_at_the_spikes_is_the_footprint_overlap(name):
    """Each record's overlap_size is |footprint of the previous A ∩ E
    spikes| on the steps that looked for a front, and 0 on the others;
    every frame gets its own activity array, never written again."""
    m, start, target, synapse, attractor, coupling = fast_path_case(name)
    frames, copies = [], []

    def write_frame(t, spikes_e, activity):
        frames.append((spikes_e.copy(), activity))
        copies.append(activity.copy())

    result = run_planner(m, start, target, synapse, attractor, coupling,
                         write_frame=write_frame)
    assert len(frames) == len(result.trajectory)
    prev = init_bump(m, start, attractor).A  # what the run's first step saw
    last_hit, looked = -coupling.R, 0
    for rec, (spikes_e, activity) in zip(result.trajectory, frames):
        expected = 0
        if rec.t - last_hit >= coupling.R:
            looked += 1
            expected = int(np.count_nonzero(
                (prev >= 0.5 * prev.max()) & spikes_e))
            assert rec.wavefront_hit == (expected > 0), rec.t
        assert rec.overlap_size == expected, rec.t
        if rec.wavefront_hit:
            last_hit = rec.t
        prev = activity
    assert result.wavefronts_used >= 2 and looked > result.wavefronts_used
    assert len({id(activity) for _, activity in frames}) == len(frames)
    for (_, activity), copy in zip(frames, copies):
        assert np.array_equal(activity, copy)


def test_block_maze_tie_break_is_deterministic():
    # the block maze is mirror-symmetric; the readout breaks the tie by
    # node index, so both directions, run twice each, pass the same side
    m = build_manifold(41, 41, obstacles=[(14, 14, 26, 26)])
    sides = set()
    for start, target in [((4, 20), (36, 20)), ((36, 20), (4, 20))] * 2:
        result = run_planner(m, m.index(*start), m.index(*target),
                             attractor_params=AttractorParams(sigma=0.031),
                             coupling=CouplingParams(hold=2, max_steps=1500))
        assert result.outcome == "reached"
        ys = [y for x, y in result.path if 15 <= x <= 25]
        assert max(ys) < 14 or min(ys) > 26, "path must clear the block"
        sides.add("above" if max(ys) < 14 else "below")
    assert len(sides) == 1


def test_bump_lost_outcome():
    # weights that cannot sustain a bump extinguish it during warm-up
    m = build_manifold(21, 21)
    p = AttractorParams(J=0.01, sigma=0.03)
    result = run_planner(m, m.index(4, 4), m.index(16, 16), attractor_params=p)
    assert result.outcome == "bump_lost"
    assert result.path == []
    assert result.lost == "activity vanished after update"


def test_path_length_is_the_oracle_route_length(simple_result):
    cfg, result, _ = simple_result
    m = cfg.manifold
    nodes = [m.index(x, y) for x, y in result.path]
    assert geometric_length(nodes, m) == path_length(result)


def test_path_length_examples(simple_result):
    _, result, _ = simple_result
    total = path_length(result)
    assert total == pytest.approx(
        sum(math.hypot(b[0] - a[0], b[1] - a[1])
            for a, b in zip(result.path, result.path[1:])))
    assert total <= 1.3 * 45.25
