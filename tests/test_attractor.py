import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import ndimage

from wavenav.attractor import (AttractorParams, AttractorState, BumpLostError,
                               attractor_weight, bump_center, bump_footprint,
                               bump_width, footprint_diameter, init_bump,
                               step_attractor)
from wavenav.manifold import build_manifold


def test_weight_at_zero_offset():
    p = AttractorParams()
    w = attractor_weight(0, 0, (0.0, 0.0), p, 41, 41)
    assert w == pytest.approx(12.0 - 0.05)


def test_weight_far_tail_approaches_negative_shift():
    p = AttractorParams()
    w = attractor_weight(0, 40, (0.0, 0.0), p, 41, 41)
    assert w == pytest.approx(-p.T, abs=1e-12)


def test_weight_one_sigma_offset():
    p = AttractorParams(sigma=0.03)
    w = attractor_weight(0, 0, (0.03, 0.0), p, 41, 41)
    assert w == pytest.approx(12.0 * math.exp(-1.0) - 0.05, abs=1e-4)
    assert w == pytest.approx(4.3646, abs=1e-4)


def test_weight_matches_matrix_entries():
    m = build_manifold(9, 9)
    p = AttractorParams()
    state = AttractorState(m, p)
    state.set_delta((0.02, -0.01))
    gx, gy = state.weights()
    for i, j in ((0, 0), (3, 70), (40, 41)):
        (xi, yi), (xj, yj) = m.coords(i), m.coords(j)
        assert p.J * gx[xi, xj] * gy[yi, yj] - p.T == pytest.approx(
            attractor_weight(i, j, state.delta, p, m.nx, m.ny), rel=1e-12)


def test_weight_argmax_leads_along_delta():
    # for a fixed unit, the strongest outgoing weight points along +delta,
    # which is what pulls the bump toward the overlap; J > 0, so the row
    # maximum of J * gx * gy - T is where each factor peaks
    m = build_manifold(41, 41)
    state = AttractorState(m, AttractorParams())
    xi, yi = 20, 20
    state.set_delta((3.0 / 41.0, 0.0))
    gx, gy = state.weights()
    assert (int(np.argmax(gx[xi])), int(np.argmax(gy[yi]))) == (23, 20)
    state.set_delta((0.0, -2.0 / 41.0))
    gx, gy = state.weights()
    assert (int(np.argmax(gx[xi])), int(np.argmax(gy[yi]))) == (20, 18)


def test_step_matches_dense_reference():
    # non-square lattice with an obstacle and delta != 0: checks the
    # reshape order of the factor product and the blocked-node handling;
    # with jitter, W is scaled entry by entry by the seeded n x n field
    m = build_manifold(7, 5, obstacles=[(2, 1, 3, 2)])
    A = np.random.default_rng(0).random(m.n)
    A[m.blocked] = 0.0
    A[[0, 1, 9, 20]] = 0.0
    for p in (AttractorParams(), AttractorParams(jitter_seed=3, jitter_mag=0.01)):
        state = AttractorState(m, p)
        state.set_delta((0.03, -0.02))
        state.A = A / A.sum()
        W = np.array([[attractor_weight(i, j, state.delta, p, m.nx, m.ny)
                       for j in range(m.n)] for i in range(m.n)])
        if p.jitter_seed is not None:
            rng = np.random.default_rng(p.jitter_seed)
            W *= 1.0 + p.jitter_mag * rng.uniform(-1.0, 1.0, (m.n, m.n))
        B = state.A @ W
        expected = np.maximum(B, 0.0)
        expected[m.blocked] = 0.0
        expected /= expected.sum()
        step_attractor(state)
        np.testing.assert_allclose(state.A, expected, rtol=1e-12, atol=1e-15)
        assert np.all(state.A[m.blocked] == 0.0)


def test_step_is_invariant_to_the_scale_of_A():
    # the update renormalizes, so a positive scale of A leaves the next
    # state unchanged
    m = build_manifold(7, 5, obstacles=[(2, 1, 3, 2)])
    A = np.random.default_rng(1).random(m.n)
    A[m.blocked] = 0.0
    A /= A.sum()
    for p in (AttractorParams(), AttractorParams(jitter_seed=3, jitter_mag=0.01)):
        steps = []
        for k in (1.0, 1e-3, 3.7, 1e3):
            state = AttractorState(m, p)
            state.set_delta((0.03, -0.02))
            state.A = k * A
            steps.append(step_attractor(state).A)
        for other in steps[1:]:
            np.testing.assert_allclose(other, steps[0], rtol=1e-12, atol=0.0)


def test_memory_grows_with_the_axes_not_the_node_count():
    # an 81x81 lattice has 6561 units; one dense n x n float64 table
    # alone would take 344 MB
    m = build_manifold(81, 81)
    tracemalloc.start()
    try:
        state = init_bump(m, m.index(40, 40), AttractorParams(jitter_seed=0))
        state.set_delta((0.02, 0.01))
        for _ in range(5):
            step_attractor(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    held = [a for v in vars(state).values()
            for a in (v if isinstance(v, (list, tuple)) else [v])
            if isinstance(a, np.ndarray)]
    assert max(a.size for a in held) <= max(m.n, m.nx ** 2, m.ny ** 2)


def test_params_validation():
    with pytest.raises(ValueError):
        AttractorParams(sigma=0.0).validate()
    with pytest.raises(ValueError):
        AttractorParams(seed_radius=0.0).validate()
    with pytest.raises(ValueError):
        AttractorParams(J=float("nan")).validate()
    with pytest.raises(ValueError):
        AttractorParams(warmup=-1).validate()
    with pytest.raises(ValueError):
        AttractorParams(jitter_seed=-1).validate()


def test_tiny_sigma_is_a_one_node_kernel_without_warnings():
    # sigma^2 is subnormal: off-diagonal exponents overflow to -inf
    m = build_manifold(9, 7)
    state = AttractorState(m, AttractorParams(sigma=1e-160))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gx, gy = state.weights()
    assert np.array_equal(gx, np.eye(9)) and np.array_equal(gy, np.eye(7))


def test_init_bump_centers_on_start():
    m = build_manifold(41, 41)
    state = init_bump(m, m.index(20, 20), AttractorParams())
    assert m.coords(bump_center(state)) == (20, 20)


def test_init_bump_blocked_start_rejected():
    m = build_manifold(21, 21, obstacles=[(10, 10, 12, 12)])
    with pytest.raises(ValueError):
        init_bump(m, m.index(11, 11), AttractorParams())


def test_footprint_diameter_values():
    # regression values for the shipped parameters; the equilibrium
    # footprint scales with the lattice because sigma is normalized
    m41 = build_manifold(41, 41)
    s41 = init_bump(m41, m41.index(20, 20), AttractorParams())
    assert footprint_diameter(s41) == 7
    m71 = build_manifold(71, 71)
    s71 = init_bump(m71, m71.index(35, 35), AttractorParams())
    assert 9 <= footprint_diameter(s71) <= 15


def test_footprint_contains_center_and_is_connected():
    m = build_manifold(41, 41)
    state = init_bump(m, m.index(13, 27), AttractorParams())
    fp = bump_footprint(state)
    assert fp[bump_center(state)]
    _, count = ndimage.label(fp.reshape(41, 41), structure=np.ones((3, 3), int))
    assert count == 1


def test_fixed_point_without_direction():
    m = build_manifold(41, 41)
    state = init_bump(m, m.index(20, 20), AttractorParams())
    x0, y0 = m.coords(bump_center(state))
    for _ in range(1000):
        step_attractor(state)
    x1, y1 = m.coords(bump_center(state))
    assert math.hypot(x1 - x0, y1 - y0) <= 1.0


def test_direction_vector_drives_the_bump():
    m = build_manifold(41, 41)
    state = init_bump(m, m.index(12, 20), AttractorParams())
    state.set_delta((0.05, 0.0))
    prev_x, start_y = m.coords(bump_center(state))
    for _ in range(5):
        step_attractor(state)
        x, y = m.coords(bump_center(state))
        assert x > prev_x
        assert abs(y - start_y) <= 1
        prev_x = x


def test_zero_activity_is_fatal():
    m = build_manifold(9, 9)
    state = AttractorState(m, AttractorParams())
    with pytest.raises(BumpLostError):
        step_attractor(state)
    with pytest.raises(BumpLostError):
        bump_center(state)
    with pytest.raises(BumpLostError):
        bump_footprint(state)


def test_blocked_nodes_stay_silent():
    m = build_manifold(31, 31, obstacles=[(14, 5, 16, 25)])
    state = init_bump(m, m.index(7, 15), AttractorParams())
    state.set_delta((0.04, 0.0))
    for _ in range(12):
        step_attractor(state)
        assert np.all(state.A[m.blocked] == 0.0)
        assert np.all(state.A >= 0.0)


def test_translation_covariance_in_the_interior():
    m = build_manifold(41, 41)
    p = AttractorParams()
    fa = bump_footprint(init_bump(m, m.index(14, 20), p)).reshape(41, 41)
    fb = bump_footprint(init_bump(m, m.index(26, 20), p)).reshape(41, 41)
    assert np.array_equal(np.roll(fa, 12, axis=1), fb)


def test_activity_is_normalized_each_step():
    m = build_manifold(21, 21)
    state = init_bump(m, m.index(10, 10), AttractorParams())
    for _ in range(20):
        step_attractor(state)
        assert state.A.sum() == pytest.approx(1.0)


def test_jitter_is_seeded_and_small():
    m = build_manifold(15, 15)

    def stepped(p):
        state = AttractorState(m, p)
        state.A = np.exp(-((m.xs - 7.0) ** 2 + (m.ys - 6.0) ** 2) / 8.0)
        state.A /= state.A.sum()
        return step_attractor(state).A

    a1 = stepped(AttractorParams(jitter_seed=5, jitter_mag=1e-9))
    a2 = stepped(AttractorParams(jitter_seed=5, jitter_mag=1e-9))
    a3 = stepped(AttractorParams(jitter_seed=6, jitter_mag=1e-9))
    clean = stepped(AttractorParams())
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, a3)
    assert np.allclose(a1, clean, rtol=1e-8)
    assert not np.array_equal(a1, clean)
    # the draws are the row-major n x n field of default_rng(jitter_seed)
    field = np.random.default_rng(5).uniform(-1.0, 1.0, (m.n, m.n))
    state = AttractorState(m, AttractorParams(jitter_seed=5))
    assert np.array_equal(state.jitter_rows(200, 225), field[200:225])
    assert np.array_equal(state.jitter_rows(0, 3), field[:3])


def test_bump_width_exceeds_footprint():
    m = build_manifold(41, 41)
    state = init_bump(m, m.index(20, 20), AttractorParams())
    assert bump_width(state) >= footprint_diameter(state)
