import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from wavenav.attractor import (KERNEL_FLOOR, AttractorParams, AttractorState,
                               BumpLostError, attractor_weight, bump_center,
                               bump_footprint, components, footprint_diameter,
                               init_bump, step_attractor)
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
    # reshape order of the factor product and the blocked-node handling
    m = build_manifold(7, 5, obstacles=[(2, 1, 3, 2)])
    A = np.random.default_rng(0).random(m.n)
    A[m.blocked] = 0.0
    A[[0, 1, 9, 20]] = 0.0
    p = AttractorParams()
    state = AttractorState(m, p)
    state.set_delta((0.03, -0.02))
    state.A = A / A.sum()
    W = np.array([[attractor_weight(i, j, state.delta, p, m.nx, m.ny)
                   for j in range(m.n)] for i in range(m.n)])
    expected = np.maximum(state.A @ W, 0.0)
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
    steps = []
    for k in (1.0, 1e-3, 3.7, 1e3):
        state = AttractorState(m, AttractorParams())
        state.set_delta((0.03, -0.02))
        state.A = k * A
        steps.append(step_attractor(state).A)
    for other in steps[1:]:
        np.testing.assert_allclose(other, steps[0], rtol=1e-12, atol=0.0)


def uncut_weights(state):
    """The factors as plain exp values, without KERNEL_FLOOR."""
    m, p = state.manifold, state.params
    s2 = p.sigma * p.sigma
    with np.errstate(over="ignore"):
        return tuple(np.exp(-((np.arange(k)[:, None] - np.arange(k)) / k + d) ** 2
                            / s2)
                     for k, d in ((m.nx, state.delta[0]), (m.ny, state.delta[1])))


def reference_step(A, state, g):
    """step_attractor's operations on factors g."""
    p, m = state.params, state.manifold
    gx, gy = g
    total = A.sum()
    B = p.J * (gy.T @ A.reshape(m.ny, m.nx) @ gx).ravel() - p.T * total
    B = np.maximum(B, 0.0)
    B[m.blocked] = 0.0
    return B / B.sum()


@pytest.mark.parametrize("nx,ny,obstacles,start", [
    (41, 41, [(14, 14, 26, 26)], (8, 20)),
    (71, 71, [], (6, 6)),
    (61, 41, [(28, 0, 32, 28)], (6, 6)),
], ids=["41x41_obstacle", "71x71_open", "61x41_wall"])
def test_kernel_floor_leaves_every_bit_of_A(nx, ny, obstacles, start):
    # warm-up and planner-like changes of delta with the cut factors,
    # beside the same operations on the uncut ones
    m = build_manifold(nx, ny, obstacles=obstacles)
    state = init_bump(m, m.index(*start), AttractorParams(sigma=0.031, warmup=0))
    expected = state.A.copy()
    deltas = [(0.0, 0.0)] * 5 + [(0.02, 0.0), (0.02, 0.02), (0.0, 0.015),
                                 (-0.01, 0.02), (0.001, 0.0)]
    cut = 0
    for t in range(100):
        state.set_delta(deltas[t // 10])
        g = uncut_weights(state)
        cut += sum(int((w != ref).sum()) for w, ref in zip(state.weights(), g))
        expected = reference_step(expected, state, g)
        step_attractor(state)
        assert np.array_equal(state.A, expected), t
    assert cut > 0


@settings(max_examples=200, deadline=None)
@given(nx=st.integers(3, 60), ny=st.integers(3, 60),
       sigma=st.floats(1e-3, 2.0) | st.sampled_from([1e-160, 1e-154]),
       dx=st.floats(-1.0, 1.0), dy=st.floats(-1.0, 1.0))
def test_kernel_floor_only_zeroes_entries_below_it(nx, ny, sigma, dx, dy):
    # each factor entry is its exp value or, below the floor, exactly 0
    assert KERNEL_FLOOR == 2.0 ** -511
    state = AttractorState(build_manifold(nx, ny), AttractorParams(sigma=sigma))
    state.set_delta((dx, dy))
    gx, gy = state.weights()
    ref_x, ref_y = uncut_weights(state)
    for g, ref in ((gx, ref_x), (gy, ref_y)):
        assert np.array_equal(g, np.where(ref < KERNEL_FLOOR, 0.0, ref))
        assert not np.any((g > 0.0) & (g < KERNEL_FLOOR))


def test_memory_grows_with_the_axes_not_the_node_count():
    # an 81x81 lattice has 6561 units; one dense n x n float64 table
    # alone would take 344 MB
    m = build_manifold(81, 81)
    tracemalloc.start()
    try:
        state = init_bump(m, m.index(40, 40), AttractorParams())
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


def test_step_allocates_about_one_lattice_vector():
    """No step's traced peak reaches 2.5 vectors of n doubles.

    With its factors cached, a step's one lasting allocation is the new
    A: the product's fresh result, which the rest of the update rewrites
    in place. Only the inner gy^T A lives beside it, while the second
    gemm runs. A step that kept the product, J * G, the difference, the
    clip and A / total as separate arrays would peak near three.
    """
    m = build_manifold(81, 81)
    state = init_bump(m, m.index(40, 40), AttractorParams())
    state.set_delta((0.02, 0.01))
    step_attractor(state)  # builds the factors for this delta
    vector = m.n * np.dtype(float).itemsize
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(20):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            step_attractor(state)
            peaks.append((tracemalloc.get_traced_memory()[1] - before) / vector)
    finally:
        tracemalloc.stop()
    assert max(peaks) < 2.5, (int(np.argmax(peaks)), max(peaks))


def test_params_validation():
    with pytest.raises(ValueError):
        AttractorParams(sigma=0.0)
    with pytest.raises(ValueError):
        AttractorParams(seed_radius=0.0)
    with pytest.raises(ValueError):
        AttractorParams(J=float("nan"))
    with pytest.raises(ValueError):
        AttractorParams(warmup=-1)
    with pytest.raises(ValueError):
        AttractorParams(seed_radius=1e-170)


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


@st.composite
def masks(draw):
    """A 1x1 to 15x15 boolean mask at a density from 0 (empty) to 1 (full)."""
    shape = (draw(st.integers(1, 15)), draw(st.integers(1, 15)))
    density = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random(shape) < density


def _mask(rows):
    return np.array([[c == "#" for c in row] for row in rows])


@settings(max_examples=500, deadline=None)
@given(masks())
# joined only diagonally, across one corner
@example(_mask(["#..", ".#.", "..#"]))
@example(_mask([".#", "#."]))
# a row's last node and the next row's first are not neighbours
@example(_mask(["..#", "#.."]))
# components on every edge and corner
@example(_mask(["#.#.#", ".....", "#...#", ".....", "#.#.#"]))
def test_count_components_matches_ndimage_label(mask):
    # the count, each component's node set, and the order of the
    # components by their lowest node
    labels, count = ndimage.label(mask, structure=np.ones((3, 3)))
    parts = components(mask)
    assert len(parts) == count
    expected = [np.flatnonzero(labels.ravel() == k) for k in range(1, count + 1)]
    expected.sort(key=lambda nodes: nodes[0])
    for nodes, want in zip(parts, expected):
        assert np.array_equal(nodes, want)


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


def test_overflowing_activity_is_fatal():
    # the update's sum overflows: a lost bump, not a warning and a zero A
    m = build_manifold(41, 41)
    state = init_bump(m, m.index(20, 20), AttractorParams())
    state.params = AttractorParams(J=1e308)
    with pytest.raises(BumpLostError, match="total activity is inf"):
        step_attractor(state)


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
