import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from conftest import load_scenario
from wavenav import attractor
from wavenav.attractor import (KERNEL_FLOOR, AttractorParams, AttractorState,
                               BumpLostError, attractor_weight, bump_center,
                               bump_footprint, count_components,
                               footprint_diameter, init_bump, step_attractor)
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


def reference_jitter_step(A, state, field, g=None):
    """One update of A with the jitter term built from uniform(-1, 1)
    draws and two-gather weight rows, one lattice row of active units
    at a time; the bits step_attractor must reproduce. The factors are
    state.weights() unless given as g."""
    p, m = state.params, state.manifold
    gx, gy = state.weights() if g is None else g
    B = p.J * (gy.T @ A.reshape(m.ny, m.nx) @ gx).ravel() - p.T * A.sum()
    for lo in range(0, m.n, m.nx):
        nz = np.flatnonzero(A[lo:lo + m.nx]) + lo
        if nz.size:
            i = slice(nz[0], nz[-1] + 1)
            U = field[i].copy()
            U *= p.J * gx[m.xs[i, None], m.xs] * gy[m.ys[i, None], m.ys] - p.T
            B += p.jitter_mag * (A[i] @ U)
    B = np.maximum(B, 0.0)
    B[m.blocked] = 0.0
    return B / B.sum()


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("lattice", ["7x5_obstacle", "9x6_all_active"])
def test_jitter_term_is_bitwise_the_reference(seed, lattice):
    # a reordered sum passes test_step_matches_dense_reference's
    # tolerance; here every bit of A must match after every step
    if lattice == "7x5_obstacle":
        m = build_manifold(7, 5, obstacles=[(2, 1, 3, 2)])
        A = np.random.default_rng(0).random(m.n)
        A[m.blocked] = 0.0
        A[[0, 1, 9, 20]] = 0.0
        deltas = [(0.03, -0.02), (-0.01, 0.04)]
    else:
        m = build_manifold(9, 6)
        A = 0.5 + np.random.default_rng(1).random(m.n)
        deltas = [(0.0, 0.0), (0.02, 0.01)]
    p = AttractorParams(jitter_seed=seed, jitter_mag=0.01)
    field = np.random.default_rng(seed).uniform(-1.0, 1.0, (m.n, m.n))
    state = AttractorState(m, p)
    state.A = A / A.sum()
    expected = state.A.copy()
    assert lattice != "9x6_all_active" or np.all(expected > 0.0)
    for t in range(20):
        state.set_delta(deltas[t // 10])
        expected = reference_jitter_step(expected, state, field)
        step_attractor(state)
        assert np.array_equal(state.A, expected), t


# lattice, warm-up start and the deltas of six ten-step legs, each a
# maze-sized lattice with an obstacle inside the jitter's band
BANDED_LATTICES = {
    "41x41_block": (build_manifold(41, 41, obstacles=[(14, 14, 26, 26)]),
                    (8, 20), [(0.0, 0.0), (0.02, 0.0), (0.02, 0.001),
                              (0.0, -0.015), (0.001, 0.0), (-0.01, 0.01)]),
    "29x19_obstacle": (build_manifold(29, 19, obstacles=[(12, 4, 15, 12)]),
                       (6, 9), [(0.0, 0.0), (0.03, 0.0), (0.03, 0.002),
                                (0.0, 0.03), (0.001, 0.0), (-0.02, -0.02)]),
}


def jitter_windows(state):
    """Per active lattice row y, the key (x0, x1, c0, c1, delta) of the
    window the next step's jitter term covers there: the span of y's
    nonzero A and the columns of the lattice rows where some column can
    survive the clip."""
    p, m = state.params, state.manifold
    gx, gy = state.weights()
    total = state.A.sum()
    G = (gy.T @ state.A.reshape(m.ny, m.nx) @ gx).ravel()
    reach = 2.0 * abs(p.jitter_mag) * (abs(p.J) * G + abs(p.T) * total)
    live = ~(p.J * G - p.T * total + reach < 0.0).reshape(m.ny, m.nx).all(axis=1)
    ya, yb = np.flatnonzero(live)[[0, -1]]
    on = state.A.reshape(m.ny, m.nx) != 0.0
    return {y: (int(row.argmax()), m.nx - int(row[::-1].argmax()),
                int(ya) * m.nx, (int(yb) + 1) * m.nx, state.delta)
            for y, row in enumerate(on) if row.any()}


def banded_jitter_steps(lattice, jitter_mag):
    """Step a warmed jittered bump through the lattice's legs, asserting
    after each step that every bit of A matches the term over all n
    columns; yields the held blocks from before and after the step and
    the step's jitter_windows."""
    m, start, deltas = BANDED_LATTICES[lattice]
    p = AttractorParams(sigma=0.031, jitter_seed=2, jitter_mag=jitter_mag)
    field = np.random.default_rng(p.jitter_seed).uniform(-1.0, 1.0, (m.n, m.n))
    state = init_bump(m, m.index(*start), p)
    expected = state.A.copy()
    for t in range(10 * len(deltas)):
        state.set_delta(deltas[t // 10])
        before = dict(state._blocks)
        windows = jitter_windows(state)
        expected = reference_jitter_step(expected, state, field)
        step_attractor(state)
        assert np.array_equal(state.A, expected), t
        yield before, state._blocks, windows


def contains(key, window):
    """Whether a held block's key serves the window: same delta, and the
    window's span and band inside the key's."""
    (hx0, hx1, hc0, hc1, hd), (x0, x1, c0, c1, d) = key, window
    return hd == d and hx0 <= x0 and x1 <= hx1 and hc0 <= c0 and c1 <= hc1


@pytest.mark.parametrize("jitter_mag", [0.01, 1e-9])
@pytest.mark.parametrize("lattice", ["41x41_block", "29x19_obstacle"])
def test_banded_jitter_is_bitwise_the_full_field(lattice, jitter_mag):
    # the jitter term is drawn over a band of lattice rows strictly inside
    # the lattice, and held blocks are reused, whole or as a slice of a
    # block drawn over a wider window
    n = BANDED_LATTICES[lattice][0].n
    inside = reused = sliced = 0
    for before, blocks, windows in banded_jitter_steps(lattice, jitter_mag):
        held = {id(P) for _, P in before.values() if P is not None}
        assert blocks.keys() == windows.keys()
        for y, (key, P) in blocks.items():
            if id(P) in held:
                assert contains(key, windows[y])
                reused += 1
                sliced += key != windows[y]
            else:
                # a block drawn this step is keyed by the step's window
                assert key == windows[y]
        inside += all(0 < c0 and c1 < n for _, _, c0, c1, _ in windows.values())
    assert inside > 0 and reused > 0 and sliced > 0


def test_held_jitter_blocks_stay_within_the_budget(monkeypatch):
    # room for one small block: the blocks left out are drawn again
    budget = 8192
    monkeypatch.setattr(attractor, "JITTER_HELD_BYTES", budget)
    reused = left_out = 0
    for t, (before, blocks, _) in enumerate(
            banded_jitter_steps("41x41_block", 0.01)):
        assert sum(P.nbytes for _, P in blocks.values()
                   if P is not None) <= budget, t
        held = {id(P) for _, P in before.values() if P is not None}
        reused += any(id(P) in held for _, P in blocks.values())
        # a row active the step before whose block is not held was left
        # out by the budget
        left_out += any(P is None and y in before
                        for y, (_, P) in blocks.items())
    assert reused > 0 and left_out > 0


def test_block_warmup_draws_the_field_rarely(monkeypatch):
    # init_bump on block.cfg: held blocks serve the windows inside them,
    # so its 50 steps draw 62 blocks, all in the first two steps
    cfg = load_scenario("block")
    calls = []
    jitter_rows = AttractorState.jitter_rows
    monkeypatch.setattr(AttractorState, "jitter_rows",
                        lambda *args: calls.append(args) or jitter_rows(*args))
    init_bump(cfg.manifold, cfg.manifold.index(*cfg.start), cfg.attractor)
    assert 0 < len(calls) <= 80


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


@pytest.mark.parametrize("nx,ny,obstacles,start,jitter", [
    (41, 41, [(14, 14, 26, 26)], (8, 20), False),
    (71, 71, [], (6, 6), False),
    (61, 41, [(28, 0, 32, 28)], (6, 6), False),
    (41, 41, [(14, 14, 26, 26)], (8, 20), True),
], ids=["41x41_obstacle", "71x71_open", "61x41_wall", "41x41_jitter"])
def test_kernel_floor_leaves_every_bit_of_A(nx, ny, obstacles, start, jitter):
    # warm-up and planner-like changes of delta with the cut factors,
    # beside the same operations on the uncut ones
    m = build_manifold(nx, ny, obstacles=obstacles)
    p = AttractorParams(sigma=0.031, warmup=0, jitter_seed=2 if jitter else None,
                        jitter_mag=0.01 if jitter else 1e-9)
    state = init_bump(m, m.index(*start), p)
    field = (np.random.default_rng(p.jitter_seed).uniform(-1.0, 1.0, (m.n, m.n))
             if jitter else None)
    expected = state.A.copy()
    deltas = [(0.0, 0.0)] * 5 + [(0.02, 0.0), (0.02, 0.02), (0.0, 0.015),
                                 (-0.01, 0.02), (0.001, 0.0)]
    cut = 0
    for t in range(100):
        state.set_delta(deltas[t // 10])
        g = uncut_weights(state)
        cut += sum(int((w != ref).sum()) for w, ref in zip(state.weights(), g))
        if jitter:
            expected = reference_jitter_step(expected, state, field, g)
        else:
            expected = reference_step(expected, state, g)
        step_attractor(state)
        assert np.array_equal(state.A, expected), t
    assert cut > 0


@settings(max_examples=200, deadline=None)
@given(nx=st.integers(3, 60), ny=st.integers(3, 60),
       sigma=st.floats(1e-3, 2.0) | st.sampled_from([1e-160, 1e-154]),
       dx=st.floats(-1.0, 1.0), dy=st.floats(-1.0, 1.0), data=st.data())
def test_kernel_floor_only_zeroes_entries_below_it(nx, ny, sigma, dx, dy, data):
    # each factor entry is its exp value or, below the floor, exactly 0;
    # the jitter weights J * gx * gy - T keep their bits either way
    assert KERNEL_FLOOR == 2.0 ** -511
    state = AttractorState(build_manifold(nx, ny), AttractorParams(sigma=sigma))
    state.set_delta((dx, dy))
    gx, gy = state.weights()
    ref_x, ref_y = uncut_weights(state)
    for g, ref in ((gx, ref_x), (gy, ref_y)):
        assert np.array_equal(g, np.where(ref < KERNEL_FLOOR, 0.0, ref))
        assert not np.any((g > 0.0) & (g < KERNEL_FLOOR))
    p = state.params
    xi = data.draw(st.integers(0, nx - 1))
    yi = data.draw(st.integers(0, ny - 1))
    assert np.array_equal((p.J * gx[xi]) * gy[yi, :, None] - p.T,
                          (p.J * ref_x[xi]) * ref_y[yi, :, None] - p.T)


@pytest.mark.parametrize("nx,ny", [(7, 5), (9, 6), (29, 19), (41, 41), (81, 81)])
def test_zero_padded_product_is_bitwise_the_full_product(nx, ny):
    # the identity the banded jitter term rests on: a k x n product whose
    # rows are zero outside columns c0..c1-1 gives, in those columns, the
    # bits of the product over the full rows; the zero rows are the first
    # k of a buffer whose other rows hold earlier bands
    rng = np.random.default_rng(nx * ny)
    n = nx * ny
    buf = np.zeros((nx, n))
    for k in range(1, nx + 1):
        ya = int(rng.integers(0, ny))
        yb = int(rng.integers(ya + 1, ny + 1))
        c0, c1 = ya * nx, yb * nx
        a = rng.random(k) * (rng.random(k) < 0.8)
        U = rng.uniform(-1.0, 1.0, (k, n)) * rng.random(n)
        buf[:, c0:c1] = rng.random((nx, c1 - c0))
        Z = buf[:k]
        Z[:, c0:c1] = U[:, c0:c1]
        assert np.array_equal((a @ Z)[c0:c1], (a @ U)[c0:c1]), (k, c0, c1)
        buf[:, c0:c1] = 0.0


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
    with pytest.raises(ValueError):
        AttractorParams(jitter_mag=float("nan")).validate()
    with pytest.raises(ValueError):
        AttractorParams(seed_radius=1e-170).validate()


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
    expected = ndimage.label(mask, structure=np.ones((3, 3)))[1]
    assert count_components(mask) == expected


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
    assert np.array_equal(state.jitter_rows(200, 225, 0, m.n), field[200:225])
    assert np.array_equal(state.jitter_rows(0, 3, 0, m.n), field[:3])
    assert np.array_equal(state.jitter_rows(200, 225, 30, 90),
                          field[200:225, 30:90])
