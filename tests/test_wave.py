"""Spiking-layer tests.

The single-neuron reference values were frozen from an independent
scalar implementation of the two membrane equations (same Euler
scheme, same substep count) before this module existed.
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wavenav import manifold
from wavenav.manifold import build_manifold, lattice_offsets
from wavenav.wave import (NumericalError, SynapseConfig, build_synapses,
                          init_neurons, set_stimulus, step_wave)

# isolated RS neuron, dc = 25, v_floor = -90: first twelve spike times
SPIKES_SUBSTEPS_2 = [2, 6, 16, 36, 56, 78, 100, 124, 144, 164, 186, 209]
SPIKES_SUBSTEPS_1 = [2, 6, 12, 30, 51, 72, 94, 115, 136, 157, 178, 199]
COUNT_1000_SUBSTEPS_2 = 48
COUNT_1000_SUBSTEPS_1 = 51


def isolated_neuron(substeps=2, dc=25.0):
    """3x3 lattice with everything but the center blocked."""
    m = build_manifold(3, 3, obstacles=[(0, 0, 2, 0), (0, 2, 2, 2),
                                        (0, 1, 0, 1), (2, 1, 2, 1)])
    cfg = SynapseConfig(substeps=substeps, stim_dc=dc)
    state = init_neurons(m, cfg)
    tables = build_synapses(m, cfg)
    return m, state, tables


def run_isolated(steps, substeps, dc=25.0):
    m, state, tables = isolated_neuron(substeps, dc)
    center = m.index(1, 1)
    set_stimulus(state, center, True)
    times = []
    for t in range(steps):
        se, _ = step_wave(state, tables)
        if se[center]:
            times.append(t)
    return times


def scalar_reference(steps, substeps, dc=25.0, v_floor=-90.0):
    """Straight-line float implementation of the same update scheme."""
    a, b, c, d = 0.02, 0.2, -65.0, 8.0
    v, u = c, b * c
    h = 1.0 / substeps
    times = []
    for t in range(steps):
        i = dc
        for _ in range(substeps):
            v += h * (0.04 * v * v + 5.0 * v + 140.0 - u + i)
            u += h * (a * (b * v - u))
            if v < v_floor:
                v = v_floor
        if v >= 30.0:
            v = c
            u += d
            times.append(t)
    return times


@pytest.mark.parametrize("substeps,expected,count", [
    (2, SPIKES_SUBSTEPS_2, COUNT_1000_SUBSTEPS_2),
    (1, SPIKES_SUBSTEPS_1, COUNT_1000_SUBSTEPS_1),
])
def test_rs_neuron_matches_frozen_spike_times(substeps, expected, count):
    times = run_isolated(1000, substeps)
    assert times[:12] == expected
    assert len(times) == count


@pytest.mark.parametrize("substeps", [1, 2])
def test_rs_neuron_matches_scalar_reference_exactly(substeps):
    assert run_isolated(1000, substeps) == scalar_reference(1000, substeps)


def post_by_pre(posts, strengths):
    """Dense post-by-pre strength matrix of one fan-out table."""
    n = len(posts)
    mat = np.zeros((n + 1, n))  # row n collects the sink slots
    mat[posts, np.arange(n)[:, None]] = strengths
    return mat[:n]


def dense_tables(tables):
    """(ee, ei, ie) as dense post-by-pre matrices."""
    return (post_by_pre(tables.e_posts, tables.ee),
            post_by_pre(tables.e_posts, tables.ei),
            post_by_pre(tables.i_posts, tables.ie))


def population_reference(state, tables, steps):
    """Step E and I as two separate populations, the pre-stacking scheme,
    with input from CSR products over the whole spike vectors.

    Starts from the state's spikes (`fired`); yields (v_e, u_e, v_i, u_i)
    after every step.
    """
    n = state.manifold.n
    ee, ei, ie = (sp.csr_matrix(mat) for mat in dense_tables(tables))
    a_e, b_e, c_e, d_e = (p[:n] for p in (state.a, state.b, state.c, state.d))
    a_i, b_i, c_i, d_i = (p[n:] for p in (state.a, state.b, state.c, state.d))
    v_e, u_e = state.v[:n].copy(), state.u[:n].copy()
    v_i, u_i = state.v[n:].copy(), state.u[n:].copy()
    spikes = np.zeros(2 * n, dtype=bool)
    spikes[state.fired] = True
    se, si = spikes[:n], spikes[n:]
    h = 1.0 / state.cfg.substeps
    for _ in range(steps):
        fe, fi = se.astype(float), si.astype(float)
        i_e = state.dc + ee @ fe + ie @ fi
        i_i = ei @ fe
        for _ in range(state.cfg.substeps):
            v_e += h * (0.04 * v_e * v_e + 5.0 * v_e + 140.0 - u_e + i_e)
            u_e += h * (a_e * (b_e * v_e - u_e))
            v_i += h * (0.04 * v_i * v_i + 5.0 * v_i + 140.0 - u_i + i_i)
            u_i += h * (a_i * (b_i * v_i - u_i))
            np.maximum(v_e, state.cfg.v_floor, out=v_e)
            np.maximum(v_i, state.cfg.v_floor, out=v_i)
        se, si = v_e >= 30.0, v_i >= 30.0
        v_e[se] = c_e[se]
        u_e[se] += d_e[se]
        v_i[si] = c_i[si]
        u_i[si] += d_i[si]
        yield v_e, u_e, v_i, u_i


def assert_steps_match_reference(state, tables, steps):
    """Run `step_wave` beside the reference; v and u must agree to the
    bit after every step. Returns the (E, I) spike counts."""
    reference = population_reference(state, tables, steps)
    fired_e = fired_i = 0
    for t, (v_e, u_e, v_i, u_i) in enumerate(reference):
        se, si = step_wave(state, tables)
        fired_e += int(se.sum())
        fired_i += int(si.sum())
        assert np.array_equal(state.v, np.concatenate((v_e, v_i))), t
        assert np.array_equal(state.u, np.concatenate((u_e, u_i))), t
        assert np.array_equal(state.fired, np.flatnonzero(np.concatenate((se, si))))
    return fired_e, fired_i


@pytest.mark.parametrize("mode,seed", [("homogeneous", None),
                                       ("heterogeneous", 3)])
@pytest.mark.parametrize("metric", ["manhattan", "euclid", "cheb"])
def test_stacked_step_matches_population_reference(metric, mode, seed):
    m = build_manifold(21, 21, obstacles=[(12, 3, 13, 15)])
    tables = build_synapses(m, SynapseConfig(d_e=3.0, d_i=3.0, metric=metric))
    state = init_neurons(m, SynapseConfig(mode=mode, seed=seed))
    set_stimulus(state, m.index(5, 10), True)
    _, fired = assert_steps_match_reference(state, tables, 300)
    assert fired > 0


@pytest.mark.parametrize("silent", ["E", "I"])
@pytest.mark.parametrize("metric", ["manhattan", "euclid", "cheb"])
def test_step_with_one_silent_population_matches_reference(metric, silent):
    # with no rows to sum, bincount returns int64 zeros; the fractional
    # strengths at d_i = 3 (-200/3) would show any truncation of the input
    m = build_manifold(21, 21, obstacles=[(12, 3, 13, 15)])
    tables = build_synapses(m, SynapseConfig(d_e=3.0, d_i=3.0, metric=metric))
    state = init_neurons(m)
    n = m.n
    rng = np.random.default_rng(5)
    state.v += rng.uniform(0.0, 60.0, 2 * n)
    fired = np.flatnonzero(rng.random(n) < 0.2)
    state.fired = fired + n if silent == "E" else fired
    assert_steps_match_reference(state, tables, 20)


def test_empty_excitatory_rows_match_reference():
    # d_e < 1 lists no e->e or e->i offset: every E row is empty
    m = build_manifold(21, 21, obstacles=[(12, 3, 13, 15)])
    tables = build_synapses(m, SynapseConfig(d_e=0.5, d_i=3.0))
    assert tables.e_posts.shape == (m.n, 0)
    state = init_neurons(m)
    set_stimulus(state, m.index(5, 10), True)
    fired_e, _ = assert_steps_match_reference(state, tables, 100)
    assert fired_e > 0


@settings(max_examples=60, deadline=None)
@given(data=st.data(), nx=st.integers(3, 12), ny=st.integers(3, 12),
       metric=st.sampled_from(["manhattan", "euclid", "cheb"]),
       d_e=st.floats(0.5, 4.0), d_i=st.floats(0.5, 4.0))
def test_one_step_matches_csr_reference_property(data, nx, ny, metric, d_e, d_i):
    x0 = data.draw(st.integers(0, nx - 1))
    x1 = data.draw(st.integers(x0, nx - 1))
    y0 = data.draw(st.integers(0, ny - 1))
    y1 = data.draw(st.integers(y0, ny - 1))
    assume((x1 - x0 + 1) * (y1 - y0 + 1) < nx * ny)  # some node is free
    m = build_manifold(nx, ny, obstacles=[(x0, y0, x1, y1)])
    tables = build_synapses(m, SynapseConfig(d_e=d_e, d_i=d_i, metric=metric))
    state = init_neurons(m)
    state.fired = np.flatnonzero(data.draw(st.lists(
        st.booleans(), min_size=2 * m.n, max_size=2 * m.n)))
    assert_steps_match_reference(state, tables, 1)


def test_fired_drives_the_next_step():
    """The input a step sums is the CSR product over `state.fired`."""
    m = build_manifold(21, 21, obstacles=[(12, 3, 13, 15)])
    tables = build_synapses(m, SynapseConfig(d_e=3.0, d_i=3.0))
    state = init_neurons(m)
    set_stimulus(state, m.index(5, 10), True)
    n = m.n
    e_nodes = [m.index(x, 10) for x in (4, 5, 6, 11)]
    i_nodes = [m.index(x, 11) for x in (5, 6, 14)]
    state.fired = np.array(sorted(e_nodes) + [n + k for k in sorted(i_nodes)])
    fe, fi = np.zeros(n), np.zeros(n)
    fe[e_nodes], fi[i_nodes] = 1.0, 1.0
    ee, ei, ie = (sp.csr_matrix(mat) for mat in dense_tables(tables))
    step_wave(state, tables)
    assert np.array_equal(state._in[:n], state.dc + ee @ fe + ie @ fi)
    assert np.array_equal(state._in[n:], ei @ fe)
    assert state._in[n:].any()


def test_rest_is_silent_for_1e5_steps():
    assert run_isolated(100_000, 2, dc=0.0) == []


def test_rest_state_drifts_down_not_up():
    # dv/dt at (v, u) = (-65, -13) with I = 0 is exactly -3
    v, u = -65.0, 0.2 * -65.0
    dv = 0.04 * v * v + 5.0 * v + 140.0 - u
    assert dv == pytest.approx(-3.0)


def test_initial_state_is_rest():
    m = build_manifold(5, 5)
    state = init_neurons(m)
    n = m.n
    assert state.v.shape == state.u.shape == (2 * n,)
    assert np.all(state.v == -65.0)
    assert np.all(state.u[:n] == -13.0)
    assert np.all(state.u[n:] == pytest.approx(-13.0))
    assert state.fired.dtype == np.intp and state.fired.size == 0
    assert state.dc.shape == (n,) and np.all(state.dc == 0.0)


def test_homogeneous_parameters():
    m = build_manifold(5, 5)
    state = init_neurons(m)
    n = m.n
    params = np.stack((state.a, state.b, state.c, state.d))
    # regular spiking (RS) E neurons, fast spiking (FS) I neurons, exactly
    assert np.all(params[:, :n].T == (0.02, 0.2, -65.0, 8.0))
    assert np.all(params[:, n:].T == (0.1, 0.2, -65.0, 2.0))


def test_heterogeneous_parameter_ranges_and_coupling():
    m = build_manifold(21, 21)
    state = init_neurons(m, SynapseConfig(mode="heterogeneous", seed=7))
    n = m.n
    c, d = state.c[:n], state.d[:n]
    assert np.all((c >= -65.0) & (c <= -50.0))
    assert np.all((d >= 2.0) & (d <= 8.0))
    # c and d are driven by the same draw: d = 8 - 0.4 * (c + 65)
    assert np.allclose(d, 8.0 - 0.4 * (c + 65.0))
    assert np.all((state.a[n:] >= 0.02) & (state.a[n:] <= 0.1))
    assert np.all((state.b[n:] >= 0.2) & (state.b[n:] <= 0.25))
    # r_e = 1 endpoint of the excitatory maps
    assert -65.0 + 15.0 * 1.0 ** 2 == -50.0
    assert 8.0 - 6.0 * 1.0 ** 2 == 2.0


def test_heterogeneous_is_seeded():
    m = build_manifold(9, 9)
    s1 = init_neurons(m, SynapseConfig(mode="heterogeneous", seed=3))
    s2 = init_neurons(m, SynapseConfig(mode="heterogeneous", seed=3))
    s3 = init_neurons(m, SynapseConfig(mode="heterogeneous", seed=4))
    assert np.array_equal(s1.c, s2.c) and np.array_equal(s1.a, s2.a)
    assert not np.array_equal(s1.c[:m.n], s3.c[:m.n])
    with pytest.raises(ValueError):
        init_neurons(m, SynapseConfig(mode="heterogeneous"))
    with pytest.raises(ValueError):
        init_neurons(m, SynapseConfig(mode="chaotic"))


def test_set_stimulus():
    m = build_manifold(5, 5, obstacles=[(2, 2, 2, 2)])
    state = init_neurons(m)
    node = m.index(1, 1)
    set_stimulus(state, node, True)
    assert state.dc[node] == 25.0
    set_stimulus(state, node, False)
    assert state.dc[node] == 0.0
    with pytest.raises(ValueError):
        set_stimulus(state, m.index(2, 2), True)


def test_lattice_offsets_metrics():
    manhattan = lattice_offsets(2.0, "manhattan")
    assert (1, 1, 2.0) in manhattan
    assert (2, 0, 2.0) in manhattan
    assert not any(dx == 2 and dy == 1 for dx, dy, _ in manhattan)
    euclid = lattice_offsets(2.0, "euclid")
    assert any(dx == 2 and dy == 0 for dx, dy, _ in euclid)
    assert (0, 0) not in [(dx, dy) for dx, dy, _ in euclid]
    with pytest.raises(ValueError):
        lattice_offsets(2.0, "hexagonal")


def test_synapse_kernel_strengths():
    m = build_manifold(9, 9)
    tables = build_synapses(m, SynapseConfig())
    ee, ei, ie = dense_tables(tables)
    c = m.index(4, 4)
    assert ee[m.index(5, 4), c] == 50.0          # d = 1 -> s / 1
    assert ee[m.index(6, 4), c] == 25.0          # d = 2 -> s / 2
    assert ee[m.index(5, 5), c] == 25.0          # manhattan diagonal d = 2
    assert ee[c, c] == 0.0                       # no self-excitation
    assert ee[m.index(7, 4), c] == 0.0           # beyond range
    assert ei[c, c] == 0.0                       # no co-located e->i entry
    assert ie[c, c] == -200.0                    # i->e includes d = 0
    assert ie[m.index(5, 4), c] == -200.0 / 1.0


def test_synapse_kernel_literal_form():
    # the d = 0 entry of i->e carries s_ie_max itself
    m = build_manifold(5, 5)
    cfg = SynapseConfig(s_ie_max=-9.0)
    _, _, ie = dense_tables(build_synapses(m, cfg))
    assert ie[m.index(2, 2), m.index(2, 2)] == -9.0


def test_synapses_avoid_blocked_nodes():
    m = build_manifold(9, 9, obstacles=[(4, 4, 4, 4)])
    tables = build_synapses(m)
    b = m.index(4, 4)
    for mat in dense_tables(tables):
        assert np.count_nonzero(mat[b]) == 0
        assert np.count_nonzero(mat[:, b]) == 0


def test_sub_unit_range_builds_empty_excitatory_tables():
    m = build_manifold(5, 5)
    ee, ei, ie = dense_tables(build_synapses(m, SynapseConfig(d_e=0.5, d_i=0.5)))
    assert np.count_nonzero(ee) == 0 and np.count_nonzero(ei) == 0
    # i->e keeps only its d = 0 entries
    assert np.array_equal(ie, -200.0 * np.eye(m.n))


def test_synapse_config_validation():
    with pytest.raises(ValueError):
        SynapseConfig(s_ee_max=-1.0)
    with pytest.raises(ValueError):
        SynapseConfig(s_ie_max=5.0)
    with pytest.raises(ValueError):
        SynapseConfig(d_e=0.0)
    with pytest.raises(ValueError):
        SynapseConfig(metric="polar")
    with pytest.raises(ValueError):
        SynapseConfig(substeps=0)


def test_init_neurons_validates_its_config():
    m = build_manifold(5, 5)
    with pytest.raises(ValueError, match="substeps"):
        init_neurons(m, SynapseConfig(substeps=0))
    state = init_neurons(m, SynapseConfig(substeps=3, v_floor=-70.0, stim_dc=7.5))
    assert (state.cfg.substeps, state.cfg.v_floor) == (3, -70.0)
    set_stimulus(state, m.index(2, 2), True)
    assert state.dc[m.index(2, 2)] == 7.5


@pytest.mark.parametrize("metric", ["manhattan", "euclid", "cheb"])
def test_kernel_radius_is_bounded_by_the_lattice(metric, monkeypatch):
    m = build_manifold(7, 5, obstacles=[(3, 1, 3, 2)])
    listed = manifold.lattice_offsets

    def bounded(radius, metric):
        # an unbounded radius would list ~4e18 offsets and never return
        assert radius <= m.nx + m.ny
        return listed(radius, metric)

    monkeypatch.setattr(manifold, "lattice_offsets", bounded)
    far = build_synapses(m, SynapseConfig(d_e=1e9, d_i=1e9, metric=metric))
    edge = build_synapses(m, SynapseConfig(d_e=m.nx + m.ny, d_i=m.nx + m.ny,
                                           metric=metric))
    for a, b in zip(dataclasses.astuple(far), dataclasses.astuple(edge)):
        assert np.array_equal(a, b)


def test_step_is_deterministic():
    def run():
        m = build_manifold(13, 13)
        state = init_neurons(m)
        tables = build_synapses(m)
        set_stimulus(state, m.index(6, 6), True)
        return [step_wave(state, tables)[0].copy() for _ in range(30)]

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


def test_step_allocates_under_one_and_a_half_state_vectors():
    """No step's traced peak reaches 1.5 vectors of 2n doubles.

    The input is summed into a vector the state keeps, so a step holds
    one (n+1)-double bincount output at a time (about half a vector),
    plus the spike-sized fan-out rows and weights of that sum and the
    2n-byte boolean masks of the spike and finiteness checks. A step
    that built its input from fresh 2n arrays would peak far higher.
    """
    m = build_manifold(101, 101)
    state = init_neurons(m)
    tables = build_synapses(m)
    set_stimulus(state, m.index(50, 50), True)
    vector = 2 * m.n * np.dtype(float).itemsize
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(150):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            step_wave(state, tables)
            peaks.append((tracemalloc.get_traced_memory()[1] - before) / vector)
    finally:
        tracemalloc.stop()
    assert state.fired.size
    assert max(peaks) < 1.5, (int(np.argmax(peaks)), max(peaks))


def test_no_spike_without_cause():
    m = build_manifold(13, 13)
    state = init_neurons(m)
    tables = build_synapses(m)
    for _ in range(200):
        se, si = step_wave(state, tables)
        assert not se.any() and not si.any()


def test_inhibition_trails_excitation_by_two_steps():
    m = build_manifold(21, 21)
    state = init_neurons(m)
    tables = build_synapses(m)
    set_stimulus(state, m.index(10, 10), True)
    first_e = first_i = None
    for t in range(60):
        se, si = step_wave(state, tables)
        if first_e is None and se.any():
            first_e = t
        if first_i is None and si.any():
            first_i = t
    assert first_e is not None and first_i is not None
    assert first_i - first_e >= 2


def test_membrane_below_threshold_after_every_step():
    m = build_manifold(15, 15)
    state = init_neurons(m)
    tables = build_synapses(m)
    set_stimulus(state, m.index(7, 7), True)
    for _ in range(120):
        step_wave(state, tables)
        assert np.all(state.v < 30.0)


def test_single_spike_per_front():
    """Between source spikes, every other neuron fires at most once.

    The first emission burst is excluded: its fronts leave before any
    trailing inhibition exists, so the wake guarantee starts with the
    second burst.
    """
    m = build_manifold(25, 25)
    state = init_neurons(m)
    tables = build_synapses(m)
    src = m.index(12, 12)
    set_stimulus(state, src, True)
    spikes = []
    for _ in range(220):
        se, _ = step_wave(state, tables)
        spikes.append(se.copy())
    src_times = [t for t, se in enumerate(spikes) if se[src]]
    assert len(src_times) >= 8
    second_burst = next(b for a, b in zip(src_times, src_times[1:])
                        if b - a > 5)
    start = src_times.index(second_burst)
    for lo, hi in zip(src_times[start:], src_times[start + 1:]):
        counts = np.sum(spikes[lo:hi], axis=0)
        counts[src] = 0
        assert counts.max() <= 1, f"window [{lo},{hi}) re-ignited its wake"


def test_obstacles_are_opaque():
    # a full-height wall of thickness 2: nothing ever spikes beyond it
    m = build_manifold(21, 21, obstacles=[(10, 0, 11, 20)])
    state = init_neurons(m)
    tables = build_synapses(m)
    set_stimulus(state, m.index(5, 10), True)
    far = m.xs >= 12
    for _ in range(80):
        se, si = step_wave(state, tables)
        assert not se[m.blocked].any()
        assert not si[m.blocked].any()
        assert not se[far].any()


def test_non_finite_state_raises_with_node():
    m = build_manifold(5, 5)
    tables = build_synapses(m)
    # v of the E and the I neuron of node 7, and u of the I neuron
    for var, neuron in (("v", 7), ("v", m.n + 7), ("u", m.n + 7)):
        state = init_neurons(m)
        getattr(state, var)[neuron] = np.inf
        with pytest.raises(NumericalError, match="at node 7$") as err:
            step_wave(state, tables)
        assert err.value.node == 7


def test_finite_state_whose_sum_overflows_passes_without_warning():
    # two E neurons driven to about 1e308 by huge negative recovery
    # variables: every v and u stays finite, but both sums overflow, so
    # the check rescans and finds nothing (a RuntimeWarning would fail)
    m = build_manifold(5, 5)
    cfg = SynapseConfig(substeps=1)
    tables = build_synapses(m, cfg)
    state = init_neurons(m, cfg)
    state.u[[3, 11]] = -1e308
    se, _ = step_wave(state, tables)
    assert np.flatnonzero(se).tolist() == [3, 11]
    assert np.isfinite(state.v).all() and np.isfinite(state.u).all()
    with np.errstate(over="ignore"):
        assert state.u.sum() == -np.inf
