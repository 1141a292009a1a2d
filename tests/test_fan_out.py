"""The one lattice fan-out table against a per-offset reference walk.

`manifold.fan_out` fills every column of one table through 2-D slices
of the lattice, and both the synapse tables and the oracle's graph are
read from it. The reference below walks the node pairs one lattice
offset at a time, with flat index arithmetic, and builds each synapse
kernel and the graph on its own, as the program did before the shared
table. Both must agree field for field, dtype and shape included.
"""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from wavenav.manifold import Manifold, build_manifold, lattice_offsets
from wavenav.oracle import build_graph
from wavenav.wave import SynapseConfig, SynapseTables, build_synapses


def reference_pairs(m, radius, metric):
    """For each lattice offset 0 < distance <= radius, in
    `lattice_offsets` order, that joins at least one pair of unblocked
    nodes: (pre, post, dist), pre ascending."""
    ok = ~m.blocked
    xs, ys = np.arange(m.n) % m.nx, np.arange(m.n) // m.nx
    for dx, dy, d in lattice_offsets(min(radius, m.nx + m.ny), metric):
        px, py = xs + dx, ys + dy
        inside = (px >= 0) & (px < m.nx) & (py >= 0) & (py < m.ny)
        pre = np.nonzero(inside & ok)[0]
        post = (ys[pre] + dy) * m.nx + (xs[pre] + dx)
        keep = ok[post]
        if keep.any():
            yield pre[keep], post[keep], d


def reference_kernel(m, radius, metric, own):
    """Posts (n x K, int32) and slot distances of one kernel; with `own`,
    slot 0 is each unblocked node itself at distance 0."""
    sink = np.int32(m.n)
    cols = [np.where(m.blocked, sink, np.arange(m.n, dtype=np.int32))] if own else []
    dists = [0.0] if own else []
    for pre, post, d in reference_pairs(m, radius, metric):
        col = np.full(m.n, sink)
        col[pre] = post
        cols.append(col)
        dists.append(d)
    posts = np.empty((m.n, len(cols)), dtype=np.int32)
    for j, col in enumerate(cols):
        posts[:, j] = col
    return posts, np.array(dists)


def reference_synapses(m, cfg):
    e_posts, e_dist = reference_kernel(m, cfg.d_e, cfg.metric, own=False)
    i_posts, i_dist = reference_kernel(m, cfg.d_i, cfg.metric, own=True)
    return SynapseTables(
        e_posts=e_posts, ee=cfg.s_ee_max / e_dist, ei=cfg.s_ei_max / e_dist,
        i_posts=i_posts,
        ie=np.concatenate(([cfg.s_ie_max], cfg.s_ie_max / i_dist[1:])))


def reference_graph(m, radius):
    pres, posts = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    for pre, post, _ in reference_pairs(m, radius, "euclid"):
        pres.append(pre)
        posts.append(post)
    pre, post = np.concatenate(pres), np.concatenate(posts)
    adj = sp.csr_matrix((np.ones(len(pre), dtype=bool), (pre, post)),
                        shape=(m.n, m.n))
    adj.sort_indices()
    return adj


@st.composite
def lattices(draw):
    """Grids up to 30x30 with up to four rectangles, not all blocked."""
    nx, ny = draw(st.integers(3, 30)), draw(st.integers(3, 30))
    blocked = np.zeros((ny, nx), dtype=bool)
    for _ in range(draw(st.integers(0, 4))):
        x0, y0 = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
        blocked[y0:draw(st.integers(y0, ny - 1)) + 1,
                x0:draw(st.integers(x0, nx - 1)) + 1] = True
    if blocked.all():
        blocked.flat[draw(st.integers(0, nx * ny - 1))] = False
    return Manifold(nx, ny, blocked)


def radii(m):
    """Ranges below one step, on the lattice scale and past nx + ny."""
    return st.one_of(st.floats(0.05, 0.99), st.sampled_from([1.0, math.sqrt(2)]),
                     st.floats(1.0, 8.0),
                     st.floats(m.nx + m.ny, 2.0 * (m.nx + m.ny)))


def assert_tables_equal(got, want):
    for field in dataclasses.fields(SynapseTables):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype and a.shape == b.shape, field.name
        assert np.array_equal(a, b), field.name


@settings(max_examples=80, deadline=None)
@given(data=st.data(), metric=st.sampled_from(["manhattan", "euclid", "cheb"]))
def test_synapse_tables_match_the_per_offset_walk(data, metric):
    m = data.draw(lattices())
    d_e, d_i = data.draw(radii(m)), data.draw(radii(m))
    cfg = SynapseConfig(d_e=d_e, d_i=d_i, metric=metric)
    assert_tables_equal(build_synapses(m, cfg), reference_synapses(m, cfg))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_graph_matches_the_per_offset_walk(data):
    m = data.draw(lattices())
    radius = data.draw(radii(m))
    got, want = build_graph(m, radius), reference_graph(m, radius)
    assert got.dtype == want.dtype == bool
    assert got.shape == want.shape
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.has_sorted_indices and got.has_canonical_format


@pytest.mark.parametrize("d_e,d_i", [(1.0, 3.0), (3.0, 1.0), (2.0, 2.0)])
@pytest.mark.parametrize("metric", ["manhattan", "euclid", "cheb"])
def test_unequal_ranges_on_a_walled_grid(d_e, d_i, metric):
    m = build_manifold(17, 11, obstacles=[(4, 0, 5, 7), (10, 3, 16, 4)])
    cfg = SynapseConfig(d_e=d_e, d_i=d_i, metric=metric)
    got = build_synapses(m, cfg)
    assert_tables_equal(got, reference_synapses(m, cfg))
    assert got.e_posts.flags.c_contiguous and got.i_posts.flags.c_contiguous


def table_bytes(tables):
    return sum(a.nbytes for a in dataclasses.astuple(tables))


@pytest.mark.parametrize("size,radius,metric", [(81, 1.0, "manhattan"),
                                                (61, 6.0, "cheb")])
def test_build_peak_stays_near_the_tables_it_returns(size, radius, metric):
    """The build holds little beyond its result: one table at the larger
    range, read by both kernels, and no per-offset temporaries."""
    m = build_manifold(size, size)
    cfg = SynapseConfig(d_e=radius, d_i=radius, metric=metric)
    tracemalloc.start()
    try:
        tables = build_synapses(m, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * table_bytes(tables), peak / table_bytes(tables)
