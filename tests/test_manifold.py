import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wavenav.manifold import (build_manifold, euclidean_distance,
                              lattice_offsets)
from wavenav.oracle import build_graph

from test_oracle import neighbors


def test_index_is_row_major():
    m = build_manifold(41, 41)
    assert m.index(0, 0) == 0
    assert m.index(40, 0) == 40
    assert m.index(0, 1) == 41
    assert m.index(36, 36) == 36 * 41 + 36


@given(nx=st.integers(3, 60), ny=st.integers(3, 60), data=st.data())
def test_index_coords_round_trip(nx, ny, data):
    m = build_manifold(nx, ny)
    x = data.draw(st.integers(0, nx - 1))
    y = data.draw(st.integers(0, ny - 1))
    node = m.index(x, y)
    assert 0 <= node < m.n
    assert m.coords(node) == (x, y)
    assert m.index(*m.coords(node)) == node


def test_out_of_range_lookups_raise():
    m = build_manifold(5, 5)
    with pytest.raises(ValueError):
        m.index(5, 0)
    with pytest.raises(ValueError):
        m.index(0, -1)
    with pytest.raises(ValueError):
        m.coords(25)


def test_node_counts():
    assert build_manifold(41, 41).unblocked_count() == 1681
    assert build_manifold(101, 101).unblocked_count() == 10201
    m = build_manifold(41, 41, obstacles=[(14, 14, 26, 26)])
    assert m.unblocked_count() == 1681 - 13 * 13


def test_obstacle_bounds_are_inclusive():
    m = build_manifold(10, 10, obstacles=[(2, 3, 4, 5)])
    assert m.is_blocked(m.index(2, 3))
    assert m.is_blocked(m.index(4, 5))
    assert not m.is_blocked(m.index(5, 5))
    assert not m.is_blocked(m.index(2, 2))


def test_degenerate_manifolds_rejected():
    with pytest.raises(ValueError):
        build_manifold(2, 5)
    with pytest.raises(ValueError):
        build_manifold(5, 5, obstacles=[(0, 0, 4, 4)])
    with pytest.raises(ValueError):
        build_manifold(5, 5, obstacles=[(3, 3, 1, 1)])
    with pytest.raises(ValueError):
        build_manifold(5, 5, obstacles=[(7, 7, 9, 9)])


def test_euclidean_distance_values():
    m = build_manifold(41, 41)
    a = m.index(4, 4)
    assert euclidean_distance(m, a, a) == 0.0
    assert euclidean_distance(m, a, m.index(5, 5)) == pytest.approx(math.sqrt(2))
    assert euclidean_distance(m, a, m.index(36, 36)) == pytest.approx(45.2548, abs=1e-4)


def test_neighbor_counts():
    m = build_manifold(9, 9)
    center = m.index(4, 4)
    assert len(neighbors(build_graph(m, 1.0), center)) == 4
    assert len(neighbors(build_graph(m, math.sqrt(2)), center)) == 8
    assert len(neighbors(build_graph(m, 2.0), center)) == 12
    corner = m.index(0, 0)
    assert len(neighbors(build_graph(m, 1.0), corner)) == 2


def test_neighbor_distances_at_radius_two():
    dists = sorted(d for _, _, d in lattice_offsets(2.0, "euclid"))
    expected = sorted([1.0] * 4 + [math.sqrt(2)] * 4 + [2.0] * 4)
    assert dists == pytest.approx(expected)


@pytest.mark.parametrize("metric", ["euclid", "manhattan", "cheb"])
def test_lattice_offsets_match_loop_reference(metric):
    # np.hypot, as the synapse tables always used: math.hypot differs
    # from it in the last bit for some offsets
    distance = {"euclid": lambda dx, dy: float(np.hypot(dx, dy)),
                "manhattan": lambda dx, dy: float(abs(dx) + abs(dy)),
                "cheb": lambda dx, dy: float(max(abs(dx), abs(dy)))}[metric]
    for radius in (0.5, 1, math.sqrt(2), 1.5, 2, 3, 7.3, 50, 82):
        r = math.ceil(radius)
        expected = [(dx, dy, distance(dx, dy))
                    for dy in range(-r, r + 1) for dx in range(-r, r + 1)
                    if (dx, dy) != (0, 0) and distance(dx, dy) <= radius + 1e-12]
        got = lattice_offsets(radius, metric)
        assert got == expected
        assert all(type(v) is t for row in got
                   for v, t in zip(row, (int, int, float)))


def test_neighbors_sorted_and_within_radius():
    m = build_manifold(12, 7, obstacles=[(5, 0, 6, 6)])
    g = build_graph(m, 2.0)
    for node in range(m.n):
        if m.is_blocked(node):
            continue
        indices = neighbors(g, node)
        assert indices == sorted(indices)
        assert node not in indices
        x, y = m.coords(node)
        # every unblocked node within the radius, in ascending index order
        within = [m.index(px, py) for py in range(m.ny) for px in range(m.nx)
                  if 0 < math.hypot(px - x, py - y) <= 2.0
                  and not m.is_blocked(m.index(px, py))]
        assert indices == within


@given(seed=st.integers(0, 999))
def test_neighbor_relation_is_symmetric(seed):
    import numpy as np
    rng = np.random.default_rng(seed)
    nx, ny = int(rng.integers(3, 12)), int(rng.integers(3, 12))
    blocked = rng.random(nx * ny) < 0.2
    if blocked.all():
        blocked[0] = False
    m = build_manifold(nx, ny)
    m.blocked = blocked
    g = build_graph(m, 2.0)
    open_nodes = [v for v in range(m.n) if not m.is_blocked(v)]
    for v in open_nodes:
        for u in neighbors(g, v):
            assert v in neighbors(g, u)


def test_blocked_nodes_have_no_edges():
    m = build_manifold(5, 5, obstacles=[(2, 2, 2, 2)])
    g = build_graph(m, 2.0)
    b = m.index(2, 2)
    assert neighbors(g, b) == []
    assert all(b not in neighbors(g, v) for v in range(m.n))
