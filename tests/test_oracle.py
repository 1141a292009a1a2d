import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import floyd_warshall

from wavenav.manifold import build_manifold
from wavenav.oracle import (FIFO, LIFO, build_graph, geometric_length,
                            shortest_path, traverse)


def chain_length(parent, s, node):
    length = 0
    while node != s:
        node = parent[node]
        length += 1
        assert length <= len(parent), "parent chain has a cycle"
    return length


def graph(n, edges):
    """Symmetric boolean CSR adjacency matrix of undirected `edges`, as
    build_graph returns: sorted rows, no duplicate entries."""
    rows = [u for u, v in edges] + [v for u, v in edges]
    cols = [v for u, v in edges] + [u for u, v in edges]
    g = csr_matrix((np.ones(len(rows), dtype=bool), (rows, cols)), shape=(n, n))
    g.sort_indices()
    return g


def neighbors(g, v):
    return g.indices[g.indptr[v]:g.indptr[v + 1]].tolist()


def random_connected_graph(rng):
    n = int(rng.integers(2, 21))
    edges = set()
    # random spanning tree first, then extra edges
    nodes = list(rng.permutation(n))
    for i, v in enumerate(nodes[1:], start=1):
        u = int(nodes[int(rng.integers(0, i))])
        edges.add((min(u, v), max(u, v)))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return graph(n, edges), edges


def test_path_graph_parents():
    g = graph(3, [(0, 1), (1, 2)])
    parent = traverse(g, 0, FIFO)
    assert parent == {0: 0, 1: 0, 2: 1}


def test_corner_to_corner_hop_count():
    m = build_manifold(3, 3)
    g = build_graph(m, radius=1.0)
    parent = traverse(g, m.index(0, 0), FIFO)
    assert chain_length(parent, m.index(0, 0), m.index(2, 2)) == 4


def test_unknown_policy_rejected():
    g = graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        traverse(g, 0, "PRIORITY")


def test_fifo_distances_match_floyd_warshall():
    rng = np.random.default_rng(505)
    for _ in range(50):
        g, edges = random_connected_graph(rng)
        rows = [u for u, v in edges] + [v for u, v in edges]
        cols = [v for u, v in edges] + [u for u, v in edges]
        mat = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=g.shape)
        dist = floyd_warshall(mat, unweighted=True)
        for s in range(g.shape[0]):
            parent = traverse(g, s, FIFO)
            assert set(parent) == set(range(g.shape[0]))
            for t in range(g.shape[0]):
                assert chain_length(parent, s, t) == int(dist[s, t])


def test_lifo_spanning_tree_terminates_at_source():
    rng = np.random.default_rng(99)
    for _ in range(25):
        g, _ = random_connected_graph(rng)
        s = int(rng.integers(0, g.shape[0]))
        parent = traverse(g, s, LIFO)
        assert parent[s] == s
        assert set(parent) == set(range(g.shape[0]))
        for node in parent:
            chain_length(parent, s, node)


def test_both_policies_visit_exactly_the_component():
    # two components: a 2x2 block and an isolated pair
    g = graph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (4, 5)])
    for policy in (FIFO, LIFO):
        assert set(traverse(g, 0, policy)) == {0, 1, 2, 3}
        assert set(traverse(g, 4, policy)) == {4, 5}


def test_graph_invariants_on_a_maze():
    m = build_manifold(15, 11, obstacles=[(5, 0, 6, 8)])
    g = build_graph(m, radius=math.sqrt(2.0))
    assert g.dtype == bool and g.shape == (m.n, m.n)
    assert (g != g.T).nnz == 0
    for v in range(m.n):
        neigh = neighbors(g, v)
        assert v not in neigh
        assert neigh == sorted(neigh)
        if m.is_blocked(v):
            assert neigh == []
        for u in neigh:
            assert not m.is_blocked(u)
            assert v in neighbors(g, u)


def test_shortest_path_trivial_and_diagonal():
    m = build_manifold(41, 41)
    g = build_graph(m, radius=math.sqrt(2.0))
    s = m.index(4, 4)
    assert shortest_path(g, s, s) == [s]
    path = shortest_path(g, s, m.index(36, 36))
    assert len(path) - 1 == 32
    assert geometric_length(path, m) == pytest.approx(32 * math.sqrt(2))


def test_shortest_path_respects_walls():
    m = build_manifold(21, 21, obstacles=[(0, 9, 14, 10)])
    g = build_graph(m, radius=1.0)
    path = shortest_path(g, m.index(4, 4), m.index(4, 16))
    assert path is not None
    xs = [m.coords(v)[0] for v in path]
    assert max(xs) >= 15, "path must round the wall end"
    for v in path:
        assert not m.is_blocked(v)


def test_sealed_target_has_no_path():
    m = build_manifold(21, 21, obstacles=[(8, 8, 12, 9), (8, 12, 12, 13),
                                          (8, 10, 9, 11), (11, 10, 12, 11)])
    g = build_graph(m, radius=math.sqrt(2.0))
    assert not m.is_blocked(m.index(10, 11))
    assert shortest_path(g, m.index(2, 2), m.index(10, 11)) is None


def test_geometric_length_diagonal_hop():
    m = build_manifold(5, 5)
    path = [m.index(0, 0), m.index(1, 1), m.index(2, 1)]
    assert geometric_length(path, m) == pytest.approx(math.sqrt(2) + 1.0)
