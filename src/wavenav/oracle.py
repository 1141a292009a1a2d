"""Classical graph traversal over the lattice, for verification.

A generic traversal with a FIFO frontier is breadth-first search and
yields hop-minimal parent chains; a LIFO frontier is depth-first
search. Both walk the rows of the lattice's CSR adjacency matrix, so
they visit exactly the connected component of the source and iterate
neighbors in ascending node index for determinism.
"""
from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from .manifold import Manifold, fan_out, route_length

if TYPE_CHECKING:
    import scipy.sparse as sp

FIFO = "FIFO"
LIFO = "LIFO"


def build_graph(m: Manifold, radius: float = 1.0) -> sp.csr_matrix:
    """Lattice graph with edges up to `radius` (1 -> 4-conn, sqrt(2) -> 8-conn):
    a symmetric boolean CSR adjacency matrix with sorted rows."""
    # imported here, so that importing wavenav loads numpy alone
    import scipy.sparse as sp

    posts, _ = fan_out(m, radius, "euclid")
    inside = posts < m.n
    # each row's in-grid posts already ascend
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(inside, axis=1))))
    return sp.csr_matrix((np.ones(indptr[-1], bool), posts[inside], indptr), (m.n, m.n))


def traverse(g: sp.csr_matrix, s: int, policy: str = FIFO) -> dict[int, int]:
    """Generic traversal from s; returns the parent map with p(s) = s."""
    if policy not in (FIFO, LIFO):
        raise ValueError(f"unknown policy {policy!r}")
    # plain lists: indexing numpy arrays one node at a time is slower
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    parent = {s: s}
    frontier = deque([s])
    while frontier:
        v = frontier.popleft() if policy == FIFO else frontier.pop()
        for w in indices[indptr[v]:indptr[v + 1]]:
            if w not in parent:
                parent[w] = v
                frontier.append(w)
    return parent


def shortest_path(g: sp.csr_matrix, s: int, t: int):
    """BFS path from s to t as a node list, or None if unreachable."""
    parent = traverse(g, s, FIFO)
    if t not in parent:
        return None
    path = [t]
    while path[-1] != s:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def hop_count(path) -> int:
    return len(path) - 1


def geometric_length(path, m: Manifold) -> float:
    """Sum of Euclidean hop lengths (diagonal hops count sqrt(2))."""
    return route_length([m.coords(k) for k in path])
