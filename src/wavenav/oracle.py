"""Classical graph traversal over the lattice, for verification.

A generic traversal with a FIFO frontier is breadth-first search and
yields hop-minimal parent chains; a LIFO frontier is depth-first
search. Both visit exactly the connected component of the source and
iterate neighbors in ascending node index for determinism.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np
import scipy.sparse as sp

from .manifold import Manifold, lattice_pairs

FIFO = "FIFO"
LIFO = "LIFO"


class Graph:
    """Undirected, unweighted adjacency lists; no blocked endpoints."""

    def __init__(self, n: int, adjacency: list[list[int]]):
        self.n = n
        self.adjacency = adjacency

    def neighbors(self, node: int) -> list[int]:
        return self.adjacency[node]


def build_graph(m: Manifold, radius: float = 1.0) -> Graph:
    """Lattice graph with edges up to `radius` (1 -> 4-conn, sqrt(2) -> 8-conn)."""
    # empty seeds keep a radius below one step (no pairs) well-defined
    pres, posts = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    for pre, post, _ in lattice_pairs(m, radius, "euclid"):
        pres.append(pre)
        posts.append(post)
    pre, post = np.concatenate(pres), np.concatenate(posts)
    adj = sp.csr_matrix((np.ones(len(pre), dtype=bool), (pre, post)),
                        shape=(m.n, m.n))
    adj.sort_indices()
    indices, indptr = adj.indices.tolist(), adj.indptr.tolist()
    return Graph(m.n, [indices[lo:hi] for lo, hi in zip(indptr, indptr[1:])])


def traverse(g: Graph, s: int, policy: str = FIFO) -> dict[int, int]:
    """Generic traversal from s; returns the parent map with p(s) = s."""
    if policy not in (FIFO, LIFO):
        raise ValueError(f"unknown policy {policy!r}")
    parent = {s: s}
    frontier = deque([s])
    while frontier:
        v = frontier.popleft() if policy == FIFO else frontier.pop()
        for w in g.neighbors(v):
            if w not in parent:
                parent[w] = v
                frontier.append(w)
    return parent


def shortest_path(g: Graph, s: int, t: int):
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
    total = 0.0
    for a, b in zip(path, path[1:]):
        ax, ay = m.coords(a)
        bx, by = m.coords(b)
        total += math.hypot(ax - bx, ay - by)
    return total
