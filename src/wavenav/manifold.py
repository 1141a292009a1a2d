"""2D lattice manifold with rectangular obstacles.

Nodes are indexed row-major: index = y * nx + x. Distances are in
lattice units. `lattice_pairs` walks the node pairs within a radius,
one lattice offset at a time; it builds both the wave layer's synapse
tables and the oracle's graph.
"""
from __future__ import annotations

import math

import numpy as np


class Manifold:
    """An nx-by-ny lattice with a boolean blocked mask per node."""

    def __init__(self, nx: int, ny: int, blocked: np.ndarray):
        if nx < 3 or ny < 3:
            raise ValueError("grid must be at least 3x3")
        blocked = np.asarray(blocked, dtype=bool).reshape(nx * ny)
        if blocked.all():
            raise ValueError("every node is blocked")
        self.nx = int(nx)
        self.ny = int(ny)
        self.blocked = blocked
        idx = np.arange(nx * ny)
        self.xs = idx % nx
        self.ys = idx // nx

    @property
    def n(self) -> int:
        return self.nx * self.ny

    def index(self, x: int, y: int) -> int:
        if not (0 <= x < self.nx and 0 <= y < self.ny):
            raise ValueError(f"({x}, {y}) outside {self.nx}x{self.ny} lattice")
        return y * self.nx + x

    def coords(self, node: int) -> tuple[int, int]:
        if not (0 <= node < self.n):
            raise ValueError(f"node {node} out of range")
        return node % self.nx, node // self.nx

    def is_blocked(self, node: int) -> bool:
        return bool(self.blocked[node])

    def unblocked_count(self) -> int:
        return int((~self.blocked).sum())


def build_manifold(nx: int, ny: int, obstacles=()) -> Manifold:
    """Build a lattice, blocking every node covered by any rectangle.

    Rectangles are (x0, y0, x1, y1) with inclusive integer bounds.
    """
    blocked = np.zeros((ny, nx), dtype=bool)
    for rect in obstacles:
        x0, y0, x1, y1 = (int(v) for v in rect)
        if x1 < x0 or y1 < y0:
            raise ValueError(f"malformed rectangle {rect}")
        if x1 < 0 or y1 < 0 or x0 >= nx or y0 >= ny:
            raise ValueError(f"rectangle {rect} lies outside the lattice")
        blocked[max(y0, 0):y1 + 1, max(x0, 0):x1 + 1] = True
    return Manifold(nx, ny, blocked.reshape(-1))


def euclidean_distance(m: Manifold, a: int, b: int) -> float:
    ax, ay = m.coords(a)
    bx, by = m.coords(b)
    return math.hypot(ax - bx, ay - by)


def route_length(points) -> float:
    """Euclidean length of a list of (x, y) points, summed left to right."""
    total = 0.0
    for (ax, ay), (bx, by) in zip(points, points[1:]):
        total += math.hypot(ax - bx, ay - by)
    return total


# distance of an offset under each metric, from |dx| and |dy|
METRICS = {"euclid": np.hypot, "manhattan": np.add, "cheb": np.maximum}


def lattice_offsets(radius: float, metric: str):
    """(dx, dy, distance) for all offsets with 0 < distance <= radius,
    row by row (dy outer, dx inner)."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    r = max(int(np.ceil(radius)), 0)
    dy, dx = np.mgrid[-r:r + 1, -r:r + 1]
    d = METRICS[metric](abs(dx), abs(dy)).astype(float)
    keep = (d > 0) & (d <= radius + 1e-12)
    return [(int(x), int(y), float(v))
            for x, y, v in zip(dx[keep], dy[keep], d[keep])]


def lattice_pairs(m: Manifold, radius: float, metric: str):
    """Walk the lattice offsets 0 < distance <= radius under `metric`
    in `lattice_offsets` order. For each offset that joins at least one
    pair of unblocked nodes, yield (pre, post, dist): the arrays of those
    pairs, pre ascending, and their common distance."""
    ok = ~m.blocked
    # no in-grid offset lies nx + ny or more away under any metric
    for dx, dy, d in lattice_offsets(min(radius, m.nx + m.ny), metric):
        px, py = m.xs + dx, m.ys + dy
        inside = (px >= 0) & (px < m.nx) & (py >= 0) & (py < m.ny)
        pre = np.nonzero(inside & ok)[0]
        post = (m.ys[pre] + dy) * m.nx + (m.xs[pre] + dx)
        keep = ok[post]
        if keep.any():
            yield pre[keep], post[keep], d
