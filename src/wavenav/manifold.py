"""2D lattice manifold with rectangular obstacles.

Nodes are indexed row-major: index = y * nx + x. Distances are in
lattice units. `fan_out` builds the one table of node pairs within a
radius, a column per lattice offset; the wave layer's synapse tables
and the oracle's graph are both read from it.
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
        self.ys, self.xs = np.divmod(np.arange(nx * ny), nx)

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


def within(dist, radius):
    return dist <= radius + 1e-12  # up to rounding


def lattice_offsets(radius: float, metric: str):
    """(dx, dy, distance) for all offsets with 0 < distance <= radius,
    row by row (dy outer, dx inner)."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    r = max(int(np.ceil(radius)), 0)
    dy, dx = np.mgrid[-r:r + 1, -r:r + 1]
    d = METRICS[metric](abs(dx), abs(dy)).astype(float)
    keep = (d > 0) & within(d, radius)
    return [(int(x), int(y), float(v))
            for x, y, v in zip(dx[keep], dy[keep], d[keep])]


def fan_out(m: Manifold, radius: float, metric: str):
    """(posts, dists): a column of `posts` (n x K, int32) for each offset
    0 < distance <= radius, in `lattice_offsets` order, that joins any
    pair of unblocked nodes, and those offsets' distances. Row k holds the
    node each offset reaches from node k, or the sink n where it leaves
    the lattice or either end is blocked; in-grid posts ascend."""
    nx, ny = m.nx, m.ny
    ok = ~m.blocked.reshape(ny, nx)
    node = np.arange(m.n, dtype=np.int32).reshape(ny, nx)
    # no in-grid offset lies nx + ny or more away under any metric
    offsets = [o for o in lattice_offsets(min(radius, nx + ny), metric)
               if abs(o[0]) < nx and abs(o[1]) < ny]
    posts = np.full((m.n, len(offsets)), m.n, dtype=np.int32)
    grid, dists = posts.reshape(ny, nx, len(offsets)), []
    for dx, dy, d in offsets:
        # the pre nodes whose shifted post stays in the grid, and those posts
        pre = slice(max(-dy, 0), ny - max(dy, 0)), slice(max(-dx, 0), nx - max(dx, 0))
        post = slice(max(dy, 0), ny + min(dy, 0)), slice(max(dx, 0), nx + min(dx, 0))
        both = ok[pre] & ok[post]
        if both.any():
            np.copyto(grid[pre + (len(dists),)], node[post], where=both)
            dists.append(d)
    return np.ascontiguousarray(posts[:, :len(dists)]), np.array(dists)
