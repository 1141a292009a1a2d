"""Continuous attractor layer: a self-sustained activity bump.

Rate-coded units on the same lattice interact through a Gaussian
weight profile in normalized coordinates. A direction vector delta
biases the weights so that each update translates the bump; with
delta = (0, 0) the bump is a fixed point. The profile factorises per
axis, so an update is two small matrix products. Factor entries below
KERNEL_FLOOR are exact zeros, which keeps the products out of gradual
underflow and leaves every bit of A as it is (see AttractorState.weights).

Activity is renormalized to unit sum after every update. The raw
update rule has a per-step gain well above 1 at the shipped
parameters, so without renormalization activity overflows long
before the required 1000-step stability horizon.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .manifold import Manifold

# 2^-511: the product of two factor entries at or above it is a normal double
KERNEL_FLOOR = math.sqrt(sys.float_info.min)


class BumpLostError(RuntimeError):
    """Total activity reached zero; the bump cannot be recovered."""


@dataclass(frozen=True)
class AttractorParams:
    J: float = 12.0
    sigma: float = 0.03
    T: float = 0.05
    warmup: int = 50
    seed_radius: float = 6.0

    def __post_init__(self):
        for name in ("J", "sigma", "T", "seed_radius"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.sigma * self.sigma == 0:
            raise ValueError("sigma is so small that its square underflows to 0")
        if self.seed_radius <= 0:
            raise ValueError("seed_radius must be positive")
        if self.seed_radius * self.seed_radius == 0:
            raise ValueError(
                "seed_radius is so small that its square underflows to 0")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")


def attractor_weight(i: int, j: int, delta, p: AttractorParams,
                     nx: int, ny: int) -> float:
    """Pairwise weight: J * exp(-|((i-j)/N) + delta|^2 / sigma^2) - T."""
    ix, iy = i % nx, i // nx
    jx, jy = j % nx, j // nx
    dx = (ix - jx) / nx + delta[0]
    dy = (iy - jy) / ny + delta[1]
    return p.J * math.exp(-(dx * dx + dy * dy) / (p.sigma * p.sigma)) - p.T


class AttractorState:
    """Activity field A, direction vector delta and per-axis kernel factors.

    Each step replaces A by a new array and never writes the old one, so
    an A handed to a caller keeps its values.
    """

    def __init__(self, m: Manifold, p: AttractorParams):
        self.manifold = m
        self.params = p
        self.A = np.zeros(m.n)
        self._blocked = np.flatnonzero(m.blocked)  # empty on an open grid
        self.delta = (0.0, 0.0)
        self._g = None
        # pairwise normalized offsets per axis, pre -> post
        self._offsets = [(np.arange(k)[:, None] - np.arange(k)) / k
                         for k in (m.nx, m.ny)]

    def set_delta(self, delta) -> None:
        delta = (float(delta[0]), float(delta[1]))
        if delta != self.delta:
            self.delta = delta
            self._g = None

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Factors (gx, gy): weight i -> j is J * gx[xi, xj] * gy[yi, yj] - T.

        Entries below KERNEL_FLOOR are set to exactly 0. Their products
        would run into the subnormal range, where every operation costs
        the CPU a microcode assist. Nothing that can survive the clip
        changes: all terms are >= 0, and with T > 0 a surviving column has
        G > T * sum(A) / J (about 4e-3 at the defaults), so the dropped
        terms lie over 100 orders of magnitude below half an ulp of it.
        With T <= 0 no column clips, and A's far tail may lose values below
        about 1e-150.
        """
        if self._g is None:
            s2 = self.params.sigma * self.params.sigma
            # an exponent that overflows to -inf is the kernel's exact 0
            with np.errstate(over="ignore"):
                self._g = tuple(np.exp(-(o + d) ** 2 / s2)
                                for o, d in zip(self._offsets, self.delta))
            for g in self._g:
                g[g < KERNEL_FLOOR] = 0.0
        return self._g


def init_bump(m: Manifold, start: int, p: AttractorParams) -> AttractorState:
    """Seed a Gaussian at `start` and relax it with delta = (0, 0).

    Fails if the relaxed activity does not form a single connected
    above-half-max component.
    """
    if m.is_blocked(start):
        raise ValueError(f"start node {start} is blocked")
    state = AttractorState(m, p)
    sx, sy = m.coords(start)
    d2 = (m.xs - sx) ** 2.0 + (m.ys - sy) ** 2.0
    # an exponent that overflows to -inf is the seed's exact 0
    with np.errstate(over="ignore"):
        A = np.exp(-math.log(2.0) * d2 / (p.seed_radius * p.seed_radius))
    A[m.blocked] = 0.0
    state.A = A / A.sum()
    for _ in range(p.warmup):
        step_attractor(state)
    count = len(components(bump_footprint(state).reshape(m.ny, m.nx)))
    if count != 1:
        raise BumpLostError(
            f"bump warm-up did not converge to a single component (got {count})")
    return state


def components(mask: np.ndarray) -> list[np.ndarray]:
    """The 8-connected components of a 2-D boolean mask, each as the
    sorted row-major indices of its nodes, in order of their lowest index.

    A flood fill over the mask's nodes only, numbered row-major in rows
    one wider than the mask: that gap column keeps a row's last node
    from touching the next row's first. Each fill starts at the lowest
    node not yet taken. A footprint holds tens to a few hundred nodes,
    so a fill costs well under a millisecond.
    """
    w = mask.shape[1] + 1
    ys, xs = np.nonzero(mask)
    keys = (ys * w + xs).tolist()
    left = set(keys)
    steps = (-w - 1, -w, -w + 1, -1, 1, w - 1, w, w + 1)
    parts = []
    for seed in keys:
        if seed not in left:
            continue
        left.remove(seed)
        part = [seed]
        for k in part:  # grows as the fill reaches new nodes
            for s in steps:
                j = k + s
                if j in left:
                    left.remove(j)
                    part.append(j)
        part = np.sort(part)
        parts.append(part - part // w)  # y * w + x to y * nx + x
    return parts


def step_attractor(state: AttractorState) -> AttractorState:
    """A <- max(J * (gy^T A gx) - T * sum(A), 0), zeroed on blocked
    nodes and renormalized to unit sum, which cancels any scale of A."""
    total = state.A.sum()
    if total <= 0.0:
        raise BumpLostError("total activity is zero")
    p, m = state.params, state.manifold
    gx, gy = state.weights()
    # the operations of max(J * G - T * total, 0) / sum, in that order, on
    # the one fresh product: a caller's old A is never written
    A = (gy.T @ state.A.reshape(m.ny, m.nx) @ gx).ravel()
    A *= p.J
    A -= p.T * total
    np.maximum(A, 0.0, out=A)
    A[state._blocked] = 0.0
    with np.errstate(over="ignore"):
        total = A.sum()
    if not math.isfinite(total):
        raise BumpLostError(f"total activity is {total} after update")
    if total <= 0.0:
        raise BumpLostError("activity vanished after update")
    A /= total
    state.A = A
    return state


def bump_center(state: AttractorState) -> int:
    """Node with maximal activity; ties break to the lowest index."""
    center = int(np.argmax(state.A))
    if not state.A[center] > 0.0:
        raise BumpLostError("total activity is zero")
    return center


def bump_footprint(state: AttractorState) -> np.ndarray:
    """Boolean mask of nodes with A >= half the maximum."""
    peak = state.A.max()
    if not peak > 0.0:
        raise BumpLostError("total activity is zero")
    return state.A >= 0.5 * peak


def footprint_diameter(state: AttractorState) -> int:
    """Largest axis extent of the half-max footprint, in nodes."""
    mask = bump_footprint(state)
    xs, ys = state.manifold.xs[mask], state.manifold.ys[mask]
    return int(max(xs.max() - xs.min(), ys.max() - ys.min()) + 1)
