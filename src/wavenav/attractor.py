"""Continuous attractor layer: a self-sustained activity bump.

Rate-coded units on the same lattice interact through a Gaussian
weight profile in normalized coordinates. A direction vector delta
biases the weights so that each update translates the bump; with
delta = (0, 0) the bump is a fixed point. The profile factorises per
axis, so an update is two small matrix products; a seeded jitter adds
one term over the active units.

Activity is renormalized to unit sum after every update. The raw
update rule has a per-step gain well above 1 at the shipped
parameters, so without renormalization activity overflows long
before the required 1000-step stability horizon.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .manifold import Manifold


class BumpLostError(RuntimeError):
    """Total activity reached zero; the bump cannot be recovered."""


@dataclass
class AttractorParams:
    J: float = 12.0
    sigma: float = 0.03
    T: float = 0.05
    warmup: int = 50
    seed_radius: float = 6.0
    jitter_seed: int | None = None
    jitter_mag: float = 1e-9

    def validate(self) -> "AttractorParams":
        for name in ("J", "sigma", "T", "seed_radius"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.sigma * self.sigma == 0:
            raise ValueError("sigma is so small that its square underflows to 0")
        if self.seed_radius <= 0:
            raise ValueError("seed_radius must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if self.jitter_seed is not None and self.jitter_seed < 0:
            raise ValueError("jitter_seed must be >= 0")
        return self


def attractor_weight(i: int, j: int, delta, p: AttractorParams,
                     nx: int, ny: int) -> float:
    """Pairwise weight: J * exp(-|((i-j)/N) + delta|^2 / sigma^2) - T."""
    ix, iy = i % nx, i // nx
    jx, jy = j % nx, j // nx
    dx = (ix - jx) / nx + delta[0]
    dy = (iy - jy) / ny + delta[1]
    return p.J * math.exp(-(dx * dx + dy * dy) / (p.sigma * p.sigma)) - p.T


class AttractorState:
    """Activity field A, direction vector delta and per-axis kernel factors."""

    def __init__(self, m: Manifold, p: AttractorParams):
        p.validate()
        self.manifold = m
        self.params = p
        self.A = np.zeros(m.n)
        self.delta = (0.0, 0.0)
        self._g = None
        # pairwise normalized offsets per axis, pre -> post
        self._offsets = [(np.arange(k)[:, None] - np.arange(k)) / k
                         for k in (m.nx, m.ny)]
        if p.jitter_seed is not None:
            self._rng = np.random.default_rng(p.jitter_seed).bit_generator
            self._rng_start = self._rng.state

    def set_delta(self, delta) -> None:
        delta = (float(delta[0]), float(delta[1]))
        if delta != self.delta:
            self.delta = delta
            self._g = None

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Factors (gx, gy): weight i -> j is J * gx[xi, xj] * gy[yi, yj] - T."""
        if self._g is None:
            s2 = self.params.sigma * self.params.sigma
            # an exponent that overflows to -inf is the kernel's exact 0
            with np.errstate(over="ignore"):
                self._g = tuple(np.exp(-(o + d) ** 2 / s2)
                                for o, d in zip(self._offsets, self.delta))
        return self._g

    def jitter_rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi-1 of default_rng(jitter_seed).uniform(-1, 1, (n, n)),
        found by advancing the generator; the field is never stored."""
        n = self.manifold.n
        self._rng.state = self._rng_start
        self._rng.advance(int(lo) * n)
        # uniform(-1, 1) is -1 + 2 * random(), draw for draw and bit for bit
        U = np.random.Generator(self._rng).random((hi - lo, n))
        U *= 2.0
        U -= 1.0
        return U


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
    A = np.exp(-math.log(2.0) * d2 / (p.seed_radius * p.seed_radius))
    A[m.blocked] = 0.0
    state.A = A / A.sum()
    for _ in range(p.warmup):
        step_attractor(state)
    fp = bump_footprint(state).reshape(m.ny, m.nx)
    _, count = ndimage.label(fp, structure=np.ones((3, 3), dtype=int))
    if count != 1:
        raise BumpLostError(
            f"bump warm-up did not converge to a single component (got {count})")
    return state


def step_attractor(state: AttractorState) -> AttractorState:
    """A <- max(J * (gy^T A gx) - T * sum(A), 0), zeroed on blocked
    nodes and renormalized to unit sum, which cancels any scale of A."""
    total = state.A.sum()
    if total <= 0.0:
        raise BumpLostError("total activity is zero")
    p, m = state.params, state.manifold
    gx, gy = state.weights()
    B = p.J * (gy.T @ state.A.reshape(m.ny, m.nx) @ gx).ravel() - p.T * total
    if p.jitter_seed is not None:
        # add W[i, j] * jitter_mag * U[i, j] over the active pre-units i,
        # one lattice row y of them at a time; row i of W is the outer
        # product of gy[y] and J * gx[xi], less T, flattened row-major
        for y, lo in enumerate(range(0, m.n, m.nx)):
            nz = np.flatnonzero(state.A[lo:lo + m.nx])
            if nz.size:
                x = slice(nz[0], nz[-1] + 1)
                i = slice(lo + x.start, lo + x.stop)
                U = state.jitter_rows(i.start, i.stop)
                W = (p.J * gx[x, None, :]) * gy[y, :, None] - p.T
                U *= W.reshape(len(U), m.n)
                B += p.jitter_mag * (state.A[i] @ U)
    A = np.maximum(B, 0.0)
    A[m.blocked] = 0.0
    total = A.sum()
    if total <= 0.0:
        raise BumpLostError("activity vanished after update")
    state.A = A / total
    return state


def bump_center(state: AttractorState) -> int:
    """Node with maximal activity; ties break to the lowest index."""
    if state.A.sum() <= 0.0:
        raise BumpLostError("total activity is zero")
    return int(np.argmax(state.A))


def bump_footprint(state: AttractorState) -> np.ndarray:
    """Boolean mask of nodes with A >= half the maximum."""
    if state.A.sum() <= 0.0:
        raise BumpLostError("total activity is zero")
    return state.A >= 0.5 * state.A.max()


def footprint_diameter(state: AttractorState) -> int:
    """Largest axis extent of the half-max footprint, in nodes."""
    return _extent(state.manifold, bump_footprint(state))


def bump_width(state: AttractorState) -> int:
    """Largest axis extent of the nonzero support, in nodes."""
    return _extent(state.manifold, state.A > 0.0)


def _extent(m: Manifold, mask: np.ndarray) -> int:
    xs, ys = m.xs[mask], m.ys[mask]
    return int(max(xs.max() - xs.min(), ys.max() - ys.min()) + 1)
