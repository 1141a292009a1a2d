"""Continuous attractor layer: a self-sustained activity bump.

Rate-coded units on the same lattice interact through a Gaussian
weight profile in normalized coordinates. A direction vector delta
biases the weights so that each update translates the bump; with
delta = (0, 0) the bump is a fixed point. The profile factorises per
axis, so an update is two small matrix products; a seeded jitter adds
one term over the active units. Factor entries below KERNEL_FLOOR are
exact zeros, which keeps the products out of gradual underflow and
leaves every bit of A as it is (see AttractorState.weights).

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
# bytes of jitter blocks held from one step to the next, at most; they
# peak at 0.5 MB on a 41x41 lattice but grow about as N^4 with its side
JITTER_HELD_BYTES = 16 << 20


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
        for name in ("J", "sigma", "T", "seed_radius", "jitter_mag"):
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
            self._random = np.random.Generator(self._rng).random
            # per lattice row y: (key, jitter-weighted block or None)
            self._blocks = {}

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
        terms lie over 100 orders of magnitude below half an ulp of it. A
        jitter weight J * gx * gy - T keeps its bits too, since
        |J| * KERNEL_FLOOR is far below half an ulp of T. With T <= 0 no
        column clips, and A's far tail may lose values below about 1e-150.
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

    def jitter_rows(self, lo: int, hi: int, c0: int, c1: int) -> np.ndarray:
        """Rows lo..hi-1, columns c0..c1-1 of
        default_rng(jitter_seed).uniform(-1, 1, (n, n)), found by advancing
        the generator; the field is never stored."""
        n = self.manifold.n
        U = np.empty((hi - lo, c1 - c0))
        self._rng.state = self._rng_start
        self._rng.advance(int(lo) * n + int(c0))
        for row in U:
            self._random(out=row)
            self._rng.advance(n - len(row))  # on to column c0 of the next row
        # uniform(-1, 1) is -1 + 2 * random(), draw for draw and bit for bit
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
    # an exponent that overflows to -inf is the seed's exact 0
    with np.errstate(over="ignore"):
        A = np.exp(-math.log(2.0) * d2 / (p.seed_radius * p.seed_radius))
    A[m.blocked] = 0.0
    state.A = A / A.sum()
    for _ in range(p.warmup):
        step_attractor(state)
    count = count_components(bump_footprint(state).reshape(m.ny, m.nx))
    if count != 1:
        raise BumpLostError(
            f"bump warm-up did not converge to a single component (got {count})")
    return state


def count_components(mask: np.ndarray) -> int:
    """Number of 8-connected components of a 2-D boolean mask.

    A flood fill over the mask's nodes only, numbered row-major in rows
    one wider than the mask: that gap column keeps a row's last node
    from touching the next row's first. A footprint holds tens to a few
    hundred nodes, so a count costs well under a millisecond.
    """
    w = mask.shape[1] + 1
    ys, xs = np.nonzero(mask)
    left = set((ys * w + xs).tolist())
    steps = (-w - 1, -w, -w + 1, -1, 1, w - 1, w, w + 1)
    count = 0
    while left:
        count += 1
        stack = [left.pop()]
        while stack:
            k = stack.pop()
            for s in steps:
                j = k + s
                if j in left:
                    left.remove(j)
                    stack.append(j)
    return count


def step_attractor(state: AttractorState) -> AttractorState:
    """A <- max(J * (gy^T A gx) - T * sum(A), 0), zeroed on blocked
    nodes and renormalized to unit sum, which cancels any scale of A."""
    total = state.A.sum()
    if total <= 0.0:
        raise BumpLostError("total activity is zero")
    p, m = state.params, state.manifold
    gx, gy = state.weights()
    G = (gy.T @ state.A.reshape(m.ny, m.nx) @ gx).ravel()
    B = p.J * G - p.T * total
    if p.jitter_seed is not None:
        _add_jitter(state, B, G, total, gx, gy)
    A = np.maximum(B, 0.0)
    A[m.blocked] = 0.0
    with np.errstate(over="ignore"):
        total = A.sum()
    if not math.isfinite(total):
        raise BumpLostError(f"total activity is {total} after update")
    if total <= 0.0:
        raise BumpLostError("activity vanished after update")
    state.A = A / total
    return state


def _add_jitter(state: AttractorState, B: np.ndarray, G: np.ndarray,
                total: float, gx: np.ndarray, gy: np.ndarray) -> None:
    """Add W[i, j] * jitter_mag * U[i, j] over the active pre-units i to B,
    bit for bit as over all n columns, but only where it can survive the clip.

    With A >= 0 (every step leaves it so), |U| <= 1 and gx * gy >= 0, the
    term adds at most |jitter_mag| * (|J| * G[j] + |T| * sum(A)) to column
    j. A column that stays below 0 even with twice that (2 covers rounding)
    clips to exactly 0 with or without the term. The others lie in a band
    of lattice rows, columns c0..c1-1, and only that band is drawn.
    """
    p, m = state.params, state.manifold
    reach = 2.0 * abs(p.jitter_mag) * (abs(p.J) * G + abs(p.T) * total)
    rows = np.flatnonzero(~(B + reach < 0.0).reshape(m.ny, m.nx).all(axis=1))
    if not rows.size:
        return  # nothing survives: the step loses the bump either way
    ya, yb = int(rows[0]), int(rows[-1]) + 1
    c0, c1 = ya * m.nx, yb * m.nx
    # one lattice row y of active units at a time, x0..x1-1 the span of
    # its nonzero A; row i of W is the outer product of gy[y] and J * gx[xi],
    # less T, flattened row-major
    on = (state.A != 0.0).reshape(m.ny, m.nx)
    ys = np.flatnonzero(on.any(axis=1))
    x0s = on[ys].argmax(axis=1)
    x1s = m.nx - on[ys, ::-1].argmax(axis=1)
    # the product stays n wide, zero outside the band, so that BLAS sums
    # each band column as it does over the full field; a product over the
    # band columns alone can round differently. Every chunk writes the
    # same columns, so one zeroed buffer serves the whole step.
    Z = np.zeros((int((x1s - x0s).max()), m.n))
    blocks, held = {}, 0
    for y, x0, x1 in zip(ys.tolist(), x0s.tolist(), x1s.tolist()):
        lo = y * m.nx
        key = (x0, x1, c0, c1, state.delta)
        held_key, P = state._blocks.get(y, (None, None))
        repeated = held_key == key
        if P is None or not repeated:
            P = state.jitter_rows(lo + x0, lo + x1, c0, c1)
            P *= ((p.J * gx[x0:x1, None, :]) * gy[y, ya:yb, None]
                  - p.T).reshape(len(P), c1 - c0)
        # a block is held for the next step only once its key has repeated,
        # so steps whose chunks keep moving (warm-up's first) hold nothing,
        # and only within JITTER_HELD_BYTES; one left out is drawn again
        keep = repeated and held + P.nbytes <= JITTER_HELD_BYTES
        held += P.nbytes if keep else 0
        blocks[y] = (key, P if keep else None)
        Z[:x1 - x0, c0:c1] = P
        B += p.jitter_mag * (state.A[lo + x0:lo + x1] @ Z[:x1 - x0])
    state._blocks = blocks


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
    mask = bump_footprint(state)
    xs, ys = state.manifold.xs[mask], state.manifold.ys[mask]
    return int(max(xs.max() - xs.min(), ys.max() - ys.min()) + 1)
