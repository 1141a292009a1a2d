"""Spiking wave layer: paired excitatory/inhibitory Izhikevich neurons.

Each lattice node carries one excitatory (E) and one inhibitory (I)
neuron. Excitatory neurons drive nearby excitatory and inhibitory
neurons; inhibitory neurons suppress nearby excitatory ones. A
permanently stimulated node emits expanding spike fronts; trailing
inhibition stops fronts from re-igniting their wake and makes
colliding fronts extinguish each other.

Both populations live in one stacked state of 2n neurons: entry k < n
is the E neuron of node k, entry n + k its I partner.

Synaptic transmission is delayed by one step: the input of step t comes
from the spikes of step t-1. Membranes are integrated every step, but
spikes travel as events along thin fronts: the input is summed from the
fan-out rows of the neurons that spiked into a 2n vector the state keeps,
and a step builds no lattice-sized float array but the (n+1)-long sums.
The reset touches only the neurons that fired, whose indices (`fired`)
are the next step's input and the planner's spikes. Two sums prove the
membranes finite; only a non-finite sum rescans.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifold import METRICS, Manifold, fan_out, within


class NumericalError(RuntimeError):
    """Non-finite membrane state; carries the lattice node of the first
    offending neuron (E or I)."""

    def __init__(self, message: str, node: int):
        super().__init__(message)
        self.node = node


@dataclass(frozen=True)
class SynapseConfig:
    """Wave-layer settings: synapse kernels, integration, drive, neuron types.

    Strengths fall off as s_max / d with d measured under `metric`, a
    key of manifold.METRICS. Excitatory kernels skip d = 0; the
    inhibitory-to-excitatory kernel includes it. `substeps` and
    `v_floor` set the Euler integration (see WaveState), `stim_dc` the
    current into each stimulated node, `mode` and `seed` the neuron
    parameters (see init_neurons).
    """

    s_ee_max: float = 50.0
    s_ei_max: float = 9.0
    s_ie_max: float = -200.0
    d_e: float = 2.0
    d_i: float = 2.0
    metric: str = "manhattan"
    substeps: int = 2
    v_floor: float = -90.0
    stim_dc: float = 25.0
    mode: str = "homogeneous"
    seed: int | None = None

    def __post_init__(self):
        if self.s_ee_max <= 0 or self.s_ei_max <= 0:
            raise ValueError("excitatory strengths must be positive")
        if self.s_ie_max >= 0:
            raise ValueError("s_ie_max must be negative")
        if self.d_e <= 0 or self.d_i <= 0:
            raise ValueError("synapse ranges must be positive")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        if self.mode not in ("homogeneous", "heterogeneous"):
            raise ValueError(
                f"mode must be homogeneous or heterogeneous, got {self.mode!r}")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class SynapseTables:
    """Pre-major fan-out tables of the three synapse kernels.

    Slot j of every row of `e_posts` (n x K_e, int32) is the j-th
    lattice offset within d_e that joins any pair: row k holds the node
    that offset reaches from node k, or the sink n where it leaves the
    lattice or either end is blocked. The slot carries strength `ee[j]`
    onto that node's E neuron and `ei[j]` onto its I neuron. `i_posts`
    and `ie` do the same for i->e within d_i; their slot 0 is the node
    itself (d = 0).
    """

    e_posts: np.ndarray
    ee: np.ndarray
    ei: np.ndarray
    i_posts: np.ndarray
    ie: np.ndarray


def build_synapses(m: Manifold, cfg: SynapseConfig = SynapseConfig()) -> SynapseTables:
    """Both kernels from one fan-out table; blocked nodes get no entries."""
    posts, dists = fan_out(m, max(cfg.d_e, cfg.d_i), cfg.metric)
    e_cols, i_cols = within(dists, cfg.d_e), within(dists, cfg.d_i)
    # one fancy index makes an F-ordered copy; the i table goes in row blocks
    e_posts = posts if e_cols.all() else np.ascontiguousarray(posts[:, e_cols])
    i_posts = np.empty((m.n, 1 + np.count_nonzero(i_cols)), dtype=np.int32)
    i_posts[:, 0] = np.arange(m.n, dtype=np.int32)
    i_posts[m.blocked, 0] = m.n
    take = slice(None) if i_cols.all() else i_cols
    for lo in range(0, m.n, 1024):
        i_posts[lo:lo + 1024, 1:] = posts[lo:lo + 1024, take]
    e_dist, i_dist = dists[e_cols], dists[i_cols]
    return SynapseTables(
        e_posts=e_posts, ee=cfg.s_ee_max / e_dist, ei=cfg.s_ei_max / e_dist,
        i_posts=i_posts,
        ie=np.concatenate(([cfg.s_ie_max], cfg.s_ie_max / i_dist)))


class WaveState:
    """Izhikevich state and parameters of both populations, stacked.

    `v`, `u`, `a`, `b`, `c` and `d` have length 2n: entry k < n belongs
    to the E neuron of node k, entry n + k to its I partner. `fired`, the
    one record of spikes, lists in ascending order the entries that spiked
    in the last step (none at rest); the next step reads its input from
    it, so callers inject spikes by setting `fired`. `dc` (length n) is
    the direct current into each E neuron. Blocked nodes keep state
    entries but have no synapses and may not be stimulated, so they
    never spike. `cfg` is the SynapseConfig the state was built from,
    the one record of its `substeps`, `v_floor` (the floor every substep
    clamps all 2n membranes to) and `stim_dc`.
    """

    def __init__(self, m: Manifold, a: np.ndarray, b: np.ndarray,
                 c: np.ndarray, d: np.ndarray, cfg: SynapseConfig):
        self.manifold = m
        self.a, self.b, self.c, self.d = a, b, c, d
        self.v = c.copy()
        self.u = b * self.v
        self.dc = np.zeros(m.n)
        self.fired = np.empty(0, dtype=np.intp)
        self.cfg = cfg
        # synaptic input and Euler scratch, reused by every step
        self._in = np.empty(2 * m.n)
        self._dv = np.empty(2 * m.n)
        self._t = np.empty(2 * m.n)


def init_neurons(m: Manifold, cfg: SynapseConfig = SynapseConfig()) -> WaveState:
    """Create neuron populations at rest (v = c, u = b*v, dc = 0), with
    the neuron types, integration and drive settings of `cfg`.

    Parameters follow the maps of Izhikevich (2003) over per-neuron
    draws r_e, r_i in [0, 1): E neurons vary from regular spiking
    (r_e = 0) toward chattering, I neurons between low-threshold
    (r_i = 0) and fast spiking (r_i = 1). Homogeneous mode is the RS/FS
    pair r_e = 0, r_i = 1; heterogeneous mode draws r_e, then r_i, from
    `default_rng(cfg.seed)`.
    """
    n = m.n
    if cfg.mode == "homogeneous":
        r_e, r_i = np.zeros(n), np.ones(n)
    else:
        if cfg.seed is None:
            raise ValueError("heterogeneous mode requires a seed")
        r_e, r_i = np.random.default_rng(cfg.seed).random((2, n))
    a = np.concatenate((np.full(n, 0.02), 0.02 + 0.08 * r_i))
    b = np.concatenate((np.full(n, 0.2), 0.25 - 0.05 * r_i))
    c = np.concatenate((-65.0 + 15.0 * r_e ** 2, np.full(n, -65.0)))
    d = np.concatenate((8.0 - 6.0 * r_e ** 2, np.full(n, 2.0)))
    return WaveState(m, a, b, c, d, cfg)


def set_stimulus(state: WaveState, node: int, on: bool) -> None:
    """Toggle direct current `cfg.stim_dc` into the excitatory neuron at `node`."""
    if state.manifold.is_blocked(node):
        raise ValueError(f"cannot stimulate blocked node {node}")
    state.dc[node] = state.cfg.stim_dc if on else 0.0


def _check_finite(arr: np.ndarray, label: str, n: int) -> None:
    bad = ~np.isfinite(arr)
    if bad.any():
        node = int(np.flatnonzero(bad)[0]) % n
        raise NumericalError(f"non-finite {label} at node {node}", node)


def _post_sums(rows: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Per-post sums (length n, sink dropped) of slot weights `w` over `rows`.

    bincount adds each bin's terms to 0.0 in input order. Rows come in
    ascending pre order and name each post at most once, so each sum is
    the one a CSR row product over the 0/1 spike vector gives, to the bit
    (a silent pre adds only +-0.0 there). No rows give int64 zeros.
    """
    return np.bincount(rows.ravel(), w[None].repeat(len(rows), 0).ravel(),
                       minlength=n + 1)[:n]


def step_wave(state: WaveState, tables: SynapseTables):
    """Advance both populations by one 1 ms step.

    Input currents come from the previous step's spikes (`state.fired`)
    through their fan-out rows; this step's spikes replace them there.
    Returns the boolean spike masks (excitatory, inhibitory), each of length n.
    """
    n = state.manifold.n
    fired = state.fired
    split = fired.searchsorted(n)
    e_rows = tables.e_posts[fired[:split]]
    # e->e, then i->e: one sum over both would reorder terms and move v's last bits
    i_syn = state._in
    i_syn[n:] = _post_sums(e_rows, tables.ei, n)
    np.add(state.dc, _post_sums(e_rows, tables.ee, n), out=i_syn[:n])
    i_syn[:n] += _post_sums(tables.i_posts[fired[split:] - n], tables.ie, n)

    v, u, dv, t = state.v, state.u, state._dv, state._t
    substeps, v_floor = state.cfg.substeps, state.cfg.v_floor
    h = 1.0 / substeps
    # overflow surfaces as NumericalError below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(substeps):
            # v += h * (0.04 * v * v + 5.0 * v + 140.0 - u + i_syn), the
            # same operations in the same order, without temporaries
            np.multiply(v, 0.04, out=dv)
            dv *= v
            np.multiply(v, 5.0, out=t)
            dv += t
            dv += 140.0
            dv -= u
            dv += i_syn
            dv *= h
            v += dv
            # u += h * (a * (b * v - u))
            np.multiply(state.b, v, out=dv)
            dv -= u
            dv *= state.a
            dv *= h
            u += dv
            np.maximum(v, v_floor, out=v)

        # a finite sum proves every entry finite; only a non-finite one
        # (an entry, or an overflowing sum of finite entries) rescans
        if not math.isfinite(v.sum()):
            _check_finite(v, "v", n)
        if not math.isfinite(u.sum()):
            _check_finite(u, "u", n)

    s = v >= 30.0
    state.fired = fired = np.flatnonzero(s)
    v[fired] = state.c[fired]
    u[fired] += state.d[fired]
    return s[:n], s[n:]
