"""Spiking wave layer: paired excitatory/inhibitory Izhikevich neurons.

Each lattice node carries one excitatory (E) and one inhibitory (I)
neuron. Excitatory neurons drive nearby excitatory and inhibitory
neurons; inhibitory neurons suppress nearby excitatory ones. A
permanently stimulated node emits expanding spike fronts; trailing
inhibition stops fronts from re-igniting their wake and makes
colliding fronts extinguish each other.

Both populations live in one stacked state of 2n neurons: entry k < n
is the E neuron of node k, entry n + k its I partner.

Synaptic transmission is delayed by one step: the input current of
step t is computed from the spikes of step t-1. Every membrane is
integrated on every step, but spikes travel as events: the input is
summed from the fan-out table rows of only the neurons that spiked, as
a front is a thin ring of spikes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifold import METRICS, Manifold, lattice_pairs

STIM_DC = 25.0


class NumericalError(RuntimeError):
    """Non-finite membrane state; carries the lattice node of the first
    offending neuron (E or I)."""

    def __init__(self, message: str, node: int):
        super().__init__(message)
        self.node = node


@dataclass(frozen=True)
class SynapseConfig:
    """Wave-layer settings: synapse kernels, integration and drive.

    Strengths fall off as s_max / d with d measured under `metric`, a
    key of manifold.METRICS. Excitatory kernels skip d = 0; the
    inhibitory-to-excitatory kernel includes it. `substeps` and
    `v_floor` set the Euler integration (see WaveState), `stim_dc` the
    current into each stimulated node.
    """

    s_ee_max: float = 50.0
    s_ei_max: float = 9.0
    s_ie_max: float = -200.0
    d_e: float = 2.0
    d_i: float = 2.0
    metric: str = "manhattan"
    substeps: int = 2
    v_floor: float | None = -90.0
    stim_dc: float = STIM_DC

    def validate(self) -> "SynapseConfig":
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
        return self


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


def _fan_out(m: Manifold, radius: float, metric: str, own: bool):
    """Posts (n x K, int32) and slot distances (K) of one kernel; with
    `own`, slot 0 is each unblocked node itself at distance 0."""
    sink = np.int32(m.n)
    cols = [np.where(m.blocked, sink, np.arange(m.n, dtype=np.int32))] if own else []
    dists = [0.0] if own else []
    for pre, post, d in lattice_pairs(m, radius, metric):
        col = np.full(m.n, sink)
        col[pre] = post
        cols.append(col)
        dists.append(d)
    posts = np.empty((m.n, len(cols)), dtype=np.int32)
    for j, col in enumerate(cols):
        posts[:, j] = col
    return posts, np.array(dists)


def build_synapses(m: Manifold, cfg: SynapseConfig = SynapseConfig()) -> SynapseTables:
    """Build the fan-out tables; blocked nodes get no entries."""
    cfg.validate()
    e_posts, e_dist = _fan_out(m, cfg.d_e, cfg.metric, own=False)
    i_posts, i_dist = _fan_out(m, cfg.d_i, cfg.metric, own=True)
    return SynapseTables(
        e_posts=e_posts, ee=cfg.s_ee_max / e_dist, ei=cfg.s_ei_max / e_dist,
        i_posts=i_posts,
        ie=np.concatenate(([cfg.s_ie_max], cfg.s_ie_max / i_dist[1:])))


class WaveState:
    """Izhikevich state and parameters of both populations, stacked.

    `v`, `u`, `a`, `b`, `c`, `d` and `spikes` have length 2n: entry
    k < n belongs to the E neuron of node k, entry n + k to its I
    partner. `dc` (length n) is the direct current into each E neuron.
    Blocked nodes keep state entries but have no synapses and may not
    be stimulated, so they never spike.
    """

    def __init__(self, m: Manifold, a: np.ndarray, b: np.ndarray,
                 c: np.ndarray, d: np.ndarray,
                 substeps: int = 2, v_floor: float | None = -90.0):
        self.manifold = m
        self.a, self.b, self.c, self.d = a, b, c, d
        self.v = c.copy()
        self.u = b * self.v
        self.dc = np.zeros(m.n)
        self.spikes = np.zeros(2 * m.n, dtype=bool)
        self.substeps = int(substeps)
        self.v_floor = v_floor
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")


def init_neurons(m: Manifold, mode: str = "homogeneous", seed: int | None = None,
                 substeps: int = 2, v_floor: float | None = -90.0) -> WaveState:
    """Create neuron populations at rest (v = c, u = b*v, dc = 0).

    Parameters follow the maps of Izhikevich (2003) over per-neuron
    draws r_e, r_i in [0, 1): E neurons vary from regular spiking
    (r_e = 0) toward chattering, I neurons between low-threshold
    (r_i = 0) and fast spiking (r_i = 1). Homogeneous mode is the RS/FS
    pair r_e = 0, r_i = 1; heterogeneous mode draws r_e, then r_i, from
    `default_rng(seed)`.
    """
    n = m.n
    if mode == "homogeneous":
        r_e, r_i = np.zeros(n), np.ones(n)
    elif mode == "heterogeneous":
        if seed is None:
            raise ValueError("heterogeneous mode requires a seed")
        rng = np.random.default_rng(seed)
        r_e = rng.random(n)
        r_i = rng.random(n)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    a = np.concatenate((np.full(n, 0.02), 0.02 + 0.08 * r_i))
    b = np.concatenate((np.full(n, 0.2), 0.25 - 0.05 * r_i))
    c = np.concatenate((-65.0 + 15.0 * r_e ** 2, np.full(n, -65.0)))
    d = np.concatenate((8.0 - 6.0 * r_e ** 2, np.full(n, 2.0)))
    return WaveState(m, a, b, c, d, substeps=substeps, v_floor=v_floor)


def set_stimulus(state: WaveState, node: int, on: bool,
                 amplitude: float = STIM_DC) -> None:
    """Toggle direct current into the excitatory neuron at `node`."""
    if state.manifold.is_blocked(node):
        raise ValueError(f"cannot stimulate blocked node {node}")
    state.dc[node] = amplitude if on else 0.0


def _check_finite(arr: np.ndarray, label: str, n: int) -> None:
    bad = ~np.isfinite(arr)
    if bad.any():
        node = int(np.flatnonzero(bad)[0]) % n
        raise NumericalError(f"non-finite {label} at node {node}", node)


def step_wave(state: WaveState, tables: SynapseTables):
    """Advance both populations by one 1 ms step.

    Input currents come from the previous step's spikes, through the
    fan-out rows of the neurons that spiked. Returns the boolean spike
    masks (excitatory, inhibitory) of this step, each of length n.
    """
    n = state.manifold.n
    fired = np.flatnonzero(state.spikes)
    split = fired.searchsorted(n)
    # bincount adds each bin's terms to 0.0 in input order. Rows come in
    # ascending pre order and name each post at most once, so every input
    # is the sum a CSR row product over the 0/1 spike vector gives, to
    # the bit (a silent pre adds only +-0.0 there). e->e fills bins
    # 0..n, e->i bins n+1..2n+1; bins n and 2n+1 are the sinks.
    e_rows = tables.e_posts[fired[:split]]
    e_in = np.bincount(
        np.concatenate((e_rows, e_rows + (n + 1)), axis=1).ravel(),
        np.concatenate((tables.ee, tables.ei))[None].repeat(len(e_rows), 0).ravel(),
        minlength=2 * (n + 1))
    i_rows = tables.i_posts[fired[split:] - n]
    i_in = np.bincount(i_rows.ravel(), tables.ie[None].repeat(len(i_rows), 0).ravel(),
                       minlength=n + 1)
    # with no rows, bincount returns int64 zeros
    ee, ei = e_in.astype(float, copy=False).reshape(2, n + 1)[:, :n]
    ie = i_in.astype(float, copy=False)[:n]
    # e->e and i->e summed apart, in this order: one sum over both
    # would add the same terms in another order and move v in its last bits
    i_syn = np.concatenate((state.dc + ee + ie, ei))

    v, u = state.v, state.u
    h = 1.0 / state.substeps
    # overflow surfaces as NumericalError below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(state.substeps):
            v += h * (0.04 * v * v + 5.0 * v + 140.0 - u + i_syn)
            u += h * (state.a * (state.b * v - u))
            if state.v_floor is not None:
                np.maximum(v, state.v_floor, out=v)

    _check_finite(v, "v", n)
    _check_finite(u, "u", n)

    s = v >= 30.0
    v[s] = state.c[s]
    u[s] += state.d[s]
    state.spikes = s
    return s[:n], s[n:]
