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
step t is computed from the spikes of step t-1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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
    """Sparse post-by-pre strength matrices for e->e, e->i and i->e."""

    ee: sp.csr_matrix
    ei: sp.csr_matrix
    ie: sp.csr_matrix


def _kernel_matrix(m: Manifold, s_max: float, radius: float, metric: str,
                   include_zero: bool) -> sp.csr_matrix:
    pre, post, d = lattice_pairs(m, radius, metric)
    vals = s_max / d
    if include_zero:
        own = np.flatnonzero(~m.blocked)
        pre, post = np.concatenate((own, pre)), np.concatenate((own, post))
        vals = np.concatenate((np.full(len(own), s_max), vals))
    mat = sp.csr_matrix((vals, (post, pre)), shape=(m.n, m.n))
    mat.sort_indices()
    return mat


def build_synapses(m: Manifold, cfg: SynapseConfig = SynapseConfig()) -> SynapseTables:
    """Build the three strength tables; blocked nodes get no entries."""
    cfg.validate()
    return SynapseTables(
        ee=_kernel_matrix(m, cfg.s_ee_max, cfg.d_e, cfg.metric, include_zero=False),
        ei=_kernel_matrix(m, cfg.s_ei_max, cfg.d_e, cfg.metric, include_zero=False),
        ie=_kernel_matrix(m, cfg.s_ie_max, cfg.d_i, cfg.metric, include_zero=True),
    )


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

    Input currents come from the previous step's spikes. Returns the
    boolean spike masks (excitatory, inhibitory) of this step, each of
    length n.
    """
    n = state.manifold.n
    f = state.spikes.astype(float)
    # table by table, in this order: one block matrix would sum the same
    # terms in another order and move v in its last bits
    i_syn = np.concatenate((state.dc + tables.ee @ f[:n] + tables.ie @ f[n:],
                            tables.ei @ f[:n]))

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
