"""Spiking wave layer: paired excitatory/inhibitory Izhikevich neurons.

Each lattice node carries one excitatory and one inhibitory neuron.
Excitatory neurons drive nearby excitatory and inhibitory neurons;
inhibitory neurons suppress nearby excitatory ones. A permanently
stimulated node emits expanding spike fronts; trailing inhibition
stops fronts from re-igniting their wake and makes colliding fronts
extinguish each other.

Synaptic transmission is delayed by one step: the input current of
step t is computed from the spikes of step t-1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .manifold import Manifold

STIM_DC = 25.0


class NumericalError(RuntimeError):
    """Non-finite membrane state; carries the first offending node."""

    def __init__(self, message: str, node: int):
        super().__init__(message)
        self.node = node


@dataclass(frozen=True)
class IzhikevichParams:
    a: float
    b: float
    c: float
    d: float


RS = IzhikevichParams(0.02, 0.2, -65.0, 8.0)
FS = IzhikevichParams(0.1, 0.2, -65.0, 2.0)


@dataclass(frozen=True)
class SynapseConfig:
    """Wave-layer settings: synapse kernels, integration and drive.

    Strengths fall off as s_max / d with d measured under `metric`
    ("manhattan", "euclid" or "cheb"). Excitatory kernels skip d = 0;
    the inhibitory-to-excitatory kernel includes it. `substeps` and
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
        if self.metric not in ("manhattan", "euclid", "cheb"):
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


def lattice_offsets(radius: float, metric: str):
    """(dx, dy, distance) for all offsets with 0 < distance <= radius."""
    out = []
    r = int(np.ceil(radius))
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if dx == 0 and dy == 0:
                continue
            if metric == "euclid":
                d = float(np.hypot(dx, dy))
            elif metric == "manhattan":
                d = float(abs(dx) + abs(dy))
            elif metric == "cheb":
                d = float(max(abs(dx), abs(dy)))
            else:
                raise ValueError(f"unknown metric {metric!r}")
            if d <= radius + 1e-12:
                out.append((dx, dy, d))
    return out


def _kernel_matrix(m: Manifold, s_max: float, radius: float, metric: str,
                   include_zero: bool) -> sp.csr_matrix:
    ok = ~m.blocked
    # no in-grid offset lies nx + ny or more away under any metric
    pairs = lattice_offsets(min(radius, m.nx + m.ny), metric)
    if include_zero:
        pairs = [(0, 0, 0.0)] + pairs
    rows, cols, vals = [], [], []
    for dx, dy, d in pairs:
        px, py = m.xs + dx, m.ys + dy
        inside = (px >= 0) & (px < m.nx) & (py >= 0) & (py < m.ny)
        pre = np.nonzero(inside & ok)[0]
        post = (m.ys[pre] + dy) * m.nx + (m.xs[pre] + dx)
        keep = ok[post]
        pre, post = pre[keep], post[keep]
        s = s_max if d == 0.0 else s_max / d
        rows.append(post)
        cols.append(pre)
        vals.append(np.full(len(pre), s))
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m.n, m.n)).tocsr()
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


def randomize_synapses(tables: SynapseTables, seed: int) -> SynapseTables:
    """Scale every strength by an independent uniform factor in [0.5, 1.5].

    The sparsity pattern and all signs are preserved; results are
    reproducible from the seed.
    """
    rng = np.random.default_rng(seed)
    out = []
    for mat in (tables.ee, tables.ei, tables.ie):
        mat = mat.copy()
        mat.data = mat.data * rng.uniform(0.5, 1.5, mat.data.shape)
        out.append(mat)
    return SynapseTables(*out)


class WaveState:
    """Dense per-node neuron state for both populations.

    Blocked nodes keep state entries but have no synapses and may not
    be stimulated, so they never spike.
    """

    def __init__(self, m: Manifold, pe: dict, pi: dict,
                 substeps: int = 2, v_floor: float | None = -90.0):
        self.manifold = m
        self.a_e, self.b_e = pe["a"], pe["b"]
        self.c_e, self.d_e = pe["c"], pe["d"]
        self.a_i, self.b_i = pi["a"], pi["b"]
        self.c_i, self.d_i = pi["c"], pi["d"]
        self.v_e = self.c_e.copy()
        self.u_e = self.b_e * self.v_e
        self.v_i = self.c_i.copy()
        self.u_i = self.b_i * self.v_i
        self.dc = np.zeros(m.n)
        self.spikes_e = np.zeros(m.n, dtype=bool)
        self.spikes_i = np.zeros(m.n, dtype=bool)
        self.substeps = int(substeps)
        self.v_floor = v_floor
        self.t = 0
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")


def init_neurons(m: Manifold, mode: str = "homogeneous", seed: int | None = None,
                 substeps: int = 2, v_floor: float | None = -90.0) -> WaveState:
    """Create neuron populations at rest (v = c, u = b*v, dc = 0)."""
    n = m.n
    if mode == "homogeneous":
        pe = {"a": np.full(n, RS.a), "b": np.full(n, RS.b),
              "c": np.full(n, RS.c), "d": np.full(n, RS.d)}
        pi = {"a": np.full(n, FS.a), "b": np.full(n, FS.b),
              "c": np.full(n, FS.c), "d": np.full(n, FS.d)}
    elif mode == "heterogeneous":
        if seed is None:
            raise ValueError("heterogeneous mode requires a seed")
        rng = np.random.default_rng(seed)
        r_e = rng.random(n)
        r_i = rng.random(n)
        pe = {"a": np.full(n, 0.02), "b": np.full(n, 0.2),
              "c": -65.0 + 15.0 * r_e ** 2, "d": 8.0 - 6.0 * r_e ** 2}
        pi = {"a": 0.02 + 0.08 * r_i, "b": 0.25 - 0.05 * r_i,
              "c": np.full(n, -65.0), "d": np.full(n, 2.0)}
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return WaveState(m, pe, pi, substeps=substeps, v_floor=v_floor)


def set_stimulus(state: WaveState, node: int, on: bool,
                 amplitude: float = STIM_DC) -> None:
    """Toggle direct current into the excitatory neuron at `node`."""
    if state.manifold.is_blocked(node):
        raise ValueError(f"cannot stimulate blocked node {node}")
    state.dc[node] = amplitude if on else 0.0


def _check_finite(arr: np.ndarray, label: str) -> None:
    bad = ~np.isfinite(arr)
    if bad.any():
        node = int(np.flatnonzero(bad)[0])
        raise NumericalError(f"non-finite {label} at node {node}", node)


def step_wave(state: WaveState, tables: SynapseTables):
    """Advance both populations by one 1 ms step.

    Input currents come from the previous step's spikes. Returns the
    boolean spike masks (excitatory, inhibitory) of this step.
    """
    f_e = state.spikes_e.astype(float)
    f_i = state.spikes_i.astype(float)
    i_e = state.dc + tables.ee @ f_e + tables.ie @ f_i
    i_i = tables.ei @ f_e

    v_e, u_e = state.v_e, state.u_e
    v_i, u_i = state.v_i, state.u_i
    h = 1.0 / state.substeps
    # overflow surfaces as NumericalError below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(state.substeps):
            v_e += h * (0.04 * v_e * v_e + 5.0 * v_e + 140.0 - u_e + i_e)
            u_e += h * (state.a_e * (state.b_e * v_e - u_e))
            v_i += h * (0.04 * v_i * v_i + 5.0 * v_i + 140.0 - u_i + i_i)
            u_i += h * (state.a_i * (state.b_i * v_i - u_i))
            if state.v_floor is not None:
                np.maximum(v_e, state.v_floor, out=v_e)
                np.maximum(v_i, state.v_floor, out=v_i)

    _check_finite(v_e, "v")
    _check_finite(u_e, "u")
    _check_finite(v_i, "v")
    _check_finite(u_i, "u")

    se = v_e >= 30.0
    si = v_i >= 30.0
    v_e[se] = state.c_e[se]
    u_e[se] += state.d_e[se]
    v_i[si] = state.c_i[si]
    u_i[si] += state.d_i[si]
    state.spikes_e = se
    state.spikes_i = si
    state.t += 1
    return se, si
