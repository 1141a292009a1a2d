"""Couples the wave layer and the attractor bump into a path planner.

Per step: advance the wave and note the step at which each node first
spiked; unless a front hit the bump less than `R` steps ago, look for
one: if the bump footprint intersects this step's excitatory spikes,
point the direction vector from the bump center at the footprint nodes
the first front reached earliest; advance the attractor; the vector is
held for `hold` steps (default `R`) and then reset; stop when the bump
center is within `arrival_radius` of the target.

A step reads the lattice only where it must: the overlap is counted at
this step's E spikes (the wave's `fired` list) against half the activity
at the bump center, and the footprint mask and the aim are computed only
on a hit.

Aiming by the first front's arrival map, not by the live overlap,
departs from the source paper and follows Ponulak & Hopfield (2013). It
breaks a symmetric maze's mirror tie by node index, without noise.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attractor import (AttractorParams, BumpLostError, bump_center,
                        bump_footprint, components, init_bump, step_attractor)
from .manifold import Manifold, euclidean_distance, route_length
from .wave import (SynapseConfig, build_synapses, init_neurons, set_stimulus,
                   step_wave)

REACHED = "reached"
EXHAUSTED = "step_budget_exhausted"
BUMP_LOST = "bump_lost"


@dataclass(frozen=True)
class CouplingParams:
    R: int = 12
    hold: int | None = None  # defaults to R
    arrival_radius: float = 2.0
    max_steps: int = 1000

    def resolved_hold(self) -> int:
        return self.R if self.hold is None else self.hold

    def __post_init__(self):
        if self.R < 1:
            raise ValueError("R must be >= 1")
        if self.resolved_hold() > self.R:
            raise ValueError("hold must not exceed R")
        if self.resolved_hold() < 1:
            raise ValueError("hold must be >= 1")
        if self.arrival_radius < 1:
            raise ValueError("arrival_radius must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class StepRecord:
    t: int
    bump_center: int
    delta: tuple[float, float]
    overlap_size: int
    excitatory_spike_count: int
    wavefront_hit: bool


@dataclass
class PlanResult:
    outcome: str
    trajectory: list[StepRecord] = field(default_factory=list)
    path: list[tuple[int, int]] = field(default_factory=list)
    wavefronts_used: int = 0
    lost: str | None = None  # why the bump was lost, with outcome BUMP_LOST


def detect_overlap(c_mask: np.ndarray, p_mask: np.ndarray,
                   first: np.ndarray, m: Manifold):
    """Mean (x, y) a front hit aims at, or None if the footprint `c_mask`
    and the front `p_mask` do not meet: the footprint nodes with the
    earliest first-spike step in `first` (-1 before one), and of several
    8-connected groups of them the group that holds the lowest node index.
    """
    if not (c_mask & p_mask).any():
        return None
    reached = c_mask & (first >= 0)
    earliest = reached & (first == first[reached].min())
    nodes = components(earliest.reshape(m.ny, m.nx))[0]
    return float(m.xs[nodes].mean()), float(m.ys[nodes].mean())


def direction_vector(mean_overlap, center: int, m: Manifold):
    """Normalized offset from the bump center to the overlap mean."""
    px, py = m.coords(center)
    return ((mean_overlap[0] - px) / m.nx, (mean_overlap[1] - py) / m.ny)


def run_planner(m: Manifold, start: int, target: int,
                synapse_cfg: SynapseConfig = SynapseConfig(),
                attractor_params: AttractorParams = AttractorParams(),
                coupling: CouplingParams = CouplingParams(),
                write_frame=None) -> PlanResult:
    """Run the coupled simulation from `start` toward `target`.

    `write_frame(t, spikes_e, activity)`, run_wave_only's hook too, gets
    each step's spikes and the bump's activity A once both layers advanced.
    """
    if euclidean_distance(m, start, target) <= coupling.arrival_radius:
        raise ValueError("start lies within the arrival radius of the target")

    wave = init_neurons(m, synapse_cfg)
    tables = build_synapses(m, synapse_cfg)
    set_stimulus(wave, target, True)

    hold = coupling.resolved_hold()
    last_hit = -coupling.R  # the step of the latest front hit
    first = np.full(m.n, -1, dtype=np.int32)  # first E-spike step per node
    trajectory: list[StepRecord] = []
    path: list[tuple[int, int]] = []
    outcome, lost = EXHAUSTED, None

    try:
        bump = init_bump(m, start, attractor_params)
        center = bump_center(bump)  # A's argmax, so A[center] == A.max()
        path.append(m.coords(start))
        for t in range(coupling.max_steps):
            spikes_e, _ = step_wave(wave, tables)
            fired = wave.fired[:wave.fired.searchsorted(m.n)]
            first[fired[first[fired] < 0]] = t
            overlap_size = 0
            if t - last_hit >= coupling.R:
                # the footprint's nodes among this step's E spikes
                overlap_size = int(np.count_nonzero(
                    bump.A[fired] >= 0.5 * bump.A[center]))
            if overlap_size:
                mean = detect_overlap(bump_footprint(bump), spikes_e, first, m)
                bump.set_delta(direction_vector(mean, center, m))
                last_hit = t
            delta_used = bump.delta
            step_attractor(bump)
            if t - last_hit == hold - 1:
                bump.set_delta((0.0, 0.0))
            center = bump_center(bump)
            trajectory.append(StepRecord(
                t=t, bump_center=center, delta=delta_used,
                overlap_size=overlap_size,
                excitatory_spike_count=len(fired),
                wavefront_hit=t == last_hit))
            cx, cy = m.coords(center)
            if (cx, cy) != path[-1]:
                path.append((cx, cy))
            if write_frame is not None:
                write_frame(t, spikes_e, bump.A)
            if euclidean_distance(m, center, target) <= coupling.arrival_radius:
                outcome = REACHED
                break
    except BumpLostError as e:
        outcome, lost = BUMP_LOST, str(e)

    return PlanResult(outcome=outcome, trajectory=trajectory, path=path,
                      wavefronts_used=sum(r.wavefront_hit for r in trajectory),
                      lost=lost)


def path_length(result: PlanResult) -> float:
    """Sum of Euclidean hops from the start over distinct bump centers."""
    if not result.path:
        raise ValueError("empty path")
    return route_length(result.path)
