"""Couples the wave layer and the attractor bump into a path planner.

Per step: advance the wave; if the recovery counter is zero and the
bump footprint intersects this step's excitatory spikes, point the
direction vector from the bump center at the overlap mean and start
the recovery window; advance the attractor; expire the direction
vector after `hold` steps; stop when the bump center is within
`arrival_radius` of the target.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attractor import (AttractorParams, BumpLostError, bump_center,
                        bump_footprint, init_bump, step_attractor)
from .manifold import Manifold, euclidean_distance
from .wave import (SynapseConfig, build_synapses, init_neurons, set_stimulus,
                   step_wave)

REACHED = "reached"
EXHAUSTED = "step_budget_exhausted"
BUMP_LOST = "bump_lost"


@dataclass
class CouplingParams:
    R: int = 12
    hold: int | None = None  # defaults to R
    arrival_radius: float = 2.0
    max_steps: int = 1000

    def resolved_hold(self) -> int:
        return self.R if self.hold is None else self.hold

    def validate(self) -> "CouplingParams":
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
        return self


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


def detect_overlap(c_mask: np.ndarray, p_mask: np.ndarray, m: Manifold):
    """Mean (x, y) of the footprint/front intersection, or None."""
    both = c_mask & p_mask
    if not both.any():
        return None
    return float(m.xs[both].mean()), float(m.ys[both].mean())


def direction_vector(mean_overlap, center: int, m: Manifold):
    """Normalized offset from the bump center to the overlap mean."""
    px, py = m.coords(center)
    return ((mean_overlap[0] - px) / m.nx, (mean_overlap[1] - py) / m.ny)


def run_planner(m: Manifold, start: int, target: int,
                synapse_cfg: SynapseConfig | None = None,
                attractor_params: AttractorParams | None = None,
                coupling: CouplingParams | None = None,
                mode: str = "homogeneous", seed: int | None = None,
                observer=None) -> PlanResult:
    """Run the coupled simulation from `start` toward `target`.

    `observer(t, wave_state, attractor_state, spikes_e)` is called once
    per step after both layers advanced, for logging or rendering.
    """
    synapse_cfg = synapse_cfg or SynapseConfig()
    attractor_params = attractor_params or AttractorParams()
    coupling = (coupling or CouplingParams()).validate()

    if m.is_blocked(start):
        raise ValueError("start node is blocked")
    if m.is_blocked(target):
        raise ValueError("target node is blocked")
    if start == target:
        raise ValueError("start equals target")
    if euclidean_distance(m, start, target) <= coupling.arrival_radius:
        raise ValueError("start lies within the arrival radius of the target")

    wave = init_neurons(m, mode=mode, seed=seed, substeps=synapse_cfg.substeps,
                        v_floor=synapse_cfg.v_floor)
    tables = build_synapses(m, synapse_cfg)
    set_stimulus(wave, target, True, amplitude=synapse_cfg.stim_dc)

    try:
        bump = init_bump(m, start, attractor_params)
    except BumpLostError:
        return PlanResult(outcome=BUMP_LOST)

    tx, ty = m.coords(target)
    hold = coupling.resolved_hold()
    recovery = 0
    hold_left = 0
    fronts = 0
    trajectory: list[StepRecord] = []
    path = [m.coords(start)]
    outcome = EXHAUSTED

    for t in range(coupling.max_steps):
        spikes_e, _ = step_wave(wave, tables)
        hit = False
        overlap_size = 0
        try:
            if recovery == 0:
                footprint = bump_footprint(bump)
                overlap_size = int((footprint & spikes_e).sum())
                mean = detect_overlap(footprint, spikes_e, m)
                if mean is not None:
                    bump.set_delta(direction_vector(mean, bump_center(bump), m))
                    recovery = coupling.R
                    hold_left = hold
                    fronts += 1
                    hit = True
            delta_used = bump.delta
            step_attractor(bump)
            if hold_left > 0:
                hold_left -= 1
                if hold_left == 0:
                    bump.set_delta((0.0, 0.0))
            if recovery > 0:
                recovery -= 1
            center = bump_center(bump)
        except BumpLostError:
            outcome = BUMP_LOST
            break

        trajectory.append(StepRecord(
            t=t, bump_center=center, delta=delta_used,
            overlap_size=overlap_size,
            excitatory_spike_count=int(spikes_e.sum()),
            wavefront_hit=hit))
        cx, cy = m.coords(center)
        if (cx, cy) != path[-1]:
            path.append((cx, cy))
        if observer is not None:
            observer(t, wave, bump, spikes_e)
        if math.hypot(cx - tx, cy - ty) <= coupling.arrival_radius:
            outcome = REACHED
            break

    return PlanResult(outcome=outcome, trajectory=trajectory, path=path,
                      wavefronts_used=fronts)


def path_length(result: PlanResult) -> float:
    """Sum of Euclidean hops from the start over distinct bump centers."""
    if not result.path:
        raise ValueError("empty path")
    return float(sum(math.hypot(b[0] - a[0], b[1] - a[1])
                     for a, b in zip(result.path, result.path[1:])))
