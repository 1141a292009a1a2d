"""Deterministic scenario execution and verification."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import io as iomod
from .config import ConfigError, ScenarioConfig
from .oracle import build_graph, geometric_length, shortest_path
from .planner import path_length, run_planner
from .wave import build_synapses, init_neurons, set_stimulus, step_wave

WAVE_COMPLETED = "completed"


@dataclass
class ScenarioOutputs:
    """The record of one run, which every output line reads: the
    trajectory footer, the report row, the sweep row and stdout. A
    wave-only run's outcome is WAVE_COMPLETED, with no fronts or path.
    """
    name: str
    outcome: str
    steps: int
    wavefronts: int
    path_length: float | None = None  # None without a path
    optimum: float | None = None  # the oracle's length, set by verify
    trajectory_csv: str | None = None
    frames: list[str] = field(default_factory=list)
    lost: str | None = None  # why the bump was lost, with outcome bump_lost


def _require_seed(cfg: ScenarioConfig) -> None:
    if cfg.synapse.mode == "heterogeneous" and cfg.synapse.seed is None:
        raise ConfigError("heterogeneous mode requires a seed (use --seed)")


def run_wave_only(cfg: ScenarioConfig, write_frame=None):
    """Run the wave layer alone; returns the excitatory spike count per step."""
    m = cfg.manifold
    state = init_neurons(m, cfg.synapse)
    tables = build_synapses(m, cfg.synapse)
    for tx, ty in cfg.targets:
        set_stimulus(state, m.index(tx, ty), True)
    counts = []
    for t in range(cfg.coupling.max_steps):
        spikes_e, _ = step_wave(state, tables)
        counts.append(int(np.count_nonzero(spikes_e)))
        if write_frame is not None:
            write_frame(t, spikes_e, None)
    return counts


def run_scenario(cfg: ScenarioConfig, out_dir: str | None = None):
    """Execute a scenario; returns (PlanResult | spike counts, record).

    Scenarios with a start node run the coupled planner; scenarios with
    "start": null run the wave layer only. A frame is written every
    cfg.frame_stride steps. Given the same config and seed, emitted
    files are byte-identical across runs.
    """
    _require_seed(cfg)
    m = cfg.manifold
    if out_dir is None and cfg.frame_stride:
        out_dir = cfg.out_dir
    frames: list[str] = []
    with iomod.FrameWriter(out_dir, cfg.frame_stride, cfg.coupling.max_steps,
                           m, frames) as write:
        if cfg.start is None:
            result = run_wave_only(cfg, write)
            record = ScenarioOutputs(cfg.name, WAVE_COMPLETED, len(result), 0,
                                     frames=frames)
        else:
            result = run_planner(
                m, m.index(*cfg.start), m.index(*cfg.targets[0]),
                synapse_cfg=cfg.synapse, attractor_params=cfg.attractor,
                coupling=cfg.coupling, write_frame=write)
            record = ScenarioOutputs(
                cfg.name, result.outcome, len(result.trajectory),
                result.wavefronts_used,
                path_length(result) if result.path else None, frames=frames,
                lost=result.lost)
    if out_dir:
        text = (iomod.format_wave_log(result, record) if cfg.start is None
                else iomod.format_trajectory(result.trajectory, m, record))
        record.trajectory_csv = os.path.join(out_dir, "trajectory.csv")
        iomod.write_text(record.trajectory_csv, text)
    return result, record


def verify_scenario(cfg: ScenarioConfig, out_dir: str | None = None):
    """Run a traversal scenario and compare against the BFS oracle.

    Returns (result, record) with the oracle's route length as the
    record's optimum. The oracle uses 8-connectivity with diagonal hops
    counted as sqrt(2), matching the planner's geometry.
    """
    if cfg.start is None:
        raise ConfigError("verify requires a scenario with a start node")
    result, record = run_scenario(cfg, out_dir=out_dir)
    m = cfg.manifold
    graph = build_graph(m, radius=math.sqrt(2.0))
    path = shortest_path(graph, m.index(*cfg.start), m.index(*cfg.targets[0]))
    record.optimum = geometric_length(path, m) if path else None
    return result, record
