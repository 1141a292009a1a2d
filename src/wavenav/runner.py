"""Deterministic scenario execution and verification."""
from __future__ import annotations

import math
import os

from . import io as iomod
from .config import ConfigError, ScenarioConfig
from .manifold import Manifold
from .oracle import build_graph, geometric_length, shortest_path
from .planner import run_planner
from .wave import build_synapses, init_neurons, set_stimulus, step_wave

WAVE_COMPLETED = "completed"


class ScenarioOutputs:
    """Paths of the artifacts a scenario run produced."""

    def __init__(self):
        self.trajectory_csv: str | None = None
        self.frames: list[str] = []


def _require_seed(cfg: ScenarioConfig) -> None:
    if cfg.mode == "heterogeneous" and cfg.seed is None:
        raise ConfigError("heterogeneous mode requires a seed (use --seed)")


def _frame_writer(out_dir: str | None, stride: int, m: Manifold,
                  outputs: ScenarioOutputs):
    """write(t, spikes_e, activity) dumping every stride-th step as a PGM
    frame into out_dir, or None when no frames are due."""
    if not (out_dir and stride):
        return None

    def write(t, spikes_e, activity):
        if t % stride == 0:
            frame = os.path.join(out_dir, f"frame_{t:05d}.pgm")
            iomod.write_frame(frame, spikes_e, activity, m)
            outputs.frames.append(frame)
    return write


def run_wave_only(cfg: ScenarioConfig, m: Manifold, write_frame=None):
    """Run the wave layer alone; returns the excitatory spike count per step."""
    syn = cfg.synapse
    state = init_neurons(m, mode=cfg.mode, seed=cfg.seed,
                         substeps=syn.substeps, v_floor=syn.v_floor)
    tables = build_synapses(m, syn)
    for tx, ty in cfg.targets:
        set_stimulus(state, m.index(tx, ty), True, amplitude=syn.stim_dc)
    counts = []
    for t in range(cfg.max_steps):
        spikes_e, _ = step_wave(state, tables)
        counts.append(int(spikes_e.sum()))
        if write_frame is not None:
            write_frame(t, spikes_e, None)
    return counts


def run_scenario(cfg: ScenarioConfig, out_dir: str | None = None):
    """Execute a scenario; returns (PlanResult | spike counts, outputs).

    Scenarios with a start node run the coupled planner; scenarios with
    "start": null run the wave layer only. A frame is written every
    cfg.frame_stride steps. Given the same config and seed, emitted
    files are byte-identical across runs.
    """
    _require_seed(cfg)
    m = cfg.build()
    if out_dir is None and cfg.frame_stride:
        out_dir = cfg.out_dir
    outputs = ScenarioOutputs()
    write = _frame_writer(out_dir, cfg.frame_stride, m, outputs)

    if cfg.start is None:
        result = run_wave_only(cfg, m, write)
    else:
        observer = None if write is None else (
            lambda t, wave, bump, spikes_e: write(t, spikes_e, bump.A))
        result = run_planner(
            m, m.index(*cfg.start), m.index(*cfg.targets[0]),
            synapse_cfg=cfg.synapse, attractor_params=cfg.attractor,
            coupling=cfg.coupling, mode=cfg.mode, seed=cfg.seed,
            observer=observer)
    if out_dir:
        text = (iomod.format_wave_log(result) if cfg.start is None
                else iomod.format_trajectory(result, m))
        outputs.trajectory_csv = os.path.join(out_dir, "trajectory.csv")
        iomod.write_text(outputs.trajectory_csv, text)
    return result, outputs


def verify_scenario(cfg: ScenarioConfig, out_dir: str | None = None):
    """Run a traversal scenario and compare against the BFS oracle.

    Returns (result, report_row). The oracle uses 8-connectivity with
    diagonal hops counted as sqrt(2), matching the planner's geometry.
    """
    if cfg.start is None:
        raise ConfigError("verify requires a scenario with a start node")
    result, _ = run_scenario(cfg, out_dir=out_dir)
    m = cfg.build()
    graph = build_graph(m, radius=math.sqrt(2.0))
    path = shortest_path(graph, m.index(*cfg.start), m.index(*cfg.targets[0]))
    bfs_len = geometric_length(path, m) if path else None
    row = iomod.report_row(cfg.name, result, bfs_len)
    return result, row
