"""Deterministic scenario execution and verification."""
from __future__ import annotations

import math
import os

from . import io as iomod
from .config import ConfigError, ScenarioConfig
from .manifold import Manifold
from .oracle import build_graph, geometric_length, shortest_path
from .planner import EXHAUSTED, REACHED, run_planner
from .wave import build_synapses, init_neurons, set_stimulus, step_wave

WAVE_COMPLETED = "completed"


class ScenarioOutputs:
    """Paths of the artifacts a scenario run produced."""

    def __init__(self, trajectory_csv: str | None = None):
        self.trajectory_csv = trajectory_csv
        self.frames: list[str] = []


def _require_seed(cfg: ScenarioConfig) -> None:
    if cfg.mode == "heterogeneous" and cfg.seed is None:
        raise ConfigError("heterogeneous mode requires a seed (use --seed)")


def run_wave_only(cfg: ScenarioConfig, m: Manifold, out_dir: str | None,
                  frame_stride: int):
    """Run the wave layer alone, logging spike counts per step."""
    syn = cfg.synapse
    state = init_neurons(m, mode=cfg.mode, seed=cfg.seed,
                         substeps=syn.substeps, v_floor=syn.v_floor)
    tables = build_synapses(m, syn)
    for tx, ty in cfg.targets:
        set_stimulus(state, m.index(tx, ty), True, amplitude=syn.stim_dc)
    counts = []
    outputs = ScenarioOutputs()
    for t in range(cfg.max_steps):
        spikes_e, _ = step_wave(state, tables)
        counts.append(int(spikes_e.sum()))
        if out_dir and frame_stride and t % frame_stride == 0:
            frame = os.path.join(out_dir, f"frame_{t:05d}.pgm")
            iomod.write_frame(frame, spikes_e, None, m)
            outputs.frames.append(frame)
    if out_dir:
        path = os.path.join(out_dir, "trajectory.csv")
        iomod.write_text(path, iomod.format_wave_log(counts))
        outputs.trajectory_csv = path
    return counts, outputs


def run_scenario(cfg: ScenarioConfig, out_dir: str | None = None,
                 frame_stride: int | None = None):
    """Execute a scenario; returns (PlanResult | spike counts, outputs).

    Scenarios with a start node run the coupled planner; scenarios with
    "start": null run the wave layer only. Given the same config and
    seed, emitted files are byte-identical across runs.
    """
    _require_seed(cfg)
    m = cfg.build()
    stride = cfg.frame_stride if frame_stride is None else frame_stride
    if out_dir is None and (cfg.frame_stride or stride):
        out_dir = cfg.out_dir

    if cfg.start is None:
        return run_wave_only(cfg, m, out_dir, stride)

    start = m.index(*cfg.start)
    target = m.index(*cfg.targets[0])
    outputs = ScenarioOutputs()
    observer = None
    if out_dir and stride:
        def observer(t, wave_state, bump_state, spikes_e):
            if t % stride == 0:
                frame = os.path.join(out_dir, f"frame_{t:05d}.pgm")
                iomod.write_frame(frame, spikes_e, bump_state.A, m)
                outputs.frames.append(frame)

    result = run_planner(
        m, start, target, synapse_cfg=cfg.synapse,
        attractor_params=cfg.attractor, coupling=cfg.coupling,
        mode=cfg.mode, seed=cfg.seed, observer=observer)
    if out_dir:
        path = os.path.join(out_dir, "trajectory.csv")
        iomod.write_text(path, iomod.format_trajectory(result, m))
        outputs.trajectory_csv = path
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


def exit_code_for(outcome: str) -> int:
    if outcome in (REACHED, WAVE_COMPLETED):
        return 0
    if outcome == EXHAUSTED:
        return 2
    return 4
