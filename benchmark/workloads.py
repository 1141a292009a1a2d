"""The four workloads: CLI commands of one round and their output checks.

A round is a fixed list of commands, each a `wavenav` argv. After the
round, each command's `check` reads what the command wrote and returns
a Tally; the checks are not timed.
"""
from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

# (scenario, step budget, frame stride, overrides) of each wave-only
# render. two_sources needs every step to see double spikes, and its 1000
# steps hold 20 emission cycles without letting noisy file creation
# dominate the round. s_maze, run without its start node, is the wave
# layer among walls, where a blocked node could spike.
RENDERS = {
    "ring_wave": ("ring_wave", 3000, 5, []),
    "two_sources": ("two_sources", 1000, 1, []),
    "s_maze_wave": ("s_maze", 300, 1, ["--set", "start=null"]),
}
SWEEP_SEEDS = "0..2"
MAZES = ("simple", "s_maze", "block", "complex")
# obstacle-free diagonal traversal, settings as in the bundled 41x41 mazes
OPEN71 = {
    "grid": {"nx": 71, "ny": 71},
    "obstacles": [],
    "start": [6, 6],
    "target": [64, 64],
    "mode": "homogeneous",
    "max_steps": 1500,
    "attractor": {"sigma": 0.031},
    "coupling": {"hold": 2},
}
FRONT_SPEED = (0.8, 1.2)
DOUBLE_SPIKE_FAULT = ("non-source neurons spike twice within one emission "
                      "cycle (near-source double spikes, README "
                      "'Known limitations')")
FIRST_HOP_FAULT = ("path_length is shorter than the straight line from the "
                   "configured start into the arrival disc: the path begins "
                   "at the bump centre after warm-up, without the hop from "
                   "the start (planner.run_planner)")


@dataclass
class Tally:
    """What the checks of one command found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    known_faults: dict[str, int] = field(default_factory=dict)  # failed, by fault
    ratios: list[float] = field(default_factory=list)
    plan_steps: list[int] = field(default_factory=list)  # per traversal or render
    steps: int = 0             # lattice steps simulated

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        for fault, n in other.known_faults.items():
            self.known_faults[fault] = self.known_faults.get(fault, 0) + n
        self.ratios += other.ratios
        self.plan_steps += other.plan_steps
        self.steps += other.steps


@dataclass
class Command:
    argv: list[str]
    check: Callable[[int], Tally]  # called with the command's exit code


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_cfg(path: str) -> dict:
    return json.loads(_read(path))


def _traversal(cfg: dict, optimum: float, traj_path: str, exit_code: int,
               report: dict | None, label: str) -> Tally:
    tally = Tally(attempted=1)
    try:
        text = _read(traj_path)
        problems = checks.check_traversal(cfg, text, optimum, exit_code, report)
    except (OSError, ValueError, KeyError, IndexError) as e:
        problems = [f"unreadable output: {e!r}"]
        text = ""
    if problems:
        tally.failed = 1
        tally.problems = [f"{label}: {p}" for p in problems]
        return tally
    _, footer = checks.parse_trajectory(text)
    length = float(footer["path_length"])
    if length < checks.straight_line_floor(cfg) - 1e-9:
        tally.failed = 1
        tally.known_faults[FIRST_HOP_FAULT] = 1
    # the route was driven either way, so it counts in the means
    tally.ratios.append(length / optimum)
    tally.plan_steps.append(int(footer["steps"]))
    tally.steps = int(footer["steps"])
    return tally


def _verify_command(cfg_path: str, cfg: dict, optimum: float, out: str,
                    label: str) -> Command:
    report_path = os.path.join(out, "report.csv")

    def check(exit_code: int) -> Tally:
        try:
            with open(report_path, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            report = rows[-1]
        except (OSError, IndexError) as e:
            tally = Tally(attempted=1, failed=1)
            tally.problems.append(f"{label}: no report row: {e!r}")
            return tally
        return _traversal(cfg, optimum, os.path.join(out, "trajectory.csv"),
                          exit_code, report, label)

    return Command(["verify", cfg_path, "--out", out, "--report", report_path],
                   check)


class Maze41:
    """`verify` on the four bundled 41x41 traversal scenarios."""

    def __init__(self, seed: int, scenario_dir: str, work_dir: str, args):
        names = list(MAZES)
        random.Random(seed).shuffle(names)
        self.scenarios = []
        for name in names:
            path = os.path.join(scenario_dir, name + ".cfg")
            cfg = _load_cfg(path)
            self.scenarios.append((name, path, cfg, checks.optimum_length(cfg)))

    def commands(self, round_dir: str) -> list[Command]:
        return [_verify_command(path, cfg, opt, os.path.join(round_dir, name), name)
                for name, path, cfg, opt in self.scenarios]


class Open71:
    """`verify` on a generated obstacle-free 71x71 diagonal traversal."""

    def __init__(self, seed: int, scenario_dir: str, work_dir: str, args):
        self.path = os.path.join(work_dir, "open71.cfg")
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(OPEN71, fh)
        self.optimum = checks.optimum_length(OPEN71)

    def commands(self, round_dir: str) -> list[Command]:
        return [_verify_command(self.path, OPEN71, self.optimum,
                                os.path.join(round_dir, "open71"), "open71")]


class SweepHet:
    """`sweep` of block_heterogeneous.cfg over a fixed seed range."""

    def __init__(self, seed: int, scenario_dir: str, work_dir: str, args):
        self.path = os.path.join(scenario_dir, "block_heterogeneous.cfg")
        self.cfg = _load_cfg(self.path)
        self.optimum = checks.optimum_length(self.cfg)
        self.seeds = args.sweep_seeds
        lo, hi = (int(v) for v in self.seeds.split(".."))
        self.seed_list = list(range(lo, hi + 1))

    def commands(self, round_dir: str) -> list[Command]:
        out = os.path.join(round_dir, "sweep")

        def check(exit_code: int) -> Tally:
            tally = Tally()
            try:
                with open(os.path.join(out, "sweep.csv"), encoding="utf-8",
                          newline="") as fh:
                    rows = list(csv.DictReader(fh))
            except OSError as e:
                return Tally(attempted=1, failed=1,
                             problems=[f"sweep: no sweep.csv: {e!r}"])
            if [int(r["seed"]) for r in rows] != self.seed_list:
                tally.problems.append("sweep: sweep.csv seeds differ from --seeds")
            for row in rows:
                label = f"seed {row['seed']}"
                one = _traversal(self.cfg, self.optimum,
                                 os.path.join(out, f"seed_{row['seed']}",
                                              "trajectory.csv"),
                                 exit_code, None, label)
                if one.failed == 0 and (row["outcome"] != "reached"
                                        or int(row["steps"]) != one.steps):
                    one.failed = 1
                    one.problems.append(f"{label}: sweep.csv row {row} disagrees")
                tally.add(one)
            return tally

        return [Command(["sweep", self.path, "--seeds", self.seeds, "--out", out],
                        check)]


class WaveOnly:
    """`render` of ring_wave, two_sources and wall-lined s_maze: wave layer alone."""

    def __init__(self, seed: int, scenario_dir: str, work_dir: str, args):
        self.runs = [("ring_wave", self._check_ring),
                     ("two_sources", self._check_two),
                     ("s_maze_wave", self._check_maze)]
        random.Random(seed).shuffle(self.runs)
        self.scenario_dir = scenario_dir
        self.cfgs = {name: _load_cfg(self._cfg_path(name)) for name, _ in self.runs}

    def _cfg_path(self, name: str) -> str:
        return os.path.join(self.scenario_dir, RENDERS[name][0] + ".cfg")

    def commands(self, round_dir: str) -> list[Command]:
        out = []
        for name, checker in self.runs:
            d = os.path.join(round_dir, name)
            _, steps, stride, overrides = RENDERS[name]
            argv = ["render", self._cfg_path(name), "--out", d,
                    "--max-steps", str(steps), "--frame-stride", str(stride),
                    *overrides]
            out.append(Command(argv, lambda rc, d=d, c=checker: c(d, rc)))
        return out

    def _frames(self, name: str, d: str, exit_code: int,
                tally: Tally) -> dict[int, np.ndarray]:
        """Frames by step, after checking exit code, log and pixel coding.

        The pixel coding check is where a spike on a blocked node shows.
        """
        cfg = self.cfgs[name]
        nx, ny = cfg["grid"]["nx"], cfg["grid"]["ny"]
        blocked = checks.blocked_mask(nx, ny, cfg.get("obstacles", []))
        if exit_code != 0:
            tally.problems.append(f"{name}: exit code {exit_code}")
        counts = checks.parse_wave_log(_read(os.path.join(d, "trajectory.csv")))
        tally.steps = len(counts)
        tally.plan_steps.append(len(counts))
        _, steps, stride, _ = RENDERS[name]
        if len(counts) != steps:
            tally.problems.append(f"{name}: {len(counts)} logged steps")
        frames = {}
        for t in range(0, len(counts), stride):
            frame = checks.read_pgm(os.path.join(d, f"frame_{t:05d}.pgm"))
            for p in checks.check_frame(frame, blocked, counts[t]):
                tally.problems.append(f"{name} t={t}: {p}")
            frames[t] = frame == 255
        return frames

    def _render(self, name: str, d: str, exit_code: int):
        """(Tally of one render operation, its frames by step)."""
        tally = Tally(attempted=1)
        try:
            frames = self._frames(name, d, exit_code, tally)
        except (OSError, ValueError, IndexError) as e:
            frames = {}
            tally.problems.append(f"{name}: unreadable output: {e!r}")
        return tally, frames

    def _check_ring(self, d: str, exit_code: int) -> Tally:
        tally, frames = self._render("ring_wave", d, exit_code)
        cx, cy = self.cfgs["ring_wave"]["target"]
        for t, frame in frames.items():
            if not checks.is_square_symmetric(frame, cx, cy):
                tally.problems.append(f"ring_wave t={t}: not square-symmetric")
                break
        speed = checks.front_speed(frames, cx, cy)
        if not FRONT_SPEED[0] <= speed <= FRONT_SPEED[1]:
            tally.problems.append(f"ring_wave: front speed {speed:.3f} nodes/step")
        tally.failed = int(bool(tally.problems))
        return tally

    def _check_maze(self, d: str, exit_code: int) -> Tally:
        tally, frames = self._render("s_maze_wave", d, exit_code)
        # fronts must bend round both walls to reach the traversal's start
        sx, sy = self.cfgs["s_maze_wave"]["start"]
        if frames and not any(f[sy, sx] for f in frames.values()):
            tally.problems.append(f"s_maze_wave: no front reached ({sx}, {sy})")
        tally.failed = int(bool(tally.problems))
        return tally

    def _check_two(self, d: str, exit_code: int) -> Tally:
        render, frames = self._render("two_sources", d, exit_code)
        sources = [tuple(t) for t in self.cfgs["two_sources"]["target"]]
        (x1, _), (x2, _) = sources
        for t, frame in frames.items():
            if not checks.is_mirror_symmetric(frame, x1, x2):
                render.problems.append(f"two_sources t={t}: not mirror-symmetric")
                break
        # one operation per complete emission cycle
        problems, cycles, doubled = checks.check_cycles(
            [frames[t] for t in sorted(frames)], sources)
        render.problems += [f"two_sources: {p}" for p in problems]
        render.failed = int(bool(render.problems))
        render.add(Tally(attempted=cycles, failed=doubled,
                         known_faults={DOUBLE_SPIKE_FAULT: doubled} if doubled else {}))
        return render


WORKLOADS = {"maze41": Maze41, "sweep_het": SweepHet,
             "wave_only": WaveOnly, "open71": Open71}
