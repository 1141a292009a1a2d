"""Artifact emission: trajectory CSV logs, PGM frames, report rows.

All output is byte-deterministic for a given run: fixed headers,
explicit float formatting, no locale involvement. Footers and report
rows read a run's record, a runner.ScenarioOutputs.
"""
from __future__ import annotations

import os

import numpy as np

from .config import ConfigError
from .manifold import Manifold
from .planner import StepRecord

CSV_HEADER = "t,bump_x,bump_y,delta_x,delta_y,overlap_size,exc_spikes,wavefront_hit"
REPORT_HEADER = "scenario,outcome,steps,path_length,bfs_length,ratio,wavefronts"


def _fmt(x: float) -> str:
    return format(x, ".9g")


def format_trajectory(trajectory: list[StepRecord], m: Manifold,
                      record) -> str:
    """Trajectory CSV: one StepRecord per line plus the record's footer."""
    lines = [CSV_HEADER]
    for rec in trajectory:
        x, y = m.coords(rec.bump_center)
        lines.append(",".join((
            str(rec.t), str(x), str(y),
            _fmt(rec.delta[0]), _fmt(rec.delta[1]),
            str(rec.overlap_size), str(rec.excitatory_spike_count),
            str(int(rec.wavefront_hit)))))
    lines.append(f"# outcome={record.outcome} steps={record.steps}"
                 f" wavefronts={record.wavefronts}"
                 f" path_length={_fmt(record.path_length or 0.0)}")
    return "\n".join(lines) + "\n"


def format_wave_log(spike_counts: list[int], record) -> str:
    """Wave-only CSV: same schema, bump columns left empty."""
    lines = [CSV_HEADER]
    for t, count in enumerate(spike_counts):
        lines.append(f"{t},,,,,,{count},0")
    lines.append(f"# outcome={record.outcome} steps={record.steps}")
    return "\n".join(lines) + "\n"


def open_output(path: str, mode: str):
    """Open output file `path` in binary `mode`; the one guard on outputs.

    Its directory is made only when the open finds it missing: once per
    run, at its first file. An OSError of either is a ConfigError (exit 3).
    """
    try:
        try:
            return open(path, mode)
        except (FileNotFoundError, NotADirectoryError):
            # makes a missing directory; where a file is in the way,
            # makedirs fails naming that file
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            return open(path, mode)
    except OSError as e:
        raise ConfigError(f"cannot write {e.filename!r}: {e.strerror}") from e


def write_text(path: str, text: str) -> None:
    with open_output(path, "wb") as fh:
        fh.write(text.encode("utf-8"))


def pgm_bytes(spikes_e: np.ndarray | None, activity: np.ndarray | None,
              m: Manifold) -> bytes:
    """8-bit binary PGM: max of normalized spike mask and normalized activity.

    Spiking nodes render 255; activity is scaled to its own maximum;
    blocked nodes render mid-gray (128).
    """
    img = np.zeros(m.n)
    if activity is not None and activity.max() > 0:
        img = np.maximum(img, activity / activity.max())
    if spikes_e is not None:
        img = np.maximum(img, spikes_e.astype(float))
    pix = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    pix[m.blocked] = 128
    header = f"P5\n{m.nx} {m.ny}\n255\n".encode("ascii")
    return header + pix.tobytes()


def write_frame(path: str, spikes_e, activity, m: Manifold) -> None:
    with open_output(path, "wb") as fh:
        fh.write(pgm_bytes(spikes_e, activity, m))


def report_row(record) -> str:
    """One verification row: a run's record against the BFS oracle."""
    plen, optimum = record.path_length, record.optimum
    versus = ("", "", "")
    if plen is not None and optimum:
        versus = (f"{plen:.4f}", f"{optimum:.4f}", f"{plen / optimum:.4f}")
    return ",".join((record.name, record.outcome, str(record.steps), *versus,
                     str(record.wavefronts)))
