"""Artifact emission: trajectory CSV logs, PGM frames, report rows.

All output is byte-deterministic for a given run: fixed headers,
explicit float formatting, no locale involvement. Footers and report
rows read a run's record, a runner.ScenarioOutputs. Frames are named,
encoded, written and created ahead of a run here alone.
"""
from __future__ import annotations

import contextlib
import os
import threading

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


@contextlib.contextmanager
def open_output(path: str, mode: str):
    """Output file `path`, open in binary `mode` for a with-block; the one
    guard on outputs.

    Its directory is made only when the open finds it missing: once per
    run, at its first file. An OSError from the open, from a write in the
    block or from the close (a full disk) is a ConfigError (exit 3).
    """
    try:
        try:
            fh = open(path, mode)
        except (FileNotFoundError, NotADirectoryError):
            # makes a missing directory; where a file is in the way,
            # makedirs fails naming that file
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            fh = open(path, mode)
        with fh:
            yield fh
    except OSError as e:
        # a failed write or close names no file
        raise ConfigError(
            f"cannot write {e.filename or path!r}: {e.strerror}") from e


def write_text(path: str, text: str) -> None:
    with open_output(path, "wb") as fh:
        fh.write(text.encode("utf-8"))


def pgm_bytes(spikes_e: np.ndarray | None, activity: np.ndarray | None,
              m: Manifold) -> bytes:
    """8-bit binary PGM: max of normalized spike mask and normalized activity.

    Spiking nodes render 255; activity is scaled to its own maximum;
    blocked nodes render mid-gray (128).
    """
    pix = np.zeros(m.n, dtype=np.uint8)
    if activity is not None and activity.max() > 0:
        pix[:] = np.rint(np.maximum(activity / activity.max(), 0.0) * 255.0)
    if spikes_e is not None:
        pix[spikes_e] = 255
    pix[m.blocked] = 128
    return f"P5\n{m.nx} {m.ny}\n255\n".encode("ascii") + pix.tobytes()


def frame_path(out_dir: str, t: int) -> str:
    """The file of frame t in out_dir."""
    return os.path.join(out_dir, f"frame_{t:05d}.pgm")


def write_frame(path: str, spikes_e, activity, m: Manifold) -> None:
    with open_output(path, "wb") as fh:
        fh.write(pgm_bytes(spikes_e, activity, m))


# frame files the creator thread may make ahead of the last frame written
FRAME_LOOKAHEAD = 8


class FrameWriter:
    """write(t, spikes_e, activity) dumping every stride-th step of a
    steps-long run as a PGM frame into out_dir; a context around the run
    that yields None when no frames are due.

    Making a new directory entry costs far more than filling one, so the
    first frame starts one daemon thread that creates the coming frames'
    files empty, at most FRAME_LOOKAHEAD ahead of the last frame written,
    and skips names that exist. Each frame is still written whole by
    write_frame on the calling thread, so it is complete when write
    returns; the first one makes out_dir. On exit, normal or raising,
    the thread is joined and every file it created that no frame filled
    is removed: the run leaves the same files, with the same bytes, as
    if it wrote them all itself.
    """

    def __init__(self, out_dir: str | None, stride: int, steps: int,
                 m: Manifold, frames: list[str]):
        self.out_dir, self.stride, self.steps = out_dir, stride, steps
        self.m, self.frames = m, frames
        self._room = threading.Semaphore(FRAME_LOOKAHEAD)
        self._stop = False
        self._created: list[str] = []
        self._thread: threading.Thread | None = None

    def __call__(self, t, spikes_e, activity):
        if t % self.stride:
            return
        frame = frame_path(self.out_dir, t)
        write_frame(frame, spikes_e, activity, self.m)
        self.frames.append(frame)
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._create, name="wavenav-frame-creator", daemon=True)
            self._thread.start()
        self._room.release()

    def _create(self) -> None:
        for t in range(0, self.steps, self.stride):
            self._room.acquire()
            if self._stop:
                return
            path = frame_path(self.out_dir, t)
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                                 0o666))
            except FileExistsError:
                continue
            except OSError:
                return  # the writer's own open reports what is wrong
            self._created.append(path)

    def __enter__(self):
        return self if self.out_dir and self.stride else None

    def __exit__(self, *exc_info):
        if self._thread is None:
            return
        self._stop = True
        self._room.release()
        self._thread.join()
        filled = set(self.frames)
        for path in self._created:
            if path not in filled:
                os.unlink(path)


def report_row(record) -> str:
    """One verification row: a run's record against the BFS oracle."""
    plen, optimum = record.path_length, record.optimum
    versus = ("", "", "")
    if plen is not None and optimum:
        versus = (f"{plen:.4f}", f"{optimum:.4f}", f"{plen / optimum:.4f}")
    return ",".join((record.name, record.outcome, str(record.steps), *versus,
                     str(record.wavefronts)))
