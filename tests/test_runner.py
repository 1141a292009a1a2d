"""Frame files of a run: the look-ahead creator adds none and loses none.

run_scenario hands each frame to io.FrameWriter, which creates frame
files ahead of the run on a background thread and names each one with
io.frame_path. Whatever the run's end, it must leave
exactly the frames it wrote, each complete, keep files it did not
write, write every frame on the calling thread, and leave no thread.
"""
import json
import os
import sys
import threading
import time

import pytest
from conftest import scenario_path

from wavenav import io as iomod
from wavenav import runner
from wavenav.cli import main
from wavenav.config import parse_config
from wavenav.io import FRAME_LOOKAHEAD
from wavenav.runner import run_scenario
from wavenav.wave import NumericalError

TINY = {
    "grid": {"nx": 21, "ny": 21},
    "start": [4, 4],
    "target": [16, 16],
    "max_steps": 400,
    "attractor": {"sigma": 0.031},
    "coupling": {"hold": 2},
    "output": {"frame_stride": 1},
}
# header plus one byte per node of the 21x21 lattice
FRAME_BYTES = len(b"P5\n21 21\n255\n") + 21 * 21


def tiny(**extra):
    return parse_config(json.dumps(dict(TINY, **extra)), name="tiny")


def frame_names(steps, stride=1):
    return [f"frame_{t:05d}.pgm" for t in range(0, steps, stride)]


def listed_frames(out):
    return sorted(f for f in os.listdir(out) if f.startswith("frame_"))


def assert_complete(out, names):
    for name in names:
        assert os.path.getsize(os.path.join(out, name)) == FRAME_BYTES, name


def test_early_arrival_leaves_exactly_the_written_frames(tmp_path):
    out = str(tmp_path / "out")
    result, record = run_scenario(tiny(), out_dir=out)
    steps = len(result.trajectory)
    assert result.outcome == "reached"
    assert steps < TINY["max_steps"] - 10 * FRAME_LOOKAHEAD
    assert listed_frames(out) == frame_names(steps)
    assert [os.path.basename(f) for f in record.frames] == frame_names(steps)
    assert_complete(out, frame_names(steps))


def test_numerical_failure_leaves_only_the_written_frames(tmp_path, monkeypatch):
    # a failure before the first frame starts no creator and writes nothing
    out = str(tmp_path / "hot")
    with pytest.raises(NumericalError):
        run_scenario(tiny(start=None, synapse={"stim_dc": 1e200}), out_dir=out)
    assert not os.path.exists(out)

    # a failure at step 50, while files for the coming frames exist
    real_step = runner.step_wave
    steps = []

    def failing_step(state, tables):
        steps.append(None)
        if len(steps) > 50:
            raise NumericalError("injected at step 50", node=0)
        return real_step(state, tables)

    monkeypatch.setattr(runner, "step_wave", failing_step)
    out = str(tmp_path / "late")
    with pytest.raises(NumericalError, match="injected"):
        run_scenario(tiny(start=None), out_dir=out)
    assert listed_frames(out) == frame_names(50)
    assert_complete(out, frame_names(50))


def test_existing_frames_past_the_end_keep_their_bytes(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    names = frame_names(TINY["max_steps"]) + ["frame_99999.pgm"]
    for name in names:
        (out / name).write_bytes(b"old " + name.encode())
    result, _ = run_scenario(tiny(), out_dir=str(out))
    steps = len(result.trajectory)
    assert listed_frames(str(out)) == sorted(names)
    assert_complete(str(out), names[:steps])
    for name in names[steps:]:
        assert (out / name).read_bytes() == b"old " + name.encode()


def test_no_thread_outlives_the_run(tmp_path, monkeypatch):
    # a creator slower than the run: it is still busy when the run ends
    frame_path = iomod.frame_path

    def slow_frame_path(out_dir, t):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.002)
        return frame_path(out_dir, t)

    monkeypatch.setattr(iomod, "frame_path", slow_frame_path)
    before = threading.enumerate()
    result, _ = run_scenario(tiny(), out_dir=str(tmp_path / "a"))
    assert threading.enumerate() == before
    assert listed_frames(str(tmp_path / "a")) == frame_names(
        len(result.trajectory))

    write = iomod.write_frame

    def failing_write(path, spikes_e, activity, m):
        if path.endswith("frame_00020.pgm"):
            raise OSError("injected")
        write(path, spikes_e, activity, m)

    monkeypatch.setattr(iomod, "write_frame", failing_write)
    with pytest.raises(OSError, match="injected"):
        run_scenario(tiny(), out_dir=str(tmp_path / "b"))
    assert threading.enumerate() == before
    assert listed_frames(str(tmp_path / "b")) == frame_names(20)


def test_frames_are_written_on_the_calling_thread(tmp_path, monkeypatch, capsys):
    # benchmark/spans.py keeps one span stack: a write from another
    # thread would get the wrong parent span
    threads = []
    write = iomod.write_frame

    def recording_write(*args):
        threads.append(threading.current_thread())
        write(*args)

    monkeypatch.setattr(iomod, "write_frame", recording_write)
    assert main(["render", scenario_path("two_sources"), "--out",
                 str(tmp_path / "out"), "--max-steps", "40",
                 "--frame-stride", "1"]) == 0
    capsys.readouterr()
    assert len(threads) == 40
    assert all(t is threading.main_thread() for t in threads)


def test_concurrent_runs_keep_their_frame_sets(tmp_path):
    # three runs, each with its creator, on a 2-core host, switching often
    results = {}

    def run(k):
        results[k] = run_scenario(tiny(), out_dir=str(tmp_path / str(k)))[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(k,)) for k in range(3)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
            assert not w.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for k in range(3):
        names = frame_names(len(results[k].trajectory))
        assert listed_frames(str(tmp_path / str(k))) == names
        assert_complete(str(tmp_path / str(k)), names)
