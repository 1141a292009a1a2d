import errno
import io
import json
import os
import warnings

import pytest
from conftest import scenario_path

from wavenav import config
from wavenav import io as iomod
from wavenav.cli import main

TINY = {
    "grid": {"nx": 21, "ny": 21},
    "start": [4, 4],
    "target": [16, 16],
    "max_steps": 400,
    "attractor": {"sigma": 0.031},
    "coupling": {"hold": 2},
}


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(json.dumps(TINY))
    return str(path)


def write_cfg(tmp_path, name, **extra):
    raw = dict(TINY)
    raw.update(extra)
    path = tmp_path / f"{name}.cfg"
    path.write_text(json.dumps(raw))
    return str(path)


def test_run_reached_exit_zero(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", tiny_cfg, "--out", out]) == 0
    assert "tiny: reached" in capsys.readouterr().out
    csv = os.path.join(out, "trajectory.csv")
    assert os.path.exists(csv)
    with open(csv) as fh:
        assert "# outcome=reached" in fh.read()


def test_run_exhausted_exit_two(tiny_cfg, tmp_path):
    out = str(tmp_path / "out")
    assert main(["run", tiny_cfg, "--out", out, "--max-steps", "5"]) == 2


def test_config_error_exit_three(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text('{"grid": {"nx": 21')
    assert main(["run", str(bad)]) == 3
    assert "config error" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.cfg")]) == 3
    latin = tmp_path / "latin.cfg"
    latin.write_bytes(b"\xff" + json.dumps(TINY).encode())
    assert main(["run", str(latin)]) == 3
    assert "config error: cannot read config" in capsys.readouterr().err
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text(json.dumps(dict(TINY, warp_speed=9)))
    assert main(["run", str(unknown)]) == 3
    # nested past the recursion limit, in the file or in a --set value
    deep = tmp_path / "deep.cfg"
    deep.write_text("[" * 100_000)
    assert main(["run", str(deep)]) == 3
    assert "config error:" in capsys.readouterr().err
    argv = ["run", write_cfg(tmp_path, "ok"), "--out", str(tmp_path / "o")]
    assert main(argv + ["--set", "start=" + "[" * 100_000]) == 3
    assert "config error:" in capsys.readouterr().err


def test_malformed_values_exit_three(tmp_path, capsys):
    for extra in ({"coupling": {"arrival_radius": float("nan")}},
                  {"synapse": {"v_floor": float("nan")}},
                  {"synapse": {"stim_dc": float("inf")}},
                  {"grid": 5}, {"synapse": 3}, {"seed": -1},
                  {"attractor": {"jitter_seed": -1}},
                  {"grid": {"nx": 100000, "ny": 100000}},
                  {"grid": {"nx": 201, "ny": 201}, "synapse": {"d_e": 1e9}},
                  {"start": [16, 16]}, {"start": [4, 4], "target": [5, 5]},
                  {"coupling": {"arrival_radius": 1e300}},
                  {"attractor": {"seed_radius": 0}},
                  {"attractor": {"sigma": 1e-200}}):
        cfg = write_cfg(tmp_path, "bad", **extra)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3, extra
        assert "config error" in capsys.readouterr().err
    listed = tmp_path / "list.cfg"
    listed.write_text("[1, 2]")
    assert main(["run", str(listed), "--seed", "3"]) == 3
    assert "top level" in capsys.readouterr().err
    het = write_cfg(tmp_path, "het", mode="heterogeneous")
    assert main(["run", het, "--seed", "-2"]) == 3
    assert "seed must be >= 0" in capsys.readouterr().err
    assert main(["sweep", het, "--seeds=-2..0"]) == 3
    assert "negative seed" in capsys.readouterr().err
    # usage errors: argparse's own exit code 2 would read as "exhausted"
    assert main(["run"]) == 3
    assert "required: config" in capsys.readouterr().err
    assert main(["sweep", het, "--seeds", "-2..0"]) == 3
    assert "expected one argument" in capsys.readouterr().err
    with pytest.raises(SystemExit) as done:
        main(["run", "--help"])
    assert done.value.code == 0


def test_underflowing_seed_radius_exit_three(tmp_path, capsys):
    # its square is 0: init_bump would divide by it and lose the bump
    argv = ["verify", scenario_path("simple"), "--out", str(tmp_path / "o")]
    assert main(argv + ["--set", "attractor.seed_radius=1e-170"]) == 3
    assert "seed_radius" in capsys.readouterr().err
    # a subnormal square seeds a one-node bump, without numpy warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--set", "attractor.seed_radius=1e-160"]) == 0
    assert "simple,reached" in capsys.readouterr().out


def test_numerical_failure_exit_four(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "hot", synapse={"stim_dc": 1e200})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "numerical failure" in capsys.readouterr().err


def test_bump_lost_exit_four(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "dim", attractor={"J": 0.01})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 4
    # warm-ups that end in two components (an unrelaxed seed straddling
    # an s_maze wall) or in none (inhibition above any excitation)
    maze = scenario_path("s_maze")
    for extra in (["--set", "start=[20,12]", "--set", "attractor.warmup=0"],
                  ["--set", "attractor.T=1e3"]):
        assert main(["run", maze, "--out", str(tmp_path / "m")] + extra) == 4
        assert "bump_lost" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "render", "verify", "sweep"])
def test_bump_lost_reason_on_stderr(command, tmp_path, capsys):
    # a warm-up that ends in two components, and one that ends in none
    maze = scenario_path("s_maze")
    sweep = ["--seeds", "0..0"] if command == "sweep" else []
    for extra, reason in (
            (["--set", "start=[20,12]", "--set", "attractor.warmup=0"],
             "bump warm-up did not converge to a single component (got 2)"),
            (["--set", "attractor.T=1e3"], "activity vanished after update")):
        argv = [command, maze, "--out", str(tmp_path / "o")] + sweep + extra
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert "bump_lost" in out
        assert err == f"bump lost: {reason}\n"


def test_overflowing_activity_is_a_lost_bump(tmp_path, capsys):
    # J so large that the activity sum overflows: a lost bump with its
    # reason, not a numpy warning (tier-1 turns RuntimeWarning into errors)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", scenario_path("simple"), "--out", str(tmp_path),
                     "--max-steps", "5", "--set", "attractor.J=1e308"]) == 4
    out, err = capsys.readouterr()
    assert out.startswith("simple: bump_lost\n")
    assert err == "bump lost: total activity is inf after update\n"


def test_empty_out_exit_three(tiny_cfg, tmp_path, capsys):
    # --out arrives as an output.directory override, so one check covers both
    for argv in (["--out", ""], ["--set", 'output.directory=""']):
        assert main(["run", tiny_cfg, "--max-steps", "5"] + argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "config error: output.directory must not be empty\n"


def test_sweep_with_every_bump_lost_exits_four(tmp_path, capsys):
    # no run succeeds: the sweep exits with its runs' highest code, 4
    # for bump_lost rather than 2 for an exhausted budget
    out = str(tmp_path / "sweep")
    assert main(["sweep", scenario_path("s_maze"), "--seeds", "0..1",
                 "--set", "attractor.T=1e3", "--out", out]) == 4
    assert capsys.readouterr().out.splitlines()[-1] == "reached 0/2"
    with open(os.path.join(out, "sweep.csv")) as fh:
        assert [row.split(",")[2] for row in fh.read().splitlines()[1:]] == [
            "bump_lost", "bump_lost"]


def test_out_that_cannot_be_a_directory_exit_three(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_bytes(b"not a directory")
    # an existing regular file, at the first frame of a render
    assert main(["render", scenario_path("two_sources"), "--out",
                 str(blocker), "--max-steps", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "File exists" in err
    # a path below a regular file, when the trajectory is written
    assert main(["verify", scenario_path("simple"), "--out",
                 str(blocker / "x"), "--max-steps", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Not a directory" in err
    # a --report below a regular file, or naming a directory; a run's
    # trajectory.csv or a sweep's sweep.csv that is a directory
    taken = tmp_path / "taken"
    for name in ("trajectory.csv", "sweep.csv"):
        (taken / name).mkdir(parents=True)
    verify = ["verify", scenario_path("simple"), "--out",
              str(tmp_path / "v"), "--max-steps", "5", "--report"]
    for argv, why in (
            (verify + [str(blocker / "r.csv")], "File exists"),
            (verify + [str(taken)], "Is a directory"),
            (["run", scenario_path("simple"), "--out", str(taken),
              "--max-steps", "5"], "Is a directory"),
            (["sweep", scenario_path("two_sources"), "--seeds", "0..1",
              "--max-steps", "5", "--out", str(taken)], "Is a directory")):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert why in err, argv
    assert blocker.read_bytes() == b"not a directory"
    for name in ("trajectory.csv", "sweep.csv"):
        assert not any((taken / name).iterdir())


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_report_to_a_full_device_exit_three(tmp_path, capsys):
    # the row fits the write buffer, so the failure comes at the close
    assert main(["verify", scenario_path("simple"), "--out",
                 str(tmp_path / "out"), "--max-steps", "5",
                 "--report", "/dev/full"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot write '/dev/full'")
    assert captured.err.count("\n") == 1


def test_failed_close_of_the_trajectory_exit_three(tiny_cfg, tmp_path,
                                                   monkeypatch, capsys):
    class FullDisk(io.BytesIO):
        def close(self):
            if not self.closed:
                super().close()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fake_open(path, *args, **kwargs):
        if os.path.basename(path) == "trajectory.csv":
            return FullDisk()
        return open(path, *args, **kwargs)

    monkeypatch.setattr(iomod, "open", fake_open, raising=False)
    out = tmp_path / "out"
    assert main(["run", tiny_cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == (f"config error: cannot write "
                   f"{str(out / 'trajectory.csv')!r}: "
                   f"{os.strerror(errno.ENOSPC)}\n")


def test_heterogeneous_requires_seed(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "het", mode="heterogeneous")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "--seed" in capsys.readouterr().err
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--seed", "0"]) == 0


def test_set_overrides_any_key(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["run", tiny_cfg, "--out", out,
                 "--set", "coupling.arrival_radius=8",
                 "--set", "output.frame_stride=50"])
    assert code == 0
    with open(os.path.join(out, "trajectory.csv")) as fh:
        body = fh.read()
    steps = int(body.rsplit("steps=", 1)[1].split()[0])
    assert steps < 237  # larger arrival radius stops earlier than baseline
    assert os.path.exists(os.path.join(out, "frame_00000.pgm"))


def test_render_forces_frames(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["render", tiny_cfg, "--out", out, "--frame-stride", "40"]) == 0
    frames = [f for f in os.listdir(out) if f.endswith(".pgm")]
    assert len(frames) >= 5
    assert "frames" in capsys.readouterr().out


def test_verify_writes_report(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["verify", tiny_cfg, "--out", out]) == 0
    report = os.path.join(out, "report.csv")
    with open(report) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ("scenario,outcome,steps,path_length,"
                        "bfs_length,ratio,wavefronts")
    fields = lines[1].split(",")
    assert fields[0] == "tiny" and fields[1] == "reached"
    assert float(fields[5]) <= 1.6
    # second verify appends without duplicating the header
    assert main(["verify", tiny_cfg, "--out", out]) == 0
    with open(report) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 3 and lines[1] == lines[2]
    # a report file that exists but is empty still gets the header first
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["verify", tiny_cfg, "--out", out,
                 "--report", str(empty)]) == 0
    assert empty.read_text().splitlines() == lines[:2]


def test_verify_report_to_a_pipe(tiny_cfg, tmp_path, capsys):
    # a pipe cannot tell its position: it gets the row, without a header
    r, w = os.pipe()
    with os.fdopen(r, "rb") as reader:
        try:
            assert main(["verify", tiny_cfg, "--out", str(tmp_path / "out"),
                         "--report", f"/dev/fd/{w}"]) == 0
        finally:
            os.close(w)
        piped = reader.read().decode("utf-8")
    assert piped == capsys.readouterr().out.splitlines()[1] + "\n"


def test_sweep_partitions_outputs_per_seed(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "het", mode="heterogeneous")
    out = str(tmp_path / "sweep")
    assert main(["sweep", cfg, "--seeds", "0..2", "--out", out]) == 0
    for seed in (0, 1, 2):
        assert os.path.exists(os.path.join(out, f"seed_{seed}",
                                           "trajectory.csv"))
    with open(os.path.join(out, "sweep.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "scenario,seed,outcome,steps"
    assert len(lines) == 4
    assert "reached" in capsys.readouterr().out


def test_sweep_builds_the_lattice_once(tmp_path, monkeypatch, capsys):
    # seeds never change the geometry: every run shares the parsed lattice
    calls = []
    build = config.build_manifold
    monkeypatch.setattr(config, "build_manifold",
                        lambda *args: calls.append(args) or build(*args))
    out = str(tmp_path / "sweep")
    assert main(["sweep", scenario_path("block_heterogeneous"), "--seeds",
                 "0..2", "--max-steps", "5", "--out", out]) == 2
    assert len(calls) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "reached 0/3"


def test_wave_only_sweep_counts_completed_runs(tmp_path, capsys):
    out = str(tmp_path / "sweep")
    assert main(["sweep", scenario_path("two_sources"), "--seeds", "0..1",
                 "--max-steps", "20", "--out", out]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("completed 2/2")
    with open(os.path.join(out, "sweep.csv")) as fh:
        assert fh.read().splitlines()[1:] == [
            "two_sources,0,completed,20", "two_sources,1,completed,20"]


def test_sweep_rejects_bad_ranges(tiny_cfg, capsys):
    assert main(["sweep", tiny_cfg, "--seeds", "5"]) == 3
    assert main(["sweep", tiny_cfg, "--seeds", "7..3"]) == 3
    capsys.readouterr()


def test_outputs_are_byte_identical_across_runs(tiny_cfg, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", tiny_cfg, "--out", out1, "--frame-stride", "60"]) == 0
    assert main(["run", tiny_cfg, "--out", out2, "--frame-stride", "60"]) == 0
    for name in sorted(os.listdir(out1)):
        with open(os.path.join(out1, name), "rb") as fh1, \
             open(os.path.join(out2, name), "rb") as fh2:
            assert fh1.read() == fh2.read(), name
