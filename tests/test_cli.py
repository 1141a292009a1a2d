import json
import os

import pytest
from conftest import scenario_path

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
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text(json.dumps(dict(TINY, warp_speed=9)))
    assert main(["run", str(unknown)]) == 3


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
