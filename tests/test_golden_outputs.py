"""Golden outputs of `wavenav verify` and `wavenav render`, byte for byte.

Speed work on the wave and attractor layers keeps every output
byte-identical. This table pins the sha256 of `trajectory.csv` and the
report row for the bundled mazes, for `block` with start and target
swapped, and for `block_heterogeneous` at seeds 0-2, so that any changed bit of a run fails here. Two generated
lattices, written to a temporary config, pin larger grids, where more of
the attractor factors' tails fall below `attractor.KERNEL_FLOOR`. Two
renders pin frames: a wave-only run and a traversal, whose frames
carry the bump's activity. A change that means to alter outputs updates
the tables and names each changed artifact.
"""
import glob
import hashlib
import json
import os

import pytest
from conftest import scenario_path

from wavenav.cli import main

# benchmark/'s open71 settings, and a 61x41 grid with one wall
GENERATED = {
    "open71": {"grid": {"nx": 71, "ny": 71}, "obstacles": [],
               "start": [6, 6], "target": [64, 64]},
    "wall61x41": {"grid": {"nx": 61, "ny": 41}, "obstacles": [[28, 0, 32, 28]],
                  "start": [6, 6], "target": [54, 6]},
}

# one row per run: (test id, scenario, extra verify arguments,
# sha256 of trajectory.csv, report row)
GOLDEN = [
    ("simple", "simple", [],
     "dd074eda1f7e0889ce613f75c486111293a95df1b356500b003f476346af5dd5",
     "simple,reached,334,43.8406,45.2548,0.9688,8"),
    ("s_maze", "s_maze", [],
     "b7bebc0115b2a96300518ce75aa33bbab851c29a22fe0f63ed3cafb69f6494ed",
     "s_maze,reached,824,147.8483,93.7401,1.5772,18"),
    ("block", "block", [],
     "5985718a46460356401aa1db00a7404d1749e96abfc981ed3069aafbe2c4a728",
     "block,reached,384,62.7090,45.2548,1.3857,9"),
    ("complex", "complex", [],
     "a6ab43ab3e9e12b3d6ecd65bc4cf6d2b09e410ee32c2f4e216c8957567b27c0f",
     "complex,reached,382,71.0535,49.5980,1.4326,9"),
    # start and target swapped: the mirror of the shipped run
    ("block-reversed", "block",
     ["--set", "start=[36, 20]", "--set", "target=[4, 20]"],
     "17d55a19c123f4a3938970de19bff732442e64b241e2ec10f395585d20c79330",
     "block,reached,384,62.7090,45.2548,1.3857,9"),
    # the seeds of the benchmark's sweep_het workload
    ("block_heterogeneous-seed0", "block_heterogeneous", ["--seed", "0"],
     "0de033eeff90f68cf54f68dd10ae36d955b87c9e6da3543f100af7642ad1ec91",
     "block_heterogeneous,reached,167,50.5458,45.2548,1.1169,7"),
    ("block_heterogeneous-seed1", "block_heterogeneous", ["--seed", "1"],
     "6cd9a78f812b053d65afbce3590f5b56bfd41f466efaf7bfce5271e393367f0f",
     "block_heterogeneous,reached,148,45.3188,45.2548,1.0014,7"),
    ("block_heterogeneous-seed2", "block_heterogeneous", ["--seed", "2"],
     "4906266ae94f20d7dc0b26536c8f12cad25138bc3061444fb222cb447543f876",
     "block_heterogeneous,reached,144,49.1356,45.2548,1.0858,7"),
    ("open71", "open71", [],
     "87c942ed843e96c2c06a8bafea95642cfe3be9b72deb260fb5a5104f98b9b6a7",
     "open71,reached,338,83.4386,82.0244,1.0172,8"),
    ("wall61x41", "wall61x41", [],
     "7d11ff4c2417db2df75c176cd90e0568298c1ccb84a566bf8cd8f2cdc7fc4089",
     "wall61x41,reached,581,113.5181,68.2254,1.6639,13"),
]


@pytest.mark.parametrize("name,extra,trajectory_sha256,row",
                         [row[1:] for row in GOLDEN],
                         ids=[row[0] for row in GOLDEN])
def test_verify_outputs_are_golden(name, extra, trajectory_sha256, row,
                                   tmp_path, capsys):
    out = str(tmp_path / "out")
    if name in GENERATED:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(json.dumps(dict(
            GENERATED[name], mode="homogeneous", max_steps=1500,
            attractor={"sigma": 0.031}, coupling={"hold": 2})))
        path = str(cfg)
    else:
        path = scenario_path(name)
    assert main(["verify", path, "--out", out, *extra]) == 0
    capsys.readouterr()
    with open(os.path.join(out, "trajectory.csv"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == trajectory_sha256
    with open(os.path.join(out, "report.csv"), encoding="utf-8") as fh:
        assert fh.read().splitlines()[1:] == [row]


# one row per render: (scenario, extra render arguments, frame count,
# sha256 over trajectory.csv and then every frame in step order)
RENDERS = [
    ("two_sources", ["--max-steps", "120", "--frame-stride", "10"], 12,
     "0257503323cb1efbde8bf52bbbee0e3a37d1f55f243ae8a49c963fdfa977f339"),
    ("simple", ["--frame-stride", "50"], 7,
     "c691bfbd2bcc08c49f0a662d41b2afc2d4fa78efd53e02f6662ae6be289c7264"),
]


@pytest.mark.parametrize("name,extra,frames,sha256", RENDERS,
                         ids=[row[0] for row in RENDERS])
def test_render_outputs_are_golden(name, extra, frames, sha256, tmp_path,
                                   capsys):
    out = str(tmp_path / "out")
    assert main(["render", scenario_path(name), "--out", out, *extra]) == 0
    capsys.readouterr()
    paths = sorted(glob.glob(os.path.join(out, "frame_*.pgm")))
    assert len(paths) == frames
    digest = hashlib.sha256()
    for path in [os.path.join(out, "trajectory.csv"), *paths]:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    assert digest.hexdigest() == sha256
