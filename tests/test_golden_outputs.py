"""Golden outputs of `wavenav verify`, byte for byte.

Speed work on the wave and attractor layers keeps every output
byte-identical. This table pins the sha256 of `trajectory.csv` and the
report row for the bundled mazes, for `block` at two more jitter seeds
and with start and target swapped, and for `block_heterogeneous` at
seeds 0-2, so that any changed bit of a run fails here. Two generated
lattices, written to a temporary config, pin larger grids, where more of
the attractor factors' tails fall below `attractor.KERNEL_FLOOR`. A
change that means to alter outputs updates the table and names each
changed artifact.
"""
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
     "d77bab86c38f90698045311467ee694ab18014bcaf1b90bbb3a45020c7998e66",
     "s_maze,reached,777,139.9572,93.7401,1.4930,17"),
    ("block", "block", [],
     "9cdd9b8859452fdd1ba6165f4c15e4d2ed36cc42f5e2d4394227b4b22f375e38",
     "block,reached,433,71.3703,45.2548,1.5771,10"),
    ("complex", "complex", [],
     "4bff6f0d54ace98f271e5aca5b7dcfbe4d6378599e91c632e68f74ba6d7a5dc5",
     "complex,reached,382,69.4612,49.5980,1.4005,9"),
    ("block-jitter_seed0", "block", ["--set", "attractor.jitter_seed=0"],
     "37c3c6a5a6decd6079d228ac63cf2145e7b35f416bf41a68c6495be21258e717",
     "block,reached,526,92.1406,45.2548,2.0360,12"),
    ("block-jitter_seed5", "block", ["--set", "attractor.jitter_seed=5"],
     "5b0a0619f6435adbd40f8bc9680fe2598ad4191a7f3ece7f090dc3b52e2bb64d",
     "block,reached,333,59.1023,45.2548,1.3060,8"),
    # start and target swapped: the mirror of the shipped run
    ("block-reversed", "block",
     ["--set", "start=[36, 20]", "--set", "target=[4, 20]"],
     "cecfaef8a1c011af8f6c25348fceb14a9e11f379e356bcb3d1c4b105d90e78f3",
     "block,reached,584,98.5326,45.2548,2.1773,13"),
    # the seeds of the benchmark's sweep_het workload
    ("block_heterogeneous-seed0", "block_heterogeneous", ["--seed", "0"],
     "1cbfa0d03375c7a190acd1420a09e1042b0eae3999b34545c9bd8fb7b26cbd09",
     "block_heterogeneous,reached,859,252.8762,45.2548,5.5878,45"),
    ("block_heterogeneous-seed1", "block_heterogeneous", ["--seed", "1"],
     "23cc85ba76342681debc37da66513ce4b3b68d25e38e5206b7e584b33ac9a31a",
     "block_heterogeneous,reached,215,51.0006,45.2548,1.1270,9"),
    ("block_heterogeneous-seed2", "block_heterogeneous", ["--seed", "2"],
     "b92c5e594ee5d4ff924438ac62bd279046029a4ea561ad082e235d2068b953a2",
     "block_heterogeneous,reached,187,48.4770,45.2548,1.0712,8"),
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
