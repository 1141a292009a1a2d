"""Importing wavenav and running a scenario load numpy only; scipy comes
in with the oracle's graph. This needs a fresh interpreter: the test
modules import scipy themselves."""
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# imports wavenav.cli, then runs each command line in turn; prints the
# scipy modules loaded after the import and after each command
PROBE = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import wavenav.cli
stages = [["import", None, loaded()]]
for argv in json.loads(sys.argv[1]):
    code = wavenav.cli.main(argv)
    stages.append([argv[0], code, loaded()])
print(json.dumps(stages))
"""


def test_scipy_loads_only_with_the_oracle(tmp_path):
    wave = tmp_path / "wave.cfg"
    wave.write_text(json.dumps({"grid": {"nx": 15, "ny": 15}, "start": None,
                                "target": [7, 7], "max_steps": 10}))
    plan = tmp_path / "plan.cfg"
    plan.write_text(json.dumps({"grid": {"nx": 21, "ny": 21},
                                "start": [4, 4], "target": [16, 16],
                                "max_steps": 10}))
    out = str(tmp_path / "out")
    argvs = [["render", str(wave), "--out", out],
             ["run", str(plan), "--out", out],
             ["verify", str(plan), "--out", out]]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, check=True)
    stages = json.loads(proc.stdout.splitlines()[-1])
    assert [s[:2] for s in stages] == [["import", None], ["render", 0],
                                       ["run", 2], ["verify", 2]]
    for command, _, modules in stages[:3]:
        assert modules == [], command
    verified = stages[3][2]
    assert "scipy.sparse" in verified
    assert "scipy.ndimage" not in verified
