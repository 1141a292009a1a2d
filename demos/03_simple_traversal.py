"""
Diagonal traversal on an open grid
==================================

The coupled system: the target emits waves, each front that crosses
the bump drags it a little toward the front's origin, and after a
handful of fronts the bump sits on the target.
"""
import os

from wavenav import load_config, path_length, run_scenario

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir,
                         "src", "wavenav", "scenarios")

cfg = load_config(os.path.join(SCENARIOS, "simple.cfg"))
cfg.frame_stride = 25
result, outputs = run_scenario(cfg, out_dir=os.path.join("demo_out", "simple"))

print("outcome:", result.outcome)
print("steps:", len(result.trajectory))
print("wave fronts used:", result.wavefronts_used)
print(f"path length: {path_length(result):.2f} "
      f"(straight line would be 45.25)")
print("bump track:", " ".join(f"({x},{y})" for x, y in result.path[::6]))
print("trajectory CSV:", outputs.trajectory_csv)
print("frames:", len(outputs.frames))
