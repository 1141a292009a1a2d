"""
Robustness under randomized neuron parameters
=============================================

Heterogeneous mode redraws every neuron's parameters from the seeded
per-node distributions. The traversal keeps working, and on the
symmetric block maze the heterogeneous runs usually reach the target in
fewer steps than the homogeneous run.
"""
import dataclasses
import os
import statistics

from wavenav import load_config, run_scenario

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir,
                         "src", "wavenav", "scenarios")

# homogeneous baseline
cfg = load_config(os.path.join(SCENARIOS, "block.cfg"))
baseline, _ = run_scenario(cfg)
print(f"homogeneous block maze: {baseline.outcome}",
      f"in {len(baseline.trajectory)} steps")

# ten heterogeneous seeds on the same maze
steps = []
for seed in range(10):
    cfg = load_config(os.path.join(SCENARIOS, "block_heterogeneous.cfg"))
    cfg.synapse = dataclasses.replace(cfg.synapse, seed=seed)
    result, _ = run_scenario(cfg)
    print(f"seed {seed}: {result.outcome} in {len(result.trajectory)} steps")
    if result.outcome == "reached":
        steps.append(len(result.trajectory))

print(f"reached {len(steps)}/10,",
      f"median {statistics.median(steps):g} steps",
      f"(homogeneous needed {len(baseline.trajectory)})")
