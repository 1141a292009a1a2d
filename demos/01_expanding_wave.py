"""
Expanding spike waves from a stimulated node
============================================

A permanently stimulated node emits rings of excitatory spikes that
expand at roughly one lattice ring per step. Trailing inhibition
keeps each front a single ring; the wake does not re-ignite.
"""
import os

import numpy as np

from wavenav import build_manifold, build_synapses, init_neurons
from wavenav import set_stimulus, step_wave
from wavenav.io import frame_path, write_frame

OUT = os.path.join("demo_out", "expanding_wave")

# an open 101x101 lattice with the source at its center
m = build_manifold(101, 101)
state = init_neurons(m)
tables = build_synapses(m)
center = m.index(50, 50)
set_stimulus(state, center, True)

# run 120 steps; track the leading edge and dump a frame every 10
radii = []
for t in range(120):
    spikes_e, spikes_i = step_wave(state, tables)
    if spikes_e.any():
        r = np.hypot(m.xs[spikes_e] - 50.0, m.ys[spikes_e] - 50.0).max()
        radii.append((t, r))
    if t % 10 == 0:
        write_frame(frame_path(OUT, t), spikes_e, None, m)

slope = np.polyfit([t for t, _ in radii[:40]], [r for _, r in radii[:40]], 1)[0]
print(f"leading edge after {radii[-1][0]} steps: radius {radii[-1][1]:.1f}")
print(f"expansion speed over the first 40 steps: {slope:.3f} nodes/step")
print(f"frames written to {OUT}/")
