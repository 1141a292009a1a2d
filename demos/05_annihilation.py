"""
Colliding wave fronts annihilate
================================

Two stimulated nodes emit fronts toward each other. Where fronts
meet, each runs into the other's inhibitory wake, and both vanish;
nothing passes through. The midpoint sees one short spike burst per
emission cycle, never an echo.
"""
import os

from wavenav import build_manifold, build_synapses, init_neurons
from wavenav import set_stimulus, step_wave
from wavenav.io import frame_path, write_frame

OUT = os.path.join("demo_out", "annihilation")

m = build_manifold(71, 41)
state = init_neurons(m)
tables = build_synapses(m)
left, right = m.index(15, 20), m.index(55, 20)
mid = m.index(35, 20)
set_stimulus(state, left, True)
set_stimulus(state, right, True)

mid_spikes = []
for t in range(160):
    spikes_e, _ = step_wave(state, tables)
    if spikes_e[mid]:
        mid_spikes.append(t)
    if t % 5 == 0:
        write_frame(frame_path(OUT, t), spikes_e, None, m)

print("sources 40 nodes apart; fronts meet near the midpoint")
print("midpoint spike times:", mid_spikes)
print("between collisions the midpoint is silent: the fronts are gone")
print(f"frames written to {OUT}/")
