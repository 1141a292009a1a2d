"""Wave-guided graph traversal on 2D lattices.

Two coupled neural layers solve point-to-point navigation: a spiking
lattice propagates activity waves outward from a stimulated target,
and a continuous attractor network holds a localized activity bump
that is nudged along each passing wave front until it arrives.  A
classical BFS/DFS oracle provides reference paths for comparison.
"""
from .attractor import (AttractorParams, AttractorState, BumpLostError,
                        attractor_weight, bump_center, bump_footprint,
                        footprint_diameter, init_bump, step_attractor)
from .config import ConfigError, ScenarioConfig, load_config, parse_config
from .manifold import (Manifold, build_manifold, euclidean_distance,
                       lattice_offsets)
from .oracle import (FIFO, LIFO, build_graph, geometric_length, hop_count,
                     shortest_path, traverse)
from .planner import (BUMP_LOST, EXHAUSTED, REACHED, CouplingParams,
                      PlanResult, StepRecord, detect_overlap,
                      direction_vector, path_length, run_planner)
from .runner import run_scenario, run_wave_only, verify_scenario
from .wave import (NumericalError, SynapseConfig, SynapseTables, WaveState,
                   build_synapses, init_neurons, set_stimulus, step_wave)

__version__ = "0.1.0"

__all__ = [
    "AttractorParams", "AttractorState", "BumpLostError", "attractor_weight",
    "bump_center", "bump_footprint", "footprint_diameter",
    "init_bump", "step_attractor",
    "ConfigError", "ScenarioConfig", "load_config", "parse_config",
    "Manifold", "build_manifold", "euclidean_distance", "lattice_offsets",
    "FIFO", "LIFO", "build_graph", "geometric_length", "hop_count",
    "shortest_path", "traverse",
    "BUMP_LOST", "EXHAUSTED", "REACHED", "CouplingParams", "PlanResult",
    "StepRecord", "detect_overlap", "direction_vector", "path_length",
    "run_planner",
    "run_scenario", "run_wave_only", "verify_scenario",
    "NumericalError", "SynapseConfig", "SynapseTables", "WaveState",
    "build_synapses", "init_neurons", "set_stimulus", "step_wave",
    "__version__",
]
