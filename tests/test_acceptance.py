"""End-to-end acceptance gate.

One test per shipped guarantee; each line of `pytest -v` output is one
pass/fail verdict. Criterion 3's second clause is a known failure of
the shipped wave regime, kept red on purpose; the README's calibration
notes explain the mechanism.
"""
import math
import statistics
import time

import numpy as np

from conftest import load_scenario
from wavenav.attractor import (AttractorParams, bump_center,
                               footprint_diameter, init_bump, step_attractor)
from wavenav.manifold import build_manifold, euclidean_distance
from wavenav.oracle import FIFO, LIFO, traverse
from wavenav.planner import path_length, run_planner
from wavenav.runner import run_scenario
from wavenav.wave import build_synapses, init_neurons, set_stimulus, step_wave

from test_oracle import chain_length, random_connected_graph
from test_wave import run_isolated, scalar_reference


def source_bursts(spike_frames, sources, gap=5):
    """Emission-cycle start times: source spike times split at gaps."""
    times = [t for t, se in enumerate(spike_frames)
             if any(se[s] for s in sources)]
    bursts = [[times[0]]]
    for a, b in zip(times, times[1:]):
        if b - a > gap:
            bursts.append([])
        bursts[-1].append(b)
    return [b[0] for b in bursts]


def test_criterion_1_diagonal_traversal():
    cfg = load_scenario("simple")
    m = cfg.manifold
    d = euclidean_distance(m, m.index(*cfg.start), m.index(*cfg.targets[0]))
    assert d == np.float64(32.0 * math.sqrt(2.0))
    assert abs(d - 45.25) < 0.01

    t0 = time.monotonic()
    result, _ = run_scenario(cfg)
    elapsed = time.monotonic() - t0
    assert result.outcome == "reached"
    assert len(result.trajectory) <= 1000
    assert 6 <= result.wavefronts_used <= 12
    assert path_length(result) <= 1.3 * 45.25
    assert elapsed < 10.0


def test_criterion_2_wave_velocity():
    m = build_manifold(101, 101)
    state = init_neurons(m)
    tables = build_synapses(m)
    set_stimulus(state, m.index(50, 50), True)
    pts = []
    for t in range(40):
        se, _ = step_wave(state, tables)
        if se.any():
            radius = np.hypot(m.xs[se] - 50.0, m.ys[se] - 50.0).max()
            pts.append((t, radius))
    slope = np.polyfit([t for t, _ in pts], [r for _, r in pts], 1)[0]
    assert 0.8 <= slope <= 1.2


def test_criterion_3_annihilation():
    cfg = load_scenario("two_sources")
    m = cfg.manifold
    state = init_neurons(m)
    tables = build_synapses(m, cfg.synapse)
    sources = [m.index(x, y) for x, y in cfg.targets]
    for s in sources:
        set_stimulus(state, s, True)
    frames = []
    for _ in range(300):
        se, _ = step_wave(state, tables)
        frames.append(se.copy())

    (x1, y1), (x2, y2) = cfg.targets
    mid = m.index((x1 + x2) // 2, (y1 + y2) // 2)
    starts = source_bursts(frames, sources)
    mid_times = [t for t, se in enumerate(frames) if se[mid]]
    assert mid_times, "fronts never met at the midpoint"

    # clause 1: the first collision is a single consecutive spike run,
    # then the midpoint stays silent until the next emission cycle
    run_end = mid_times[0]
    for t in mid_times[1:]:
        if t - run_end > 1:
            break
        run_end = t
    next_cycle = next(s for s in starts if s > run_end)
    between = [t for t in mid_times if run_end < t < next_cycle]
    assert between == [], f"midpoint re-fired at {between} before {next_cycle}"

    # clause 2: per emission cycle every non-source neuron spikes at
    # most once; the shipped regime breaks this near the sources (the
    # burst zone) and on the collision seam, see README known limits
    worst = 0
    violators = 0
    for lo, hi in zip(starts[2:], starts[3:]):
        counts = np.sum(frames[lo:hi], axis=0)
        for s in sources:
            counts[s] = 0
        worst = max(worst, int(counts.max()))
        violators = max(violators, int((counts > 1).sum()))
    assert worst <= 1, (
        f"{violators} neurons spiked more than once within one emission "
        f"cycle (worst count {worst})")


def test_criterion_4_maze_suite(maze_results):
    steps = {}
    for name, (cfg, result, row) in maze_results.items():
        m = cfg.manifold
        assert result.outcome == "reached", name
        for rec in result.trajectory:
            assert not m.is_blocked(rec.bump_center), name
        ratio = float(row.split(",")[5])
        assert ratio <= 1.6, f"{name} ratio {ratio}"
        steps[name] = len(result.trajectory)
    assert steps["complex"] < steps["block"] < steps["s_maze"]


def test_criterion_5_heterogeneous_robustness(maze_results):
    _, block_result, _ = maze_results["block"]
    baseline = len(block_result.trajectory)
    reached_steps = []
    for seed in range(10):
        cfg = load_scenario("block_heterogeneous", seed=seed)
        result, _ = run_scenario(cfg)
        if result.outcome == "reached":
            reached_steps.append(len(result.trajectory))
    assert len(reached_steps) >= 8
    assert statistics.median(reached_steps) <= baseline


def test_heterogeneous_block_reaches_at_every_seed():
    # seeds 0..39 of block_heterogeneous; about 1 s
    missed = []
    for seed in range(40):
        cfg = load_scenario("block_heterogeneous", seed=seed)
        m = cfg.manifold
        result = run_planner(m, m.index(*cfg.start), m.index(*cfg.targets[0]),
                             cfg.synapse, cfg.attractor, cfg.coupling)
        if result.outcome != "reached":
            missed.append((seed, result.outcome))
    assert not missed


def test_criterion_6_attractor_stability():
    m = build_manifold(71, 71)
    state = init_bump(m, m.index(35, 35), AttractorParams())
    assert 9 <= footprint_diameter(state) <= 15
    x0, y0 = m.coords(bump_center(state))
    for _ in range(1000):
        step_attractor(state)
    x1, y1 = m.coords(bump_center(state))
    assert math.hypot(x1 - x0, y1 - y0) <= 1.0


def test_criterion_7_oracle_correctness():
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import floyd_warshall

    rng = np.random.default_rng(1234)
    for _ in range(50):
        g, edges = random_connected_graph(rng)
        rows = [u for u, v in edges] + [v for u, v in edges]
        cols = [v for u, v in edges] + [u for u, v in edges]
        mat = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=g.shape)
        dist = floyd_warshall(mat, unweighted=True)
        s = int(rng.integers(0, g.shape[0]))
        parent = traverse(g, s, FIFO)
        for t in range(g.shape[0]):
            assert chain_length(parent, s, t) == int(dist[s, t])
        dfs = traverse(g, s, LIFO)
        assert dfs[s] == s
        for node in dfs:
            chain_length(dfs, s, node)  # asserts chains are acyclic


def test_criterion_8_neuron_model_conformance():
    assert run_isolated(1000, substeps=2) == scalar_reference(1000, substeps=2)
    assert run_isolated(100_000, substeps=2, dc=0.0) == []
