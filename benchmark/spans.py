"""Spans around calls into wavenav's layers, recorded from outside.

The program is not changed: the benchmark replaces, for the length of
a traced round, the names that `cli`, `runner`, `planner`, `config` and
`io` look up at call time with wrappers that record a span. A span is
[name, start, end, parent index, value]; `value` is a per-call count
(spikes, bytes, a hit) where one is needed for a per-layer metric.
"""
from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter

# per-call values: computed from the arguments before the call ("pre")
# or from the arguments and the result after it ("post")
_SPIKES = ("post", lambda args, result: int(result[0].sum()))
_HIT = ("post", lambda args, result: int(result is not None))
_TEXT_BYTES = ("post", lambda args, result: len(args[1].encode("utf-8")))
_FILE_BYTES = ("post", lambda args, result: os.path.getsize(args[0]))
_DELTA_CHANGED = ("pre", lambda args: int(
    (float(args[1][0]), float(args[1][1])) != args[0].delta))

# (module or class, attribute, span name, per-call value or None).
# A span's layer is the part of its name before the dot.
TARGETS = [
    ("wavenav.cli", "parse_config", "config.parse_config", None),
    ("wavenav.cli", "apply_overrides", "config.apply_overrides", None),
    ("wavenav.cli", "run_scenario", "runner.run_scenario", None),
    ("wavenav.cli", "verify_scenario", "runner.verify_scenario", None),
    ("wavenav.config", "build_manifold", "manifold.build_manifold", None),
    ("wavenav.runner", "run_scenario", "runner.run_scenario", None),
    ("wavenav.runner", "run_wave_only", "runner.run_wave_only", None),
    ("wavenav.runner", "run_planner", "planner.run_planner", None),
    ("wavenav.runner", "init_neurons", "wave.init_neurons", None),
    ("wavenav.runner", "build_synapses", "wave.build_synapses", None),
    ("wavenav.runner", "set_stimulus", "wave.set_stimulus", None),
    ("wavenav.runner", "step_wave", "wave.step_wave", _SPIKES),
    ("wavenav.runner", "build_graph", "oracle.build_graph", None),
    ("wavenav.runner", "shortest_path", "oracle.shortest_path", None),
    ("wavenav.runner", "geometric_length", "oracle.geometric_length", None),
    ("wavenav.planner", "init_neurons", "wave.init_neurons", None),
    ("wavenav.planner", "build_synapses", "wave.build_synapses", None),
    ("wavenav.planner", "set_stimulus", "wave.set_stimulus", None),
    ("wavenav.planner", "step_wave", "wave.step_wave", _SPIKES),
    ("wavenav.planner", "init_bump", "attractor.init_bump", None),
    ("wavenav.planner", "step_attractor", "attractor.step_attractor", None),
    ("wavenav.planner", "bump_center", "attractor.bump_center", None),
    ("wavenav.planner", "bump_footprint", "attractor.bump_footprint", None),
    ("wavenav.planner", "detect_overlap", "planner.detect_overlap", _HIT),
    ("wavenav.planner", "direction_vector", "planner.direction_vector", None),
    ("wavenav.attractor.AttractorState", "weights", "attractor.weights", None),
    ("wavenav.attractor.AttractorState", "set_delta", "attractor.set_delta",
     _DELTA_CHANGED),
    ("wavenav.io", "write_frame", "io.write_frame", _FILE_BYTES),
    ("wavenav.io", "write_text", "io.write_text", _TEXT_BYTES),
    ("wavenav.io", "format_trajectory", "io.format_trajectory", None),
    ("wavenav.io", "format_wave_log", "io.format_wave_log", None),
    ("wavenav.io", "report_row", "io.report_row", None),
]


def resolve(path: str):
    """Module, or class inside a module, named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr: str, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Spans recorded in memory while its patches are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches = Patches()

    def wrap(self, name: str, fn, value=None):
        spans, stack = self.spans, self._stack
        when, count = value if value is not None else (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            if when == "pre":
                span[4] = count(args)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if when == "post":
                span[4] = count(args, result)
            return result
        return traced

    def install(self) -> None:
        for owner, attr, name, value in TARGETS:
            self._patches.replace(resolve(owner), attr,
                                  lambda fn, n=name, v=value: self.wrap(n, fn, v))

    def uninstall(self) -> None:
        self._patches.restore()


class SetupClock:
    """Time from a run's first config load to its first simulated step.

    Installed in untraced and traced rounds alike: it costs one call and
    one comparison per wave step. A load opens a window unless one is
    open (sweep loads its base config and then each seed's); the next
    wave step closes it.
    """

    def __init__(self):
        self.windows: list[float] = []
        self._opened: float | None = None
        self._patches = Patches()

    def _on_load(self, fn):
        def load(*args, **kwargs):
            if self._opened is None:
                self._opened = perf_counter()
            return fn(*args, **kwargs)
        return load

    def _on_step(self, fn):
        def step(*args, **kwargs):
            if self._opened is not None:
                self.windows.append(perf_counter() - self._opened)
                self._opened = None
            return fn(*args, **kwargs)
        return step

    def install(self) -> None:
        cli = resolve("wavenav.cli")
        self._patches.replace(cli, "apply_overrides", self._on_load)
        self._patches.replace(cli, "parse_config", self._on_load)
        for module in ("wavenav.runner", "wavenav.planner"):
            self._patches.replace(resolve(module), "step_wave", self._on_step)

    def take(self) -> float:
        """Sum of the windows closed since the last call."""
        total = sum(self.windows)
        self.windows = []
        return total


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, value sum."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, _, value) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
        row[3] += value
    return out


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of one traced round."""
    s = summarize(spans)

    def calls(*names):
        return sum(s[n][0] for n in names if n in s)

    def incl(*names):
        return sum(s[n][1] for n in names if n in s)

    def self_time(layer):
        return sum(row[2] for n, row in s.items() if n.startswith(layer + "."))

    def value(*names):
        return sum(s[n][3] for n in names if n in s)

    wave_steps = calls("wave.step_wave")
    att_steps = calls("attractor.step_attractor")
    checks = calls("planner.detect_overlap")
    return {
        "config.load_s": incl("config.parse_config", "config.apply_overrides"),
        "config.loads": calls("config.parse_config"),
        "manifold.build_s": incl("manifold.build_manifold"),
        "manifold.builds": calls("manifold.build_manifold"),
        "wave.synapse_build_s": incl("wave.build_synapses"),
        "wave.step_s": incl("wave.step_wave"),
        "wave.steps": wave_steps,
        "wave.step_us": 1e6 * incl("wave.step_wave") / wave_steps if wave_steps else 0.0,
        "wave.spikes": value("wave.step_wave"),
        "attractor.warmup_s": incl("attractor.init_bump"),
        "attractor.step_s": incl("attractor.step_attractor"),
        "attractor.steps": att_steps,
        "attractor.step_us": (1e6 * incl("attractor.step_attractor") / att_steps
                              if att_steps else 0.0),
        "attractor.weights_s": incl("attractor.weights"),
        "attractor.rebuilds": value("attractor.set_delta"),
        "planner.overlap_s": incl("attractor.bump_footprint",
                                  "planner.detect_overlap",
                                  "attractor.bump_center"),
        "planner.fronts": calls("planner.direction_vector"),
        "planner.hit_ratio": (calls("planner.direction_vector") / checks
                              if checks else 0.0),
        "planner.self_s": self_time("planner"),
        "oracle.graph_s": incl("oracle.build_graph"),
        "oracle.path_s": incl("oracle.shortest_path", "oracle.geometric_length"),
        "io.frame_s": incl("io.write_frame"),
        "io.frames": calls("io.write_frame"),
        "io.bytes": value("io.write_frame", "io.write_text"),
        "io.trajectory_s": incl("io.format_trajectory", "io.format_wave_log",
                                "io.write_text"),
        "runner.self_s": self_time("runner"),
        "cli.self_s": self_time("cli"),
    }

