"""Scenario configuration: JSON text with strict key checking.

Grammar (all sections optional unless noted):

    {
      "grid":      {"nx": int >= 3, "ny": int >= 3},          (required)
      "obstacles": [[x0, y0, x1, y1], ...],                   inclusive bounds
      "start":     [x, y] | null,          null = run the wave layer only
      "target":    [x, y] | [[x, y], ...], (required) stimulated node(s)
      "mode":      "homogeneous" | "heterogeneous",
      "seed":      int >= 0 | null,        required to run heterogeneous mode
      "max_steps": int >= 1,               the planner's step budget
      "synapse":   fields of wave.SynapseConfig except mode and seed,
      "attractor": fields of attractor.AttractorParams,
      "coupling":  fields of planner.CouplingParams except max_steps,
      "output":    {"frame_stride": int >= 0, "directory": non-empty str}
    }

A section's keys, their types and their defaults are those of its
dataclass, which checks their ranges when built. mode and seed are
SynapseConfig fields and max_steps a CouplingParams field, read from
the top level. Numbers must be finite.
Unknown keys anywhere are rejected. Multi-node "target" is only valid
together with "start": null (wave-only scenarios with several sources);
a start within coupling.arrival_radius of the target is rejected.
A scenario whose synapse tables and attractor factors would exceed
MAX_ENTRIES is rejected before any of them is built.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import typing
from dataclasses import dataclass, field

from .attractor import AttractorParams
from .manifold import Manifold, build_manifold, euclidean_distance
from .planner import CouplingParams
from .wave import SynapseConfig


class ConfigError(ValueError):
    pass


# Largest scenario accepted, in estimated entries of one wave-layer
# synapse table plus the attractor's two kernel factors (see _check_size).
# Runs just under it peak at about 0.5 GB resident (519 MB for 1330x1330
# with synapse range 1, 190 MB for 210x210 with range 10, "cheb" metric).
MAX_ENTRIES = 20_000_000

_OUTPUT_KEYS = {"frame_stride", "directory"}
_TOP_KEYS = {"grid", "obstacles", "start", "target", "mode", "seed",
             "max_steps", "synapse", "attractor", "coupling", "output"}
# field annotations of a dataclass, evaluated once per class
_hints = functools.cache(typing.get_type_hints)


@dataclass
class ScenarioConfig:
    start: tuple[int, int] | None
    targets: list
    synapse: SynapseConfig
    attractor: AttractorParams
    coupling: CouplingParams
    frame_stride: int
    out_dir: str
    name: str
    # the lattice, built once at parse time and the one record of the grid
    # size and obstacles: nothing changes the geometry after parsing, and
    # copies made with dataclasses.replace share it
    manifold: Manifold = field(repr=False, compare=False)


def _reject_unknown(section: dict, allowed, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _section(raw: dict, key: str, allowed) -> dict:
    """The JSON object raw[key] ({} if absent), holding only `allowed` keys."""
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be an object")
    _reject_unknown(section, allowed, f"'{key}'")
    return section


def _coord(value, where: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{where} must be a [x, y] pair of integers")
    x, y = (_number(v, f"{where}[{i}]", integer=True)
            for i, v in enumerate(value))
    return x, y


def _number(value, where: str, integer: bool = False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    if integer:
        if not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer")
        return value
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite")
    return value


def _typed(value, hint, where: str):
    """`value` checked against a field annotation: int, float, str or X | None."""
    options = typing.get_args(hint)
    if type(None) in options:
        if value is None:
            return None
        (hint,) = [t for t in options if t is not type(None)]
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string")
        return value
    return _number(value, where, integer=hint is int)


def _params(raw: dict, key: str, cls, top_level: tuple = ()):
    """Build dataclass `cls` from raw[key]; a value out of range is a ConfigError.

    The section accepts exactly the fields of `cls`, except those named
    in `top_level`, which are read from the top level instead. Omitted
    fields keep the dataclass defaults.
    """
    hints = _hints(cls)
    names = {f.name for f in dataclasses.fields(cls)} - set(top_level)
    given = {name: _typed(value, hints[name], f"{key}.{name}")
             for name, value in _section(raw, key, names).items()}
    given.update((name, _typed(raw[name], hints[name], name))
                 for name in top_level if name in raw)
    try:
        return cls(**given)
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from e


def _json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise ConfigError("JSON nested too deeply") from e


def parse_config(text: str, name: str = "scenario") -> ScenarioConfig:
    """Parse and fully validate a scenario; defaults applied to omissions."""
    raw = _json(text)
    if not isinstance(raw, dict):
        raise ConfigError("top level must be an object")
    _reject_unknown(raw, _TOP_KEYS, "top level")

    if "grid" not in raw:
        raise ConfigError("missing required section 'grid'")
    grid = _section(raw, "grid", {"nx", "ny"})
    if "nx" not in grid or "ny" not in grid:
        raise ConfigError("grid.nx and grid.ny are required")
    nx = _number(grid["nx"], "grid.nx", integer=True)
    ny = _number(grid["ny"], "grid.ny", integer=True)
    if nx < 3 or ny < 3:
        raise ConfigError("grid.nx and grid.ny must be >= 3")

    obstacles = raw.get("obstacles", [])
    if not isinstance(obstacles, list):
        raise ConfigError("obstacles must be a list of rectangles")
    rects = []
    for i, rect in enumerate(obstacles):
        if not isinstance(rect, list) or len(rect) != 4:
            raise ConfigError(f"obstacles[{i}] must be [x0, y0, x1, y1] integers")
        rects.append(tuple(_number(v, f"obstacles[{i}][{j}]", integer=True)
                           for j, v in enumerate(rect)))

    start = raw.get("start")
    if start is not None:
        start = _coord(start, "start")

    if "target" not in raw or raw["target"] is None:
        raise ConfigError("missing required field 'target'")
    target = raw["target"]
    if isinstance(target, list) and target and isinstance(target[0], list):
        targets = [_coord(t, f"target[{i}]") for i, t in enumerate(target)]
    else:
        targets = [_coord(target, "target")]
    if len(targets) > 1 and start is not None:
        raise ConfigError("multiple targets require start: null")

    synapse = _params(raw, "synapse", SynapseConfig, top_level=("mode", "seed"))
    attractor = _params(raw, "attractor", AttractorParams)
    coupling = _params(raw, "coupling", CouplingParams,
                       top_level=("max_steps",))

    out = _section(raw, "output", _OUTPUT_KEYS)
    frame_stride = _number(out.get("frame_stride", 0), "output.frame_stride",
                           integer=True)
    if frame_stride < 0:
        raise ConfigError("output.frame_stride must be >= 0")
    out_dir = out.get("directory", "out")
    if not isinstance(out_dir, str):
        raise ConfigError("output.directory must be a string")
    if not out_dir:
        raise ConfigError("output.directory must not be empty")
    if "\0" in out_dir:
        raise ConfigError("output.directory must not contain a NUL character")

    _check_size(nx, ny, synapse)
    try:
        m = build_manifold(nx, ny, rects)
    except ValueError as e:
        raise ConfigError(f"obstacles: {e}") from e
    cfg = ScenarioConfig(
        start=start, targets=targets, synapse=synapse,
        attractor=attractor, coupling=coupling, frame_stride=frame_stride,
        out_dir=out_dir, name=name, manifold=m)
    _validate_geometry(cfg)
    return cfg


def _check_size(nx: int, ny: int, synapse: SynapseConfig) -> None:
    """Reject a scenario whose tables would exceed MAX_ENTRIES.

    A synapse table holds at most nx * ny * (2 ceil(r) + 1)^2 entries for
    the larger kernel radius r (capped at nx + ny, as in the wave layer);
    the attractor's kernel factors hold nx^2 + ny^2.
    """
    r = min(max(synapse.d_e, synapse.d_i), nx + ny)
    entries = nx * ny * (2 * math.ceil(r) + 1) ** 2 + nx ** 2 + ny ** 2
    if entries > MAX_ENTRIES:
        raise ConfigError(
            f"a {nx}x{ny} grid with synapse range {r:g} needs about "
            f"{entries:.3g} table entries, more than the limit {MAX_ENTRIES:.3g}")


def _validate_geometry(cfg: ScenarioConfig) -> None:
    m = cfg.manifold
    for i, (tx, ty) in enumerate(cfg.targets):
        where = "target" if len(cfg.targets) == 1 else f"target[{i}]"
        if not (0 <= tx < m.nx and 0 <= ty < m.ny):
            raise ConfigError(f"{where} is outside the grid")
        if m.is_blocked(m.index(tx, ty)):
            raise ConfigError(f"{where} lies inside an obstacle")
    if cfg.start is not None:
        sx, sy = cfg.start
        if not (0 <= sx < m.nx and 0 <= sy < m.ny):
            raise ConfigError("start is outside the grid")
        if m.is_blocked(m.index(sx, sy)):
            raise ConfigError("start lies inside an obstacle")
        gap = euclidean_distance(m, m.index(sx, sy), m.index(*cfg.targets[0]))
        if gap <= cfg.coupling.arrival_radius:
            raise ConfigError("start lies within coupling.arrival_radius "
                              "of the target")


def scenario_name(path) -> str:
    """Scenario name for a config file: its base name without ".cfg"."""
    name = os.path.basename(os.fspath(path))
    return name[:-4] if name.endswith(".cfg") else name


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config(text, name=scenario_name(path))


def apply_overrides(raw_text: str, overrides: list[str]) -> str:
    """Apply `section.key=value` strings onto raw JSON config text.

    Values are parsed as JSON, falling back to bare strings. Returns
    the updated JSON text; key validation happens in parse_config.
    """
    data = _json(raw_text)
    if not isinstance(data, dict):
        raise ConfigError("top level must be an object")
    # JSON nested to the interpreter's recursion limit fails in json.loads
    # or, a level or two shallower, in json.dumps; neither is a bare string
    try:
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override {item!r} is not of the form key=value")
            dotted, value = item.split("=", 1)
            try:
                parsed = json.loads(value)
            except json.JSONDecodeError:
                parsed = value
            node = data
            parts = dotted.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
                if not isinstance(node, dict):
                    raise ConfigError(f"override {item!r} descends into a non-object")
            node[parts[-1]] = parsed
        return json.dumps(data)
    except RecursionError as e:
        raise ConfigError("JSON nested too deeply") from e
