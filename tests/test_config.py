import dataclasses
import json
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavenav.attractor import AttractorParams
from wavenav.config import (ConfigError, ScenarioConfig, apply_overrides,
                            load_config, parse_config)
from wavenav.planner import CouplingParams
from wavenav.runner import run_scenario
from wavenav.wave import SynapseConfig

MINIMAL = '{"grid": {"nx": 41, "ny": 41}, "start": [4, 4], "target": [36, 36]}'


def test_minimal_config_gets_all_defaults():
    cfg = parse_config(MINIMAL)
    assert (cfg.manifold.nx, cfg.manifold.ny) == (41, 41)
    assert cfg.start == (4, 4) and cfg.targets == [(36, 36)]
    assert cfg.synapse.mode == "homogeneous" and cfg.synapse.seed is None
    assert cfg.coupling.max_steps == 1000
    assert cfg.synapse.s_ee_max == 50.0
    assert cfg.synapse.d_e == 2.0 and cfg.synapse.d_i == 2.0
    assert cfg.synapse.substeps == 2 and cfg.synapse.v_floor == -90.0
    assert cfg.synapse.stim_dc == 25.0
    assert cfg.attractor.J == 12.0 and cfg.attractor.sigma == 0.03
    assert cfg.attractor.T == 0.05
    assert cfg.coupling.R == 12 and cfg.coupling.arrival_radius == 2.0
    assert cfg.frame_stride == 0 and cfg.out_dir == "out"


def test_unknown_keys_rejected_with_location():
    raw = json.loads(MINIMAL)
    raw["attractor"] = {"sigmaa": 0.03}
    with pytest.raises(ConfigError, match="sigmaa.*attractor"):
        parse_config(json.dumps(raw))
    raw = json.loads(MINIMAL)
    raw["speed"] = 3
    with pytest.raises(ConfigError, match="speed.*top level"):
        parse_config(json.dumps(raw))
    raw = json.loads(MINIMAL)
    raw["attractor"] = {"tau": 0.8}
    with pytest.raises(ConfigError, match="tau.*attractor"):
        parse_config(json.dumps(raw))


def test_syntax_error_reports_line_and_column():
    with pytest.raises(ConfigError, match=r"line 3, column 3"):
        parse_config('{\n"grid": {"nx": 5, "ny": 5},\n  target: [1, 1]\n}')


def test_start_inside_obstacle_names_the_field():
    raw = json.loads(MINIMAL)
    raw["obstacles"] = [[3, 3, 6, 6]]
    with pytest.raises(ConfigError, match="start.*obstacle"):
        parse_config(json.dumps(raw))


def test_target_geometry_checks():
    raw = json.loads(MINIMAL)
    raw["target"] = [80, 80]
    with pytest.raises(ConfigError, match="target.*outside"):
        parse_config(json.dumps(raw))
    raw = json.loads(MINIMAL)
    raw["obstacles"] = [[34, 34, 38, 38]]
    with pytest.raises(ConfigError, match="target.*obstacle"):
        parse_config(json.dumps(raw))


def test_missing_required_fields():
    with pytest.raises(ConfigError, match="grid"):
        parse_config('{"target": [1, 1]}')
    with pytest.raises(ConfigError, match="target"):
        parse_config('{"grid": {"nx": 5, "ny": 5}}')


def test_multiple_targets_require_wave_only():
    raw = json.loads(MINIMAL)
    raw["target"] = [[4, 10], [30, 10]]
    with pytest.raises(ConfigError, match="start"):
        parse_config(json.dumps(raw))
    raw["start"] = None
    cfg = parse_config(json.dumps(raw))
    assert cfg.targets == [(4, 10), (30, 10)]


def test_type_checks():
    raw = json.loads(MINIMAL)
    raw["max_steps"] = "many"
    with pytest.raises(ConfigError, match="max_steps"):
        parse_config(json.dumps(raw))
    raw = json.loads(MINIMAL)
    raw["seed"] = True
    with pytest.raises(ConfigError, match="seed"):
        parse_config(json.dumps(raw))
    raw = json.loads(MINIMAL)
    raw["coupling"] = {"R": 2.5}
    with pytest.raises(ConfigError, match="R.*integer"):
        parse_config(json.dumps(raw))
    raw = json.loads(MINIMAL)
    raw["synapse"] = {"metric": "polar"}
    with pytest.raises(ConfigError, match="metric"):
        parse_config(json.dumps(raw))


def test_null_hold_means_r():
    raw = json.loads(MINIMAL)
    raw["coupling"] = {"R": 8, "hold": None}
    assert parse_config(json.dumps(raw)).coupling.hold == 8


def test_invalid_parameter_combinations():
    raw = json.loads(MINIMAL)
    raw["coupling"] = {"R": 4, "hold": 9}
    with pytest.raises(ConfigError, match="hold"):
        parse_config(json.dumps(raw))
    raw = json.loads(MINIMAL)
    raw["attractor"] = {"sigma": -1.0}
    with pytest.raises(ConfigError, match="sigma"):
        parse_config(json.dumps(raw))
    raw = json.loads(MINIMAL)
    raw["synapse"] = {"substeps": 0}
    with pytest.raises(ConfigError, match="synapse: substeps"):
        parse_config(json.dumps(raw))


@pytest.mark.parametrize("key,value,match", [
    ("coupling", {"arrival_radius": float("nan")}, "arrival_radius.*finite"),
    ("synapse", {"v_floor": float("nan")}, "v_floor.*finite"),
    ("synapse", {"stim_dc": float("inf")}, "stim_dc.*finite"),
    ("synapse", {"d_e": 10 ** 400}, "d_e.*finite"),
    ("grid", 5, "grid must be an object"),
    ("synapse", 3, "synapse must be an object"),
    ("seed", -1, "seed must be >= 0"),
    # old scenarios' jitter keys fail loudly
    ("attractor", {"jitter_seed": -1}, "unknown key 'jitter_seed' in 'attractor'"),
    ("start", [36, 36], "start lies within coupling.arrival_radius"),
    ("start", [35, 35], "start lies within coupling.arrival_radius"),
    ("coupling", {"arrival_radius": 1e300}, "start lies within"),
    ("attractor", {"seed_radius": 0}, "attractor: seed_radius must be positive"),
    ("attractor", {"sigma": 1e-200}, "attractor: sigma .* underflows"),
    ("mode", "chaotic", "synapse: mode must be homogeneous or heterogeneous"),
    ("output", {"directory": ""}, "output.directory must not be empty"),
    # JSON booleans are not integers, though Python's bool is an int
    ("start", [True, 4], r"start\[0\] must be a number"),
    ("target", [36, True], r"target\[1\] must be a number"),
    ("obstacles", [[False, 8, True, 9]], r"obstacles\[0\]\[0\] must be a number"),
    ("output", {"directory": "a\u0000b"}, "output.directory must not .* NUL"),
    ("attractor", {"jitter_mag": 0.01}, "unknown key 'jitter_mag' in 'attractor'"),
    # the floor is always on
    ("synapse", {"v_floor": None}, "synapse.v_floor must be a number"),
])
def test_malformed_values_are_config_errors(key, value, match):
    raw = json.loads(MINIMAL)
    raw[key] = value
    with pytest.raises(ConfigError, match=match):
        parse_config(json.dumps(raw))


@pytest.mark.parametrize("extra", [
    {"grid": {"nx": 100000, "ny": 100000}},
    {"grid": {"nx": 201, "ny": 201}, "synapse": {"d_e": 1e9}},
    # small synapse tables, but kernel factors of 10^10 entries
    {"grid": {"nx": 100000, "ny": 3}, "start": [4, 1], "target": [36, 1],
     "synapse": {"d_e": 1.0, "d_i": 1.0}},
])
def test_oversized_scenarios_are_config_errors(extra):
    raw = dict(json.loads(MINIMAL), **extra)
    with pytest.raises(ConfigError, match="more than the limit"):
        parse_config(json.dumps(raw))
    raw["grid"] = {"nx": 201, "ny": 201}
    raw["synapse"] = {"d_e": 8.0}
    assert parse_config(json.dumps(raw)).manifold.nx == 201


def test_max_steps_reaches_the_coupling_budget():
    raw = json.loads(MINIMAL)
    raw["max_steps"] = 77
    cfg = parse_config(json.dumps(raw))
    assert cfg.coupling.max_steps == 77


def test_heterogeneous_without_seed_fails_at_run_time():
    raw = json.loads(MINIMAL)
    raw["mode"] = "heterogeneous"
    cfg = parse_config(json.dumps(raw))  # parses fine, seed may come later
    with pytest.raises(ConfigError, match="seed"):
        run_scenario(cfg)


def test_apply_overrides():
    text = apply_overrides(MINIMAL, ["coupling.R=9", "seed=4",
                                     "synapse.metric=euclid"])
    cfg = parse_config(text)
    assert cfg.coupling.R == 9
    assert cfg.synapse.seed == 4
    assert cfg.synapse.metric == "euclid"
    with pytest.raises(ConfigError, match="form"):
        apply_overrides(MINIMAL, ["coupling.R"])
    with pytest.raises(ConfigError, match="non-object"):
        apply_overrides(MINIMAL, ["grid.nx.deep=1"])
    with pytest.raises(ConfigError, match="line"):
        apply_overrides("{not json", ["seed=1"])
    with pytest.raises(ConfigError, match="top level"):
        apply_overrides("[1, 2]", ["seed=3"])


def test_load_config_names_after_the_file(tmp_path):
    path = tmp_path / "my_run.cfg"
    path.write_text(MINIMAL)
    assert load_config(path).name == "my_run"


def test_a_second_parse_evaluates_no_annotations(monkeypatch):
    text = json.dumps({**json.loads(MINIMAL), "synapse": {"d_e": 3},
                       "attractor": {"J": 11}, "coupling": {"R": 10}})
    first = parse_config(text)

    def evaluated(*args, **kwargs):
        raise AssertionError("field annotations evaluated again")

    monkeypatch.setattr(typing, "get_type_hints", evaluated)
    again = parse_config(text)
    assert (again.synapse, again.attractor, again.coupling) == (
        first.synapse, first.attractor, first.coupling)
    with pytest.raises(ConfigError, match="synapse.d_e must be a number"):
        parse_config(json.dumps({**json.loads(MINIMAL),
                                 "synapse": {"d_e": "far"}}))


SECTIONS = {"synapse": SynapseConfig, "attractor": AttractorParams,
            "coupling": CouplingParams}


@pytest.mark.parametrize("section,bad,match", [
    ("synapse", {"substeps": 0}, "substeps must be >= 1"),
    ("attractor", {"sigma": -1.0}, "sigma must be positive"),
    ("coupling", {"R": 0}, "R must be >= 1"),
])
def test_settings_are_valid_by_construction(section, bad, match):
    cls = SECTIONS[section]
    with pytest.raises(ValueError, match=match):
        cls(**bad)
    # the sweep's per-seed copy is checked too
    built = cls()
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(built, **bad)
    ((name, value),) = bad.items()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, name, value)
    assert built == cls()


def _field_defaults(cls) -> dict:
    return {f.name: getattr(cls(), f.name) for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_section_keys_are_the_dataclass_fields(section):
    own = set(_field_defaults(SECTIONS[section])) - {"max_steps", "mode", "seed"}
    candidates = {}
    for cls in SECTIONS.values():
        candidates.update(_field_defaults(cls))
    for key, value in sorted(candidates.items()):
        raw = json.loads(MINIMAL)
        raw[section] = {key: value}
        if key in own:
            cfg = parse_config(json.dumps(raw))
            assert getattr(getattr(cfg, section), key) == value
        else:
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(json.dumps(raw))


def json_values():
    scalars = (st.none() | st.booleans() | st.integers()
               | st.floats() | st.text(max_size=6))
    return st.recursive(
        scalars,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
        max_leaves=8)


_KEYS = ([(key,) for key in ("grid", "obstacles", "start", "target", "mode",
                              "seed", "max_steps", "synapse", "attractor",
                              "coupling", "output")]
         + [("grid", "nx"), ("grid", "ny"), ("output", "frame_stride"),
            ("output", "directory")]
         + [(section, f.name) for section, cls in SECTIONS.items()
            for f in dataclasses.fields(cls) if f.name != "max_steps"])


@st.composite
def placed_values(draw):
    """A key path of the config and a JSON value for it."""
    return draw(st.sampled_from(_KEYS)), draw(json_values())


def _parses_or_config_error(text: str) -> None:
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)


@settings(max_examples=300, deadline=None)
@given(placed_values())
def test_any_value_at_any_key_parses_or_is_a_config_error(placed):
    (*sections, key), value = placed
    raw = json.loads(MINIMAL)
    node = raw
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    _parses_or_config_error(json.dumps(raw))


@settings(max_examples=300, deadline=None)
@given(placed_values())
def test_any_override_parses_or_is_a_config_error(placed):
    path, value = placed
    try:
        text = apply_overrides(MINIMAL, [".".join(path) + "=" + json.dumps(value)])
    except ConfigError:
        return
    _parses_or_config_error(text)


@settings(max_examples=100, deadline=None)
@given(json_values())
def test_overrides_on_any_document_are_config_errors(document):
    try:
        text = apply_overrides(json.dumps(document), ["seed=3"])
    except ConfigError:
        return
    _parses_or_config_error(text)
