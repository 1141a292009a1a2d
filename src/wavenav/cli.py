"""Command-line interface.

Subcommands:
    run <cfg>     execute a scenario, write trajectory CSV and frames
    verify <cfg>  run and compare against the BFS oracle, append report row
    sweep <cfg>   run across a seed range, outputs partitioned per seed
    render <cfg>  run with frame dumping forced on

Any config key can be overridden with --set section.key=value
(repeatable); --seed, --max-steps, --out and --frame-stride are
shortcuts for the corresponding keys.

Exit codes: 0 success or target reached, 2 step budget exhausted,
3 configuration or usage error, 4 numerical failure (bump lost, a
warm-up that leaves no single bump, or non-finite neuron state).
"""
from __future__ import annotations

import argparse
import os
import statistics
import sys

from .config import ConfigError, apply_overrides, parse_config, scenario_name
from .io import REPORT_HEADER
from .planner import BUMP_LOST, EXHAUSTED, REACHED, PlanResult
from .runner import WAVE_COMPLETED, run_scenario, verify_scenario
from .wave import NumericalError

EXIT_OK = 0
EXIT_EXHAUSTED = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4
EXIT_CODES = {REACHED: EXIT_OK, WAVE_COMPLETED: EXIT_OK,
              EXHAUSTED: EXIT_EXHAUSTED, BUMP_LOST: EXIT_NUMERICAL}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavenav",
        description="Wave-guided bump traversal scenarios on 2D lattices")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
            ("run", "execute a scenario"),
            ("verify", "execute and compare against the BFS oracle"),
            ("sweep", "execute across a seed range"),
            ("render", "execute with frame dumping forced on")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="path to a scenario .cfg (JSON)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--max-steps", type=int, default=None,
                       help="override the step budget")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--frame-stride", type=int, default=None,
                       help="dump a PGM frame every N steps")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                       dest="overrides",
                       help="override any config key, e.g. coupling.R=10")
        if name == "verify":
            p.add_argument("--report", default=None,
                           help="report CSV path (default <out>/report.csv)")
        if name == "sweep":
            p.add_argument("--seeds", required=True, metavar="A..B",
                           help="inclusive seed range, e.g. 0..9")
    return parser


def _load(args) -> "ScenarioConfig":
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.max_steps is not None:
        overrides.append(f"max_steps={args.max_steps}")
    if args.frame_stride is not None:
        overrides.append(f"output.frame_stride={args.frame_stride}")
    if overrides:
        text = apply_overrides(text, overrides)
    cfg = parse_config(text, name=scenario_name(args.config))
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


def _outcome_of(result) -> str:
    return result.outcome if isinstance(result, PlanResult) else WAVE_COMPLETED


def _cmd_run(args) -> int:
    cfg = _load(args)
    result, outputs = run_scenario(cfg, out_dir=cfg.out_dir)
    outcome = _outcome_of(result)
    print(f"{cfg.name}: {outcome}")
    if outputs.trajectory_csv:
        print(f"trajectory: {outputs.trajectory_csv}")
    return EXIT_CODES[outcome]


def _cmd_render(args) -> int:
    cfg = _load(args)
    cfg.frame_stride = cfg.frame_stride or 10
    result, outputs = run_scenario(cfg, out_dir=cfg.out_dir)
    outcome = _outcome_of(result)
    print(f"{cfg.name}: {outcome}, {len(outputs.frames)} frames")
    return EXIT_CODES[outcome]


def _cmd_verify(args) -> int:
    cfg = _load(args)
    result, row = verify_scenario(cfg, out_dir=cfg.out_dir)
    report = args.report or os.path.join(cfg.out_dir, "report.csv")
    os.makedirs(os.path.dirname(report) or ".", exist_ok=True)
    fresh = not os.path.exists(report)
    with open(report, "a", encoding="utf-8", newline="\n") as fh:
        if fresh:
            fh.write(REPORT_HEADER + "\n")
        fh.write(row + "\n")
    print(REPORT_HEADER)
    print(row)
    return EXIT_CODES[result.outcome]


def _parse_seed_range(spec: str) -> range:
    try:
        a, b = spec.split("..", 1)
        lo, hi = int(a), int(b)
    except ValueError as e:
        raise ConfigError(f"--seeds must be A..B, got {spec!r}") from e
    if hi < lo:
        raise ConfigError(f"--seeds range {spec!r} is empty")
    if lo < 0:
        raise ConfigError(f"--seeds range {spec!r} has a negative seed")
    return range(lo, hi + 1)


def _cmd_sweep(args) -> int:
    seeds = _parse_seed_range(args.seeds)
    out_root = _load(args).out_dir
    rows = []
    reached_steps = []
    for seed in seeds:
        cfg = _load(args)
        cfg.seed = seed
        result, _ = run_scenario(cfg, out_dir=os.path.join(out_root, f"seed_{seed}"))
        outcome = _outcome_of(result)
        steps = len(result.trajectory) if isinstance(result, PlanResult) else cfg.max_steps
        rows.append(f"{cfg.name},{seed},{outcome},{steps}")
        if outcome == REACHED:
            reached_steps.append(steps)
        print(f"seed {seed}: {outcome} ({steps} steps)")
    summary = os.path.join(out_root, "sweep.csv")
    os.makedirs(out_root, exist_ok=True)
    with open(summary, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("scenario,seed,outcome,steps\n")
        for row in rows:
            fh.write(row + "\n")
    print(f"reached {len(reached_steps)}/{len(rows)}"
          + (f", median steps {statistics.median(reached_steps):g}"
             if reached_steps else ""))
    return EXIT_OK if reached_steps else EXIT_EXHAUSTED


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error; 2 means "budget exhausted" here
        if e.code != 2:
            raise
        return EXIT_CONFIG
    handler = {"run": _cmd_run, "verify": _cmd_verify,
               "sweep": _cmd_sweep, "render": _cmd_render}[args.command]
    try:
        return handler(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
