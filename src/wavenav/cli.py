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
3 configuration or usage error (also an output path that cannot be
written, or a write or close that fails, as on a full disk), 4
numerical failure (bump lost, a warm-up that leaves no single bump, or
non-finite neuron state). A sweep exits 0 if any of its runs succeeds;
otherwise it exits with the highest code among its runs' outcomes (4
if any run lost the bump, else 2).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys

from . import io as iomod
from .config import ConfigError, apply_overrides, parse_config, scenario_name
from .planner import BUMP_LOST, EXHAUSTED, REACHED
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
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config: {e}") from e
    shortcuts = {"seed": args.seed, "max_steps": args.max_steps,
                 "output.directory": args.out,
                 "output.frame_stride": args.frame_stride}
    overrides = args.overrides + [f"{key}={json.dumps(value)}"
                                  for key, value in shortcuts.items()
                                  if value is not None]
    if overrides:
        text = apply_overrides(text, overrides)
    return parse_config(text, name=scenario_name(args.config))


def _exit_code(record) -> int:
    """The exit code of a run's outcome; a lost bump's reason goes to stderr."""
    if record.lost:
        print(f"bump lost: {record.lost}", file=sys.stderr)
    return EXIT_CODES[record.outcome]


def _cmd_run(args) -> int:
    cfg = _load(args)
    _, record = run_scenario(cfg, out_dir=cfg.out_dir)
    print(f"{record.name}: {record.outcome}")
    if record.trajectory_csv:
        print(f"trajectory: {record.trajectory_csv}")
    return _exit_code(record)


def _cmd_render(args) -> int:
    cfg = _load(args)
    cfg.frame_stride = cfg.frame_stride or 10
    _, record = run_scenario(cfg, out_dir=cfg.out_dir)
    print(f"{record.name}: {record.outcome}, {len(record.frames)} frames")
    return _exit_code(record)


def _cmd_verify(args) -> int:
    cfg = _load(args)
    _, record = verify_scenario(cfg, out_dir=cfg.out_dir)
    row = iomod.report_row(record)
    report = args.report or os.path.join(cfg.out_dir, "report.csv")
    with iomod.open_output(report, "ab") as fh:
        # an empty report file, new or not, gets the header first; a pipe
        # cannot tell its position and gets the row alone
        empty = fh.seekable() and fh.tell() == 0
        header = iomod.REPORT_HEADER + "\n" if empty else ""
        fh.write((header + row + "\n").encode("utf-8"))
    print(iomod.REPORT_HEADER)
    print(row)
    return _exit_code(record)


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
    base = _load(args)
    out_root = base.out_dir
    # a wave-only config (no start) succeeds by completing its steps
    success = WAVE_COMPLETED if base.start is None else REACHED
    rows = ["scenario,seed,outcome,steps"]
    done_steps = []
    exit_code = EXIT_OK
    for seed in seeds:
        cfg = dataclasses.replace(
            base, synapse=dataclasses.replace(base.synapse, seed=seed))
        _, record = run_scenario(cfg, out_dir=os.path.join(out_root, f"seed_{seed}"))
        rows.append(f"{iomod.csv_field(record.name)},{seed},{record.outcome},"
                    f"{record.steps}")
        if record.outcome == success:
            done_steps.append(record.steps)
        print(f"seed {seed}: {record.outcome} ({record.steps} steps)")
        exit_code = max(exit_code, _exit_code(record))
    with iomod.open_output(os.path.join(out_root, "sweep.csv"), "wb") as fh:
        fh.write("".join(row + "\n" for row in rows).encode("utf-8"))
    print(f"{success} {len(done_steps)}/{len(seeds)}"
          + (f", median steps {statistics.median(done_steps):g}"
             if done_steps else ""))
    return EXIT_OK if done_steps else exit_code


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
