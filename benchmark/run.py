"""wavenav benchmark: one workload, measured for a fixed time.

    python3 benchmark/run.py --workload maze41 --seed 1 --seconds 15 --trace 0

Runs whole rounds of the workload's `wavenav` commands in-process, through
`wavenav.cli.main`, until --seconds have passed (at least two rounds), then
checks every round's outputs and prints one JSON object as the last line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
With --trace 1, untraced and traced rounds alternate, so that the traced
round's extra wall time gives trace.overhead_s.

The program is imported from src/ of the checkout that holds this file.
Outputs go to .bench_out/ there and are deleted after each round, except
the spans of a traced run (.bench_out/spans-<workload>.json).
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

from spans import SetupClock, Tracer, layer_metrics
from workloads import SWEEP_SEEDS, WORKLOADS, Tally

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# medians, setup_s included, need more than one sample
MIN_ROUNDS = 2


def _import_program():
    """wavenav.cli from this checkout's src/; exits with status 1 without it."""
    if not os.path.isfile(os.path.join(SRC, "wavenav", "cli.py")):
        sys.exit(f"benchmark: no program at {SRC}/wavenav")
    sys.path.insert(0, SRC)
    from wavenav import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: wavenav imported from {cli.__file__}, not {SRC}")
    return cli


def _units() -> dict[str, str]:
    """Unit of every metric, by name, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def _seed_range(spec: str) -> str:
    lo, sep, hi = spec.partition("..")
    if not (sep and lo.isdigit() and hi.isdigit() and int(lo) <= int(hi)):
        raise argparse.ArgumentTypeError(f"expected A..B with A <= B, got {spec!r}")
    return spec


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="orders the workload's commands; outputs do not depend on it")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sweep-seeds", default=SWEEP_SEEDS, metavar="A..B",
                   type=_seed_range,
                   help=f"sweep_het seed range (default {SWEEP_SEEDS})")
    return p.parse_args(argv)


@dataclass
class Round:
    traced: bool
    wall: float    # seconds from the first command's start to the last's end
    setup: float   # summed SetupClock windows
    tally: Tally
    spans: list | None


def _run_round(cli, workload, round_dir: str, setup, tracer) -> Round:
    """Run the workload's commands once, then check what they wrote."""
    commands = workload.commands(round_dir)
    main = cli.main
    if tracer is not None:
        tracer.spans = []
        main = tracer.wrap("cli.main", cli.main)
        tracer.install()
    setup.take()
    codes = []
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for command in commands:
                codes.append(main(command.argv))
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    setup_s = setup.take()
    tally = Tally()
    for command, code in zip(commands, codes):
        tally.add(command.check(code))
    shutil.rmtree(round_dir, ignore_errors=True)
    return Round(tracer is not None, wall, setup_s, tally,
                 tracer.spans if tracer is not None else None)


def main(argv=None) -> int:
    args = _parse_args(argv)
    cli = _import_program()
    units = _units()

    out_root = os.path.join(ROOT, ".bench_out")
    work_dir = os.path.join(out_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    scenario_dir = os.path.join(SRC, "wavenav", "scenarios")
    try:
        workload = WORKLOADS[args.workload](args.seed, scenario_dir, work_dir, args)
        setup = SetupClock()
        setup.install()
        rounds = []
        began = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(_run_round(
                cli, workload, os.path.join(work_dir, f"round{len(rounds)}"),
                setup, Tracer() if traced else None))
            # a traced run ends on a traced round, so rounds come in pairs
            if (len(rounds) >= MIN_ROUNDS and traced == bool(args.trace)
                    and time.perf_counter() - began >= args.seconds):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    total = Tally()
    for r in rounds:
        total.add(r.tally)
    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    first = rounds[0].tally

    print(f"{args.workload}: {len(rounds)} rounds, {total.attempted} operations, "
          f"{total.failed} failed; round walls "
          + " ".join(f"{r.wall:.3f}{'t' if r.traced else ''}" for r in rounds)
          + "; setups " + " ".join(f"{r.setup:.4f}" for r in rounds))
    for fault, n in total.known_faults.items():
        print(f"  {n} failed, known fault: {fault}")
    for problem in total.problems[:20]:
        print(f"  unexpected: {problem}", file=sys.stderr)

    if args.trace:
        per_round = [layer_metrics(r.spans) for r in traced]
        metrics = {name: statistics.median(m[name] for m in per_round)
                   for name in per_round[0]}
        metrics["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                       - statistics.median(r.wall for r in plain))
        with open(os.path.join(out_root, f"spans-{args.workload}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "span": ["name", "start", "end", "parent", "value"],
                       "rounds": [r.spans for r in traced]}, fh)
    else:
        metrics = {
            "wall_s": statistics.median(r.wall for r in plain),
            "setup_s": statistics.median(r.setup for r in plain),
            "steps_per_s": statistics.median(r.tally.steps / r.wall for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # wave_only plans no route: its ratio reads 1, and its
            # plan_steps are the mean steps of its renders
            "route_ratio": statistics.fmean(first.ratios) if first.ratios else 1.0,
            "plan_steps": statistics.fmean(first.plan_steps or [0]),
        }
    result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    for name, m in result_metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    correct = not total.problems
    print(json.dumps({"correct": correct, "attempted": total.attempted,
                      "failed": total.failed, "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
