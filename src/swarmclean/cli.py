"""Command-line entry points: run, sweep, analyze.

Exit codes: 0 success, 1 configuration error (a command-line usage error
included), 2 I/O error, 3 sweep with failed runs.
"""
from __future__ import annotations

import argparse
import sys

from .engine import ConfigError
from .harness import (
    SweepFailure,
    cmd_analyze,
    cmd_run,
    cmd_sweep,
    load_plan,
    load_run_config,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_PARTIAL = 3


def _parse_snapshot_times(text: str) -> list[int]:
    try:
        return [int(v.strip()) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"invalid snapshot times {text!r}; expected comma-separated whole seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swarmclean", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation")
    p_run.add_argument("--config", required=True, help="run config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--snapshot-times", default=None, help="comma-separated seconds (default 0,1000,4000)")

    p_sweep = sub.add_parser("sweep", help="run a full experiment grid")
    p_sweep.add_argument("--plan", required=True, help="sweep plan file")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p_an = sub.add_parser("analyze", help="medians and ANOVA over a sweep directory")
    p_an.add_argument("--dir", required=True, help="sweep output directory")
    p_an.add_argument("--allow-partial", action="store_true", help="analyze despite missing runs")
    p_an.add_argument("--time-bins", type=int, default=8, help="time bins for the ANOVA time factor")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error, or the help for --help
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        if args.command == "run":
            cfg = load_run_config(args.config)
            if args.seed is not None:
                cfg.seed = args.seed  # validated with the rest of the config before the run
            snaps = _parse_snapshot_times(args.snapshot_times) if args.snapshot_times is not None else None
            out = cmd_run(cfg, args.out, snapshot_times=snaps)
            print(f"wrote {out['metrics']} and {len(out['snapshots'])} snapshot(s)")
        elif args.command == "sweep":
            plan = load_plan(args.plan)
            runs = cmd_sweep(plan, args.out, jobs=args.jobs)
            print(f"completed {len(runs)} runs into {args.out}")
        elif args.command == "analyze":
            analysis = cmd_analyze(args.dir, allow_partial=args.allow_partial, time_bins=args.time_bins)
            for label, result in analysis.items():
                if result.degenerate:
                    print(f"warning: {label} ANOVA has degenerate residual variance", file=sys.stderr)
                for e in result.effects:
                    print(f"{label} {e.name}: F={e.f_value:.3f} p={e.p_value:.3g} df=({e.df_between},{e.df_within})")
    except ValueError as exc:
        # ConfigError, DesignError, and malformed input files all land here
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SweepFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
