"""Command line entry point.

One subcommand per experiment kind; common flags select the config file,
seed, trial count, output path, and format.  The PRUNELAB_WORKERS
environment variable sets the worker count and never affects results.

Exit codes: 0 success, 1 config error, 2 oracle or acceptance failure,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    EXPERIMENT_KINDS,
    ConfigError,
    default_config,
    load_config,
    run_experiment,
    write_report,
)
from .linalg import ConvergenceError
from .parallel import resolve_workers


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunelab",
        description="Prune randomly synthesized networks and verify the bound machinery empirically.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", metavar="PATH", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="base seed override")
        p.add_argument("--trials", type=int, default=None, help="trial count override")
        p.add_argument("--out", metavar="PATH", default=None, help="report file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        if "trials" not in default_config(args.kind):
            print(f"error: --trials does not apply to {args.kind}", file=sys.stderr)
            return 1
        overrides["trials"] = args.trials
    try:
        cfg = load_config(args.kind, args.config, overrides)
        report = run_experiment(args.kind, cfg, resolve_workers())
        text = write_report(report, args.out, args.format)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    if args.out is None:
        sys.stdout.write(text)
    failed = report.summary.get("all_pass") is False
    if args.kind == "oracle-suite" and failed:
        print("oracle-suite: FAIL", file=sys.stderr)
        return 2
    if failed:
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
