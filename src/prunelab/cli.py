"""Command line entry point.

One subcommand per experiment kind; common flags select the config file,
seed, trial count, output path, and format.  The PRUNELAB_WORKERS
environment variable sets the worker count and never affects results.

Exit codes: 0 success, 1 usage or config error or unwritable report path,
2 oracle or acceptance failure, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import os
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors (a bad flag value, an unknown
    or missing kind) exit 1 with one line, like a config error, instead of
    argparse's usage block and exit 2; its subparsers are of this class too."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _out_error(path: str) -> str | None:
    """Why a report cannot be written to `path`, found before the
    experiment runs, or None."""
    if os.path.isdir(path):
        return f"cannot write report {path}: is a directory"
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return f"cannot write report {path}: no directory {parent}"
    return None


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        workers = resolve_workers()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None and (reason := _out_error(args.out)):
        print(f"error: {reason}", file=sys.stderr)
        return 1
    overrides = {}
    for field in ("seed", "trials"):
        value = getattr(args, field)
        if value is None:
            continue
        if field not in default_config(args.kind):
            print(f"error: --{field} does not apply to {args.kind}", file=sys.stderr)
            return 1
        overrides[field] = value
    try:
        cfg = load_config(args.kind, args.config, overrides)
        report = run_experiment(args.kind, cfg, workers)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    try:
        text = write_report(report, args.out, args.format)
    except OSError as exc:
        print(f"error: cannot write report {args.out}: {exc}", file=sys.stderr)
        return 1
    if args.out is None:
        sys.stdout.write(text)
    if report.summary.get("all_pass") is False:
        print(f"{args.kind}: FAIL", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
