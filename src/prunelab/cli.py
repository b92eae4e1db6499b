"""Command line entry point.

The experiment kind is the one positional argument; flags, the same for
every kind, select the config file, seed, trial count, output path, and
format.  The PRUNELAB_WORKERS environment variable sets the worker count
and never affects results.

Exit codes: 0 success, 1 usage or config error, unwritable report path or
a config too large for memory (one `error:` line on stderr), 2 oracle or
acceptance failure, 3 numerical non-convergence.
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
    argparse's usage block and exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prunelab",
        description="Prune randomly synthesized networks and verify the bound machinery empirically.",
    )
    # every kind takes the same flags, so one parser serves them all
    parser.add_argument("kind", choices=EXPERIMENT_KINDS, help="the experiment to run")
    parser.add_argument("--config", metavar="PATH", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="base seed override")
    parser.add_argument("--trials", type=int, default=None, help="trial count override")
    parser.add_argument("--out", metavar="PATH", default=None, help="report file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _check_out(path: str) -> None:
    """Raise ConfigError, before the experiment runs, if a report cannot be written to `path`."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write report {path}: is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write report {path}: no directory {parent}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        workers = resolve_workers()
        if args.out is not None:
            _check_out(args.out)
        overrides = {field: value for field in ("seed", "trials") if (value := getattr(args, field)) is not None}
        for field in overrides:
            if field not in default_config(args.kind):
                raise ConfigError(f"--{field} does not apply to {args.kind}")
        report = run_experiment(args.kind, load_config(args.kind, args.config, overrides), workers)
        try:
            text = write_report(report, args.out, args.format)
        except OSError as exc:
            raise ConfigError(f"cannot write report {args.out}: {exc}") from exc
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    if args.out is None:
        sys.stdout.write(text)
    if report.summary.get("all_pass") is False:
        print(f"{args.kind}: FAIL", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
