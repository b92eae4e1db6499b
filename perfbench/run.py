"""Benchmark of the prunelab CLI: end-to-end metrics per workload, or
per-layer metrics from a traced run.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --write-reference

Run from the root of a source checkout; the package is imported from src/.
Each workload runs in its own child process (child.py) with its
PRUNELAB_WORKERS; the program only sees generated `--config` files.  Every
run first passes over the reference-seed configs and compares each report
with the stored 1-worker report in reference/, then times passes over the
seed's configs for about --seconds, checking that their digests repeat.  The
last line of stdout is the result JSON; the lines above it say what was
checked, the per-pass figures and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS
from workloads import REFERENCE_SEED, WORKLOADS, build_configs, write_configs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = ROOT / ".perfbench-work"

SETUP_PROBES = 10
MIN_PASSES = 2
TIME_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = (
    ("wall_s", "s"),
    ("trials_per_s", "1/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (program missing, child crashed or hung)."""


def _child(mode: str, plan: dict, workers: int, work: Path, deadline: float) -> dict:
    plan_path = work / f"plan-{time.monotonic_ns()}.json"
    plan["result"] = str(plan_path.with_suffix(".result.json"))
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PRUNELAB_WORKERS"] = str(workers)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the next child could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), mode, str(plan_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {mode} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(Path(plan["result"]).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Report checks
# ---------------------------------------------------------------------------

_CELL = re.compile(r"[^,=\[\]{}:\s\"]+")


def max_relative_drift(expected: str, actual: str) -> float | None:
    """Largest relative difference between corresponding numeric cells of two
    reports (summary lines included); None when their layout differs."""
    a, b = _CELL.findall(expected), _CELL.findall(actual)
    if len(a) != len(b):
        return None
    worst = 0.0
    for x, y in zip(a, b):
        if x == y:
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            return None
        scale = max(abs(fx), abs(fy))
        worst = max(worst, abs(fx - fy) / scale if math.isfinite(scale) and scale > 0 else math.inf)
    return worst


def report_shape(text: str) -> tuple:
    """(column header, number of data rows) of a CSV report."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return (lines[0], len(lines) - 1) if lines else (None, 0)


def _read(path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return None


def _drift_note(expected: str | None, path) -> str:
    actual = _read(path)
    if expected is None or actual is None:
        return "report missing"
    drift = max_relative_drift(expected, actual)
    return "layout differs" if drift is None else f"largest relative drift {drift:.3g}"


# The CLI exits 2 when a Monte Carlo acceptance check (3 standard errors)
# misses.  For a seed where that happens the report is still written and
# deterministic, so the verdict is part of the result: it must repeat in
# every pass, and the reference seed must pass, but it is not an error.
ACCEPTANCE_MISS = 2


def check_reports(kinds, workers, warmup, passes, lines) -> tuple[int, int]:
    """Check every invocation's report; returns (attempted, failed).

    An invocation fails on an exit code other than 0 (or a repeated
    ACCEPTANCE_MISS), a missing or unparseable report, columns or row count
    that differ from the stored reference, or a digest that differs from the
    stored reference (reference-seed pass) or from the first timed pass.
    The stored references come from 1-worker runs, so for a multi-worker
    workload the reference-seed check is also the byte-for-byte check of
    its workers against one worker."""
    stored = json.loads((REFERENCE_DIR / "sha256.json").read_text(encoding="utf-8"))
    by_kind = lambda p: {c["kind"]: c for c in p["invocations"]}  # noqa: E731
    attempted = failed = 0
    for kind in kinds:
        ref_text = _read(REFERENCE_DIR / f"{kind}.csv")
        ref_shape = report_shape(ref_text) if ref_text else None

        def ok(call, digest, exit_code):
            text = _read(call["report"]) if call["sha256"] else None
            return (call["exit"] == exit_code and text is not None and call["sha256"] == digest
                    and report_shape(text) == ref_shape)

        ref_call = by_kind(warmup)[kind]
        attempted += 1
        if ok(ref_call, stored.get(kind), 0):
            notes = [f"reference seed at workers={workers} matches the stored workers=1 report, sha256 {stored[kind][:12]}"]
        else:
            failed += 1
            notes = [f"reference seed MISMATCH (exit {ref_call['exit']}, {_drift_note(ref_text, ref_call['report'])})"]
        calls = [by_kind(p)[kind] for p in passes]
        first = calls[0]
        exit_code = first["exit"] if first["exit"] in (0, ACCEPTANCE_MISS) else 0
        bad = [c for c in calls if not ok(c, first["sha256"], exit_code)]
        attempted += len(calls)
        failed += len(bad)
        if bad:
            notes.append(
                f"{len(bad)}/{len(calls)} timed passes FAIL (exits {sorted({c['exit'] for c in calls})}, "
                f"{_drift_note(_read(first['report']), bad[-1]['report'])})"
            )
        else:
            notes.append(f"{len(calls)} timed passes repeat sha256 {str(first['sha256'])[:12]}")
            if exit_code == ACCEPTANCE_MISS:
                notes.append("an acceptance check misses at this seed (exit 2 in every pass)")
        lines.append(f"check {kind}: " + "; ".join(notes))
    return attempted, failed


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(workers: int, child_env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        **child_env,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "prunelab_workers": workers,
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: int, trace: bool, work: Path, lines: list) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    wl = WORKLOADS[name]
    configs = write_configs(name, seed, work / "configs")
    reference = write_configs(name, REFERENCE_SEED, work / "reference-configs")

    def probes(count):
        return [_child("probe", {"configs": configs}, wl.workers, work, deadline)["setup_s"] for _ in range(count)]

    # half the set-up probes before the timed passes and half after, so that
    # their median spans the run rather than one moment of machine load
    setup = [] if trace else probes(SETUP_PROBES // 2)
    timed = _child("run", {
        "configs": configs, "reference": reference, "seconds": seconds, "min_passes": 1 if trace else MIN_PASSES,
        "trace": trace, "out_dir": str(work / "out"),
    }, wl.workers, work, deadline)
    if not trace:
        setup += probes(SETUP_PROBES - len(setup))

    attempted, failed = check_reports(wl.kinds, wl.workers, timed["warmup"], timed["passes"], lines)
    lines.append(f"error_rate {failed}/{attempted} = {failed / attempted:.6g} fraction (failed invocations)")

    untraced = [p for p in timed["passes"] if not p["traced"]]
    for i, p in enumerate(timed["passes"]):
        tag = "traced" if p["traced"] else "untraced"
        lines.append(f"pass {i} ({tag}): wall {p['wall_s']:.4f} s, cpu {p['cpu_s']:.4f} s")
    wall = statistics.median(p["wall_s"] for p in untraced)
    if trace:
        traced = [p for p in timed["passes"] if p["traced"]]
        mid = statistics.median_low(p["wall_s"] for p in traced)
        layers = dict(next(p for p in traced if p["wall_s"] == mid)["layers"])
        layers["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - wall
        layer_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        lines.append(
            f"trace: layer self times {layer_sum:.6f} s + unattributed {layers['trace.unattributed_s']:.6f} s"
            f" = {layer_sum + layers['trace.unattributed_s']:.6f} s; traced wall {layers['trace.wall_s']:.6f} s"
            f" (median of {len(traced)} traced passes)"
        )
        metrics = {m: {"value": layers[m], "unit": unit} for m, unit, _ in LAYER_METRICS}
    else:
        cfgs = build_configs(name, seed)
        metrics = {
            "wall_s": wall,
            "trials_per_s": wl.work(cfgs) / wall,
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "peak_rss_mb": timed["peak_rss_mb"],
        }
        units = dict(END_TO_END)
        metrics = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
        lines.append(
            f"samples: {len(untraced)} timed passes, {len(setup)} setup probes; "
            f"work per pass {wl.work(cfgs)} {wl.work_unit}"
        )
    for m, v in metrics.items():
        lines.append(f"{m:36s} {v['value']:.6g} {v['unit']}")
    lines.append("env " + json.dumps(environment(wl.workers, timed["env"]), sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def write_reference(work: Path) -> int:
    """Regenerate reference/: every kind at the reference seed, one worker
    (the multi-worker check of a run relies on the one worker)."""
    deadline = time.monotonic() + 1800.0
    digests = {}
    for name, wl in WORKLOADS.items():
        configs = write_configs(name, REFERENCE_SEED, work / name)
        result = _child("run", {
            "configs": configs, "reference": {}, "seconds": 0, "min_passes": 1, "trace": False,
            "out_dir": str(work / name / "out"),
        }, 1, work, deadline)
        for call in result["passes"][0]["invocations"]:
            if call["exit"] != 0 or call["sha256"] is None:
                print(f"{call['kind']}: exit {call['exit']}, no reference written", file=sys.stderr)
                return 1
            shutil.copyfile(call["report"], REFERENCE_DIR / f"{call['kind']}.csv")
            digests[call["kind"]] = call["sha256"]
            print(f"{call['kind']}: {call['sha256']}")
    (REFERENCE_DIR / "sha256.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true", help="regenerate reference/ and exit")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "prunelab" / "cli.py").is_file():
        print(f"error: no prunelab source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    work = WORK_DIR / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_reference:
            return write_reference(work)
        lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}"]
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work, lines)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
