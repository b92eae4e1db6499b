"""Benchmark child process: runs one workload through the CLI entry point.

    python3 child.py probe PLAN   time a fresh import of prunelab.cli plus
                                  loading the workload's configs
    python3 child.py run PLAN     one warm-up pass over the reference-seed
                                  configs, then timed passes for the plan's
                                  seconds (alternating untraced and traced
                                  passes when the plan asks for a trace)

PLAN is a JSON file written by run.py; results go to the file it names.
run.py starts this script with PYTHONPATH at the package source and
PRUNELAB_WORKERS set for the workload, so this process is the measured one:
its CPU time and peak RSS are the workload's.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _invoke(main, kind: str, config: str, out: Path, tracer=None) -> dict:
    """One CLI call; a report left over from an earlier call cannot pass for this one."""
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    argv = [kind, "--config", config, "--out", str(out)]
    cpu0 = _cpu_s()
    t0 = time.perf_counter_ns()
    try:
        code = main(argv) if tracer is None else tracer.invoke(main, argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = -1
    wall = (time.perf_counter_ns() - t0) / 1e9
    cpu = _cpu_s() - cpu0
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.is_file() else None
    return {"kind": kind, "exit": code, "wall_s": wall, "cpu_s": cpu, "sha256": digest, "report": str(out)}


def _pass(main, configs: dict, out_dir: Path, tracer=None) -> dict:
    calls = [_invoke(main, kind, cfg, out_dir / f"{kind}.csv", tracer) for kind, cfg in configs.items()]
    return {
        "traced": tracer is not None,
        "wall_s": sum(c["wall_s"] for c in calls),
        "cpu_s": sum(c["cpu_s"] for c in calls),
        "invocations": calls,
    }


def _env() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        pass
    return {"numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def run(plan: dict) -> dict:
    from prunelab.cli import main

    out_root = Path(plan["out_dir"])
    warmup = _pass(main, plan["reference"], out_root / "reference") if plan["reference"] else None
    seconds, min_passes = plan["seconds"], plan["min_passes"]
    tracer = None
    if plan["trace"]:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(_pass(main, plan["configs"], out_root / f"pass{len(passes)}"))
        if tracer is not None:
            with tracer:
                traced = _pass(main, plan["configs"], out_root / f"pass{len(passes)}", tracer)
            traced["layers"] = layer_metrics(tracer.spans)
            tracer.spans.clear()
            passes.append(traced)
        elapsed = time.perf_counter() - t0
        rounds = len(passes) // (2 if tracer else 1)
        # stop where the run ends closest to `seconds`
        if rounds >= min_passes and elapsed * (rounds + 0.5) / rounds > seconds:
            break
    return {
        "warmup": warmup,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _env(),
    }


def probe(plan: dict) -> dict:
    t0 = time.perf_counter()
    import prunelab.cli  # noqa: F401  (the import is what is timed)
    from prunelab.harness import load_config

    for kind, cfg in plan["configs"].items():
        load_config(kind, cfg)
    return {"setup_s": time.perf_counter() - t0}


def main(argv) -> int:
    mode, plan_path = argv
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    result = probe(plan) if mode == "probe" else run(plan)
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
