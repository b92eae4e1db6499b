"""Benchmark workloads and their config generator.

Each workload is a fixed set of experiment kinds run in one process at a
fixed PRUNELAB_WORKERS.  The workload seed only picks the base seed of each
kind's config; sizes, trial counts and row lists are the same for every
seed, so run time does not depend on the seed and runs with different seeds
measure the same amount of work.  The program under test only ever sees the
generated config files (`--config`): the CLI's `--seed`/`--trials` flags are
avoided because it rejects `--trials` for the sweeps and `bounds` rejects a
`seed` field.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Configs built with this workload seed are the ones whose reports are
# stored under reference/; every run checks them once before timing.
REFERENCE_SEED = 0

_SQRT3 = math.sqrt(3.0)

_ORDER_STAT_CASES = [
    [4, 1, 1], [4, 4, 1], [4, 2, 2],
    [16, 1, 1], [16, 8, 1], [16, 16, 2],
    [64, 4, 1], [64, 32, 2], [64, 64, 1],
    [256, 16, 1], [256, 128, 2], [256, 256, 1],
    [1024, 1, 1], [1024, 32, 1], [1024, 512, 2], [1024, 1024, 1],
    [4096, 64, 1], [4096, 1024, 1], [4096, 2048, 2], [4096, 4096, 2],
]

# Per-kind config bodies without the seed field.  Row lists keep both sides
# of any SVD size cutoff (n=32 ... 512); trial counts give table2/table3 four
# 25-trial blocks, two per worker at PRUNELAB_WORKERS=2.
_BODIES = {
    "table2": {
        "rows": [[32, 32, 1.0], [32, 32, _SQRT3], [128, 128, 1.0], [512, 512, _SQRT3]],
        "trials": 100,
    },
    "table3": {
        "rows": [[32, "uniform", 1.0, None], [128, "gaussian", 1.0, None], [256, "gaussian", 1.0, 0.5]],
        "trials": 100,
    },
    "fcn-sweep": {
        "widths": [64, 128, 256],
        "scheme": "magnitude-layerwise",
        "trials": 25,
        "samples": 1000,
    },
    "cnn-sweep": {
        "channels": [16, 32, 64],
        "spatial": 8,
        "trials": 2,
        "samples": 1000,
    },
    "order-stats": {"cases": _ORDER_STAT_CASES, "trials": 4000},
    "balls-bins": {"cases": [[4, 8], [32, 111], [64, 267]], "trials": 10000},
    "circulant-equiv": {"instances": 50, "max_channels": 3, "max_spatial": 8},
    "oracle-suite": {"trials": 5000},
    "bounds": {},
}

# Kinds that keep the program's default seed whatever the workload seed.
# bounds is closed-form and rejects a seed field.  circulant-equiv and
# oracle-suite check the power iteration on random circulant maps, and it
# raises ConvergenceError (exit 3, no report) for about one instance set in
# five: 12 of workload seeds 0-59 for circulant-equiv, 5 for oracle-suite.
# Until that defect is fixed they run the default instance set, on which the
# program succeeds; their cost does not depend on the seed.
_DEFAULT_SEED_KINDS = {"bounds", "circulant-equiv", "oracle-suite"}


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple
    workers: int
    work_unit: str
    # {kind: list field}: one unit of work is one trial of one entry of that list
    work_lists: dict
    why: str

    @property
    def description(self) -> str:
        """The one-line reason BENCHMARK.json gives for this workload."""
        return f"{self.why}; trials_per_s counts {self.work_unit}"

    def work(self, configs: dict) -> int:
        """Units of work one pass over the workload does (numerator of trials_per_s)."""
        return sum(len(configs[k][field]) * configs[k]["trials"] for k, field in self.work_lists.items())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tables", ("table2", "table3"), 2, "matrices normed", {"table2": "rows", "table3": "rows"},
            "table2+table3 at 2 workers, n=32..512: LAPACK SVD bound, shows worker x BLAS oversubscription",
        ),
        Workload(
            "fcn-sweep", ("fcn-sweep",), 1, "network trials", {"fcn-sweep": "widths"},
            "FCN sweep, magnitude-layerwise, widths 64/128/256, sphere: SVD, forward passes, argsort masks",
        ),
        Workload(
            "cnn-sweep", ("cnn-sweep",), 1, "network trials", {"cnn-sweep": "channels"},
            "CNN sweep, channels 16/32/64, p=8, cube: FFT convolutions of the gap estimator, explicit-map SVD at d=16",
        ),
        Workload(
            "monte-carlo", ("order-stats", "balls-bins", "circulant-equiv", "oracle-suite", "bounds"), 1,
            "order-statistic draws", {"order-stats": "cases"},
            "order-stats to n=4096, balls-bins, circulant-equiv, oracle-suite, bounds: RNG and partition, no gap work",
        ),
    )
}


def kind_seed(workload: str, kind: str, seed: int) -> int:
    """Base seed of one kind's config, a pure function of (workload, kind, seed)."""
    digest = hashlib.sha256(f"{workload}/{kind}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def build_configs(workload: str, seed: int) -> dict:
    """{kind: config dict} for one workload and workload seed."""
    configs = {}
    for kind in WORKLOADS[workload].kinds:
        cfg = json.loads(json.dumps(_BODIES[kind]))
        if kind not in _DEFAULT_SEED_KINDS:
            cfg["seed"] = kind_seed(workload, kind, seed)
        configs[kind] = cfg
    return configs


def write_configs(workload: str, seed: int, directory: Path) -> dict:
    """Write each kind's config as <directory>/<kind>.json; returns {kind: path}."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for kind, cfg in build_configs(workload, seed).items():
        path = directory / f"{kind}.json"
        path.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
        paths[kind] = str(path)
    return paths
