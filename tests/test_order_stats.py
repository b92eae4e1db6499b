"""The order-stats kind's Monte Carlo kernel.

The kernel draws and selects in cache-sized tiles.  The oracle below is the
loop it replaced, which drew, squared and partitioned a whole summation
chunk at once; the kernel must give the same mc_mean, stderr and z bit for
bit, and must not allocate chunk-sized arrays.
"""

import math
import tracemalloc

import numpy as np
import pytest

from prunelab.harness import default_config, run_experiment
from prunelab.sampling import SeedSpec


def _oracle_row(n, r, p, a, trials, rng):
    total = 0.0
    total_sq = 0.0
    chunk = max(1, 4_000_000 // n)
    done = 0
    while done < trials:
        b = min(chunk, trials - done)
        u = rng.uniform(-a, a, size=(b, n))
        x = np.partition(u * u, r - 1, axis=1)[:, r - 1]
        vals = x if p == 1 else x**p
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += b
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    stderr = math.sqrt(var / trials)
    return mean, stderr


# (cases, trials, half_width).  Tile rows are 16384 // n (at least 1) and
# chunk rows 4_000_000 // n; no trial count is a multiple of either.  Each
# group takes r = 1, an interior r and r = n, and p = 1, 2 and 3 between
# the groups.  n = 20000 is above the tile, so each tile is one row.
GROUPS = {
    "n1": ([[1, 1, 1], [1, 1, 2], [1, 1, 3]], 20_001, 1.0),
    "n4": ([[4, 1, 2], [4, 2, 3], [4, 4, 1]], 5_003, 2.5),
    "n2048": ([[2048, 1, 3], [2048, 700, 1], [2048, 2048, 2]], 2_100, 1.0),
    "n20000": ([[20000, 1, 1], [20000, 9999, 2], [20000, 20000, 3]], 203, 0.75),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_kernel_matches_chunk_loop_bitwise(group, workers):
    cases, trials, a = GROUPS[group]
    cfg = default_config("order-stats") | {"cases": cases, "trials": trials, "half_width": a}
    report = run_experiment("order-stats", cfg, workers)
    assert list(zip(*(report.column(c) for c in ("n", "r", "p", "a")))) == [(n, r, p, a) for n, r, p in cases]
    base = SeedSpec(cfg["seed"])
    got = zip(report.column("exact"), report.column("mc_mean"), report.column("stderr"), report.column("z"))
    for i, ((n, r, p), (exact, *row)) in enumerate(zip(cases, got)):
        mean, stderr = _oracle_row(n, r, p, a, trials, base.child(i).generator())
        z = (mean - exact) / stderr if stderr > 0 else 0.0
        # exact equality of the floats, not closeness
        assert row == [mean, stderr, z], (n, r, p)


def test_kernel_peak_memory_is_tile_sized():
    # one 4096-wide case of 2000 trials: the chunk loop drew 976 x 4096
    # doubles (32 MB) at once and peaked at about 123 MB traced
    cfg = default_config("order-stats") | {"cases": [[4096, 64, 1]], "trials": 2000}
    tracemalloc.start()
    try:
        run_experiment("order-stats", cfg, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
