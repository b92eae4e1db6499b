"""The balls-bins kind's Monte Carlo kernel.

The kernel draws int32 throws and counts loads in bounded tiles.  The
oracle below is the loop it replaced, which drew int64 throws and counted a
whole chunk with one bincount; the kernel must give the same empirical
frequency bit for bit, leave the generator in the same state, and must not
allocate chunk- or bin-count-sized arrays.
"""

import time
import tracemalloc

import numpy as np
import pytest

from prunelab.sampling import SeedSpec
from prunelab.theory import _BALLS_BINS_TILE, balls_in_bins_check

SEED = SeedSpec(20260517)


def _oracle_hits(bins, balls, trials, rng):
    """The int64 chunk loop, with its one bincount split into row blocks of
    at most 2^22 counts so that the 100000-bin cases fit in memory."""
    threshold = 3.0 * balls / bins
    hits = 0
    chunk = max(1, min(trials, int(2e6) // max(balls, 1)))
    block = max(1, 2**22 // bins)
    done = 0
    while done < trials:
        b = min(chunk, trials - done)
        throws = rng.integers(0, bins, size=(b, balls))
        for lo in range(0, b, block):
            rows = throws[lo : lo + block]
            rows += np.arange(len(rows))[:, None] * bins
            counts = np.bincount(rows.ravel(), minlength=len(rows) * bins)
            maxload = counts.reshape(len(rows), bins).max(axis=1)
            hits += int(np.count_nonzero(maxload <= threshold))
        done += b
    return hits


class _Seed:
    """A SeedSpec stand-in that keeps its generator, so that the state
    after the call can be read."""

    def __init__(self, spec: SeedSpec):
        self.rng = spec.generator()

    def generator(self):
        return self.rng


def _check(bins, balls, trials):
    spec = SEED.sub(bins).sub(balls)
    seed = _Seed(spec)
    res = balls_in_bins_check(bins, balls, trials, seed)
    oracle = spec.generator()
    hits = _oracle_hits(bins, balls, trials, oracle)
    assert res["empirical"] == hits / trials
    assert seed.rng.bit_generator.state == oracle.bit_generator.state
    return hits


def _trials(bins, balls):
    """Two chunks, the second of 3 rows, so that b * balls is odd for odd
    balls and no trial count is a multiple of a chunk or a tile; one chunk
    of 2001 rows where the oracle would count more than 3e8 bins."""
    trials = int(2e6) // balls + 3
    return trials if trials * bins <= 3e8 else 2_001


# Tile rows are _BALLS_BINS_TILE // max(balls, bins) and chunk rows
# 2e6 // balls.  bins 100000 is above the tile, where loads come from sorted
# rows; with at most 1000 balls the cap 3N/n is below 1 there, so every
# trial misses, and the cases below cover hits.
BINS = [1, 3, 7, 64, 1000, 100_000]
BALLS = [1, 8, 267, 1000]


@pytest.mark.parametrize("balls", BALLS)
@pytest.mark.parametrize("bins", BINS)
def test_kernel_matches_int64_chunk_loop(bins, balls):
    _check(bins, balls, _trials(bins, balls))


@pytest.mark.parametrize(
    "bins, balls, trials",
    [
        # rows longer than the tile, counted in tile-sized pieces: 10-row
        # chunks, the last of 3
        (7, 3 * _BALLS_BINS_TILE + 5, 13),
        # above the tile with a cap of 1: 2-row tiles, the last of each
        # 91-row chunk partial
        (65_537, 21_847, 200),
    ],
)
def test_kernel_matches_int64_chunk_loop_at_edges(bins, balls, trials):
    _check(bins, balls, trials)


def test_sorted_rows_count_hits_and_misses():
    # above the tile with a cap of 18 (k = 19), hit about 3 times in 10:
    # one-row tiles in 4-row chunks, the last of 1
    hits = _check(70_000, 420_001, 21)
    assert 0 < hits < 21


def _traced_peak(bins, balls, trials) -> int:
    tracemalloc.start()
    try:
        balls_in_bins_check(bins, balls, trials, SEED)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "bins, balls, trials, limit_mb",
    [
        # the benchmark's largest case: the int64 loop's 16 MB draw plus
        # the chunk's counts peaked at about 24 MB traced
        (64, 267, 10_000, 12),
        # counts of trials x bins: the int64 loop peaked at about 40 MB
        (100_000, 10, 50, 4),
    ],
)
def test_peak_memory_is_draw_plus_tile(bins, balls, trials, limit_mb):
    assert _traced_peak(bins, balls, trials) < limit_mb * 2**20


def test_peak_memory_does_not_grow_with_bins():
    small = _traced_peak(100_000, 10, 2_000)
    large = _traced_peak(10_000_000, 10, 2_000)
    assert large - small <= 2**20, (small, large)


def test_large_case_skips_the_exact_power():
    # bins**balls here has 9.3M digits, which took 15 s to compute before
    # the exact probability's gate was bounded by the ball count
    start = time.perf_counter()
    res = balls_in_bins_check(2**31 - 1, 10**6, 1, SEED)
    assert time.perf_counter() - start < 5.0
    assert res["exact"] is None and res["empirical"] == 0.0
