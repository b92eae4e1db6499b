"""The balls-bins kind's Monte Carlo kernel.

The kernel draws int32 throws one tile at a time and counts loads from
sorted rows.  The oracle below is an older loop, which drew int64 throws in
chunks of about 2M and counted each chunk with bincount.  Its call sizes
differ from the kernel's, so it is an independent check: the kernel must give
the same empirical frequency bit for bit and leave the generator in the same
state.  That rests on a property of PCG64's bounded draws, pinned below:
split int32 calls give the values and the generator state of one call.  The
kernel must not allocate trial-, chunk- or bin-count-sized arrays.
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
    """A SeedSpec stand-in that hands out the given generator, so that the
    state after the call can be read."""

    def __init__(self, rng):
        self.rng = rng

    def generator(self):
        return self.rng


class _SpyRng:
    """A generator stand-in that records the entry count of each
    `integers` call."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def integers(self, *args, size, **kwargs):
        self.sizes.append(int(np.prod(size)))
        return self.rng.integers(*args, size=size, **kwargs)


def _check(bins, balls, trials):
    spec = SEED.sub(bins).sub(balls)
    seed = _Seed(spec.generator())
    res = balls_in_bins_check(bins, balls, trials, seed)
    oracle = spec.generator()
    hits = _oracle_hits(bins, balls, trials, oracle)
    assert res["empirical"] == hits / trials
    assert seed.rng.bit_generator.state == oracle.bit_generator.state
    return hits


def _trials(bins, balls):
    """Two of the oracle's chunks, the second of 3 rows, so that the
    kernel's tiles cross a chunk edge, the oracle's last call draws an odd
    number of values for odd balls, and no trial count is a multiple of a
    chunk or a tile; one chunk of 2001 rows where the oracle would count
    more than 3e8 bins."""
    trials = int(2e6) // balls + 3
    return trials if trials * bins <= 3e8 else 2_001


# Tile rows are _BALLS_BINS_TILE // balls and the oracle's chunk rows
# 2e6 // balls.  At bins 100000 and at most 1000 balls the cap 3N/n is
# below 1, so every trial misses; the cases below cover hits.
BINS = [1, 3, 7, 64, 1000, 100_000]
BALLS = [1, 8, 267, 1000]


@pytest.mark.parametrize("balls", BALLS)
@pytest.mark.parametrize("bins", BINS)
def test_kernel_matches_int64_chunk_loop(bins, balls):
    _check(bins, balls, _trials(bins, balls))


@pytest.mark.parametrize(
    "bins, balls, trials",
    [
        # rows longer than the tile: one-row tiles against the oracle's
        # 10-row chunks, the last of 3
        (7, 3 * _BALLS_BINS_TILE + 5, 13),
        # bins above the tile with a cap of 1: 2-row tiles, one of which
        # straddles each edge of the oracle's 91-row chunks
        (65_537, 21_847, 200),
    ],
)
def test_kernel_matches_int64_chunk_loop_at_edges(bins, balls, trials):
    _check(bins, balls, trials)


def test_sorted_rows_count_hits_and_misses():
    # bins above the tile with a cap of 18 (k = 19), hit about 3 times in
    # 10: one-row tiles against the oracle's 4-row chunks, the last of 1
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
        # the chunk's counts peaked at about 24 MB traced, the int32 chunk
        # draw at 8.5 MB, the tile draw at 1.24 MB
        (64, 267, 10_000, 2),
        # the benchmark's middle case: 4.36 MB at the int32 chunk draw,
        # 0.50 MB at the tile draw
        (32, 111, 10_000, 1),
        # counts of trials x bins: the int64 loop peaked at about 40 MB
        (100_000, 10, 50, 4),
    ],
)
def test_peak_memory_is_draw_plus_tile(bins, balls, trials, limit_mb):
    assert _traced_peak(bins, balls, trials) < limit_mb * 2**20


@pytest.mark.parametrize(
    "bins, balls, trials",
    [(4, 8, 10_000), (64, 267, 10_000), (1000, 2003, 500), (7, 3 * _BALLS_BINS_TILE + 5, 3)],
)
def test_each_draw_is_at_most_a_tile(bins, balls, trials):
    spy = _SpyRng(SEED.generator())
    balls_in_bins_check(bins, balls, trials, _Seed(spy))
    assert max(spy.sizes) <= max(_BALLS_BINS_TILE, balls), spy.sizes
    assert sum(spy.sizes) == trials * balls


# bins 8 is a power of two, drawn by masking; the others go through
# Lemire's rejection, which may take more than one word for a value
@pytest.mark.parametrize("bins", [8, 111, 267, 65_537, 2**31 - 1])
@pytest.mark.parametrize(
    "pieces",
    [[1] * 9, [3, 5, 1, 7], [1001, 1, 77, 2, 333]],
    ids=["one-entry", "odd", "mixed"],
)
def test_split_int32_draws_equal_one_draw(bins, pieces):
    """The kernel draws one tile per call.  PCG64 keeps a call's leftover
    32-bit word in its state (`has_uint32`, `uinteger`) for the next call,
    so split draws give the values and the whole generator state of one."""
    one = SEED.generator()
    whole = one.integers(0, bins, size=sum(pieces), dtype=np.int32)
    split = SEED.generator()
    parts, carried = [], False
    for n in pieces:
        parts.append(split.integers(0, bins, size=n, dtype=np.int32))
        carried |= bool(split.bit_generator.state["has_uint32"])
    np.testing.assert_array_equal(np.concatenate(parts), whole)
    assert split.bit_generator.state == one.bit_generator.state
    assert carried, "no piece left an odd word over"


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
