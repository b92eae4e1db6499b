import functools
import math

import numpy as np
import pytest

from prunelab.estimators import (
    QUANTILES,
    LatalaRow,
    Lemma3Row,
    _quantile_order_stat,
    delta0_from_quantile,
    estimate_latala,
    estimate_lemma3,
    latala_terms,
)
from prunelab.parallel import single_threaded_blas, trial_blocks
from prunelab.pruning import filter_prune_count
from prunelab.sampling import DistributionSpec, SeedSpec, draw_matrix


@pytest.mark.parametrize("n", [1, 32, 512, 4096])
@pytest.mark.parametrize("q", QUANTILES + (0.5, 0.01))
def test_delta0_solves_the_tail_equation(n, q):
    delta0 = delta0_from_quantile(n, q)
    assert delta0 > 0
    assert abs(1.0 - 2.0 * math.exp(-4.0 * delta0 * n) - q) <= 1e-15


@pytest.mark.parametrize("n, q", [(0, 0.95), (8, 0.0), (8, 1.0), (8, -0.5)])
def test_delta0_rejects_bad_inputs(n, q):
    with pytest.raises(ValueError):
        delta0_from_quantile(n, q)


SORTED = np.sort(np.random.default_rng(7).random(100))


@pytest.mark.parametrize(
    "q, index",
    [
        (0.95, 95),  # q N = 95 exactly: the 95th, not the 96th
        (0.99, 99),
        (0.999, 100),  # q N = 99.9 rounds up
        (0.9999, 100),
        (0.951, 96),
        (0.004, 1),  # q N = 0.4 rounds up to the first
        (0.0, 1),  # the floor at index 1
    ],
)
def test_quantile_is_the_ceil_qn_order_statistic(q, index):
    assert _quantile_order_stat(SORTED, q) == SORTED[index - 1]


def test_quantile_of_one_value():
    assert _quantile_order_stat(np.array([2.5]), 0.95) == 2.5


# ---------------------------------------------------------------------------
# Bitwise oracle: the estimators as they ran before their SVDs were stacked,
# one LAPACK call per trial, with the same blocks and the same folds.
# ---------------------------------------------------------------------------


def _top_sv(a):
    return np.linalg.svd(a, compute_uv=False)[0]


@functools.cache
def one_call_per_trial_lemma3(n1, n2, k_scale, trials, base_seed):
    seed = SeedSpec(base_seed)
    dist = DistributionSpec("uniform", xavier_k=k_scale)
    blocks = []
    with single_threaded_blas():
        for block in trial_blocks(trials):
            out = np.empty(len(block))
            for i, t in enumerate(block):
                out[i] = _top_sv(draw_matrix(dist, n1, n2, seed.child(t).generator()))
            blocks.append(out)
    norms = np.concatenate(blocks)
    srt = np.sort(norms)
    n = max(n1, n2)
    quants = tuple((q, _quantile_order_stat(srt, q), delta0_from_quantile(n, q)) for q in QUANTILES)
    return Lemma3Row(float(norms.mean()), float(norms.std(ddof=1)), quants)


@functools.cache
def one_call_per_trial_latala(d, dist, trials, base_seed, prune_alpha):
    seed = SeedSpec(base_seed)
    n_prune = filter_prune_count(prune_alpha, d) if prune_alpha is not None else 0
    sq_total = np.zeros((d, d))
    quad_total = np.zeros((d, d))
    all_norms = []
    with single_threaded_blas():
        for block in trial_blocks(trials):
            sq = np.zeros((d, d))
            quad = np.zeros((d, d))
            norms = np.empty(len(block))
            for i, t in enumerate(block):
                rng = seed.child(t).generator()
                a = draw_matrix(dist, d, d, rng)
                if n_prune:
                    rows = rng.integers(0, d, size=n_prune)
                    cols = rng.integers(0, d, size=n_prune)
                    a[rows, cols] = 0.0
                a2 = a * a
                sq += a2
                quad += a2 * a2
                norms[i] = _top_sv(a)
            sq_total += sq
            quad_total += quad
            all_norms.append(norms)
    norms = np.concatenate(all_norms)
    t1, t2, t3 = latala_terms(sq_total / trials, quad_total / trials)
    mean_norm = float(norms.mean())
    denom = t1 + t2 + t3
    return LatalaRow(t1, t2, t3, mean_norm, mean_norm / denom if denom > 0 else 0.0)


def _bits(row):
    # float fields as their IEEE bit patterns, so -0.0 != 0.0 and NaN == NaN
    def enc(v):
        if isinstance(v, float):
            return np.float64(v).view(np.uint64).item()
        if isinstance(v, tuple):
            return tuple(enc(x) for x in v)
        return v

    return {k: enc(v) for k, v in vars(row).items()}


# SVD group sizes: n=1 -> 501 (the whole 25-trial block), 166 -> 4, 167 -> 3,
# 250 -> 3, 251 -> 2, 500 -> 2, 501 -> 1; a 3 x 400 matrix -> 167.  101
# trials leave a last block of one trial.
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "n1, n2, k_scale, trials",
    [
        (1, 1, 1.0, 101),
        (166, 166, 1.0, 100),
        (167, 167, math.sqrt(3.0), 101),
        (250, 250, 1.0, 101),
        (251, 251, 1.0, 100),
        (500, 500, 1.0, 100),
        (501, 501, 1.0, 100),
        (3, 400, 1.0, 101),
    ],
)
def test_lemma3_matches_one_svd_call_per_trial(n1, n2, k_scale, trials, workers):
    got = estimate_lemma3(n1, n2, k_scale, trials, SeedSpec(41), workers=workers)
    assert _bits(got) == _bits(one_call_per_trial_lemma3(n1, n2, k_scale, trials, 41))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "d, kind, prune_alpha, trials",
    [
        (1, "uniform", None, 100),
        (1, "gaussian", 1.9, 101),  # every trial loses its only entry
        (166, "gaussian", 0.5, 101),
        (167, "uniform", None, 100),
        (250, "gaussian", None, 100),
        (251, "uniform", 0.5, 101),
    ],
)
def test_latala_matches_one_svd_call_per_trial(d, kind, prune_alpha, trials, workers):
    dist = DistributionSpec(kind, variance=1.0 / d) if kind == "gaussian" else DistributionSpec(kind, xavier_k=1.0)
    got = estimate_latala(d, dist, trials, SeedSpec(43), prune_alpha=prune_alpha, workers=workers)
    assert _bits(got) == _bits(one_call_per_trial_latala(d, dist, trials, 43, prune_alpha))
