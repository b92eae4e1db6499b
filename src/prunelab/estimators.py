"""Monte Carlo estimation of the spectral-norm constants of random matrices.

Two families: quantile constants (c0, delta0) for uniform-entry matrices,
and the ratio C of the observed mean spectral norm to the three
independent-entry moment terms

    term1 = max_i (sum_j E A_ij^2)^(1/2)   (rows)
    term2 = max_j (sum_i E A_ij^2)^(1/2)   (columns)
    term3 = (sum_ij E A_ij^4)^(1/4),

with the expectations estimated empirically from the sampled matrices.  A
pruned variant zeroes floor(d^(2-alpha)) entries (with replacement) per
draw before measuring.

Norms use the LAPACK SVD; at these matrix sizes and trial counts the
deterministic power-iteration routine would dominate the runtime budget.

Threading.  Each estimator folds fixed 25-trial blocks in block order, so
its result does not depend on the worker count; the blocks run on one BLAS
thread, as every mapped task does (see `parallel` for the policy), and
within a block the norms go through `linalg.top_singular_values`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import top_singular_values
from .parallel import ordered_imap, ordered_map, trial_blocks
from .pruning import filter_prune_count
from .sampling import DistributionSpec, SeedSpec, draw_matrix

__all__ = [
    "Lemma3Row",
    "LatalaRow",
    "delta0_from_quantile",
    "estimate_lemma3",
    "estimate_latala",
    "latala_ratio",
    "latala_terms",
    "QUANTILES",
]

QUANTILES = (0.95, 0.99, 0.999, 0.9999)


@dataclass(frozen=True)
class Lemma3Row:
    """Norm statistics of one uniform-matrix configuration: the mean and std
    of the spectral norm plus per-quantile (c0, delta0) pairs, where c0 is
    the empirical q-quantile and delta0 = -ln((1-q)/2) / (4 max(n1, n2))."""

    mean: float
    std: float
    quantiles: tuple  # of (q, c0, delta0)


@dataclass(frozen=True)
class LatalaRow:
    """One estimated configuration: the three moment terms, the observed mean
    norm, and their ratio C = mean_norm / (term1 + term2 + term3), or 0 when
    all three terms are 0."""

    term1: float
    term2: float
    term3: float
    mean_norm: float
    c: float


def delta0_from_quantile(n: int, q: float) -> float:
    """Closed-form delta0 solving 1 - 2 exp(-4 delta0 n) = q."""
    if n < 1 or not 0.0 < q < 1.0:
        raise ValueError("need n >= 1 and q in (0, 1)")
    return -math.log((1.0 - q) / 2.0) / (4.0 * n)


def _quantile_order_stat(sorted_values: np.ndarray, q: float) -> float:
    # order statistic at 1-based index ceil(q * N)
    n = sorted_values.size
    idx = max(1, math.ceil(q * n))
    return float(sorted_values[idx - 1])


def estimate_lemma3(
    n1: int,
    n2: int,
    k_scale: float,
    trials: int,
    seed: SeedSpec,
    quantiles: tuple = QUANTILES,
    workers: int = 1,
) -> Lemma3Row:
    """Sample `trials` matrices with entries U[-K/sqrt(n), K/sqrt(n)],
    n = max(n1, n2), and report norm statistics and quantile constants.

    Trial t draws from stream t of the seed, so any single trial can be
    reproduced in isolation and results do not depend on the worker count.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials for stable quantiles")
    dist = DistributionSpec("uniform", xavier_k=k_scale)

    def block_norms(block: range) -> np.ndarray:
        draws = (draw_matrix(dist, n1, n2, seed.child(t).generator()) for t in block)
        return top_singular_values(draws, n1, n2)

    norms = np.concatenate(ordered_map(block_norms, trial_blocks(trials), workers))
    srt = np.sort(norms)
    n = max(n1, n2)
    quants = tuple(
        (q, _quantile_order_stat(srt, q), delta0_from_quantile(n, q)) for q in quantiles
    )
    return Lemma3Row(float(norms.mean()), float(norms.std(ddof=1)), quants)


def latala_terms(sq_mean: np.ndarray, quad_mean: np.ndarray) -> tuple[float, float, float]:
    """The three moment terms from per-entry estimates of E A^2 and E A^4."""
    term1 = float(np.sqrt(sq_mean.sum(axis=1).max()))
    term2 = float(np.sqrt(sq_mean.sum(axis=0).max()))
    term3 = float(quad_mean.sum() ** 0.25)
    return term1, term2, term3


def latala_ratio(mean_norm: float, terms: tuple[float, float, float]) -> float:
    """C = mean_norm / (term1 + term2 + term3), or 0 when the terms are all 0:
    then every entry was pruned in every trial, and the norm is 0 too."""
    denom = sum(terms)
    return mean_norm / denom if denom > 0 else 0.0


def estimate_latala(
    d: int,
    dist: DistributionSpec,
    trials: int,
    seed: SeedSpec,
    prune_alpha: float | None = None,
    workers: int = 1,
) -> LatalaRow:
    """Estimate the norm-to-moment-terms ratio C for d x d draws from `dist`,
    optionally zeroing floor(d^(2-alpha)) entries at random (with
    replacement) per draw before measuring."""
    if trials < 100:
        raise ValueError("need at least 100 trials")
    n_prune = filter_prune_count(prune_alpha, d) if prune_alpha is not None else 0

    def block_stats(block: range):
        def draws(sq, quad):
            # the moment sums take each trial in trial order as it is drawn
            for t in block:
                rng = seed.child(t).generator()
                a = draw_matrix(dist, d, d, rng)
                if n_prune:
                    rows = rng.integers(0, d, size=n_prune)
                    cols = rng.integers(0, d, size=n_prune)
                    a[rows, cols] = 0.0
                a2 = a * a
                sq += a2
                quad += a2 * a2
                yield a

        sq = np.zeros((d, d))
        quad = np.zeros((d, d))
        norms = top_singular_values(draws(sq, quad), d, d)
        return sq, quad, norms

    sq_total = np.zeros((d, d))
    quad_total = np.zeros((d, d))
    all_norms = []
    # each block's sums are added as the block arrives, in block order
    for sq, quad, norms in ordered_imap(block_stats, trial_blocks(trials), workers):
        sq_total += sq
        quad_total += quad
        all_norms.append(norms)
    norms = np.concatenate(all_norms)
    term1, term2, term3 = latala_terms(sq_total / trials, quad_total / trials)
    mean_norm = float(norms.mean())
    return LatalaRow(term1, term2, term3, mean_norm, latala_ratio(mean_norm, (term1, term2, term3)))
