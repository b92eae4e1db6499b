"""Monte Carlo estimation of the spectral-norm constants of random matrices.

Two families: quantile constants (c0, delta0) for uniform-entry matrices,
and the ratio C of the observed mean spectral norm to the three
independent-entry moment terms

    term1 = max_i (sum_j E A_ij^2)^(1/2)   (rows)
    term2 = max_j (sum_i E A_ij^2)^(1/2)   (columns)
    term3 = (sum_ij E A_ij^4)^(1/4),

with the expectations estimated empirically from the sampled matrices.  A
pruned variant zeroes floor(d^(2-alpha)) entries (with replacement) per
draw before measuring.  Both estimators return report rows: dicts from
column name to value, in column order.

Norms use the LAPACK SVD; at these matrix sizes and trial counts the
deterministic power-iteration routine would dominate the runtime budget.

Threading.  Each estimator folds fixed 25-trial blocks in block order, so
its result does not depend on the worker count; the blocks run on one BLAS
thread, as every mapped task does (see `parallel` for the policy), and
within a block the norms go through `linalg.top_singular_values`.

Memory.  Each block allocates its own matrix buffers (table3 also one for
the squares) and draws every trial into them with `draw_matrix(..., out)`,
so no two worker threads share a buffer and no trial allocates a
matrix-sized array; `top_singular_values` reads each matrix before the
next is drawn.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import top_singular_values
from .parallel import ordered_imap, ordered_map, trial_blocks
from .pruning import _zero_random_pairs, filter_prune_count
from .sampling import DistributionSpec, SeedSpec, draw_matrix

__all__ = [
    "delta0_from_quantile",
    "estimate_lemma3",
    "estimate_latala",
    "latala_ratio",
    "latala_terms",
]


def delta0_from_quantile(n: int, q: float) -> float:
    """Closed-form delta0 solving 1 - 2 exp(-4 delta0 n) = q."""
    if n < 1 or not 0.0 < q < 1.0:
        raise ValueError("need n >= 1 and q in (0, 1)")
    return -math.log((1.0 - q) / 2.0) / (4.0 * n)


def estimate_lemma3(
    n1: int,
    n2: int,
    k_scale: float,
    trials: int,
    seed: SeedSpec,
    quantiles: tuple,
    workers: int = 1,
) -> list[dict]:
    """Sample `trials` matrices with entries U[-K/sqrt(n), K/sqrt(n)],
    n = max(n1, n2), and return one row per quantile q: n1, n2, K, the mean
    and std of the spectral norm, q, c0, the norms' order statistic at
    1-based index ceil(q * trials), and delta0 = -ln((1-q)/2) / (4 n).

    Trial t draws from stream t of the seed, so any single trial can be
    reproduced in isolation and results do not depend on the worker count.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials for stable quantiles")
    dist = DistributionSpec("uniform", xavier_k=k_scale)

    def block_norms(block: range) -> np.ndarray:
        a = np.empty((n1, n2))  # the task's own buffer, drawn into by every trial
        draws = (draw_matrix(dist, n1, n2, seed.child(t).generator(), a) for t in block)
        return top_singular_values(draws, n1, n2)

    norms = np.concatenate(ordered_map(block_norms, trial_blocks(trials), workers))
    mean, std = float(norms.mean()), float(norms.std(ddof=1))
    c0 = np.quantile(norms, quantiles, method="inverted_cdf")
    return [{"n1": n1, "n2": n2, "K": k_scale, "mean": mean, "std": std, "q": q, "c0": float(c),
             "delta0": delta0_from_quantile(max(n1, n2), q)} for q, c in zip(quantiles, c0)]


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
) -> dict:
    """Estimate the norm-to-moment-terms ratio C for d x d draws from `dist`,
    optionally zeroing floor(d^(2-alpha)) entries at random (with
    replacement) per draw before measuring.  Returns term1, term2, term3,
    the observed mean norm and C = mean_norm / (term1 + term2 + term3), which
    is 0 when all three terms are 0."""
    if trials < 100:
        raise ValueError("need at least 100 trials")
    n_prune = filter_prune_count(prune_alpha, d) if prune_alpha is not None else 0

    def block_stats(block: range):
        a, a2 = np.empty((d, d)), np.empty((d, d))  # the task's own buffers

        def draws(sq, quad):
            # the moment sums take each trial in trial order as it is drawn
            for t in block:
                rng = seed.child(t).generator()
                draw_matrix(dist, d, d, rng, a)
                _zero_random_pairs(a, n_prune, rng)
                np.multiply(a, a, out=a2)
                sq += a2
                np.multiply(a2, a2, out=a2)
                quad += a2
                yield a

        sq = np.zeros((d, d))
        quad = np.zeros((d, d))
        norms = top_singular_values(draws(sq, quad), d, d)
        return sq, quad, norms

    sq_total = quad_total = 0.0
    all_norms = []
    # each block's sums are added as the block arrives, in block order, into
    # the block's own arrays, which become the totals: addition commutes, so
    # these are the additions of a fold from 0.0, and no total is copied
    for sq, quad, norms in ordered_imap(block_stats, trial_blocks(trials), workers):
        sq += sq_total
        quad += quad_total
        sq_total, quad_total = sq, quad
        all_norms.append(norms)
    term1, term2, term3 = terms = latala_terms(sq_total / trials, quad_total / trials)
    mean_norm = float(np.concatenate(all_norms).mean())
    return {"term1": term1, "term2": term2, "term3": term3, "mean_norm": mean_norm, "C": latala_ratio(mean_norm, terms)}
