"""Closed-form moments, balls-into-bins probabilities, and every theorem
bound, exponent, constant map and event: the sweeps and `bounds` call these
and state no theorem formula of their own.

Everything here is a pure function of its arguments.  The theorems only
prove that their constants exist, so nothing is hardcoded: callers pass
measured or assumed constants as plain floats.  A probability is returned
as-is and is vacuous when <= 0; `thm2_factors` and `thm3_factors` give its
per-event factors.  The `*_alpha_constraint` functions give the largest
alpha Theorems 2 and 3 admit at width d; callers check 0 < alpha <= cap.
`balls_in_bins_lemma` states the lemma they rest on for every caller.  The
balls-into-bins check returns the balls-bins report's row.

Natural logarithms throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .sampling import SeedSpec

__all__ = [
    "order_stat_moment_exact", "order_stat_moment",
    "balls_in_bins_exact", "balls_in_bins_lemma", "balls_in_bins_check", "balls_in_bins_event",
    "latala_constant", "fcn_exponents", "fcn_diff_threshold", "fcn_mean_bound", "fcn_gap_bound",
    "thm1_width_terms", "thm2_alpha_constraint", "thm2_factors", "thm2_probability",
    "thm3_alpha_constraint", "thm3_moment_c2", "thm3_layer_bounds", "thm3_event_thresholds",
    "thm3_rhs", "thm3_factors", "thm3_probability",
]


# ---------------------------------------------------------------------------
# Order statistics of squared uniforms
# ---------------------------------------------------------------------------


def order_stat_moment_exact(n: int, r: int, p: int = 1) -> Fraction:
    """E X_(r)^p / a^(2p) for X_i = U_i^2, U_i ~ U[-a, a], as an exact rational.

    Telescoping product of 2p terms, so no large factorials:
    prod_{i=0}^{2p-1} (r + i) / (n + 1 + i).
    """
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    if p < 1:
        raise ValueError("moment order p must be >= 1")
    out = Fraction(1)
    for i in range(2 * p):
        out *= Fraction(r + i, n + 1 + i)
    return out


def order_stat_moment(a: float, n: int, r: int, p: int = 1) -> float:
    """E X_(r)^p for the r-th order statistic of n squared U[-a, a] samples."""
    if a <= 0:
        raise ValueError("a must be positive")
    return float(a) ** (2 * p) * float(order_stat_moment_exact(n, r, p))


# ---------------------------------------------------------------------------
# Balls-into-bins
# ---------------------------------------------------------------------------


def balls_in_bins_exact(bins: int, balls: int, cap: float) -> Fraction:
    """Exact P(max load <= cap) for `balls` uniform throws into `bins` bins.

    Counts assignments via the exponential generating function
    (sum_{k<=cap} x^k/k!)^bins, evaluated in rational arithmetic, divided by
    bins^balls.  Intended for small instances; cost is O(bins * balls^2).
    """
    if bins < 1 or balls < 0:
        raise ValueError("need bins >= 1 and balls >= 0")
    c = math.floor(cap)
    if c < 0:
        return Fraction(0)
    if c >= balls:
        return Fraction(1)
    # poly[j] = coefficient of x^j, truncated beyond `balls`
    base = [Fraction(1, math.factorial(k)) if k <= c else Fraction(0) for k in range(balls + 1)]
    poly = [Fraction(1)] + [Fraction(0)] * balls
    for _ in range(bins):
        nxt = [Fraction(0)] * (balls + 1)
        for i, pi in enumerate(poly):
            if pi == 0:
                continue
            for j in range(min(c, balls - i) + 1):
                if base[j] != 0:
                    nxt[i + j] += pi * base[j]
        poly = nxt
    favorable = poly[balls] * math.factorial(balls)
    return favorable / Fraction(bins) ** balls


def balls_in_bins_lemma(bins: int, balls: int) -> tuple[float, bool, float]:
    """The lemma behind Theorems 2 and 3: N >= n log n balls in n bins give
    P(max load <= 3N/n) >= 1 - n^(-1/3).  Returns the cap 3N/n, whether
    N >= n log n, and the floor 1 - n^(-1/3), which needs no ball count."""
    return 3.0 * balls / bins, balls >= bins * math.log(bins), 1.0 - bins ** (-1.0 / 3.0)


# Entries a balls-into-bins tile draws and sorts at a time: the tile's rows
# times the ball count, so no array grows with the trial or the bin count.
_BALLS_BINS_TILE = 65_536


def balls_in_bins_check(bins: int, balls: int, trials: int, seed: SeedSpec) -> dict:
    """Monte Carlo frequency of {max load <= 3N/n}, with the guarantee branch
    (N >= n log n implies probability >= 1 - n^(-1/3)) checked and reported.
    Returns bins, balls, the threshold 3N/n, the empirical frequency and its
    standard error, the exact probability (None unless bins**balls <= 10^6),
    whether the guarantee applies, its floor, and whether it holds.

    Trials are drawn and counted in tiles of at most `_BALLS_BINS_TILE`
    throws (one row at least), one `rng.integers` call each, so memory grows
    with neither the trial nor the bin count.  The throws are drawn as
    int32, so bins is at most 2^31: PCG64 serves any range below 2^32 from
    32-bit words for int32 and int64 alike, and keeps a call's leftover odd
    word for the next call, so the values and the generator state do not
    depend on the call sizes and equal those of one int64 draw.  A row
    sorted in place has a load of k or more iff some entry equals the one
    k - 1 places on.
    """
    if bins < 1 or balls < 1 or trials < 1:
        raise ValueError("bins, balls, trials must be >= 1")
    threshold, applies, floor = balls_in_bins_lemma(bins, balls)
    rng = seed.generator()
    k = math.floor(threshold) + 1
    rows = max(1, _BALLS_BINS_TILE // balls)
    misses = 0
    for done in range(0, trials, rows):
        t = rng.integers(0, bins, size=(min(rows, trials - done), balls), dtype=np.int32)
        if k <= balls:  # else no row can hold k balls in one bin
            t.sort(axis=1)
            misses += int(np.count_nonzero((t[:, k - 1 :] == t[:, : balls - k + 1]).any(axis=1)))
    emp = (trials - misses) / trials
    stderr = math.sqrt(max(emp * (1.0 - emp), 0.0) / trials)
    exact = None
    # bins**balls > 10^6 once bins >= 2 and balls >= 20; testing the ball
    # count first avoids a power with millions of digits at large inputs
    if bins == 1 or (balls < 20 and bins**balls <= 1e6):
        exact = float(balls_in_bins_exact(bins, balls, threshold))
    return {
        "bins": bins, "balls": balls, "threshold": threshold, "empirical": emp, "stderr": stderr, "exact": exact,
        "guarantee_applies": applies, "guarantee_floor": floor, "guarantee_holds": not applies or emp >= floor,
    }


def balls_in_bins_event(mask: np.ndarray, count: int) -> bool:
    """The lemma's event on a pruned layer's 0/1 mask, `count` the balls N
    pruned: every row, then every column, a bin, holds at most its cap 3N/n."""
    zeros = mask == 0.0
    return all(zeros.sum(axis=1 - a).max() <= balls_in_bins_lemma(bins, count)[0]
               for a, bins in enumerate(zeros.shape))


# ---------------------------------------------------------------------------
# Theorems 1-3: bounds, exponents, constant maps, events and probabilities
# ---------------------------------------------------------------------------


def latala_constant(c_hat: float, second: float, fourth: float) -> float:
    """A Latala ratio mapped to a theorem's norm constant, c_hat (2 sqrt(second)
    + fourth^(1/4)), by the entries' scaled second and fourth moments."""
    return c_hat * (2.0 * math.sqrt(second) + fourth**0.25)


def fcn_exponents(alpha: float, magnitude: bool) -> tuple[float, float]:
    """The exponents of d in a pruned FCN layer's expected difference norm,
    -2 alpha under magnitude pruning (Theorem 1) and -alpha/2 under random
    pruning (Theorem 2), and in its Markov event's threshold, -alpha and -alpha/4."""
    return (-2.0 * alpha, -alpha) if magnitude else (-alpha / 2.0, -alpha / 4.0)


def fcn_diff_threshold(d: int, alpha: float, magnitude: bool) -> float:
    """The threshold of a pruned FCN layer's Markov event on its difference norm."""
    return float(d) ** fcn_exponents(alpha, magnitude)[1]


def fcn_mean_bound(c_hat: float, d: int, alpha: float, magnitude: bool, k_scale: float, k1: float, k2: float):
    """(c2, c2 d^mean_exponent): a pruned layer's constant from its Latala
    ratio, by K (2 sqrt 2 + 24^(1/4)) under magnitude pruning of Xavier(K)
    entries or 2 sqrt(3 k1) + k2^(1/4) under random pruning, and the bound
    on its mean difference norm.  Under random pruning the bound over
    `fcn_diff_threshold` is a layer's `thm2_factors` Markov term, to rounding."""
    c2 = latala_constant(c_hat * k_scale, 2.0, 24.0) if magnitude else latala_constant(c_hat, 3.0 * k1, k2)
    return c2, c2 * float(d) ** fcn_exponents(alpha, magnitude)[0]


def fcn_gap_bound(l: int, d: int, alpha: float, magnitude: bool, norms) -> float:
    """A trial's sup-gap bound at 1-Lipschitz activations and caps max(1, ||W_k||):
    (2^(l-2) - 1) d^(-alpha) (largest cap)^(l-1) under magnitude pruning
    (Theorem 1), (2^(l-2) - 1) d^(-alpha/4) prod(caps) under random pruning
    (Theorem 2).  The first is `thm1_width_terms`'s C2 d^(-alpha), factors
    reordered: its eps_term at eps = this bound is d, to rounding."""
    caps = [max(1.0, v) for v in norms]
    scale = (2 ** (l - 2) - 1) * fcn_diff_threshold(d, alpha, magnitude)
    return scale * (max(caps) ** (l - 1) if magnitude else math.prod(caps))


def thm1_width_terms(c0: float, c2: float, delta0: float, l: int, lipschitz: tuple[float, ...], alpha: float,
                     eps: float, delta: float) -> dict[str, float]:
    """The four width lower-bound terms for magnitude pruning of uniform nets;
    the width bound is the ceiling of their max.

    Constants are instantiated from the positive c0, c2, delta0:
      C1 = 1/c0,
      C2 = (2^(l-2) - 1) * prod(L_1..L_{l-1}) * c0^(l-1),
      C3 = (l^2 - 2) * c2,
    and the additive log term (log(1/delta) + log(l^2 - 2)) / (4 delta0).
    """
    if l < 3:
        raise ValueError("depth l must be >= 3")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if eps <= 0 or not 0 < delta < 1:
        raise ValueError("need eps > 0 and delta in (0, 1)")
    if len(lipschitz) not in (l - 1, l):
        raise ValueError(f"expected l-1 or l Lipschitz constants, got {len(lipschitz)}")
    l_prod = math.prod(lipschitz[: l - 1])
    c_2 = (2 ** (l - 2) - 1) * l_prod * c0 ** (l - 1)
    return {
        "scale_term": (1.0 / c0) ** (1.0 / alpha),
        "eps_term": (c_2 / eps) ** (1.0 / alpha),
        "delta_term": ((l * l - 2) * c2 / delta) ** (1.0 / alpha),
        "log_term": (math.log(1.0 / delta) + math.log(l * l - 2)) / (4.0 * delta0),
    }


def thm2_alpha_constraint(d: int) -> float:
    """Maximal admissible alpha for random pruning of width-d hidden layers:
    1 - (log(d+1) - log log d) / (2 log d)."""
    if d < 3:
        raise ValueError("need d >= 3")
    return 1.0 - (math.log(d + 1) - math.log(math.log(d))) / (2.0 * math.log(d))


def _mask_factor(d: int, l: int) -> float:  # the lemma's floor for the l - 2 pruned layers' rows and columns
    return balls_in_bins_lemma(d, 0)[2] ** (2 * (l - 2))


def thm2_factors(l: int, d: int, alpha: float, c2: float, deltas: tuple[float, ...]) -> dict[str, float]:
    """Theorem 2's per-event factors: the mask factor (1 - d^(-1/3))^(2(l-2)),
    the Markov term (l-2) c2 d^(-alpha/4) of the difference events, and the
    delta tail sum_{i<l} (l-i) delta_i.  deltas supplies delta_1..delta_l."""
    if l < 3 or d < 1:
        raise ValueError("need l >= 3 and d >= 1")
    if len(deltas) != l:
        raise ValueError(f"expected {l} per-layer probabilities, got {len(deltas)}")
    if c2 <= 0:
        raise ValueError("c2 must be positive")
    return {"mask": _mask_factor(d, l), "markov": (l - 2) * c2 * d ** (-alpha / 4.0),
            "delta_tail": sum((l - i) * deltas[i - 1] for i in range(1, l))}


def thm2_probability(l: int, d: int, alpha: float, c2: float, deltas: tuple[float, ...]) -> float:
    """Success probability of random pruning from `thm2_factors`, returned as-is:
    mask (1 - delta_l) (1 - markov - delta_tail)."""
    f = thm2_factors(l, d, alpha, c2, deltas)
    return f["mask"] * (1.0 - deltas[l - 1]) * (1.0 - f["markov"] - f["delta_tail"])


def thm3_alpha_constraint(d: int) -> float:
    """Maximal admissible alpha for random filter pruning:
    2 - (log(d+1) + log log d) / log d."""
    if d < 3:
        raise ValueError("need d >= 3")
    return 2.0 - (math.log(d + 1) + math.log(math.log(d))) / math.log(d)


def thm3_moment_c2(weight_kind: str, c1: float) -> float:
    """The fourth-moment constant of entries of variance c1/(p^2 d): 3 c1^2 gaussian, 1.8 c1^2 uniform."""
    return 3.0 * c1**2 if weight_kind == "gaussian" else 1.8 * c1**2


def thm3_layer_bounds(c_hat_w: float, c_hat_diff: float, c1: float, c2: float, p: int, q: int, d: int, alpha: float):
    """(c3, c4, c3 q^2/p, c4 (q^2/p) d^(-alpha/4), c3/p, (c4/p) d^(-alpha/4)):
    Theorem 3's constants from the Latala ratios of a pruned conv layer's
    kernel slices and their pruned-away parts, then the bounds on the mean
    norms of the layer, its difference, and one slice of each.  The layer
    bounds over `thm3_event_thresholds` are `thm3_factors`' per-layer Markov
    terms, to rounding."""
    c3, c4 = latala_constant(c_hat_w, c1, c2), latala_constant(c_hat_diff, 3.0 * c1, c2)
    decay = float(d) ** (-alpha / 4.0)
    return c3, c4, c3 * q * q / p, c4 * (q * q / p) * decay, c3 / p, (c4 / p) * decay


def thm3_event_thresholds(p: int, d: int, beta1: float, beta2: float) -> tuple[float, float]:
    """The thresholds of Theorem 3's per-layer events ||W_k|| <= p^(-beta1)
    and ||W_k - W~_k|| <= d^(-beta2)."""
    return p ** (-beta1), float(d) ** (-beta2)


def thm3_rhs(p: int, d: int, p0: int, lipschitz: float, l: int, beta1: float, beta2: float, alpha: float) -> float:
    """Gap upper bound for filter-pruned CNNs, on `thm3_event_thresholds`:

        p^(-b1) L^(l-1) p0 sqrt(d) [p^(-b1) (p^(-b1) + d^(-b2))^(l-2)
                                     - p^(-(l-1) b1)]

    beta1 in (0,1), 0 < beta2 < alpha/4, l >= 3.
    The bracket is strictly positive for finite d.
    """
    if l < 3:
        raise ValueError("depth l must be >= 3")
    if not 0 < beta1 < 1:
        raise ValueError("beta1 must lie in (0, 1)")
    if beta2 <= 0:
        raise ValueError("beta2 must be positive")
    if beta2 >= alpha / 4.0:
        raise ValueError("beta2 must be below alpha/4")
    if p < 2 or d < 1 or p0 < 1 or lipschitz <= 0:
        raise ValueError("need p >= 2, d >= 1, p0 >= 1, positive Lipschitz constant")
    pb, db = thm3_event_thresholds(p, d, beta1, beta2)
    bracket = pb * (pb + db) ** (l - 2) - p ** (-(l - 1) * beta1)
    value = pb * lipschitz ** (l - 1) * p0 * math.sqrt(d) * bracket
    if value <= 0:
        raise ArithmeticError("bound evaluated non-positive; inputs out of range")
    return value


def thm3_factors(l: int, d: int, p: int, q: int, alpha: float, beta1: float, beta2: float,
                 c3: float, c4: float, c5: float) -> dict[str, float]:
    """Theorem 3's per-event factors: the mask factor (1 - d^(-1/3))^(2(l-2)),
    the Markov terms (l-2) c4 (q^2/p) d^(-alpha/4 + beta2) of the difference
    events and ((l^2 - l - 2)/2) c3 q^2 / p^(1-beta1) of the weight events,
    and the c5 tail c5 / p^(1-beta1)."""
    if l < 3 or d < 1 or p < 2 or q < 1:
        raise ValueError("need l >= 3, d >= 1, p >= 2, q >= 1")
    if min(c3, c4, c5) < 0:
        raise ValueError("constants must be nonnegative")
    return {"mask": _mask_factor(d, l), "markov_diff": (l - 2) * c4 * (q * q / p) * d ** (-alpha / 4.0 + beta2),
            "markov_w": ((l * l - l - 2) / 2.0) * c3 * q * q / p ** (1.0 - beta1), "c5_tail": c5 / p ** (1.0 - beta1)}


def thm3_probability(l: int, d: int, p: int, q: int, alpha: float, beta1: float, beta2: float,
                     c3: float, c4: float, c5: float) -> float:
    """Success probability of filter pruning from `thm3_factors`,
    mask (1 - markov_diff - markov_w - c5_tail), returned as-is."""
    f = thm3_factors(l, d, p, q, alpha, beta1, beta2, c3, c4, c5)
    return f["mask"] * (1.0 - f["markov_diff"] - f["markov_w"] - f["c5_tail"])
