"""Closed-form moments, tail bounds, and theorem-side bound calculators.

Everything here is a pure function of user-supplied constants.  The width
bounds and probability expressions only prove existence of their constants,
so nothing is hardcoded: callers pass measured or assumed values through
:class:`TheoremConstants` or plain arguments.

Natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .sampling import SeedSpec

__all__ = [
    "TheoremConstants",
    "BoundReport",
    "ProbabilityValue",
    "order_stat_moment_exact",
    "order_stat_moment",
    "chernoff_upper",
    "balls_in_bins_exact",
    "BallsBinsResult",
    "balls_in_bins_check",
    "thm1_width_bound",
    "thm1_width_terms",
    "thm2_alpha_limits",
    "thm2_alpha_constraints",
    "thm2_probability",
    "thm3_alpha_constraint",
    "thm3_rhs",
    "thm3_probability",
]


@dataclass(frozen=True)
class TheoremConstants:
    """User-supplied positive constants feeding the bound calculators.

    c0 / delta0 come from the uniform-matrix norm bound, c1 is the universal
    constant of the independent-entry norm bound (c2 derives from it), and
    n_bounds / n_deltas are the per-layer operator-norm caps N_k with their
    failure probabilities delta_k.
    """

    c0: float | None = None
    delta0: float | None = None
    c1: float | None = None
    c2: float | None = None
    k_scale: float | None = None  # uniform half-width scale K
    k1: float | None = None  # second-moment constant
    k2: float | None = None  # fourth-moment constant
    n_bounds: tuple[float, ...] = field(default_factory=tuple)
    n_deltas: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        for name in ("c0", "delta0", "c1", "c2", "k_scale", "k1", "k2"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"{name} must be positive")
        if any(n < 1 for n in self.n_bounds):
            raise ValueError("operator-norm caps N_k must be >= 1")
        if any(not 0 <= d <= 1 for d in self.n_deltas):
            raise ValueError("per-layer probabilities delta_k must lie in [0, 1]")

    def require(self, *names: str) -> None:
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ValueError(f"missing constants: {', '.join(missing)}")


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality: satisfied iff lhs `direction` rhs."""

    name: str
    lhs: float
    rhs: float
    direction: str = "<="

    def __post_init__(self):
        if self.direction not in ("<=", ">="):
            raise ValueError("direction must be '<=' or '>='")

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs if self.direction == "<=" else self.lhs >= self.rhs


@dataclass(frozen=True)
class ProbabilityValue:
    """A probability expression evaluated as-is; non_vacuous means > 0."""

    value: float

    @property
    def non_vacuous(self) -> bool:
        return self.value > 0.0


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
# Chernoff and balls-into-bins
# ---------------------------------------------------------------------------


def chernoff_upper(mu: float, delta: float) -> float:
    """Upper tail bound exp(-delta^2 mu / (1 + delta)) for sums of 0/1 variables."""
    if mu <= 0 or delta <= 0:
        raise ValueError("mu and delta must be positive")
    return math.exp(-(delta * delta) * mu / (1.0 + delta))


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


@dataclass(frozen=True)
class BallsBinsResult:
    bins: int
    balls: int
    threshold: float  # 3N/n
    empirical: float
    stderr: float
    trials: int
    guarantee_applies: bool  # N >= n log n
    guarantee_floor: float  # 1 - n^(-1/3)
    exact: float | None = None  # exact probability when cheaply enumerable

    @property
    def guarantee_holds(self) -> bool:
        return (not self.guarantee_applies) or self.empirical >= self.guarantee_floor


def balls_in_bins_check(
    bins: int,
    balls: int,
    trials: int,
    seed: SeedSpec,
    exact_limit: float = 1e6,
) -> BallsBinsResult:
    """Monte Carlo frequency of {max load <= 3N/n}, with the guarantee branch
    (N >= n log n implies probability >= 1 - n^(-1/3)) checked and reported.

    Also evaluates the exact probability when bins**balls <= exact_limit.
    """
    if bins < 1 or balls < 1 or trials < 1:
        raise ValueError("bins, balls, trials must be >= 1")
    threshold = 3.0 * balls / bins
    rng = seed.generator()
    hits = 0
    chunk = max(1, min(trials, int(2e6) // max(balls, 1)))
    done = 0
    while done < trials:
        b = min(chunk, trials - done)
        throws = rng.integers(0, bins, size=(b, balls))
        # trial i counts into bins [i * bins, (i + 1) * bins); in place, so a
        # chunk allocates no second 2M-entry array
        throws += np.arange(b)[:, None] * bins
        counts = np.bincount(throws.ravel(), minlength=b * bins)
        maxload = counts.reshape(b, bins).max(axis=1)
        hits += int(np.count_nonzero(maxload <= threshold))
        done += b
    emp = hits / trials
    stderr = math.sqrt(max(emp * (1.0 - emp), 0.0) / trials)
    applies = balls >= bins * math.log(bins) if bins > 1 else True
    floor = 1.0 - bins ** (-1.0 / 3.0)
    exact = None
    if bins**balls <= exact_limit:
        exact = float(balls_in_bins_exact(bins, balls, threshold))
    return BallsBinsResult(
        bins=bins,
        balls=balls,
        threshold=threshold,
        empirical=emp,
        stderr=stderr,
        trials=trials,
        guarantee_applies=applies,
        guarantee_floor=floor,
        exact=exact,
    )


# ---------------------------------------------------------------------------
# Width bounds and probability expressions
# ---------------------------------------------------------------------------


def thm1_width_terms(
    consts: TheoremConstants,
    l: int,
    lipschitz: tuple[float, ...],
    alpha: float,
    eps: float,
    delta: float,
) -> dict[str, float]:
    """The four width lower-bound terms for magnitude pruning of uniform nets.

    Constants are instantiated from the supplied c0, c2, delta0:
      C1 = 1/c0,
      C2 = (2^(l-2) - 1) * prod(L_1..L_{l-1}) * c0^(l-1),
      C3 = (l^2 - 2) * c2,
    and the additive log term (log(1/delta) + log(l^2 - 2)) / (4 delta0).
    """
    consts.require("c0", "c2", "delta0")
    if l < 3:
        raise ValueError("depth l must be >= 3")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if eps <= 0 or not 0 < delta < 1:
        raise ValueError("need eps > 0 and delta in (0, 1)")
    if len(lipschitz) not in (l - 1, l):
        raise ValueError(f"expected l-1 or l Lipschitz constants, got {len(lipschitz)}")
    l_prod = math.prod(lipschitz[: l - 1])
    c0, c2, d0 = consts.c0, consts.c2, consts.delta0
    c_2 = (2 ** (l - 2) - 1) * l_prod * c0 ** (l - 1)
    return {
        "scale_term": (1.0 / c0) ** (1.0 / alpha),
        "eps_term": (c_2 / eps) ** (1.0 / alpha),
        "delta_term": ((l * l - 2) * c2 / delta) ** (1.0 / alpha),
        "log_term": (math.log(1.0 / delta) + math.log(l * l - 2)) / (4.0 * d0),
    }


def thm1_width_bound(
    consts: TheoremConstants,
    l: int,
    lipschitz: tuple[float, ...],
    alpha: float,
    eps: float,
    delta: float,
) -> int:
    """Ceiling of the max of the four magnitude-pruning width-bound terms."""
    terms = thm1_width_terms(consts, l, lipschitz, alpha, eps, delta)
    return math.ceil(max(terms.values()))


def _alpha_limit(m: int, n: int) -> float:
    # admissible-alpha cap from the (m, n)-shaped mask: rows side uses m
    return 1.0 - (math.log(m + 1) - math.log(math.log(m))) / (math.log(m) + math.log(n))


def thm2_alpha_limits(widths: tuple[int, ...]) -> list[dict]:
    """Per-pruned-layer alpha caps for random pruning.

    widths are the hidden widths d_1..d_{l-1}; pruned layer k (2 <= k <= l-1)
    has mask shape d_k x d_{k-1} and contributes a row-side and a column-side
    cap.  Every width must be >= 3 so log log is defined and positive.
    """
    if len(widths) < 2:
        raise ValueError("need at least two hidden widths (depth l >= 3)")
    if any(d < 3 for d in widths):
        raise ValueError("hidden widths must be >= 3")
    out = []
    for k in range(2, len(widths) + 1):  # 1-based pruned layer index
        m, n = widths[k - 1], widths[k - 2]  # mask is d_k x d_{k-1}
        out.append(
            {
                "layer": k,
                "alpha_max_rows": _alpha_limit(m, n),
                "alpha_max_cols": _alpha_limit(n, m),
            }
        )
    return out


def thm2_alpha_constraints(alpha: float, widths: tuple[int, ...]) -> list[BoundReport]:
    """Check a candidate alpha against every per-layer cap."""
    reports = []
    for lim in thm2_alpha_limits(widths):
        k = lim["layer"]
        reports.append(BoundReport(f"layer{k}_rows", alpha, lim["alpha_max_rows"]))
        reports.append(BoundReport(f"layer{k}_cols", alpha, lim["alpha_max_cols"]))
    return reports


def thm2_min_alpha_limit(widths: tuple[int, ...]) -> float:
    lims = thm2_alpha_limits(widths)
    return min(min(x["alpha_max_rows"], x["alpha_max_cols"]) for x in lims)


def thm2_probability(
    l: int,
    d: int,
    alpha: float,
    c2: float,
    deltas: tuple[float, ...],
) -> ProbabilityValue:
    """Success probability of random pruning:

        (1 - d^(-1/3))^(2(l-2)) * (1 - delta_l)
          * [1 - (l-2) c2 d^(-alpha/4) - sum_{i<l} (l-i) delta_i]

    deltas supplies delta_1..delta_l.  The value is reported as-is (it may
    be <= 0; check non_vacuous).
    """
    if l < 3 or d < 1:
        raise ValueError("need l >= 3 and d >= 1")
    if len(deltas) != l:
        raise ValueError(f"expected {l} per-layer probabilities, got {len(deltas)}")
    if c2 <= 0:
        raise ValueError("c2 must be positive")
    mask_part = (1.0 - d ** (-1.0 / 3.0)) ** (2 * (l - 2))
    tail = sum((l - i) * deltas[i - 1] for i in range(1, l))
    bracket = 1.0 - (l - 2) * c2 * d ** (-alpha / 4.0) - tail
    return ProbabilityValue(mask_part * (1.0 - deltas[l - 1]) * bracket)


def thm3_alpha_constraint(d: int) -> float:
    """Maximal admissible alpha for random filter pruning:
    2 - (log(d+1) + log log d) / log d."""
    if d < 3:
        raise ValueError("need d >= 3")
    return 2.0 - (math.log(d + 1) + math.log(math.log(d))) / math.log(d)


def thm3_rhs(
    p: int,
    d: int,
    p0: int,
    lipschitz: float,
    l: int,
    beta1: float,
    beta2: float,
    alpha: float | None = None,
) -> float:
    """Gap upper bound for filter-pruned CNNs:

        p^(-b1) L^(l-1) p0 sqrt(d) [p^(-b1) (p^(-b1) + d^(-b2))^(l-2)
                                     - p^(-(l-1) b1)]

    beta1 in (0,1), beta2 > 0 (and < alpha/4 when alpha is given), l >= 3.
    The bracket is strictly positive for finite d.
    """
    if l < 3:
        raise ValueError("depth l must be >= 3")
    if not 0 < beta1 < 1:
        raise ValueError("beta1 must lie in (0, 1)")
    if beta2 <= 0:
        raise ValueError("beta2 must be positive")
    if alpha is not None and beta2 >= alpha / 4.0:
        raise ValueError("beta2 must be below alpha/4")
    if p < 2 or d < 1 or p0 < 1 or lipschitz <= 0:
        raise ValueError("need p >= 2, d >= 1, p0 >= 1, positive Lipschitz constant")
    pb = p ** (-beta1)
    bracket = pb * (pb + d ** (-beta2)) ** (l - 2) - p ** (-(l - 1) * beta1)
    value = pb * lipschitz ** (l - 1) * p0 * math.sqrt(d) * bracket
    if value <= 0:
        raise ArithmeticError("bound evaluated non-positive; inputs out of range")
    return value


def thm3_probability(
    l: int,
    d: int,
    p: int,
    q: int,
    alpha: float,
    beta1: float,
    beta2: float,
    c3: float,
    c4: float,
    c5: float,
) -> ProbabilityValue:
    """Success probability of filter pruning: (1 - d^(-1/3))^(2(l-2)) * pbar,

        pbar = 1 - (l-2) c4 (q^2/p) d^(-alpha/4 + beta2)
                 - ((l^2 - l - 2)/2) c3 q^2 / p^(1-beta1)
                 - c5 / p^(1-beta1).
    """
    if l < 3 or d < 1 or p < 2 or q < 1:
        raise ValueError("need l >= 3, d >= 1, p >= 2, q >= 1")
    if min(c3, c4, c5) < 0:
        raise ValueError("constants must be nonnegative")
    pbar = (
        1.0
        - (l - 2) * c4 * (q * q / p) * d ** (-alpha / 4.0 + beta2)
        - ((l * l - l - 2) / 2.0) * c3 * q * q / p ** (1.0 - beta1)
        - c5 / p ** (1.0 - beta1)
    )
    mask_part = (1.0 - d ** (-1.0 / 3.0)) ** (2 * (l - 2))
    return ProbabilityValue(mask_part * pbar)
