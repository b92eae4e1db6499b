"""The theorem quantities the sweeps check, as `theory` states them.

Each moved expression is compared bit for bit with the inline form the
sweeps evaluated before `theory` owned it, so the reports keep every byte.
Where `bounds` and a sweep state one quantity with its factors in another
order, the identity between the two statements is checked to rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunelab.theory import (
    balls_in_bins_event,
    fcn_diff_threshold,
    fcn_exponents,
    fcn_gap_bound,
    fcn_mean_bound,
    thm1_width_terms,
    thm2_factors,
    thm2_probability,
    thm3_event_thresholds,
    thm3_factors,
    thm3_layer_bounds,
    thm3_moment_c2,
    thm3_probability,
)

DEPTHS = st.integers(3, 8)
WIDTHS = st.integers(3, 10**6)
ALPHAS = st.floats(0.05, 0.95)
POSITIVE = st.floats(0.01, 10.0)


def _mask(shape, zeros) -> np.ndarray:
    mask = np.ones(shape)
    for i, j in zeros:
        mask[i, j] = 0.0
    return mask


class TestBallsInBinsEvent:
    # 5 balls in 4 bins: the cap 3N/n = 3.75 admits a load of 3, not 4
    HOLDS = [(0, 0), (0, 1), (0, 2), (1, 3), (2, 3)]

    def test_a_row_load_of_the_floored_cap_holds_and_one_more_fails(self):
        assert balls_in_bins_event(_mask((4, 4), self.HOLDS), 5)
        assert not balls_in_bins_event(_mask((4, 4), self.HOLDS + [(0, 3)]), 5)

    def test_a_column_load_of_the_floored_cap_holds_and_one_more_fails(self):
        cols = [(j, i) for i, j in self.HOLDS]
        assert balls_in_bins_event(_mask((4, 4), cols), 5)
        assert not balls_in_bins_event(_mask((4, 4), cols + [(3, 0)]), 5)

    def test_rows_and_columns_are_bins_of_their_own_count(self):
        # 4 balls in a 3 x 6 mask: 3 row bins of cap 4, 6 column bins of cap 2
        zeros = [(0, 0), (1, 0), (2, 3), (2, 4)]
        assert balls_in_bins_event(_mask((3, 6), zeros), 4)
        assert not balls_in_bins_event(_mask((3, 6), zeros + [(2, 0)]), 4)
        assert balls_in_bins_event(_mask((3, 6), [(0, j) for j in range(4)]), 4)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 6), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_matches_counting_each_bin(self, m, n, count, seed):
        mask = (np.random.default_rng(seed).random((m, n)) > 0.4).astype(float)
        rows = [sum(v == 0.0 for v in mask[i]) for i in range(m)]
        cols = [sum(v == 0.0 for v in mask[:, j]) for j in range(n)]
        want = max(rows) <= 3.0 * count / m and max(cols) <= 3.0 * count / n
        assert balls_in_bins_event(mask, count) == want


@pytest.mark.parametrize("d", [3, 8, 64, 1000, 2**20])
@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.6396, 0.99])
def test_fcn_exponents_and_threshold_are_the_inline_forms_bit_for_bit(d, alpha):
    for magnitude in (True, False):
        mean_expo = -2.0 * alpha if magnitude else -alpha / 2.0
        event_expo = -alpha if magnitude else -alpha / 4.0
        assert fcn_exponents(alpha, magnitude) == (mean_expo, event_expo)
        assert fcn_diff_threshold(d, alpha, magnitude) == float(d) ** event_expo


@pytest.mark.parametrize("p", [4, 8, 32])
@pytest.mark.parametrize("d", [3, 16, 256, 10**6])
@pytest.mark.parametrize("beta1, beta2", [(0.1, 0.05), (0.5, 0.01), (0.9, 0.2)])
def test_thm3_event_thresholds_are_the_inline_forms_bit_for_bit(p, d, beta1, beta2):
    assert thm3_event_thresholds(p, d, beta1, beta2) == (p ** (-beta1), float(d) ** (-beta2))


@settings(max_examples=100, deadline=None)
@given(DEPTHS, WIDTHS, ALPHAS, st.lists(st.floats(0.0, 4.0), min_size=8, max_size=8), st.booleans())
def test_fcn_gap_bound_is_the_inline_form_bit_for_bit(l, d, alpha, norms, magnitude):
    norms = norms[:l]
    n_caps = [max(1.0, v) for v in norms]
    if magnitude:
        want = (2 ** (l - 2) - 1) * float(d) ** (-alpha) * max(n_caps) ** (l - 1)
    else:
        want = (2 ** (l - 2) - 1) * float(d) ** (-alpha / 4.0) * math.prod(n_caps)
    assert fcn_gap_bound(l, d, alpha, magnitude, norms) == want


@settings(max_examples=100, deadline=None)
@given(POSITIVE, WIDTHS, ALPHAS, POSITIVE, POSITIVE, POSITIVE, st.booleans())
def test_fcn_mean_bound_is_the_inline_form_bit_for_bit(c_hat, d, alpha, k_scale, k1, k2, magnitude):
    if magnitude:
        c2_hat = c_hat * k_scale * (2.0 * math.sqrt(2.0) + 24.0**0.25)
        mean_expo = -2.0 * alpha
    else:
        c2_hat = c_hat * (2.0 * math.sqrt(3.0 * k1) + k2**0.25)
        mean_expo = -alpha / 2.0
    assert fcn_mean_bound(c_hat, d, alpha, magnitude, k_scale, k1, k2) == (c2_hat, c2_hat * float(d) ** mean_expo)


@settings(max_examples=100, deadline=None)
@given(POSITIVE, POSITIVE, POSITIVE, st.integers(2, 64), st.integers(1, 7), WIDTHS, st.floats(0.05, 1.9),
       st.sampled_from(["gaussian", "uniform"]))
def test_thm3_constants_and_layer_bounds_are_the_inline_forms_bit_for_bit(c_hat_t, c_hat_d, c1, p, q, d, alpha,
                                                                          kind):
    c2_const = 3.0 * c1**2 if kind == "gaussian" else 1.8 * c1**2
    assert thm3_moment_c2(kind, c1) == c2_const
    c3_hat = c_hat_t * (2.0 * math.sqrt(c1) + c2_const**0.25)
    c4_hat = c_hat_d * (2.0 * math.sqrt(3.0 * c1) + c2_const**0.25)
    want = (c3_hat, c4_hat, c3_hat * q * q / p, c4_hat * (q * q / p) * float(d) ** (-alpha / 4.0), c3_hat / p,
            (c4_hat / p) * float(d) ** (-alpha / 4.0))
    assert thm3_layer_bounds(c_hat_t, c_hat_d, c1, c2_const, p, q, d, alpha) == want


@settings(max_examples=200, deadline=None)
@given(DEPTHS, st.integers(2, 10**6), ALPHAS, st.floats(1.0, 4.0), POSITIVE, POSITIVE, st.floats(0.01, 0.99))
def test_thm1_eps_term_at_the_sweeps_gap_bound_is_the_width(l, d, alpha, c0, c2, delta0, delta):
    """`bounds` and fcn-sweep state Theorem 1 alike: the width the theorem
    asks for, to be within the sweep's magnitude gap bound at width d, is d.
    The sweep's largest cap max(1, ||W_k||) is Theorem 1's c0."""
    eps = fcn_gap_bound(l, d, alpha, True, [c0] * l)
    terms = thm1_width_terms(c0, c2, delta0, l, (1.0,) * (l - 1), alpha, eps, delta)
    assert terms["eps_term"] == pytest.approx(d, rel=1e-9)


DELTAS = st.lists(st.floats(0.0, 0.2), min_size=8, max_size=8)


@settings(max_examples=200, deadline=None)
@given(DEPTHS, WIDTHS, ALPHAS, POSITIVE, DELTAS)
def test_thm2_factors_multiply_to_the_probability_bits(l, d, alpha, c2, deltas):
    deltas = tuple(deltas[:l])
    f = thm2_factors(l, d, alpha, c2, deltas)
    got = thm2_probability(l, d, alpha, c2, deltas)
    assert got == f["mask"] * (1.0 - deltas[l - 1]) * (1.0 - f["markov"] - f["delta_tail"])
    # the one-expression form thm2_probability had before the split
    tail = sum((l - i) * deltas[i - 1] for i in range(1, l))
    bracket = 1.0 - (l - 2) * c2 * d ** (-alpha / 4.0) - tail
    assert got == (1.0 - d ** (-1.0 / 3.0)) ** (2 * (l - 2)) * (1.0 - deltas[l - 1]) * bracket


THM3 = (DEPTHS, WIDTHS, st.integers(2, 64), st.integers(1, 7), ALPHAS, st.floats(0.01, 0.99), st.floats(0.001, 0.2),
        POSITIVE, POSITIVE, POSITIVE)


@settings(max_examples=200, deadline=None)
@given(*THM3)
def test_thm3_factors_multiply_to_the_probability_bits(l, d, p, q, alpha, beta1, beta2, c3, c4, c5):
    f = thm3_factors(l, d, p, q, alpha, beta1, beta2, c3, c4, c5)
    got = thm3_probability(l, d, p, q, alpha, beta1, beta2, c3, c4, c5)
    assert got == f["mask"] * (1.0 - f["markov_diff"] - f["markov_w"] - f["c5_tail"])
    pbar = (
        1.0
        - (l - 2) * c4 * (q * q / p) * d ** (-alpha / 4.0 + beta2)
        - ((l * l - l - 2) / 2.0) * c3 * q * q / p ** (1.0 - beta1)
        - c5 / p ** (1.0 - beta1)
    )
    assert got == (1.0 - d ** (-1.0 / 3.0)) ** (2 * (l - 2)) * pbar


@settings(max_examples=200, deadline=None)
@given(DEPTHS, WIDTHS, ALPHAS, POSITIVE, POSITIVE, POSITIVE)
def test_thm2_markov_term_is_the_sweeps_mean_bound_over_its_threshold(l, d, alpha, c_hat, k1, k2):
    """Markov's bound on each random-pruned layer's difference event is the
    sweep's mean bound over the event's threshold: l - 2 such layers."""
    c2, mean_bound = fcn_mean_bound(c_hat, d, alpha, False, 1.0, k1, k2)
    markov = thm2_factors(l, d, alpha, c2, (0.0,) * l)["markov"]
    assert markov == pytest.approx((l - 2) * mean_bound / fcn_diff_threshold(d, alpha, False), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(*THM3)
def test_thm3_markov_terms_are_the_sweeps_bounds_over_the_event_thresholds(l, d, p, q, alpha, beta1, beta2,
                                                                           c_hat_t, c_hat_d, c1):
    """The difference term is l - 2 layers' diff_bound over the d^(-beta2)
    threshold; the weight term is (l^2 - l - 2)/2 layer events' w_bound over
    the p^(-beta1) threshold."""
    c3, c4, w_bound, diff_bound, _, _ = thm3_layer_bounds(c_hat_t, c_hat_d, c1, thm3_moment_c2("gaussian", c1),
                                                          p, q, d, alpha)
    w_max, diff_max = thm3_event_thresholds(p, d, beta1, beta2)
    f = thm3_factors(l, d, p, q, alpha, beta1, beta2, c3, c4, 0.0)
    assert f["markov_diff"] == pytest.approx((l - 2) * diff_bound / diff_max, rel=1e-12)
    assert f["markov_w"] == pytest.approx((l * l - l - 2) / 2.0 * w_bound / w_max, rel=1e-12)
