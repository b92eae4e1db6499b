import math

import numpy as np
import pytest

from prunelab.estimators import QUANTILES, _quantile_order_stat, delta0_from_quantile


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
