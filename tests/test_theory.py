import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from prunelab.config import ConfigError, default_config, load_config
from prunelab.harness import run_experiment
from prunelab.sampling import SeedSpec
from prunelab.theory import (
    balls_in_bins_check,
    balls_in_bins_exact,
    order_stat_moment,
    order_stat_moment_exact,
    thm1_width_terms,
    thm2_alpha_constraint,
    thm2_probability,
    thm3_alpha_constraint,
    thm3_probability,
    thm3_rhs,
)

SEED = SeedSpec(24680)


class TestOrderStatMoment:
    def test_single_sample_is_plain_moment(self):
        # E U^2 = 1/3 and E U^4 = 1/5 for U ~ U[-1, 1]
        assert order_stat_moment_exact(1, 1, 1) == Fraction(1, 3)
        assert order_stat_moment_exact(1, 1, 2) == Fraction(1, 5)

    def test_worked_rational_value(self):
        assert order_stat_moment_exact(100, 10, 1) == Fraction(110, 10302)

    def test_displayed_first_moment_closed_form(self):
        for n, r in [(4, 1), (16, 7), (100, 100), (4096, 64)]:
            assert order_stat_moment_exact(n, r, 1) == Fraction(r * (r + 1), (n + 1) * (n + 2))

    def test_displayed_second_moment_closed_form(self):
        for n, r in [(5, 2), (64, 64), (1024, 11)]:
            want = Fraction(r * (r + 1) * (r + 2) * (r + 3), (n + 1) * (n + 2) * (n + 3) * (n + 4))
            assert order_stat_moment_exact(n, r, 2) == want

    def test_order_statistics_sum_to_sample_sum(self):
        # sum_r E X_(r) = n E X = n a^2 / 3
        for n in range(1, 51):
            total = sum(order_stat_moment_exact(n, r, 1) for r in range(1, n + 1))
            assert total == Fraction(n, 3)

    def test_scale_factor(self):
        assert order_stat_moment(2.0, 10, 3, 1) == pytest.approx(
            4.0 * float(order_stat_moment_exact(10, 3, 1))
        )

    def test_monte_carlo_agreement(self):
        # sorted squared uniforms, 10^6 trials at (n, r) = (100, 10)
        n, r, trials = 100, 10, 1_000_000
        rng = SEED.generator()
        total = 0.0
        total_sq = 0.0
        chunk = 20_000
        for lo in range(0, trials, chunk):
            u = rng.uniform(-1.0, 1.0, size=(min(chunk, trials - lo), n))
            x = np.partition(u * u, r - 1, axis=1)[:, r - 1]
            total += x.sum()
            total_sq += (x * x).sum()
        mean = total / trials
        stderr = math.sqrt((total_sq / trials - mean**2) / trials)
        exact = float(order_stat_moment_exact(n, r, 1))
        assert abs(mean - exact) <= 3 * stderr

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            order_stat_moment_exact(5, 6, 1)
        with pytest.raises(ValueError):
            order_stat_moment_exact(5, 0, 1)
        with pytest.raises(ValueError):
            order_stat_moment(0.0, 5, 1, 1)


def brute_force_max_load_prob(bins: int, balls: int, cap: float) -> Fraction:
    """Exhaustive enumeration over all bins**balls assignments."""
    good = 0
    for assign in itertools.product(range(bins), repeat=balls):
        loads = [0] * bins
        for a in assign:
            loads[a] += 1
        if max(loads) <= cap:
            good += 1
    return Fraction(good, bins**balls)


class TestBallsInBins:
    def test_exact_vs_brute_force_4_8(self):
        got = balls_in_bins_exact(4, 8, 6.0)
        assert got == brute_force_max_load_prob(4, 8, 6.0)
        assert got == 1 - Fraction(100, 65536)

    @pytest.mark.parametrize("bins,balls,cap", [(2, 10, 6), (3, 6, 3), (5, 5, 1), (2, 12, 7)])
    def test_exact_vs_brute_force_small(self, bins, balls, cap):
        assert balls_in_bins_exact(bins, balls, cap) == brute_force_max_load_prob(bins, balls, cap)

    def test_cap_at_least_balls_is_certain(self):
        assert balls_in_bins_exact(3, 7, 7) == 1

    def test_cap_below_average_is_impossible(self):
        assert balls_in_bins_exact(2, 10, 4) == 0

    def test_single_bin(self):
        res = balls_in_bins_check(1, 20, 500, SEED)
        assert res["empirical"] == 1.0

    def test_monte_carlo_matches_exact(self):
        res = balls_in_bins_check(4, 8, 10_000, SEED.child(1))
        assert res["exact"] == pytest.approx(1 - 100 / 65536)
        assert abs(res["empirical"] - res["exact"]) <= 3 * res["stderr"]

    def test_guarantee_branch(self):
        n = 64
        balls = math.ceil(n * math.log(n))
        res = balls_in_bins_check(n, balls, 2_000, SEED.child(2))
        assert res["guarantee_applies"]
        assert res["guarantee_floor"] == pytest.approx(1 - 64 ** (-1 / 3))
        assert res["empirical"] >= res["guarantee_floor"]
        assert res["guarantee_holds"]


def _bounds(**sections) -> dict:
    """The bounds report's rows as {(section, name): value}, with only the
    given sections."""
    overrides = {"thm1": {}, "thm2": {}, "thm3": {}} | sections
    report = run_experiment("bounds", load_config("bounds", overrides=overrides))
    return {(r["section"], r["name"]): r["value"] for r in report.rows}


class TestThm1WidthBound:
    CONSTS = (1.0, 1.0, 1.0)  # c0, c2, delta0

    def test_worked_example(self):
        # four terms evaluate to 1, 100, 4900, (ln 10 + ln 7)/4
        terms = thm1_width_terms(*self.CONSTS, 3, (1.0, 1.0, 1.0), 0.5, 0.1, 0.1)
        assert terms["scale_term"] == pytest.approx(1.0)
        assert terms["eps_term"] == pytest.approx(100.0)
        assert terms["delta_term"] == pytest.approx(4900.0)
        assert terms["log_term"] == pytest.approx(1.0621238105123397, rel=1e-12)
        assert math.ceil(max(terms.values())) == 4900

    def test_bounds_report_width_bound(self):
        thm1 = {"l": 3, "lipschitz": [1.0, 1.0, 1.0], "alpha": 0.5, "eps": 0.1, "delta": 0.1,
                "c0": 1.0, "c2": 1.0, "delta0": 1.0}
        rows = _bounds(thm1=thm1)
        assert rows[("thm1", "width_bound")] == 4900
        assert rows[("thm1", "delta_term")] == pytest.approx(4900.0)

    def test_monotone_in_eps(self):
        prev = 0
        for eps in (0.5, 0.25, 0.1, 0.01):
            b = math.ceil(max(thm1_width_terms(*self.CONSTS, 3, (1.0,) * 3, 0.5, eps, 0.5).values()))
            assert b >= prev
            prev = b

    def test_delta_near_one_dominated_by_eps_term(self):
        terms = thm1_width_terms(*self.CONSTS, 3, (1.0,) * 3, 0.5, 0.1, 0.999)
        assert max(terms.values()) == terms["eps_term"]

    @pytest.mark.parametrize("name", ["c0", "c2", "delta0"])
    def test_config_rejects_nonpositive_constants(self, name):
        for bad in (0, -1.0):
            thm1 = default_config("bounds")["thm1"] | {name: bad}
            with pytest.raises(ConfigError, match=rf"thm1\.{name} must be a number > 0"):
                load_config("bounds", overrides={"thm1": thm1})


class TestThm2Alpha:
    def test_homogeneous_1024(self):
        want = 1 - (math.log(1025) - math.log(math.log(1024))) / (2 * math.log(1024))
        assert thm2_alpha_constraint(1024) == pytest.approx(want, rel=1e-12)
        assert round(want, 4) == 0.6396

    def test_limit_tends_to_one_half_from_above(self):
        # the cap peaks at small d and settles towards 1/2 for huge widths
        values = [thm2_alpha_constraint(d) for d in (64, 1024, 2**14, 2**20, 2**40)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.5
        assert thm2_alpha_constraint(64) == pytest.approx(0.66948, abs=1e-4)

    def test_admits_half_but_not_099(self):
        assert 0.5 <= thm2_alpha_constraint(64)
        assert 0.99 > thm2_alpha_constraint(64)

    def test_bounds_report_rows_share_one_cap(self):
        # equal widths make every pruned layer's row and column caps coincide
        thm2 = default_config("bounds")["thm2"] | {"l": 5, "d": 64, "widths": [64] * 4, "deltas": [0.01] * 5}
        rows = _bounds(thm2=thm2)
        names = [f"alpha_max_{side}_layer{k}" for k in (2, 3, 4) for side in ("rows", "cols")]
        names.append("alpha_max_overall")
        assert [name for (_, name) in rows][:7] == names
        assert [rows[("thm2", name)] for name in names] == [thm2_alpha_constraint(64)] * 7

    def test_rejects_small_widths(self):
        with pytest.raises(ValueError):
            thm2_alpha_constraint(2)


class TestThm2Probability:
    def test_limit_one(self):
        val = thm2_probability(3, 10**40, 0.6, 1.0, (0.0, 0.0, 0.0))
        assert val == pytest.approx(1.0, abs=1e-5)
        assert val > 0.0

    def test_worked_example(self):
        val = thm2_probability(3, 10**6, 0.6, 1.0, (0.0, 0.0, 0.0))
        assert val == pytest.approx(0.8567127203900537, rel=1e-12)

    def test_last_layer_failure_zeroes(self):
        assert thm2_probability(4, 100, 0.5, 1.0, (0.0, 0.0, 0.0, 1.0)) == 0.0

    def test_vacuous_flagged(self):
        val = thm2_probability(5, 10, 0.1, 50.0, (0.1,) * 5)
        assert val <= 0.0
        # the report flags it; the bound at alpha 0.1 is admissible at d = 10
        thm2 = {"l": 5, "d": 10, "widths": [10] * 4, "alpha": 0.1, "c2": 50.0, "deltas": [0.1] * 5}
        rows = _bounds(thm2=thm2)
        assert rows[("thm2", "probability")] == val
        assert rows[("thm2", "non_vacuous")] is False


class TestThm3AlphaConstraint:
    def test_paper_values(self):
        assert round(thm3_alpha_constraint(128), 4) == 0.6729
        assert round(thm3_alpha_constraint(1024), 4) == 0.7205

    def test_approaches_one(self):
        # slow convergence: the 0.9 mark needs d around 2^60
        caps = [thm3_alpha_constraint(d) for d in (2**10, 2**20, 2**40, 2**60)]
        assert all(b > a for a, b in zip(caps, caps[1:]))
        assert caps[-1] > 0.9

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            thm3_alpha_constraint(2)


class TestThm3Rhs:
    # alpha enters the bound only through the domain check beta2 < alpha/4

    def test_worked_example(self):
        got = thm3_rhs(32, 64, 1, 1.0, 3, 0.5, 0.1, 0.6)
        assert got == pytest.approx(0.16493848884661178, rel=1e-12)

    def test_large_beta2_drives_to_zero(self):
        small = thm3_rhs(32, 64, 1, 1.0, 3, 0.5, 200.0, 801.0)
        assert 0.0 < small < 1e-12

    def test_bracket_contracts_in_d(self):
        # the sqrt(d) prefactor grows, so the convergence content lives in the
        # bracket: rhs / sqrt(d) must shrink to 0 as d grows
        vals = [thm3_rhs(32, d, 1, 1.0, 3, 0.5, 0.1, 0.6) / math.sqrt(d) for d in (2**10, 2**16, 2**22, 2**28)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        # decay rate is d^(-beta2): across 2^18 that is a factor 2^(-1.8)
        assert vals[-1] == pytest.approx(vals[0] * 2 ** (-1.8), rel=0.01)

    def test_decreasing_in_d_for_steep_beta2(self):
        # with beta2 above 1/2 the d-dependence is outright decreasing
        vals = [thm3_rhs(32, d, 1, 1.0, 3, 0.5, 0.6, 2.5) for d in (2**6, 2**10, 2**14, 2**18)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("beta2, message", [(0.2, "below alpha/4"), (0.15, "below alpha/4"), (0.0, "positive")])
    def test_validates_beta2_against_alpha(self, beta2, message):
        # 0 < beta2 < alpha/4 = 0.15
        with pytest.raises(ValueError, match=f"beta2 must be {message}"):
            thm3_rhs(32, 64, 1, 1.0, 3, 0.5, beta2, 0.6)


class TestThm3Probability:
    def test_zero_constants(self):
        for l, d in [(3, 64), (5, 1000)]:
            got = thm3_probability(l, d, 32, 3, 0.6, 0.1, 0.05, 0.0, 0.0, 0.0)
            assert got == pytest.approx((1 - d ** (-1 / 3)) ** (2 * (l - 2)), rel=1e-12)

    def test_vacuous_flag(self):
        got = thm3_probability(3, 64, 4, 3, 0.6, 0.9, 0.05, 10.0, 10.0, 10.0)
        assert got <= 0.0

    def test_dual_implementation(self):
        l, d, p, q, alpha, b1, b2 = 3, 256, 32, 3, 0.6, 0.1, 0.05
        c3 = c4 = c5 = 0.6
        pbar = (
            1.0
            - (l - 2) * c4 * (q**2 / p) * d ** (-alpha / 4 + b2)
            - (l**2 - l - 2) / 2 * c3 * q**2 / p ** (1 - b1)
            - c5 / p ** (1 - b1)
        )
        want = (1 - d ** (-1 / 3)) ** (2 * (l - 2)) * pbar
        got = thm3_probability(l, d, p, q, alpha, b1, b2, c3, c4, c5)
        assert got == pytest.approx(want, rel=1e-12)
        rows = _bounds(thm3=default_config("bounds")["thm3"])
        assert rows[("thm3", "probability")] == got
        assert rows[("thm3", "non_vacuous")] is True

    def test_increasing_in_d(self):
        vals = [thm3_probability(3, d, 32, 3, 0.6, 0.1, 0.05, 0.6, 0.6, 0.6) for d in (64, 256, 1024, 4096)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
