import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prunelab.linalg import ConvergenceError, spectral_norm

RNG = np.random.default_rng(1234)


def svd_norm(a):
    """Independent oracle: largest singular value via full LAPACK SVD."""
    return float(np.linalg.svd(np.asarray(a, dtype=np.float64), compute_uv=False)[0])


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, rel=1e-10)

    def test_nilpotent_shift(self):
        assert spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0, rel=1e-10)

    def test_random_8x8_vs_svd(self):
        a = RNG.standard_normal((8, 8))
        assert spectral_norm(a) == pytest.approx(svd_norm(a), rel=1e-10)

    def test_sizes_up_to_32_vs_svd(self):
        for n in (1, 2, 3, 4, 7, 12, 19, 25, 32):
            a = RNG.standard_normal((n, max(1, n - 2)))
            assert spectral_norm(a) == pytest.approx(svd_norm(a), rel=1e-10)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 3))) == 0.0

    def test_all_ones_start_in_null_space(self):
        # row sums vanish: the all-ones vector is in the null space of A^T A
        a = np.array([[1.0, -1.0]])
        assert spectral_norm(a) == pytest.approx(np.sqrt(2.0), rel=1e-10)

    def test_doubly_degenerate_start(self):
        # both the all-ones and ramp directions are killed: (1,-2,1) . (1,1,1) = 0
        a = np.array([[1.0, -2.0, 1.0]])
        assert spectral_norm(a) == pytest.approx(np.sqrt(6.0), rel=1e-10)

    def test_circulant_gram_not_trapped(self):
        # all-ones is an exact eigenvector of a circulant Gram at the mean
        # frequency; the dominant value lives elsewhere
        from prunelab.circulant import circ

        c = circ(np.array([1.0, -2.0, 1.5, -0.25]))
        assert spectral_norm(c) == pytest.approx(svd_norm(c), rel=1e-10)

    def test_transpose_invariance(self):
        a = RNG.standard_normal((9, 5))
        assert spectral_norm(a) == pytest.approx(spectral_norm(a.T), rel=1e-10)

    def test_submultiplicative(self):
        tol = 1e-10
        for _ in range(20):
            a = RNG.standard_normal((6, 5))
            b = RNG.standard_normal((5, 7))
            assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 10 * tol

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            spectral_norm(np.eye(2), tol=0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            spectral_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_convergence_error_carries_state(self):
        a = RNG.standard_normal((12, 12))
        with pytest.raises(ConvergenceError) as info:
            spectral_norm(a, tol=1e-14, max_iter=1)
        assert info.value.last_estimate >= 0.0
        assert info.value.last_vector is not None

    def test_convergence_error_estimate_in_input_units(self):
        # near-degenerate top singular values stall the iteration; the entries
        # are far from 1, so an estimate left in the internal power-of-two
        # rescaled units would be off by the factor 2^666
        a = np.diag([3.0, 2.999, 1.0]) * 1e200
        with pytest.raises(ConvergenceError) as info:
            spectral_norm(a, max_iter=5)
        ref = svd_norm(a)
        assert 0.5 * ref <= info.value.last_estimate <= ref * (1.0 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(
    m=arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        elements=st.floats(-1e3, 1e3, allow_nan=False),
    )
)
def test_spectral_norm_matches_oracle_property(m):
    got = spectral_norm(m, tol=1e-12)
    want = svd_norm(m)
    assert abs(got - want) <= 1e-10 * max(want, 1.0)
    assert np.isfinite(got)
