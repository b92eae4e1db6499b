import numpy as np
import pytest

from prunelab.sampling import (
    DistributionSpec,
    SeedSpec,
    draw_matrix,
    sample_unit_cube,
    sample_unit_sphere,
)

SEED = SeedSpec(987654321)


class TestSeedSpec:
    def test_determinism(self):
        a = SEED.generator().random(16)
        b = SEED.generator().random(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = SEED.child(0).generator().random(16)
        b = SEED.child(1).generator().random(16)
        assert not np.array_equal(a, b)

    def test_child_preserves_subkey(self):
        s = SEED.sub(3)
        assert s.child(7).subkey == (3,)
        assert s.child(7).stream == 7

    def test_sub_appends(self):
        assert SEED.sub(1).sub(2).subkey == (1, 2)

    def test_stream_independence_correlation(self):
        n = 10_000
        a = SEED.child(0).generator().random(n)
        b = SEED.child(1).generator().random(n)
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.05

    def test_rejects_negative_stream(self):
        with pytest.raises(ValueError):
            SeedSpec(1, -1)

    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError):
            SeedSpec(1 << 65)


class TestDistributionSpec:
    def test_requires_exactly_one_scale(self):
        with pytest.raises(ValueError):
            DistributionSpec("uniform")
        with pytest.raises(ValueError):
            DistributionSpec("uniform", xavier_k=1.0, variance=1.0)

    def test_bound_is_uniform_half_width_or_40_gaussian_standard_deviations(self):
        assert DistributionSpec("uniform", variance=3.0).bound(8, 8) == 3.0
        assert DistributionSpec("uniform", xavier_k=2.0).bound(4, 16) == 0.5
        assert DistributionSpec("gaussian", variance=0.25).bound(8, 8) == 20.0

    def test_xavier_is_uniform_only(self):
        with pytest.raises(ValueError):
            DistributionSpec("gaussian", xavier_k=1.0)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            DistributionSpec("uniform", xavier_k=0.0)
        with pytest.raises(ValueError):
            DistributionSpec("gaussian", variance=-1.0)

    def test_xavier_moment_constants(self):
        k1, k2 = DistributionSpec("uniform", xavier_k=2.0).moment_constants(64, 32)
        assert k1 == pytest.approx(4.0 / 3.0)
        assert k2 == pytest.approx(16.0 / 5.0)

    def test_gaussian_moment_constants(self):
        k1, k2 = DistributionSpec("gaussian", variance=0.25).moment_constants(8, 8)
        assert k1 == pytest.approx(0.25 * 8)
        assert k2 == pytest.approx(3 * 0.25**2 * 64)


class TestDrawMatrix:
    def test_xavier_support_bound(self):
        m = draw_matrix(DistributionSpec("uniform", xavier_k=1.0), 32, 32, SEED.generator())
        assert np.all(np.abs(m) <= 1.0 / np.sqrt(32))

    def test_same_seed_bit_identical(self):
        a = draw_matrix(DistributionSpec("uniform", xavier_k=1.0), 20, 30, SEED.child(5).generator())
        b = draw_matrix(DistributionSpec("uniform", xavier_k=1.0), 20, 30, SEED.child(5).generator())
        assert np.array_equal(a, b)

    def test_xavier_second_moment(self):
        # variance of U[-a, a] is a^2/3 with a = 1/sqrt(512)
        m = draw_matrix(DistributionSpec("uniform", xavier_k=1.0), 512, 512, SEED.generator())
        want = (1.0 / 512.0) / 3.0
        assert np.mean(m * m) == pytest.approx(want, rel=0.05)

    def test_moment_bounds_for_general_pruning_assumption(self):
        # E|X|^2 <= K1/max(m,n), E|X|^4 <= K2/max(m,n)^2 with K1=K^2/3, K2=K^4/5
        k = 1.5
        m = draw_matrix(DistributionSpec("uniform", xavier_k=k), 400, 250, SEED.child(9).generator())
        mx = 400
        assert np.mean(m**2) <= 1.1 * k**2 / 3.0 / mx
        assert np.mean(m**4) <= 1.1 * k**4 / 5.0 / mx**2
        assert np.mean(m**2) == pytest.approx(k**2 / 3.0 / mx, rel=0.1)
        assert np.mean(m**4) == pytest.approx(k**4 / 5.0 / mx**2, rel=0.1)

    def test_uniform_variance_rule(self):
        m = draw_matrix(DistributionSpec("uniform", variance=0.01), 300, 300, SEED.generator())
        assert np.all(np.abs(m) <= np.sqrt(0.03) + 1e-15)
        assert m.var() == pytest.approx(0.01, rel=0.05)

    def test_gaussian_variance_rule(self):
        m = draw_matrix(DistributionSpec("gaussian", variance=2.0), 300, 300, SEED.generator())
        assert m.var() == pytest.approx(2.0, rel=0.05)
        assert abs(m.mean()) < 3 * np.sqrt(2.0 / m.size) * 2


    def test_rejects_nonpositive_dimensions(self):
        dist = DistributionSpec("uniform", xavier_k=1.0)
        for rows, cols in ((0, 4), (4, 0), (-1, 4)):
            with pytest.raises(ValueError, match="matrix dimensions must be positive"):
                draw_matrix(dist, rows, cols, SEED.generator())


class TestSphere:
    def test_dim_one_gives_signs(self):
        pts = sample_unit_sphere(1, 64, SEED.generator())
        assert set(np.unique(pts)) <= {-1.0, 1.0}

    def test_unit_norms(self):
        pts = sample_unit_sphere(7, 500, SEED.generator())
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_coordinate_symmetry(self):
        pts = sample_unit_sphere(3, 100_000, SEED.generator())
        assert np.all(np.abs(pts.mean(axis=0)) < 0.02)

    def test_prefix_property(self):
        full = sample_unit_sphere(5, 100, SEED.child(3).generator())
        head = sample_unit_sphere(5, 40, SEED.child(3).generator())
        assert np.array_equal(full[:40], head)


def _split(total: int):
    """Chunk sizes that add up to total: whole 256-row chunks and a partial
    one, then ragged sizes."""
    yield [256] * (total // 256) + ([total % 256] if total % 256 else [])
    yield [1, 63, 64, 65, total - 193]


SAMPLERS = [sample_unit_sphere, sample_unit_cube]


@pytest.mark.parametrize("dim", [1, 3, 192, 257])
@pytest.mark.parametrize("sampler", SAMPLERS, ids=["sphere", "cube"])
def test_chunked_draws_equal_one_shot_draw(sampler, dim):
    # the sup-gap estimate draws its points chunk by chunk from one
    # generator; its reports hold only if that gives the one-shot rows
    want = sampler(dim, 700, SEED.child(5).generator())
    for sizes in _split(700):
        rng = SEED.child(5).generator()
        got = np.concatenate([sampler(dim, k, rng) for k in sizes])
        assert got.tobytes() == want.tobytes()


class _ZeroNormals:
    """A generator stand-in whose normal draws are all zero."""

    def standard_normal(self, size):
        return np.zeros(size)


def test_sphere_rejects_a_zero_draw():
    with pytest.raises(RuntimeError, match="degenerate zero draw"):
        sample_unit_sphere(4, 3, _ZeroNormals())


class TestCube:
    def test_support(self):
        pts = sample_unit_cube(4, 1000, SEED.generator())
        assert np.all((pts >= 0.0) & (pts <= 1.0))

    def test_coordinate_mean(self):
        pts = sample_unit_cube(2, 100_000, SEED.generator())
        assert np.all(np.abs(pts.mean(axis=0) - 0.5) < 0.01)

    def test_determinism_and_prefix(self):
        a = sample_unit_cube(3, 64, SEED.child(1).generator())
        b = sample_unit_cube(3, 64, SEED.child(1).generator())
        assert np.array_equal(a, b)
        head = sample_unit_cube(3, 16, SEED.child(1).generator())
        assert np.array_equal(a[:16], head)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            sample_unit_cube(0, 5, SEED.generator())
