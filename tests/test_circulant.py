import numpy as np
import pytest

from prunelab.circulant import (
    apply_kernel_transform,
    build_block,
    build_full_map,
    circ,
    conv2d_wrap,
    flatten_maps,
    irfft2_inplace,
    kernel_transform,
    pad_kernel,
    rfft2_inplace,
    spectral_norm_via_dft,
    unflatten_maps,
    wrap_index,
)
from prunelab.linalg import spectral_norm

RNG = np.random.default_rng(777)


def conv_reference(x, f):
    """Brute-force wrap-around convolution straight from the definition:
    Y[s,a,b] = sum_{t,i,j} X[t, (a+i-1)%p, (b+j-1)%p] K[s,t,i,j] with the
    1-based modulo convention, evaluated entry by entry."""
    d_out, d_in, q, _ = f.shape
    p = x.shape[-1]
    y = np.zeros((d_out, p, p))
    for s in range(1, d_out + 1):
        for a in range(1, p + 1):
            for b in range(1, p + 1):
                acc = 0.0
                for t in range(1, d_in + 1):
                    for i in range(1, q + 1):
                        for j in range(1, q + 1):
                            acc += (
                                x[t - 1, wrap_index(a + i - 1, p) - 1, wrap_index(b + j - 1, p) - 1]
                                * f[s - 1, t - 1, i - 1, j - 1]
                            )
                y[s - 1, a - 1, b - 1] = acc
    return y


def conv_direct(x, f):
    """Wrap-around convolution as the sum of the q^2 rolled products
    f[:, :, i, j] x rolled by (-i, -j), on (..., d_in, p, p) batches."""
    d_out, d_in, q, _ = f.shape
    p = x.shape[-1]
    out = np.zeros(x.shape[:-3] + (d_out, p, p))
    for i in range(q):
        for j in range(q):
            rolled = np.roll(x, shift=(-i, -j), axis=(-2, -1))
            out += np.einsum("st,...tab->...sab", f[:, :, i, j], rolled)
    return out


class TestWrapIndex:
    def test_multiples_map_to_n(self):
        assert wrap_index(4, 4) == 4
        assert wrap_index(8, 4) == 4

    def test_plain_remainder_otherwise(self):
        assert wrap_index(5, 4) == 1
        assert wrap_index(3, 4) == 3
        assert wrap_index(1, 7) == 1


class TestCirc:
    def test_two_vector(self):
        np.testing.assert_array_equal(circ([1.0, 2.0]), [[1.0, 2.0], [2.0, 1.0]])

    def test_singleton(self):
        np.testing.assert_array_equal(circ([7.0]), [[7.0]])

    def test_all_ones(self):
        np.testing.assert_array_equal(circ(np.ones(3)), np.ones((3, 3)))

    def test_right_rotation_rows(self):
        c = circ([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(c[1], [4.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(c[3], [2.0, 3.0, 4.0, 1.0])


class TestPadKernel:
    def test_scalar_kernel(self):
        k = pad_kernel(np.full((1, 1, 1, 1), 3.5), 3)
        assert k[0, 0, 0, 0] == 3.5
        assert np.count_nonzero(k) == 1

    def test_zero_tensor(self):
        assert not pad_kernel(np.zeros((2, 2, 2, 2)), 4).any()

    def test_count_preservation(self):
        k = pad_kernel(np.ones((2, 3, 2, 2)), 4)
        assert np.count_nonzero(k) == 2 * 3 * 4
        for s in range(2):
            for t in range(3):
                assert k[s, t].sum() == 4.0

    def test_rejects_p_not_above_q(self):
        with pytest.raises(ValueError):
            pad_kernel(np.ones((1, 1, 3, 3)), 3)


class TestBuildBlock:
    def test_single_tap_is_scaled_identity(self):
        k = pad_kernel(np.full((1, 1, 1, 1), 2.5), 2)
        np.testing.assert_array_equal(build_block(k, 0, 0), 2.5 * np.eye(4))

    def test_zero_slice(self):
        k = np.zeros((2, 2, 3, 3))
        assert not build_block(k, 1, 0).any()

    def test_rows_are_wraparound_permutations(self):
        k = pad_kernel(RNG.standard_normal((1, 1, 2, 2)), 3)
        b = build_block(k, 0, 0)
        first = np.sort(b[0])
        for row in b:
            np.testing.assert_array_equal(np.sort(row), first)

    def test_pinned_one_indexed_layout(self):
        # block row I, block column J of the doubly block circulant matrix is
        # circ of kernel row (J - I) % p + 1 (1-based); entry (i, j) of a circ
        # level is component (j - i) % p + 1 of its vector
        p = 4
        k = pad_kernel(RNG.standard_normal((1, 1, 3, 3)), p)
        b = build_block(k, 0, 0)
        slab = k[0, 0]
        for bi in range(1, p + 1):
            for bj in range(1, p + 1):
                krow = wrap_index(bj - bi + 1, p)
                for i in range(1, p + 1):
                    for j in range(1, p + 1):
                        kcol = wrap_index(j - i + 1, p)
                        assert b[(bi - 1) * p + i - 1, (bj - 1) * p + j - 1] == slab[krow - 1, kcol - 1]

    def test_rejects_bad_channel(self):
        with pytest.raises(ValueError):
            build_block(np.zeros((1, 1, 2, 2)), 1, 0)


class TestBuildFullMap:
    def test_single_channel_single_tap(self):
        k = pad_kernel(np.full((1, 1, 1, 1), -1.5), 3)
        np.testing.assert_array_equal(build_full_map(k), -1.5 * np.eye(9))

    def test_block_structure_matches_build_block(self):
        f = RNG.standard_normal((2, 3, 2, 2))
        k = pad_kernel(f, 4)
        w = build_full_map(k)
        for s in range(2):
            for t in range(3):
                np.testing.assert_array_equal(
                    w[s * 16 : (s + 1) * 16, t * 16 : (t + 1) * 16], build_block(k, s, t)
                )

    def test_matvec_equals_brute_force_convolution(self):
        f = RNG.standard_normal((2, 2, 2, 2))
        x = RNG.standard_normal((2, 4, 4))
        w = build_full_map(pad_kernel(f, 4))
        got = w @ flatten_maps(x)
        want = flatten_maps(conv_reference(x, f))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_all_ones_filter_row_sums(self):
        q = 3
        w = build_full_map(pad_kernel(np.ones((1, 1, q, q)), 5))
        np.testing.assert_allclose(w.sum(axis=1), q * q, atol=1e-12)

    def test_filter_mask_zeroes_exactly_one_block(self):
        f = RNG.standard_normal((2, 2, 2, 2))
        p = 4
        fmask = np.ones((2, 2))
        fmask[1, 0] = 0.0
        masked = f * fmask[:, :, None, None]
        w0 = build_full_map(pad_kernel(f, p))
        w1 = build_full_map(pad_kernel(masked, p))
        diff = w0 - w1
        blk = slice(1 * p * p, 2 * p * p), slice(0 * p * p, 1 * p * p)
        np.testing.assert_array_equal(diff[blk], build_block(pad_kernel(f, p), 1, 0))
        diff[blk[0], blk[1]] = 0.0
        assert not diff.any()


class TestConv2dWrap:
    @pytest.mark.parametrize("conv", [conv2d_wrap, conv_direct], ids=["fft", "direct"])
    def test_matches_brute_force(self, conv):
        for _ in range(5):
            d_out, d_in = RNG.integers(1, 4, size=2)
            p = int(RNG.integers(2, 7))
            q = int(RNG.integers(1, p + 1))
            f = RNG.standard_normal((d_out, d_in, q, q))
            x = RNG.standard_normal((d_in, p, p))
            got = conv(x, f)
            np.testing.assert_allclose(got, conv_reference(x, f), atol=1e-12)

    def test_fft_equals_direct_batched(self):
        f = RNG.standard_normal((3, 2, 3, 3))
        x = RNG.standard_normal((10, 2, 6, 6))
        np.testing.assert_allclose(conv2d_wrap(x, f), conv_direct(x, f), atol=1e-12)

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ValueError):
            conv2d_wrap(np.zeros((2, 3, 3)), np.zeros((1, 1, 1, 1)))

    def test_rejects_kernel_larger_than_maps(self):
        with pytest.raises(ValueError, match="kernel size 4 exceeds spatial size 3"):
            conv2d_wrap(np.zeros((1, 3, 3)), np.zeros((1, 1, 4, 4)))
        with pytest.raises(ValueError, match="kernel size 4 exceeds spatial size 3"):
            kernel_transform(np.zeros((1, 1, 4, 4)), 3)


def einsum_conv(xhat, f, p):
    """The apply step before it ran as one matmul: numpy's einsum on the
    C-order (d_out, d_in, p, p // 2 + 1) conjugated kernel spectrum."""
    kpad = np.zeros(f.shape[:2] + (p, p))
    kpad[:, :, : f.shape[2], : f.shape[3]] = f
    khat = np.fft.rfft2(kpad, axes=(-2, -1)).conj()
    return irfft2_inplace(np.einsum("...tuv,stuv->...suv", xhat, khat, optimize=True), p)


# (batch shape, d_out, d_in, p): matrix products, and products with a unit
# dimension (one point, one input or one output channel), which numpy runs
# outside BLAS or as a broadcast product
APPLY_SHAPES = [
    ((64,), 64, 64, 8), ((69,), 16, 16, 8), ((7,), 2, 3, 6), ((2, 7), 2, 3, 6),
    ((1,), 3, 4, 5), ((), 2, 3, 6), ((5,), 1, 3, 4), ((5,), 3, 1, 4), ((3,), 1, 1, 3), ((300,), 16, 1, 8),
]


@pytest.mark.parametrize(
    "batch, d_out, d_in, p, layout",
    [(*shape, layout) for shape in APPLY_SHAPES for layout in ("c-order", "frequency-major")
     if layout == "c-order" or len(shape[0]) == 1],
)
def test_apply_step_is_the_einsum_product(batch, d_out, d_in, p, layout):
    # bit for bit, on C-order spectra and on the frequency-major ones, with
    # one batch axis, that the conv runner hands the next layer
    f = RNG.standard_normal((d_out, d_in, min(3, p - 1), min(3, p - 1)))
    xhat = rfft2_inplace(RNG.standard_normal(batch + (d_in, p, p)))
    if layout == "frequency-major":
        spread = np.empty((p, p // 2 + 1, d_in) + batch, dtype=complex).transpose(3, 2, 0, 1)
        spread[...] = xhat
        xhat = spread
    got = apply_kernel_transform(xhat, kernel_transform(f, p), p)
    assert np.array_equal(got.view(np.int64), einsum_conv(xhat, f, p).view(np.int64))


def product_spectrum(batch, d, p):
    """The conv product's output as apply_kernel_transform hands it to the
    inverse transform: memory laid out frequency-major, not in C order."""
    xhat = np.fft.rfft2(RNG.standard_normal((batch, 3, p, p)), axes=(-2, -1))
    khat = kernel_transform(RNG.standard_normal((d, 3, min(3, p - 1), min(3, p - 1))), p)
    yhat = np.matmul(khat, xhat.reshape(batch, 3, -1).transpose(2, 1, 0))
    yhat = yhat.reshape(p, p // 2 + 1, d, batch).transpose(3, 2, 0, 1)
    assert not yhat.flags.c_contiguous
    return yhat


class TestInplaceTransforms:
    """The conv step's 2-d transforms run their second pass in place; they
    must give numpy's 2-d transforms bit for bit, on C-order arrays and on
    the conv product's output."""

    @pytest.mark.parametrize("batch, d, p", [(3, 4, 4), (5, 2, 5), (16, 8, 8)])
    def test_forward_equals_rfft2(self, batch, d, p):
        c_order = RNG.standard_normal((batch, d, p, p))
        # the real maps the irfft pass leaves, laid out like the product output
        strided = np.fft.irfft(product_spectrum(batch, d, p), n=p, axis=-1)
        assert not strided.flags.c_contiguous
        for x in (c_order, strided):
            want = np.fft.rfft2(x, axes=(-2, -1))
            keep = x.copy()
            np.testing.assert_array_equal(rfft2_inplace(x), want)
            np.testing.assert_array_equal(x, keep)

    @pytest.mark.parametrize("batch, d, p", [(3, 4, 4), (5, 2, 5), (16, 8, 8)])
    def test_inverse_equals_irfft2(self, batch, d, p):
        strided = product_spectrum(batch, d, p)
        c_order = np.ascontiguousarray(product_spectrum(batch, d, p))
        for yhat in (c_order, strided):
            want = np.fft.irfft2(yhat, s=(p, p), axes=(-2, -1))
            np.testing.assert_array_equal(irfft2_inplace(yhat, p), want)


class TestSpectralNormViaDft:
    def test_scalar_filter(self):
        k = pad_kernel(np.full((1, 1, 1, 1), -2.5), 4)
        assert spectral_norm_via_dft(k) == pytest.approx(2.5, rel=1e-12)

    def test_all_ones_filter_attains_q_squared(self):
        q, p = 3, 7
        k = pad_kernel(np.ones((1, 1, q, q)), p)
        got = spectral_norm_via_dft(k)
        assert got == pytest.approx(q * q, rel=1e-10)
        want = float(np.linalg.svd(build_full_map(k), compute_uv=False)[0])
        assert got == pytest.approx(want, rel=1e-10)

    def test_random_multichannel_matches_explicit_svd(self):
        f = RNG.standard_normal((2, 2, 3, 3))
        k = pad_kernel(f, 6)
        got = spectral_norm_via_dft(k)
        want = float(np.linalg.svd(build_full_map(k), compute_uv=False)[0])
        assert got == pytest.approx(want, rel=1e-8)

    def test_matches_power_iteration_route(self):
        f = RNG.standard_normal((3, 2, 2, 2))
        k = pad_kernel(f, 5)
        assert spectral_norm_via_dft(k) == pytest.approx(
            spectral_norm(build_full_map(k), tol=1e-10), rel=1e-8
        )

    def test_equivalence_sweep_within_budget(self):
        # every shape with p^2 * max(d_out, d_in) <= 256
        for d_out in (1, 2, 3):
            for d_in in (1, 2, 3):
                for p in (2, 3, 4, 6, 8):
                    if p * p * max(d_out, d_in) > 256:
                        continue
                    q = min(3, p - 1)
                    f = RNG.standard_normal((d_out, d_in, q, q))
                    k = pad_kernel(f, p)
                    got = spectral_norm_via_dft(k)
                    want = float(np.linalg.svd(build_full_map(k), compute_uv=False)[0])
                    assert got == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize(
        "d_out, d_in, p, q", [(1, 1, 2, 1), (2, 3, 5, 2), (3, 2, 6, 3), (16, 16, 8, 3), (64, 64, 8, 3)]
    )
    def test_bitwise_equal_to_out_of_place_route(self, d_out, d_in, p, q):
        # the route before the second ifft pass, the scaling and the phase
        # product ran in place and the gather took one index
        k = pad_kernel(RNG.standard_normal((d_out, d_in, q, q)), p)
        g = np.fft.ifft2(k, axes=(2, 3)) * (p * p)
        res = np.arange(1, p + 1) % p
        phase = np.exp(2j * np.pi * np.arange(1, p + 1) / p)
        blocks = g.transpose(2, 3, 0, 1)[res][:, res] * (phase[:, None] * phase[None, :])[:, :, None, None]
        want = float(np.linalg.svd(blocks.reshape(p * p, d_out, d_in), compute_uv=False)[:, 0].max())
        assert spectral_norm_via_dft(k) == want


class TestFlatten:
    def test_round_trip(self):
        x = RNG.standard_normal((4, 3, 5, 5))
        np.testing.assert_array_equal(unflatten_maps(flatten_maps(x), 3, 5), x)

    def test_channel_major_order(self):
        x = np.arange(2 * 2 * 2, dtype=float).reshape(2, 2, 2)
        np.testing.assert_array_equal(flatten_maps(x), np.arange(8, dtype=float))
