"""Doubly block circulant structure of wrap-around convolutions.

A conv layer with stride 1 and wrap-around padding is the linear map
``vec(Y) = W vec(X)`` where W is built from per-channel-pair doubly block
circulant blocks.  This module constructs the padded kernel, the blocks
and the full map, applies the layer to feature maps by FFT, and computes
the map's spectral norm frequency by frequency, through the DFT and the
one SVD kernel `linalg.top_singular_values`, without the p^2 d x p^2 d map.

Index conventions (pinned by tests in tests/test_circulant.py):

* feature maps are (d, p, p) tensors flattened in C order (channel-major,
  then rows, then columns within a channel);
* wrap-around uses the 1-based modulo where k % n maps to n when n
  divides k (:func:`wrap_index`); in 0-based array code this is plain
  ``% p`` on the shifted index.
"""

from __future__ import annotations

import numpy as np

from .linalg import top_singular_values

__all__ = [
    "wrap_index",
    "as_conv_tensor",
    "pad_kernel",
    "circ",
    "build_block",
    "build_full_map",
    "spectral_norm_via_dft",
    "conv2d_wrap",
    "kernel_transform",
    "apply_kernel_transform",
    "rfft2_inplace",
    "irfft2_inplace",
    "flatten_maps",
    "unflatten_maps",
]


def wrap_index(k: int, n: int) -> int:
    """1-based wrap-around index: k % n, except n (not 0) when n divides k."""
    r = k % n
    return n if r == 0 else r


def as_conv_tensor(data) -> np.ndarray:
    """The one check of a (out_channels, in_channels, q, q) filter bank:
    4-d, square nonempty kernels, finite entries."""
    f = np.asarray(data, dtype=np.float64)
    if f.ndim != 4:
        raise ValueError(f"conv tensor must be 4-d, got ndim={f.ndim}")
    if f.shape[2] != f.shape[3] or f.shape[2] < 1:
        raise ValueError(f"kernels must be square and nonempty, got {f.shape[2:]}")
    if not np.all(np.isfinite(f)):
        raise ValueError("conv tensor entries must be finite")
    return f


def pad_kernel(f, p: int) -> np.ndarray:
    """Embed each q x q kernel into the top-left corner of a p x p zero slice."""
    f = as_conv_tensor(f)
    q = f.shape[2]
    if p <= q:
        raise ValueError(f"need p > q, got p={p}, q={q}")
    d_out, d_in = f.shape[:2]
    k = np.zeros((d_out, d_in, p, p))
    k[:, :, :q, :q] = f
    return k


def circ(a) -> np.ndarray:
    """Circulant matrix of a vector: row i is a right-rotated by i positions."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1 or a.size < 1:
        raise ValueError("circ expects a nonempty vector")
    return a[_block_index_grid(a.size)]


def _block_index_grid(p: int) -> np.ndarray:
    # grid[i, j] selects the kernel slot feeding position (i, j) of a
    # circulant level: the offset (j - i) mod p
    r = np.arange(p)
    return (r[None, :] - r[:, None]) % p


def build_block(k, s: int, t: int) -> np.ndarray:
    """The p^2 x p^2 doubly block circulant block for channel pair (s, t).

    Block row I, block column J holds circ of kernel row (J - I) mod p;
    channel indices are 0-based.
    """
    k = np.asarray(k, dtype=np.float64)
    d_out, d_in, p, _ = k.shape
    if not (0 <= s < d_out and 0 <= t < d_in):
        raise ValueError(f"channel indices ({s}, {t}) out of range for {d_out}x{d_in}")
    g = _block_index_grid(p)
    slab = k[s, t]
    # b4[I, J, i, j] = slab[(J-I) % p, (j-i) % p]
    b4 = slab[g[:, :, None, None], g[None, None, :, :]]
    return b4.transpose(0, 2, 1, 3).reshape(p * p, p * p)


def build_full_map(k) -> np.ndarray:
    """Assemble the full (p^2 d_out) x (p^2 d_in) linear map of a wrap-around
    conv layer from its padded kernel; satisfies
    ``flatten_maps(conv2d_wrap(x, f)) == W @ flatten_maps(x)``."""
    k = np.asarray(k, dtype=np.float64)
    d_out, d_in, p, _ = k.shape
    g = _block_index_grid(p)
    # w6[s, t, I, J, i, j] = k[s, t, (J-I) % p, (j-i) % p]
    w6 = k[:, :, g[:, :, None, None], g[None, None, :, :]]
    return w6.transpose(0, 2, 4, 1, 3, 5).reshape(d_out * p * p, d_in * p * p)


def spectral_norm_via_dft(k) -> float:
    """Spectral norm of the conv map as the max over frequency pairs (u, v)
    of the largest singular value of the d_out x d_in matrix

        P(u, v)[s, t] = sum_{i,j} omega^(u i) k[s, t, i, j] omega^(v j),

    with omega = exp(2 pi sqrt(-1) / p) and 1-based u, v, i, j.
    """
    k = np.asarray(k, dtype=np.float64)
    d_out, d_in, p, _ = k.shape
    if not k.size:
        return 0.0  # no channels: the map is to or from the zero space
    # g[s, t, u', v'] = sum_{i0, j0} omega^(u' i0 + v' j0) k[s, t, i0, j0]:
    # the two passes of ifft2, the second and the scaling written over the
    # first pass's output
    g = np.fft.ifft(k, axis=3)
    np.fft.ifft(g, axis=2, out=g)
    g *= p * p
    res = np.arange(1, p + 1) % p  # 1-based frequency -> 0-based residue
    phase = np.exp(2j * np.pi * np.arange(1, p + 1) / p)
    blocks = g.transpose(2, 3, 0, 1)[np.ix_(res, res)]  # [u, v, s, t]
    blocks *= (phase[:, None] * phase[None, :])[:, :, None, None]
    return float(top_singular_values(blocks.reshape(p * p, d_out, d_in), d_out, d_in).max())


def conv2d_wrap(x, f) -> np.ndarray:
    """Wrap-around convolution of feature maps.

    x has shape (..., d_in, p, p), f is (d_out, d_in, q, q) with q <= p.
    Output entry (s, a, b) is sum over (t, i, j) of
    x[t, (a + i) % p, (b + j) % p] * f[s, t, i, j] in 0-based indices,
    matching the 1-based definition through :func:`wrap_index`.

    Computed by the circular cross-correlation theorem in two steps,
    :func:`kernel_transform` and :func:`apply_kernel_transform`.  The tests
    pin it against a direct loop over the q^2 rolled products and against
    the explicit matrix route.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 3 or x.shape[-1] != x.shape[-2]:
        raise ValueError(f"feature maps of shape {x.shape} are not (..., d_in, p, p)")
    p = x.shape[-1]
    khat = kernel_transform(f, p)  # checks f and q <= p
    if x.shape[-3] != khat.shape[2]:
        raise ValueError(f"feature maps of shape {x.shape} do not match {khat.shape[2]} input channels")
    return apply_kernel_transform(rfft2_inplace(x), khat, p)


def kernel_transform(f, p: int) -> np.ndarray:
    """Kernel-transform step of :func:`conv2d_wrap`: the conjugated rfft2
    of each kernel zero-padded to p x p, laid out as the step's left matmul
    operand, (p * (p // 2 + 1), d_out, d_in) in C order.  It depends on the
    filters only, so a caller that convolves many batches computes it once."""
    f = as_conv_tensor(f)
    d_out, d_in, q, _ = f.shape
    if q > p:
        raise ValueError(f"kernel size {q} exceeds spatial size {p}")
    kpad = np.zeros((d_out, d_in, p, p))
    kpad[:, :, :q, :q] = f
    # not rfft2_inplace, which raised cnn-sweep peak RSS by 0.6 MB (numpy 2.4.6, x86-64)
    spectrum = np.fft.rfft2(kpad, axes=(-2, -1))
    khat = np.empty((p * (p // 2 + 1), d_out, d_in), dtype=complex)
    np.conjugate(spectrum.transpose(2, 3, 0, 1), out=khat.reshape(p, -1, d_out, d_in))
    return khat


def apply_kernel_transform(xhat, khat, p: int) -> np.ndarray:
    """Apply step of :func:`conv2d_wrap`: the (..., d_out, p, p) output maps
    from xhat, the rfft2 over the last two axes of the (..., d_in, p, p)
    input maps, and khat = :func:`kernel_transform`.  The product is the
    matmul numpy's einsum ``"...tuv,stuv->...suv"`` hands to BLAS, khat by
    xhat's (frequencies, d_in, points) view, with frequency-major output.
    With one point, input or output channel that einsum makes no matrix
    product and a matmul rounds otherwise, so it runs as that einsum."""
    freqs, d_out, d_in = khat.shape
    x = xhat.reshape(-1, d_in, freqs).transpose(2, 1, 0)
    if min(d_out, d_in, x.shape[2]) > 1:
        yhat = np.matmul(khat, x).reshape(p, p // 2 + 1, d_out, *xhat.shape[:-3])
        return irfft2_inplace(np.moveaxis(yhat, (0, 1, 2), (-2, -1, -3)), p)
    kernel = khat.reshape(p, p // 2 + 1, d_out, d_in).transpose(2, 3, 0, 1).copy()
    return irfft2_inplace(np.einsum("...tuv,stuv->...suv", xhat, kernel, optimize=True), p)


def rfft2_inplace(x) -> np.ndarray:
    """``np.fft.rfft2(x, axes=(-2, -1))``, bit for bit: its rfft pass over
    the last axis, then its fft pass over the second-last axis written over
    the first pass's output, so one complex array is allocated, not two."""
    xhat = np.fft.rfft(x, axis=-1)
    return np.fft.fft(xhat, axis=-2, out=xhat)


def irfft2_inplace(yhat: np.ndarray, p: int) -> np.ndarray:
    """``np.fft.irfft2(yhat, s=(p, p), axes=(-2, -1))``, bit for bit: its
    ifft pass over the second-last axis written over yhat, which the caller
    gives up, then its irfft pass over the last axis into a new real array
    laid out like yhat."""
    np.fft.ifft(yhat, axis=-2, out=yhat)
    return np.fft.irfft(yhat, n=p, axis=-1)


def flatten_maps(x) -> np.ndarray:
    """C-order flattening of (..., d, p, p) feature maps to (..., d p^2)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 3:
        raise ValueError("expected (..., d, p, p) feature maps")
    return x.reshape(x.shape[:-3] + (-1,))


def unflatten_maps(v, d: int, p: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != d * p * p:
        raise ValueError(f"cannot reshape length {v.shape[-1]} into ({d}, {p}, {p})")
    return v.reshape(v.shape[:-1] + (d, p, p))
