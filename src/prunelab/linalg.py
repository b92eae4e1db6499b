"""Top singular values: grouped LAPACK SVDs, and a power-iteration check.

`top_singular_values` is the package's one top-singular-value kernel: no
other module calls `np.linalg.svd`.  `spectral_norm` is the power-iteration
cross-check that circulant-equiv and oracle-suite compare against it.  It
rejects non-finite entries and raises ConvergenceError when neither it
nor a Rayleigh-Ritz step at its iteration cap converges.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ConvergenceError", "spectral_norm", "top_singular_values"]

# np.linalg.svd holds the interpreter lock for the whole call unless it
# returns more than this many singular values.  Measured with numpy 2.4 and
# OpenBLAS 0.3.31 on one BLAS thread of a 2-core x86-64 host: two threads
# each running the same 256 x 256 SVDs took 2.0-2.2 times as long as one
# thread alone, and 1.1 times on (2, 256, 256) stacks; stacks of 3 x 166 x
# 166 and 500 x 1 x 1 held the lock, 3 x 167 x 167 and 501 x 1 x 1 released
# it.
_GIL_RELEASE_VALUES = 500

# Fixed fallback start for power iteration when the all-ones vector lies in
# the null space of the Gram operator.  Drawn once from a pinned PCG64 stream
# so the retry is deterministic.
_RETRY_SEED = 0x5EEDED


def _norm(x: np.ndarray) -> float:
    # what np.linalg.norm computes for a real 1-D vector, sqrt(x . x),
    # without its per-call dispatch
    return math.sqrt(x @ x)


def svd_group_size(m: int, n: int) -> int:
    """The smallest k with k * min(m, n) > _GIL_RELEASE_VALUES: stacks of k
    m x n matrices run their SVD without the interpreter lock."""
    return _GIL_RELEASE_VALUES // min(m, n) + 1


def top_singular_values(mats, m: int, n: int) -> np.ndarray:
    """Largest singular value of each m x n matrix that `mats` yields, in
    order, by LAPACK SVD.  The matrices are float64 or complex128, all of
    the first one's dtype.

    The matrices are stacked in groups of `svd_group_size(m, n)` (the last
    group may be smaller) and each group is one `np.linalg.svd` call, so
    threads running this overlap.  From min(m, n) = 501 on a group is one
    matrix, passed as it is; below, the stack holds k * m * n <= (500 +
    min(m, n)) * max(m, n) entries, 4 MB of doubles at 500 x 500.  numpy
    copies every stacked matrix into its own buffer for the same `gesdd`
    (`zgesdd` if complex) call as a lone matrix gets, so each value has the
    bits of `np.linalg.svd(a, compute_uv=False)[0]`.  `mats` is consumed in
    order, one group ahead of the SVDs at most.

    Each matrix is read before the next one is asked for: copied into the
    stack, or, when a group is one matrix, SVD'd at once.  So `mats` may
    yield one buffer refilled for every matrix, as the estimators do; a
    change that holds a yielded matrix past the next draw breaks them.
    """
    k = svd_group_size(m, n)
    # a group of one is the matrix itself, with no buffer to copy it into;
    # the float64 stack is made before the first matrix is drawn
    stack = np.empty((k, m, n)) if k > 1 else None
    dtype = None
    out = []
    filled = 0
    for a in mats:
        dtype = a.dtype if dtype is None else dtype
        if a.shape != (m, n) or a.dtype != dtype:
            raise ValueError(f"expected {m} x {n} {dtype} matrices, got {a.dtype} of shape {a.shape}")
        if stack is None:
            out.append(np.linalg.svd(a, compute_uv=False)[:1])
            continue
        if stack.dtype != dtype:  # the first matrix is not float64
            stack = np.empty_like(stack, dtype=dtype)
        stack[filled] = a
        filled += 1
        if filled == k:
            out.append(np.linalg.svd(stack, compute_uv=False)[:, 0])
            filled = 0
    if filled:
        out.append(np.linalg.svd(stack[:filled], compute_uv=False)[:, 0])
    return np.concatenate(out) if out else np.empty(0)


class ConvergenceError(RuntimeError):
    """Power iteration failed to converge within the iteration cap.

    Carries the last singular-value estimate and iterate so callers can
    inspect how far the iteration got.
    """

    def __init__(self, message: str, last_estimate: float, last_vector=None):
        super().__init__(message)
        self.last_estimate = last_estimate
        self.last_vector = last_vector


def _start_vectors(n: int):
    """Deterministic start vectors, then fallbacks for degenerate starts.

    The primary start is the normalized all-ones vector plus a small pinned
    pseudo-random admixture: the pure all-ones vector is an exact eigenvector
    of circulant-structured Gram operators (it spans their zero-frequency
    invariant subspace), where it would lock the iteration onto a
    non-dominant singular value.  Fallbacks: the pinned random vector alone,
    then the standard basis (a nonzero matrix always has a basis vector
    outside the Gram null space)."""
    r = np.random.Generator(np.random.PCG64(_RETRY_SEED)).standard_normal(n)
    r /= _norm(r)
    yield np.ones(n) / np.sqrt(n) + 0.25 * r
    yield r
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        yield e


def _ritz_top(a: np.ndarray, v: np.ndarray, w: np.ndarray, tol: float) -> float | None:
    """Top Gram eigenvalue of the plane of v and its residual (w = A^T A v),
    or None if that Ritz pair's residual is not below tol times the value.
    When the top two singular values nearly coincide (`[[1, 1e-5], [1e-5,
    1]]`), v settles in their plane but turns in it too slowly to converge."""
    lam = v @ w
    q = w - lam * v
    q -= (q @ v) * v
    q /= _norm(q)
    gq = a.T @ (a @ q)
    # angle of the top eigenvector of the plane's 2 x 2 projection
    phi = 0.5 * math.atan2(2.0 * (q @ w), lam - q @ gq)
    y, gy = math.cos(phi) * v + math.sin(phi) * q, math.cos(phi) * w + math.sin(phi) * gq
    mu = y @ gy
    return mu if _norm(gy - mu * y) <= tol * mu else None


def spectral_norm(m, tol: float = 1e-10, max_iter: int = 10000) -> float:
    """Largest singular value by power iteration on the Gram operator.

    Deterministic: fixed all-ones start (with a pinned perturbation retry
    for degenerate starts), so repeated calls on the same input return the
    same value.  Stops when the Gram residual ||A^T A v - lam v|| falls
    below tol * lam, which pins the eigenvalue estimate to relative
    accuracy ~tol whenever the top of the spectrum is resolvable.

    At the cap, one Rayleigh-Ritz step on the last iterate's plane
    (`_ritz_top`) resolves a near-degenerate top pair; if its residual does
    not pass either, raises ConvergenceError carrying the last iterate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("spectral_norm expects a matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if not np.any(a):
        return 0.0

    # exact power-of-two rescale so the Gram operator neither underflows for
    # tiny entries (|a| < 1e-154 squares to 0) nor overflows for huge ones
    scale = 2.0 ** np.ceil(np.log2(np.abs(a).max()))
    a = a / scale

    n = a.shape[1]
    lam = 0.0
    v = None
    for v0 in _start_vectors(n):
        v = v0 / _norm(v0)
        w = a.T @ (a @ v)
        nw = _norm(w)
        if nw == 0.0:
            continue  # start in the null space: try the next deterministic start
        for _ in range(max_iter):
            lam = float(v @ w)
            if _norm(w - lam * v) <= tol * lam:
                return float(np.sqrt(lam)) * scale
            v = w / nw
            w = a.T @ (a @ v)
            nw = _norm(w)
        if (mu := _ritz_top(a, v, w, tol)) is not None:
            return float(np.sqrt(mu)) * scale
        raise ConvergenceError(
            f"power iteration did not converge in {max_iter} iterations",
            last_estimate=float(np.sqrt(max(lam, 0.0))) * scale,
            last_vector=v,
        )
    # Unreachable for nonzero matrices: some basis vector has A e_i != 0.
    raise ConvergenceError("no admissible start vector found", last_estimate=0.0, last_vector=v)
