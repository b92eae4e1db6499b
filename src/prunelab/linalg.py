"""Top singular values: grouped LAPACK SVDs, and a power-iteration check.

`top_singular_values` is the LAPACK kernel of the Monte Carlo estimators and
of fcn-sweep.  `spectral_norm` is the power-iteration cross-check that
circulant-equiv and oracle-suite compare against the LAPACK SVD.  It rejects
non-finite entries and raises ConvergenceError when it hits its iteration
cap.
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
    order, by LAPACK SVD.

    The matrices are stacked in groups of `svd_group_size(m, n)` (the last
    group may be smaller) and each group is one `np.linalg.svd` call, so
    threads running this overlap.  From min(m, n) = 501 on a group is one
    matrix, passed as it is; below, the stack holds k * m * n <= (500 +
    min(m, n)) * max(m, n) doubles, 4 MB at 500 x 500.  numpy copies every
    stacked matrix into its own buffer for the same `gesdd` call as a lone
    matrix gets, so each value has the bits of
    `np.linalg.svd(a, compute_uv=False)[0]`.  `mats` is consumed in order,
    one group ahead of the SVDs at most.
    """
    k = svd_group_size(m, n)
    # a group of one is the matrix itself, with no buffer to copy it into
    stack = np.empty((k, m, n)) if k > 1 else None
    out = []
    filled = 0
    for a in mats:
        if a.shape != (m, n):
            raise ValueError(f"expected {m} x {n} matrices, got shape {a.shape}")
        if stack is None:
            out.append(np.linalg.svd(a, compute_uv=False)[:1])
            continue
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


def spectral_norm(m, tol: float = 1e-10, max_iter: int = 10000) -> float:
    """Largest singular value by power iteration on the Gram operator.

    Deterministic: fixed all-ones start (with a pinned perturbation retry
    for degenerate starts), so repeated calls on the same input return the
    same value.  Stops when the Gram residual ||A^T A v - lam v|| falls
    below tol * lam, which pins the eigenvalue estimate to relative
    accuracy ~tol whenever the top of the spectrum is resolvable.

    Raises ConvergenceError (carrying the last iterate) if the cap is hit.
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
        raise ConvergenceError(
            f"power iteration did not converge in {max_iter} iterations",
            last_estimate=float(np.sqrt(max(lam, 0.0))) * scale,
            last_vector=v,
        )
    # Unreachable for nonzero matrices: some basis vector has A e_i != 0.
    raise ConvergenceError(
        "no admissible start vector found", last_estimate=0.0, last_vector=v
    )
