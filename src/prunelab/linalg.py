"""Dense matrix and vector primitives shared by every other module.

Matrices are 2-d float64 numpy arrays stored column-major so that
``vectorize`` (column stacking) is a zero-copy view.  All constructors
reject non-finite entries; operations on validated inputs stay finite.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ConvergenceError",
    "as_matrix",
    "as_vector",
    "vectorize",
    "unvectorize",
    "hadamard",
    "matvec",
    "l0_norm",
    "l2_norm",
    "spectral_norm",
]

# Fixed fallback start for power iteration when the all-ones vector lies in
# the null space of the Gram operator.  Drawn once from a pinned PCG64 stream
# so the retry is deterministic.
_RETRY_SEED = 0x5EEDED


class ConvergenceError(RuntimeError):
    """Power iteration failed to converge within the iteration cap.

    Carries the last singular-value estimate and iterate so callers can
    inspect how far the iteration got.
    """

    def __init__(self, message: str, last_estimate: float, last_vector=None):
        super().__init__(message)
        self.last_estimate = last_estimate
        self.last_vector = last_vector


def as_matrix(data) -> np.ndarray:
    """Validate and return a column-major float64 matrix.

    Raises ValueError on wrong dimensionality, empty axes, or
    non-finite entries.
    """
    m = np.asfortranarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-d, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(data) -> np.ndarray:
    """Validate and return a float64 vector."""
    v = np.asarray(data, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"vector must be 1-d, got ndim={v.ndim}")
    if v.shape[0] < 1:
        raise ValueError("vector dimension must be positive")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def vectorize(m) -> np.ndarray:
    """Column-stack a matrix: [M_11, ..., M_m1, M_12, ..., M_mn].

    On a column-major input this is a zero-copy view.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("vectorize expects a matrix")
    return m.ravel(order="F")


def unvectorize(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vectorize`: rebuild the rows x cols matrix."""
    v = np.asarray(v, dtype=np.float64)
    if v.size != rows * cols:
        raise ValueError(f"cannot reshape length-{v.size} vector to {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def hadamard(a, b) -> np.ndarray:
    """Element-wise product of two matrices of identical shape."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a * b


def matvec(m, v) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if m.ndim != 2 or v.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ValueError(f"cannot multiply {m.shape} by vector of dim {v.shape}")
    return m @ v


def l0_norm(v) -> int:
    """Number of nonzero entries."""
    return int(np.count_nonzero(np.asarray(v)))


def l2_norm(v) -> float:
    return float(np.linalg.norm(np.asarray(v, dtype=np.float64)))


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
    r /= np.linalg.norm(r)
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
        v = v0 / np.linalg.norm(v0)
        w = a.T @ (a @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            continue  # start in the null space: try the next deterministic start
        for _ in range(max_iter):
            lam = float(v @ w)
            if np.linalg.norm(w - lam * v) <= tol * lam:
                return float(np.sqrt(lam)) * scale
            v = w / nw
            w = a.T @ (a @ v)
            nw = np.linalg.norm(w)
        raise ConvergenceError(
            f"power iteration did not converge in {max_iter} iterations",
            last_estimate=float(np.sqrt(max(lam, 0.0))) * scale,
            last_vector=v,
        )
    # Unreachable for nonzero matrices: some basis vector has A e_i != 0.
    raise ConvergenceError(
        "no admissible start vector found", last_estimate=0.0, last_vector=v
    )
