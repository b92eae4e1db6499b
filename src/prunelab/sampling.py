"""Seeded random streams, weight-entry distributions, and evaluation-domain
samplers (unit sphere / unit cube).

Every random quantity in the package is drawn from a generator built out of
a (base_seed, stream) pair, so parallel trials are reproducible in isolation
and independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeedSpec",
    "DistributionSpec",
    "draw_matrix",
    "sample_unit_sphere",
    "sample_unit_cube",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SeedSpec:
    """A reproducible stream address: 64-bit base seed plus stream index.

    subkey appends further levels below the stream (for example one trial
    owning separate weight, mask, and evaluation-point streams), so any
    recorded (base_seed, stream) pair can be replayed in isolation.
    """

    base_seed: int
    stream: int = 0
    subkey: tuple = ()

    def __post_init__(self):
        if not 0 <= int(self.base_seed) <= _MASK64:
            raise ValueError("base_seed must fit in 64 bits")
        if int(self.stream) < 0:
            raise ValueError("stream index must be nonnegative")
        object.__setattr__(self, "subkey", tuple(int(k) for k in self.subkey))

    def child(self, stream: int) -> "SeedSpec":
        """Same base and subkey, different stream index."""
        return SeedSpec(self.base_seed, stream, self.subkey)

    def sub(self, *levels: int) -> "SeedSpec":
        """Append sub-stream levels below the current stream."""
        return SeedSpec(self.base_seed, self.stream, self.subkey + levels)

    def generator(self) -> np.random.Generator:
        """PCG64 generator for this address.

        SeedSequence spawn keys give statistically independent streams for
        distinct (stream, subkey) addresses under the same base seed.
        """
        key = (int(self.stream),) + self.subkey
        seq = np.random.SeedSequence(entropy=int(self.base_seed), spawn_key=key)
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class DistributionSpec:
    """Entry distribution for weight matrices.

    kind is "uniform" (symmetric about 0) or "gaussian" (zero mean); the
    scale comes from exactly one of:

      * xavier_k: uniform support [-K/sqrt(max(m, n)), K/sqrt(max(m, n))]
        for an m x n matrix (uniform kind only);
      * variance: fixed per-entry variance, any kind.
    """

    kind: str
    xavier_k: float | None = None
    variance: float | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "gaussian"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if (self.xavier_k is None) == (self.variance is None):
            raise ValueError("exactly one of xavier_k / variance must be set")
        if self.xavier_k is not None:
            if self.kind != "uniform":
                raise ValueError("the xavier scale rule applies to the uniform kind only")
            if self.xavier_k <= 0:
                raise ValueError("xavier_k must be positive")
        if self.variance is not None and self.variance <= 0:
            raise ValueError("variance must be positive")

    def bound(self, rows: int, cols: int) -> float:
        """b >= |entry| for an m x n draw: the uniform half-width, or 40 standard
        deviations (numpy's normal sampler returns at most 12.3) for gaussian."""
        if self.kind != "uniform":
            return 40.0 * float(np.sqrt(self.variance))
        if self.xavier_k is not None:
            return self.xavier_k / np.sqrt(max(rows, cols))
        return float(np.sqrt(3.0 * self.variance))

    def moment_constants(self, rows: int, cols: int) -> tuple[float, float]:
        """(K1, K2) with E X^2 = K1 / max(m, n) and E X^4 = K2 / max(m, n)^2
        for an m x n draw; for the xavier rule these are K^2/3 and K^4/5."""
        mx = max(rows, cols)
        if self.kind == "uniform":
            a = self.bound(rows, cols)
            ex2, ex4 = a * a / 3.0, a**4 / 5.0
        else:
            ex2, ex4 = self.variance, 3.0 * self.variance**2
        return ex2 * mx, ex4 * mx * mx


def draw_matrix(dist: DistributionSpec, rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an i.i.d. rows x cols matrix from an existing generator."""
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if dist.kind == "uniform":
        a = dist.bound(rows, cols)
        return rng.uniform(-a, a, size=(rows, cols))
    return rng.normal(0.0, np.sqrt(dist.variance), size=(rows, cols))


def sample_unit_sphere(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform on the unit sphere in R^dim (rows of the result),
    drawn from an existing generator.

    Gaussian-normalize construction: row i takes the generator's next dim
    normal draws and is divided by its own norm.  So n1 rows and then n2
    rows from one generator are bit for bit the rows of one draw of
    n1 + n2: a caller can draw a long sample chunk by chunk, and the first
    k rows from a generator state are a prefix of any longer sample from
    the same state.
    """
    if dim < 1 or n < 1:
        raise ValueError("dim and n must be >= 1")
    g = rng.standard_normal((n, dim))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    # A zero gaussian row has probability zero; regenerating would break the
    # prefix property, so treat it as the error it is.
    if np.any(norms == 0.0):
        raise RuntimeError("degenerate zero draw while sampling the sphere")
    return g / norms


def sample_unit_cube(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points with i.i.d. U[0,1] coordinates (rows of the result), drawn
    from an existing generator.  Row i takes its next dim uniform draws,
    so chunked draws from one generator equal one draw of all the rows,
    and a shorter sample is a prefix of a longer one from the same state."""
    if dim < 1 or n < 1:
        raise ValueError("dim and n must be >= 1")
    return rng.random((n, dim))
