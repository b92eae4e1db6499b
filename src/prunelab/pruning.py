"""The five mask-producing pruning schemes.

Random with replacement, random without replacement, layer-wise magnitude,
global magnitude (all four for FCN weight matrices), and random filter
pruning for CNN conv layers.  Every scheme leaves the first and last layers
untouched.  A mask is a tuple of 0/1 float arrays, one per layer, that the
gap estimator and the forward passes check against the model's layer
shapes.  `build_mask` is the one dispatch from a model, a scheme name and
per-layer counts to the scheme's function.
"""

from __future__ import annotations

import math

import numpy as np

from .networks import CnnModel, FcnModel, _mask_shapes
from .sampling import SeedSpec

__all__ = [
    "prune_count",
    "filter_prune_count",
    "mask_random_with_replacement",
    "mask_random_without_replacement",
    "mask_magnitude_layerwise",
    "mask_magnitude_global",
    "mask_filter_random",
    "build_mask",
]

_RANDOM_SCHEMES = ("random-with-replacement", "random-without-replacement", "filter-random")
_SCHEMES = _RANDOM_SCHEMES + ("magnitude-layerwise", "magnitude-global")


def _floor_pow(base: float, expo: float) -> int:
    # floor of base**expo with a guard so exact integer powers do not land
    # one below because of float rounding (e.g. 1048576**0.5)
    x = float(base) ** float(expo)
    nearest = round(x)
    if nearest > 0 and abs(x - nearest) <= 1e-9 * nearest:
        return int(nearest)
    return math.floor(x)


def prune_count(alpha: float, num_weights: int) -> int:
    """Pruned-entry count floor(D^(1-alpha)) for a layer with D weights."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if num_weights < 1:
        raise ValueError("layer must have at least one weight")
    return _floor_pow(num_weights, 1.0 - alpha)


def filter_prune_count(alpha: float, channels: int) -> int:
    """Pruned-filter count floor(d^(2-alpha)) for a d x d filter grid."""
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2) for filter pruning")
    if channels < 1:
        raise ValueError("channel count must be positive")
    return _floor_pow(channels, 2.0 - alpha)


def _check_layers(shapes, counts, replace: bool):
    shapes = [tuple(int(x) for x in s) for s in shapes]
    if len(shapes) < 3:
        raise ValueError("need at least 3 layers")
    counts = tuple(int(c) for c in counts)
    if len(counts) != len(shapes) - 2:
        raise ValueError(f"expected {len(shapes) - 2} counts for internal layers, got {len(counts)}")
    if any(c < 0 for c in counts):
        raise ValueError("counts must be nonnegative")
    for (m, n), c in zip(shapes[1:-1], counts):
        if c > m * n and not replace:
            raise ValueError(f"cannot prune {c} of {m * n} weights without replacement")
    return shapes, counts


def _zero_random_pairs(a: np.ndarray, count: int, rng: np.random.Generator) -> None:
    """Zero `count` uniform (row, column) pairs of `a` in place, drawn with
    replacement from `rng`, rows then columns: at most `count` zeros."""
    m, n = a.shape
    rows = rng.integers(0, m, size=count)
    cols = rng.integers(0, n, size=count)
    a[rows, cols] = 0.0


def _framed(shapes, internal) -> tuple:
    """The internal layers' masks between the all-ones first and last ones."""
    return (np.ones(shapes[0]), *internal, np.ones(shapes[-1]))


def mask_random_with_replacement(shapes, counts, seed: SeedSpec) -> tuple:
    """`count` uniform (row, column) pairs drawn with replacement per
    internal layer, so at most `count` zeros: each layer's pairs come from
    `_zero_random_pairs`, every layer drawing from one stream."""
    shapes, counts = _check_layers(shapes, counts, replace=True)
    rng = seed.generator()
    internal = [np.ones(shape) for shape in shapes[1:-1]]
    for mask, c in zip(internal, counts):
        _zero_random_pairs(mask, c, rng)
    return _framed(shapes, internal)


def mask_random_without_replacement(shapes, counts, seed: SeedSpec) -> tuple:
    """Exactly `count` zeros per internal layer, uniform over index subsets."""
    shapes, counts = _check_layers(shapes, counts, replace=False)
    rng = seed.generator()
    internal = []
    for (m, n), c in zip(shapes[1:-1], counts):
        mask = np.ones(m * n)
        if c > 0:
            mask[rng.choice(m * n, size=c, replace=False)] = 0.0
        internal.append(mask.reshape(m, n))
    return _framed(shapes, internal)


def _smallest_indices(a: np.ndarray, count: int) -> np.ndarray:
    """Indices of the `count` smallest entries of the 1-d array a, in no
    particular order: the set that the first `count` entries of a stable
    argsort give, so ties at the boundary go to the lowest indices.  A
    partition finds the count-th smallest value without sorting the rest."""
    if count == 0:
        return np.empty(0, dtype=np.intp)
    kth = np.partition(a, count - 1)[count - 1]
    below = np.flatnonzero(a < kth)
    ties = np.flatnonzero(a == kth)[: count - below.size]
    return np.concatenate([below, ties])


def _magnitudes(w: np.ndarray) -> np.ndarray:
    # C-order |entries|, so index ties break by (row, column) and exact
    # zeros come first; a NaN would compare false against every bound
    if not np.all(np.isfinite(w)):
        raise ValueError("magnitude pruning needs finite weights")
    return np.abs(w).ravel(order="C")


def mask_magnitude_layerwise(weights, counts) -> tuple:
    """Zero the `count` smallest-magnitude entries of each internal layer."""
    ws = [np.asarray(w, dtype=np.float64) for w in weights]
    shapes, counts = _check_layers([w.shape for w in ws], counts, replace=False)
    internal = []
    for w, c in zip(ws[1:-1], counts):
        mask = np.ones(w.size)
        mask[_smallest_indices(_magnitudes(w), c)] = 0.0
        internal.append(mask.reshape(w.shape))
    return _framed(shapes, internal)


def mask_magnitude_global(weights, counts) -> tuple:
    """Zero the sum of `counts` smallest-magnitude entries across all
    internal layers pooled together (first/last layers excluded from the
    pool); each count is checked, so the sum cannot hide a negative one.

    Ties break by (layer, row, column)."""
    ws = [np.asarray(w, dtype=np.float64) for w in weights]
    shapes, counts = _check_layers([w.shape for w in ws], counts, replace=True)
    flat = np.concatenate([_magnitudes(w) for w in ws[1:-1]])
    total_count = sum(counts)
    if total_count > flat.size:
        raise ValueError(f"total count {total_count} out of range 0..{flat.size}")
    pooled = np.ones(flat.size)
    pooled[_smallest_indices(flat, total_count)] = 0.0
    # each internal layer's mask is a view of its part of the pool
    parts = np.split(pooled, np.cumsum([w.size for w in ws[1:-2]]))
    return _framed(shapes, (part.reshape(w.shape) for part, w in zip(parts, ws[1:-1])))


def mask_filter_random(shapes, counts, seed: SeedSpec) -> tuple:
    """Random filter pruning for CNNs: draw `count` (out, in) channel pairs
    with replacement per internal conv layer and zero those whole kernels.
    `shapes` are the conv layers' (d_k, d_{k-1}), then the dense layer's;
    the first conv layer and the dense layer are never pruned."""
    return mask_random_with_replacement(shapes, counts, seed)


def build_mask(model, scheme: str, counts, seed: SeedSpec | None = None) -> tuple:
    """The model's masks under `scheme`: filter-random for a CnnModel, one
    of the four FCN schemes for an FcnModel.  Each scheme gets the mask
    shapes (or weights) and counts, each internal layer's pruned-entry (for
    filter-random, pruned-filter) count; magnitude-global prunes their sum
    over the pooled layers.  The random schemes draw from `seed`.

    The result holds one 0/1 array per layer, and the first and last are
    all ones.  For an FCN, mask k matches W_{k+1} elementwise.  For a CNN,
    a conv layer's mask is filter-level (d_k x d_{k-1}): zeroing entry
    (s, t) removes the whole kernel, hence the whole doubly block circulant
    block of the layer's linear map; the last mask is elementwise on the
    dense layer.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme in _RANDOM_SCHEMES and seed is None:
        raise ValueError(f"{scheme} requires a seed")
    if not isinstance(model, (FcnModel, CnnModel)):
        raise TypeError(f"not a model: {type(model)!r}")
    if isinstance(model, CnnModel) != (scheme == "filter-random"):
        raise ValueError(f"{scheme} does not apply to a {type(model).__name__}")
    shapes = _mask_shapes(model)
    if scheme == "filter-random":
        return mask_filter_random(shapes, counts, seed)
    if scheme == "magnitude-layerwise":
        return mask_magnitude_layerwise(model.weights, counts)
    if scheme == "magnitude-global":
        return mask_magnitude_global(model.weights, counts)
    if scheme == "random-with-replacement":
        return mask_random_with_replacement(shapes, counts, seed)
    return mask_random_without_replacement(shapes, counts, seed)
