"""The five mask-producing pruning schemes.

Random with replacement, random without replacement, layer-wise magnitude,
global magnitude (all four for FCN weight matrices), and random filter
pruning for CNN conv layers.  Every scheme leaves the first and last layers
untouched.  `build_mask` is the one dispatch from a model and a PruneSpec
to the scheme's function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .networks import CnnModel, FcnModel, MaskSet
from .sampling import SeedSpec

__all__ = [
    "PruneSpec",
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


@dataclass(frozen=True)
class PruneSpec:
    """Scheme selector, the pruned-entry (for filter-random, pruned-filter)
    count of each internal layer, and the seed the random schemes draw from.
    magnitude-global prunes the sum of the counts over the pooled layers."""

    scheme: str
    counts: tuple
    seed: SeedSpec | None = None

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")
        if self.scheme in _RANDOM_SCHEMES and self.seed is None:
            raise ValueError(f"{self.scheme} requires a seed")


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
    for (m, n), c in zip(shapes[1:-1], counts):
        if c > m * n and not replace:
            raise ValueError(f"cannot prune {c} of {m * n} weights without replacement")
    return shapes, counts


def _with_replacement(shapes, counts, seed: SeedSpec) -> list:
    """One m x n mask per (shape, count): `count` uniform (row, column) pairs
    drawn independently from one stream; repeated pairs collapse, so at
    most `count` zeros."""
    rng = seed.generator()
    masks = []
    for (m, n), c in zip(shapes, counts):
        mask = np.ones((m, n))
        rows = rng.integers(0, m, size=c)
        cols = rng.integers(0, n, size=c)
        mask[rows, cols] = 0.0
        masks.append(mask)
    return masks


def mask_random_with_replacement(shapes, counts, seed: SeedSpec) -> MaskSet:
    """`count` uniform (row, column) pairs drawn with replacement per
    internal layer, so at most `count` zeros."""
    shapes, counts = _check_layers(shapes, counts, replace=True)
    internal = _with_replacement(shapes[1:-1], counts, seed)
    return MaskSet("fcn", (np.ones(shapes[0]), *internal, np.ones(shapes[-1])))


def mask_random_without_replacement(shapes, counts, seed: SeedSpec) -> MaskSet:
    """Exactly `count` zeros per internal layer, uniform over index subsets."""
    shapes, counts = _check_layers(shapes, counts, replace=False)
    rng = seed.generator()
    masks = [np.ones(shapes[0])]
    for (m, n), c in zip(shapes[1:-1], counts):
        mask = np.ones(m * n)
        if c > 0:
            mask[rng.choice(m * n, size=c, replace=False)] = 0.0
        masks.append(mask.reshape(m, n))
    masks.append(np.ones(shapes[-1]))
    return MaskSet("fcn", tuple(masks))


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


def mask_magnitude_layerwise(weights, counts) -> MaskSet:
    """Zero the `count` smallest-magnitude entries of each internal layer."""
    ws = [np.asarray(w, dtype=np.float64) for w in weights]
    shapes, counts = _check_layers([w.shape for w in ws], counts, replace=False)
    masks = [np.ones(shapes[0])]
    for w, c in zip(ws[1:-1], counts):
        mask = np.ones(w.size)
        mask[_smallest_indices(_magnitudes(w), c)] = 0.0
        masks.append(mask.reshape(w.shape))
    masks.append(np.ones(shapes[-1]))
    return MaskSet("fcn", tuple(masks))


def mask_magnitude_global(weights, total_count: int) -> MaskSet:
    """Zero the `total_count` smallest-magnitude entries across all internal
    layers pooled together (first/last layers excluded from the pool).

    Ties break by (layer, row, column)."""
    ws = [np.asarray(w, dtype=np.float64) for w in weights]
    if len(ws) < 3:
        raise ValueError("need at least 3 layers")
    pool_sizes = [w.size for w in ws[1:-1]]
    total = sum(pool_sizes)
    total_count = int(total_count)
    if not 0 <= total_count <= total:
        raise ValueError(f"total count {total_count} out of range 0..{total}")
    flat = np.concatenate([_magnitudes(w) for w in ws[1:-1]])
    chosen = _smallest_indices(flat, total_count)
    masks = [np.ones(ws[0].shape)]
    offset = 0
    for w in ws[1:-1]:
        mask = np.ones(w.size)
        local = chosen[(chosen >= offset) & (chosen < offset + w.size)] - offset
        mask[local] = 0.0
        masks.append(mask.reshape(w.shape))
        offset += w.size
    masks.append(np.ones(ws[-1].shape))
    return MaskSet("fcn", tuple(masks))


def mask_filter_random(conv_shapes, dense_shape, counts, seed: SeedSpec) -> MaskSet:
    """Random filter pruning for CNNs: draw `count` (out, in) channel pairs
    with replacement per internal conv layer and zero those whole kernels.
    The first conv layer and the final dense layer are never pruned."""
    conv_shapes = [tuple(int(x) for x in s) for s in conv_shapes]
    if len(conv_shapes) < 2:
        raise ValueError("need at least two conv layers")
    counts = tuple(int(c) for c in counts)
    if len(counts) != len(conv_shapes) - 1:
        raise ValueError(f"expected {len(conv_shapes) - 1} counts for prunable conv layers, got {len(counts)}")
    internal = _with_replacement(conv_shapes[1:], counts, seed)
    return MaskSet("cnn", (np.ones(conv_shapes[0]), *internal, np.ones(dense_shape)))


def build_mask(model, spec: PruneSpec) -> MaskSet:
    """The spec's mask for the model: filter-random for a CnnModel, one of
    the four FCN schemes for an FcnModel."""
    if not isinstance(model, (FcnModel, CnnModel)):
        raise TypeError(f"not a model: {type(model)!r}")
    if isinstance(model, CnnModel) != (spec.scheme == "filter-random"):
        raise ValueError(f"{spec.scheme} does not apply to a {type(model).__name__}")
    if spec.scheme == "filter-random":
        conv_shapes = [f.shape[:2] for f in model.conv_tensors]
        return mask_filter_random(conv_shapes, model.final_dense.shape, spec.counts, spec.seed)
    if spec.scheme == "magnitude-layerwise":
        return mask_magnitude_layerwise(model.weights, spec.counts)
    if spec.scheme == "magnitude-global":
        return mask_magnitude_global(model.weights, sum(spec.counts))
    shapes = [w.shape for w in model.weights]
    if spec.scheme == "random-with-replacement":
        return mask_random_with_replacement(shapes, spec.counts, spec.seed)
    return mask_random_without_replacement(shapes, spec.counts, spec.seed)
