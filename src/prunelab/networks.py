"""Target network representations, masked forward evaluation, and the
sampled pruned-vs-target gap estimator.

Networks are bias-free with one activation, which an FCN applies after
every weight matrix but the last and a CNN after every conv layer, before
its dense layer on the C-order-flattened feature map.  A mask is a
sequence of 0/1 arrays, one per layer, each of the shape `_mask_shapes`
gives: elementwise for weight matrices, filter-level (d_k x d_{k-1}) for
conv layers (see `pruning.build_mask`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circulant import apply_kernel_transform, as_conv_tensor, kernel_transform, rfft2_inplace, unflatten_maps
from .circulant import conv2d_wrap  # noqa: F401  perfbench/tracer.py wraps networks.conv2d_wrap
from .sampling import SeedSpec, sample_unit_cube, sample_unit_sphere

__all__ = [
    "Activation",
    "FcnModel",
    "CnnModel",
    "all_ones_masks",
    "forward_fcn",
    "forward_cnn",
    "estimate_sup_gap",
]


@dataclass(frozen=True)
class Activation:
    """A named activation: relu, tanh or identity.  Every kind fixes 0 to 0
    and is 1-Lipschitz, so the gap bounds' product of Lipschitz constants
    is 1."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("relu", "tanh", "identity"):
            raise ValueError(f"unknown activation {self.kind!r}")

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "relu":
            return np.maximum(x, 0.0)
        if self.kind == "tanh":
            return np.tanh(x)
        return x

    def apply_inplace(self, x: np.ndarray) -> np.ndarray:
        """The bits of :meth:`apply`, written over x, an array the caller
        owns; returns x.  It saves one array of x's size per layer."""
        if self.kind == "relu":
            np.maximum(x, 0.0, out=x)
        elif self.kind == "tanh":
            np.tanh(x, out=x)
        return x


def _check_weight(w, name: str) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"{name} must be a matrix")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name} has non-finite entries")
    return w


@dataclass(frozen=True)
class FcnModel:
    """Fully connected target of depth l >= 3: weights W_1..W_l with W_k of
    shape d_k x d_{k-1}, and one activation after each of W_1..W_{l-1}."""

    weights: tuple
    act: Activation

    def __post_init__(self):
        if not isinstance(self.act, Activation):
            raise ValueError(f"act must be one Activation, got {type(self.act).__name__}")
        ws = tuple(_check_weight(w, f"W_{k + 1}") for k, w in enumerate(self.weights))
        object.__setattr__(self, "weights", ws)
        if len(ws) < 3:
            raise ValueError("depth must be at least 3")
        for k in range(1, len(ws)):
            if ws[k].shape[1] != ws[k - 1].shape[0]:
                raise ValueError(f"layer {k + 1} expects input dim {ws[k].shape[1]}, got {ws[k - 1].shape[0]}")

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]


@dataclass(frozen=True)
class CnnModel:
    """Conv target of depth l >= 3 on p x p feature maps with wrap-around
    padding and stride 1 (so every layer keeps the spatial size).

    conv_tensors holds the l-1 filter banks, each (d_k, d_{k-1}, q_k, q_k)
    with q_k < p; final_dense maps the flattened (d_{l-1}, p, p) output to
    d_l; one shared activation follows every conv layer.
    """

    conv_tensors: tuple
    final_dense: np.ndarray
    act: Activation
    p: int

    def __post_init__(self):
        if not isinstance(self.act, Activation):
            raise ValueError(f"act must be one Activation, got {type(self.act).__name__}")
        fs = tuple(map(as_conv_tensor, self.conv_tensors))
        for f in fs:
            if f.shape[2] >= self.p:
                raise ValueError(f"kernel size {f.shape[2]} must be below spatial size {self.p}")
        object.__setattr__(self, "conv_tensors", fs)
        object.__setattr__(self, "final_dense", _check_weight(self.final_dense, "final dense layer"))
        if len(fs) < 2:
            raise ValueError("depth must be at least 3 (two conv layers plus dense)")
        for k in range(1, len(fs)):
            if fs[k].shape[1] != fs[k - 1].shape[0]:
                raise ValueError(f"conv layer {k + 1} expects {fs[k].shape[1]} input channels")
        expect = fs[-1].shape[0] * self.p * self.p
        if self.final_dense.shape[1] != expect:
            raise ValueError(f"final dense layer expects {expect} inputs, got {self.final_dense.shape[1]}")

    @property
    def depth(self) -> int:
        return len(self.conv_tensors) + 1

    @property
    def channels(self) -> tuple:
        return (self.conv_tensors[0].shape[1],) + tuple(f.shape[0] for f in self.conv_tensors)

    @property
    def input_dim(self) -> int:
        return self.channels[0] * self.p * self.p


def _mask_shapes(model) -> list:
    """The shape of each layer's mask: W_k's for an FCN; for a CNN,
    (d_k, d_{k-1}) per conv layer and the dense layer's shape."""
    return [w.shape[:2] for w in _layer_weights(model)]


def _layer_weights(model) -> tuple:
    return model.weights if isinstance(model, FcnModel) else (*model.conv_tensors, model.final_dense)


def all_ones_masks(model) -> tuple:
    """The masks that prune nothing."""
    return tuple(np.ones(shape, dtype=bool) for shape in _mask_shapes(model))


def _check_mask(model, mask) -> tuple:
    """The mask as arrays, one per layer of the model, each of the layer's
    mask shape; anything else is a ValueError.  A 0/1 mask is used in the
    dtype it comes in, bool as `pruning.build_mask` builds it or float:
    a weight times True or 1.0 is the weight's own bits, so no mask is
    copied to float64."""
    shapes = _mask_shapes(model)
    mask = tuple(map(np.asarray, mask))
    if len(mask) != len(shapes) or any(m.shape != shape for m, shape in zip(mask, shapes)):
        raise ValueError("mask does not match the model")
    return mask


# The conv runner's blocks hold as many points as give about this many
# bytes of product output in the widest conv layer of the run: 64 points at
# d = 64, p = 8.  A layer small enough runs the whole batch as one block
# (1600 points at d = 4), so the block count, and with it the per-block
# call overhead, grows only with the width.
_CONV_BLOCK_BYTES = 4 * 2**20
# Blocks hold a multiple of this many points, so each starts at a multiple
# of it.  The conv product is a batched matmul whose zgemm calls tile the
# points, and a block that starts where a tile of the whole-batch product
# starts gives each point the bits it gets in that product.  With OpenBLAS
# 0.3.31 (SkylakeX kernels), blocks of 4, 8, 16, 32, 64, 100 and 128 points
# gave bit-identical forward passes and estimates; blocks of 2, 3, 5, 7, 13
# and 50 points did not.  64 keeps a margin over the 4-point tile.
_CONV_BLOCK_ALIGN = 64


def _run_convs(khats: list, act: Activation, p: int, last: bool, xhat: np.ndarray, buffers: dict) -> np.ndarray:
    """Run consecutive conv layers, given by the kernel transforms of their
    (masked) filters, each followed by `act`, on a batch from xhat, the
    rfft2 of its p x p input maps, one block of points at a time.  `last`
    says whether the last of them is the model's last conv layer.

    A block holds the largest multiple of `_CONV_BLOCK_ALIGN` points
    whose product output fits in `_CONV_BLOCK_BYTES`, one multiple at
    least, so every block starts at a multiple of 64 points and keeps the
    bits of one product over the whole batch; the last block holds the
    rest.  Each block's output is copied into its rows of the result and
    freed, so no product or inverse-FFT output of more than one block
    exists.

    The result is the first rows of an array in `buffers`, keyed by the
    last layer's channel count and `last`, allocated on first use and
    reused by later calls with the same dict, also for a batch of one
    block.  The sup-gap estimate passes one dict for all its chunks, so no
    result is allocated and freed chunk by chunk, which let glibc trim the
    heap and fault it back in every chunk: per-call results took a
    1000-point d = 32 estimate 20k minor faults against 2.5k and 1.3x the
    time, and one-block batches that returned their own output took a
    d = 16 one of as many points 8.1k against 2.5k.

    With `last` the result is the dense layer's operand: the flattened
    output maps in C order, one row per point, as the dense matmul takes
    them.  Otherwise it is the rfft2 of the output maps, laid out
    frequency-major with the points fastest, as a product output is, so a
    block of its rows is a matmul operand with unit stride for the next
    conv layer.
    """
    n, d = xhat.shape[0], khats[-1].shape[1]
    # one point's product output in the widest layer: d_out x p x (p // 2 + 1) complex
    point_bytes = max(khat.shape[1] for khat in khats) * p * (p // 2 + 1) * 16
    block = max(1, _CONV_BLOCK_BYTES // (point_bytes * _CONV_BLOCK_ALIGN)) * _CONV_BLOCK_ALIGN
    # a lone last point joins the block before it: a one-point block makes
    # the conv product a matrix-vector product, which rounds differently
    stops = [*range(block, n - 1, block), n]
    out = buffers.get((d, last))
    if out is None or len(out) < n:
        if last:
            out = np.empty((n, d * p * p))
        else:
            out = np.empty((p, p // 2 + 1, d, n), dtype=complex).transpose(3, 2, 0, 1)
        buffers[(d, last)] = out
    out = out[:n]
    for lo, hi in zip([0] + stops, stops):
        y = xhat[lo:hi]
        for k, khat in enumerate(khats):
            y = act.apply_inplace(apply_kernel_transform(y, khat, p))
            if not (last and k == len(khats) - 1):
                y = rfft2_inplace(y)
        out[lo:hi].reshape(y.shape)[...] = y
        del y  # freed before the next block starts
    return out


def _layer_steps(model, mask: tuple | None = None, target: list | None = None) -> list:
    """Each layer's operand, masked by `mask` when given: the kernel
    transform of a conv layer's filters, a dense layer's weight matrix.

    The masked weights and the kernel transforms are computed here, once
    per call.  With `target`, the model's unmasked operands, a layer whose
    mask is all ones reuses the target's array: 1.0 * w is bitwise w, so
    both would compute the same bits.
    """
    ops = []
    for k, w in enumerate(_layer_weights(model)):
        m = None if mask is None else mask[k]
        if target is not None and np.all(m == 1.0):
            ops.append(target[k])
        elif w.ndim == 4:
            ops.append(kernel_transform(w if m is None else w * m[:, :, None, None], model.p))
        else:
            ops.append(w if m is None else m * w)
    return ops


def _run(model, steps: list, first: int, h: np.ndarray, buffers: dict) -> np.ndarray:
    """Run the model's layers first, first + 1, ... on a batch, one per
    operand in `steps`, with `model.act` after each but the model's last.
    From layer 0, h is the flattened inputs, of which a CNN takes the rfft2
    of the feature maps; else it is what the run up to layer first returned.
    The conv layers run through `_run_convs` with `buffers`."""
    n_convs = model.depth - 1 if isinstance(model, CnnModel) else 0
    if first == 0 and steps and n_convs:
        h = rfft2_inplace(unflatten_maps(h, model.channels[0], model.p))
    convs = min(max(n_convs - first, 0), len(steps))
    if convs:
        h = _run_convs(steps[:convs], model.act, model.p, first + convs == n_convs, h, buffers)
    for k, w in enumerate(steps[convs:], start=first + convs):
        h = h @ w.T
        if k < model.depth - 1:
            h = model.act.apply_inplace(h)
    return h


def _forward(model, x, mask, dim_name: str) -> np.ndarray:
    if mask is not None:
        mask = _check_mask(model, mask)
    a = np.asarray(x, dtype=np.float64)
    single = a.ndim == 1
    h = a[None, :] if single else a
    if h.ndim != 2 or h.shape[1] != model.input_dim:
        raise ValueError(f"input dim {h.shape[-1]} does not match {dim_name}={model.input_dim}")
    out = _run(model, _layer_steps(model, mask), 0, h, {})
    return out[0] if single else out


def forward_fcn(model: FcnModel, x, mask=None) -> np.ndarray:
    """Masked forward pass; x is one input vector or a batch of row vectors."""
    return _forward(model, x, mask, "d0")


def forward_cnn(model: CnnModel, x, mask=None) -> np.ndarray:
    """Masked forward pass on flattened inputs of dim d0 * p^2 (or batches)."""
    return _forward(model, x, mask, "d0*p^2")


# Points per chunk of the sup-gap estimator.  The chunk size is part of
# every sup_gap value: OpenBLAS picks its product kernel by the row count
# (8 rows times a 64 x 64 matrix differed in every row from the same rows
# of a 512-row product), so a point's activations round differently in
# chunks of different sizes.  Over 1024 points, a d = 64 FCN gave
# 0x1.c8b47c293f46bp-15 in chunks of 32 to 256 points and
# 0x1.c8b47c293f56ep-15 in chunks of 512; a d = 16 CNN gave
# 0x1.25763207470e3p-7 in chunks of 32 and 64, 0x1.25763207470e2p-7 from
# 128.  A constant, not a parameter, so no caller can move a report.
_GAP_CHUNK = 256


def estimate_sup_gap(model, mask, domain: str, n: int, seed: SeedSpec) -> float:
    """Sampled lower bound on sup ||f(x) - F(x)||_2 over the unit sphere or
    unit cube, f the model pruned by `mask` and F the target: the max over
    n sampled points.  The mask must hold one array of each layer's mask
    shape, or the estimate raises ValueError rather than broadcast it.

    Both networks are evaluated in one pass over chunks of `_GAP_CHUNK`
    points.  Each network's layer operands (`_layer_steps`: the masked
    weight matrices and the kernel transforms of the masked conv filters)
    are computed once, before the chunk loop.  The leading layers whose
    masks are all ones (at least the first, which no scheme of
    `pruning.build_mask` prunes) share the target's operands: each chunk
    runs them once, and for a CNN also the rfft2 of their output.  The
    pruned and then the target layers after them run from those shared
    activations one after the other, so only one branch's intermediates
    are alive at a time.  Every FFT and matmul has the operands it
    has in `forward_fcn` / `forward_cnn`, so the estimate is bitwise the
    max over chunks of norm(forward(x, mask) - forward(x)).

    Each chunk's points are drawn from the seed's one generator when the
    loop reaches the chunk; the samplers' draws are chunk-invariant, so
    they are the rows a one-shot draw of all n points gives.  A chunk's
    points and shared activations are dropped before the next chunk starts,
    and the CNN conv layers run in blocks of points into result arrays
    that every chunk reuses (`_run_convs`), so memory depends on the chunk
    and the layer widths, not on n.  The peak is in a branch's last conv
    layer, with the shared spectrum, the branch's dense operand and one
    block's product output and real maps alive: 10.5 + 8.4 + 2.6 + 2.1 MB
    at d = 64, p = 8.

    Nested runs with the same seed sample prefix-identical points, so the
    estimate is exactly nondecreasing in n from any n that is a multiple of
    `_GAP_CHUNK`: a larger n runs the same chunks first.  From other n it
    can fall in its last bits, since the points of a partial chunk round
    differently once the chunk is filled.
    """
    if domain not in ("sphere", "cube"):
        raise ValueError("domain must be 'sphere' or 'cube'")
    if n < 1:
        raise ValueError("need n >= 1")
    mask = _check_mask(model, mask)
    target = _layer_steps(model)
    pruned = _layer_steps(model, mask, target)
    split = next((k for k in range(model.depth) if pruned[k] is not target[k]), model.depth)
    sample = sample_unit_sphere if domain == "sphere" else sample_unit_cube
    rng = seed.generator()
    buffers = {}
    best = 0.0
    for lo in range(0, n, _GAP_CHUNK):
        pts = sample(model.input_dim, min(_GAP_CHUNK, n - lo), rng)
        shared = _run(model, target[:split], 0, pts, buffers)
        diff = _run(model, pruned[split:], split, shared, buffers) - _run(model, target[split:], split, shared, buffers)
        del pts, shared  # dropped before the next chunk's arrays are made
        best = max(best, float(np.linalg.norm(diff, axis=1).max()))
    return best
