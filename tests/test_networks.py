import tracemalloc

import numpy as np
import pytest

from prunelab.circulant import build_full_map, flatten_maps, pad_kernel, rfft2_inplace, unflatten_maps
from prunelab.networks import (
    _CONV_BLOCK_BYTES,
    _GAP_CHUNK,
    _layer_steps,
    _run_convs,
    Activation,
    CnnModel,
    FcnModel,
    all_ones_masks,
    estimate_sup_gap,
    forward_cnn,
    forward_fcn,
)
from prunelab.pruning import build_mask, filter_prune_count, prune_count
from prunelab.sampling import DistributionSpec, SeedSpec, draw_matrix, sample_unit_cube, sample_unit_sphere
from test_golden import STORED_CORE

RNG = np.random.default_rng(4242)
SEED = SeedSpec(13579)

RELU = Activation("relu")
IDENT = Activation("identity")


def small_fcn(l=3, d=4, act=None, scale=1.0):
    act = act or RELU
    weights = tuple(scale * RNG.standard_normal((d, d)) for _ in range(l))
    return FcnModel(weights, act)


class TestActivation:
    def test_fixes_zero(self):
        x = np.zeros(5)
        for kind in ("relu", "tanh", "identity"):
            np.testing.assert_array_equal(Activation(kind).apply(x), x)

    def test_lipschitz_spot_checks(self):
        # every kind is 1-Lipschitz: fcn-sweep's gap_bound takes the
        # theorem's product of Lipschitz constants as 1
        a = RNG.standard_normal(1000)
        b = RNG.standard_normal(1000)
        for kind in ("relu", "tanh", "identity"):
            f = Activation(kind)
            assert np.all(np.abs(f.apply(a) - f.apply(b)) <= np.abs(a - b) + 1e-15)

    @pytest.mark.parametrize("kind", ["relu", "tanh", "identity"])
    def test_apply_leaves_input_unchanged(self, kind):
        # the reference passes in these tests reuse what they pass to apply
        a = RNG.standard_normal((6, 7))
        keep = a.copy()
        Activation(kind).apply(a)
        np.testing.assert_array_equal(a, keep)

    @pytest.mark.parametrize("kind", ["relu", "tanh", "identity"])
    def test_apply_inplace_gives_the_bits_of_apply(self, kind):
        a = RNG.standard_normal((6, 7))
        want = Activation(kind).apply(a.copy())
        assert Activation(kind).apply_inplace(a) is a
        np.testing.assert_array_equal(a, want)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            Activation("gelu")


class TestFcnModel:
    def test_depth_validation(self):
        w = np.eye(2)
        with pytest.raises(ValueError):
            FcnModel((w, w), RELU)

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            FcnModel((np.ones((3, 2)), np.ones((3, 4)), np.ones((2, 3))), RELU)

    def test_depth_and_input_dim(self):
        m = FcnModel((np.ones((5, 2)), np.ones((4, 5)), np.ones((3, 4))), RELU)
        assert m.depth == 3
        assert m.input_dim == 2

    def test_one_activation_follows_every_layer_but_the_last(self):
        ws = tuple(RNG.standard_normal((4, 4)) for _ in range(3))
        x = RNG.standard_normal(4)
        want = ws[2] @ np.tanh(ws[1] @ np.tanh(ws[0] @ x))
        np.testing.assert_allclose(forward_fcn(FcnModel(ws, Activation("tanh")), x), want, rtol=1e-12)

    def test_rejects_an_act_that_is_not_one_activation(self):
        # the old per-layer tuple built a model that failed at its first forward pass
        with pytest.raises(ValueError, match="act must be one Activation, got tuple"):
            FcnModel((np.eye(2),) * 3, (RELU, RELU))


class TestForwardFcn:
    def test_identity_network(self):
        m = FcnModel((np.eye(4),) * 3, IDENT)
        x = RNG.standard_normal(4)
        np.testing.assert_array_equal(forward_fcn(m, x), x)

    def test_all_ones_mask_is_bitwise_identical(self):
        m = small_fcn()
        x = RNG.standard_normal(4)
        np.testing.assert_array_equal(forward_fcn(m, x), forward_fcn(m, x, all_ones_masks(m)))

    def test_zero_internal_layer_kills_output(self):
        m = small_fcn(l=4)
        masks = [np.ones_like(w) for w in m.weights]
        masks[1] = np.zeros_like(masks[1])
        mask = tuple(masks)
        x = RNG.standard_normal(4)
        np.testing.assert_array_equal(forward_fcn(m, x, mask), np.zeros(4))

    def test_batch_agrees_with_single(self):
        # batched and single paths use different BLAS kernels, so agreement
        # is to rounding, not bitwise
        m = small_fcn()
        xs = RNG.standard_normal((6, 4))
        batch = forward_fcn(m, xs)
        for i in range(6):
            np.testing.assert_allclose(batch[i], forward_fcn(m, xs[i]), rtol=1e-13, atol=1e-13)

    def test_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            forward_fcn(small_fcn(), np.ones(5))


def small_cnn(d_in=2, d=3, d_out=2, p=4, q=2, l=3, act=None):
    act = act or RELU
    chans = [d_in] + [d] * (l - 1)
    tensors = tuple(RNG.standard_normal((chans[k + 1], chans[k], q, q)) for k in range(l - 1))
    dense = RNG.standard_normal((d_out, d * p * p))
    return CnnModel(tensors, dense, act, p)


def test_cnn_model_rejects_an_empty_kernel():
    # q = 0 passed the model's own q < p rule; as_conv_tensor rejects it
    tensors = (np.zeros((3, 2, 0, 0)), np.zeros((3, 3, 0, 0)))
    with pytest.raises(ValueError, match="kernels must be square and nonempty"):
        CnnModel(tensors, np.zeros((2, 3 * 4 * 4)), RELU, 4)


def test_cnn_model_rejects_an_act_that_is_not_one_activation():
    m = small_cnn()
    with pytest.raises(ValueError, match="act must be one Activation, got str"):
        CnnModel(m.conv_tensors, m.final_dense, "relu", m.p)


class TestForwardCnn:
    def test_scalar_filter_composition(self):
        c, p = 1.5, 3
        tensors = (np.full((1, 1, 1, 1), c), np.full((1, 1, 1, 1), c))
        model = CnnModel(tensors, np.eye(p * p), IDENT, p)
        x = RNG.standard_normal(p * p)
        np.testing.assert_allclose(forward_cnn(model, x), c * c * x, atol=1e-12)

    def test_zero_conv_layer_kills_output(self):
        m = small_cnn()
        tensors = list(m.conv_tensors)
        tensors[0] = np.zeros_like(tensors[0])
        m0 = CnnModel(tuple(tensors), m.final_dense, m.act, m.p)
        x = RNG.standard_normal(m.input_dim)
        np.testing.assert_array_equal(forward_cnn(m0, x), np.zeros(2))

    def test_layerwise_matvec_oracle(self):
        # each conv layer must match the explicit circulant linear map
        m = small_cnn(d_in=3, d=3, p=6, q=3)
        x = RNG.standard_normal((3, 6, 6))
        h = x
        for f in m.conv_tensors:
            w = build_full_map(pad_kernel(f, m.p))
            want = w @ flatten_maps(h)
            from prunelab.circulant import conv2d_wrap

            got = flatten_maps(conv2d_wrap(h, f))
            np.testing.assert_allclose(got, want, atol=1e-10)
            h = m.act.apply(conv2d_wrap(h, f))

    def test_full_forward_matches_matrix_path(self):
        m = small_cnn(d_in=2, d=3, p=5, q=2, l=4)
        xs = RNG.standard_normal((4, m.input_dim))
        maps = xs.reshape(4, 2, 5, 5)
        h = maps
        for f in m.conv_tensors:
            w = build_full_map(pad_kernel(f, m.p))
            h_flat = flatten_maps(h) @ w.T
            h = m.act.apply(h_flat.reshape(4, f.shape[0], 5, 5))
        want = flatten_maps(h) @ m.final_dense.T
        np.testing.assert_allclose(forward_cnn(m, xs), want, atol=1e-10)

    def test_unpruned_output_channel_unchanged(self):
        m = small_cnn(d=3, l=3)
        masks = [np.ones(f.shape[:2]) for f in m.conv_tensors]
        masks[1][2, :] = 0.0  # kill all filters feeding output channel 2
        masks[1][0, 1] = 0.0  # and one filter of channel 0
        mask = tuple(masks) + (np.ones_like(m.final_dense),)
        x = RNG.standard_normal(m.input_dim)
        maps0 = forward_cnn_maps(m, x, None)
        maps1 = forward_cnn_maps(m, x, mask)
        np.testing.assert_array_equal(maps0[1], maps1[1])  # channel 1 untouched
        assert not np.array_equal(maps0[0], maps1[0])
        np.testing.assert_array_equal(maps1[2], np.zeros_like(maps1[2]))


def forward_cnn_maps(model, x, mask):
    """Feature maps after the last conv layer (pre-dense), for locality checks."""
    from prunelab.circulant import conv2d_wrap, unflatten_maps

    maps = unflatten_maps(np.asarray(x), model.channels[0], model.p)
    for k, f in enumerate(model.conv_tensors):
        if mask is not None:
            f = f * mask[k][:, :, None, None]
        maps = model.act.apply(conv2d_wrap(maps, f))
    return maps


def wrong_shape_mask(kind):
    """A model and a mask whose second layer has a shape numpy broadcasts
    against that layer's mask shape."""
    if kind == "fcn":
        model = small_fcn()  # 4 x 4 layers
        bad = np.array([[1.0], [0.0], [1.0], [1.0]])  # (4, 1)
    else:
        model = small_cnn(d=3)  # a 3 x 3 filter grid in the second conv layer
        bad = np.array([[1.0, 0.0, 1.0]])  # (1, 3)
    masks = list(all_ones_masks(model))
    masks[1] = bad
    return model, tuple(masks)


@pytest.mark.parametrize("kind, domain, forward", [("fcn", "sphere", forward_fcn), ("cnn", "cube", forward_cnn)])
def test_mask_of_wrong_layer_shape_is_rejected(kind, domain, forward):
    model, mask = wrong_shape_mask(kind)
    with pytest.raises(ValueError, match="mask does not match the model"):
        estimate_sup_gap(model, mask, domain, 8, SEED)
    with pytest.raises(ValueError, match="mask does not match the model"):
        forward(model, RNG.standard_normal((2, model.input_dim)), mask)


@pytest.mark.parametrize("kind", ["fcn", "cnn"])
def test_bool_and_float_masks_give_the_same_bits(kind):
    """`build_mask` builds bool masks, one byte per weight.  A weight times
    True has the bits of the weight times 1.0, and times False those of
    times 0.0, so the estimate and the forward passes give the same bits
    for one 0/1 mask in either dtype."""
    if kind == "fcn":
        model = small_fcn(l=4, d=8)
        mask = build_mask(model, "random-without-replacement", (20, 20), SEED.sub(1))
        domain, forward = "sphere", forward_fcn
    else:
        model = small_cnn(d=4, l=4)
        mask = build_mask(model, "filter-random", (5, 5), SEED.sub(1))
        domain, forward = "cube", forward_cnn
    assert [m.dtype for m in mask] == [np.dtype(bool)] * model.depth
    as_float = tuple(m.astype(np.float64) for m in mask)
    x = RNG.standard_normal((300, model.input_dim))
    assert forward(model, x, mask).tobytes() == forward(model, x, as_float).tobytes()
    gap = estimate_sup_gap(model, mask, domain, 300, SEED)
    assert gap > 0.0
    assert gap.hex() == estimate_sup_gap(model, as_float, domain, 300, SEED).hex()


class TestEstimateSupGap:
    def test_identity_mask_gives_zero(self):
        m = small_fcn()
        assert estimate_sup_gap(m, all_ones_masks(m), "sphere", 32, SEED) == 0.0

    def test_fully_pruned_equals_max_target_norm(self):
        m = small_fcn(l=4)
        masks = [np.ones_like(w) for w in m.weights]
        masks[1] = np.zeros_like(masks[1])
        mask = tuple(masks)
        pts = sample_unit_sphere(4, 64, SEED.sub(2).generator())
        want = float(np.linalg.norm(forward_fcn(m, pts), axis=1).max())
        got = estimate_sup_gap(m, mask, "sphere", 64, SEED.sub(2))
        assert got == pytest.approx(want, rel=1e-12)

    def test_linear_network_closed_form(self):
        # identity activations: f - F = W3 (M2 o W2 - W2) W1 x exactly
        d = 4
        weights = tuple(RNG.standard_normal((d, d)) for _ in range(3))
        m = FcnModel(weights, IDENT)
        masks = [np.ones((d, d)) for _ in range(3)]
        masks[1][2, 1] = 0.0
        mask = tuple(masks)
        delta = (masks[1] - 1.0) * weights[1]
        comp = weights[2] @ delta @ weights[0]
        pts = sample_unit_sphere(d, 100, SEED.sub(3).generator())
        want = float(np.linalg.norm(pts @ comp.T, axis=1).max())
        got = estimate_sup_gap(m, mask, "sphere", 100, SEED.sub(3))
        assert got == pytest.approx(want, rel=1e-10)

    def test_relu_gap_is_positively_homogeneous(self):
        m = small_fcn(l=3)
        masks = [np.ones_like(w) for w in m.weights]
        masks[1][0, 0] = 0.0
        mask = tuple(masks)
        x = RNG.standard_normal(4)
        for lam in (0.25, 2.0, 7.5):
            g1 = np.linalg.norm(forward_fcn(m, x, mask) - forward_fcn(m, x))
            g2 = np.linalg.norm(forward_fcn(m, lam * x, mask) - forward_fcn(m, lam * x))
            assert g2 == pytest.approx(lam * g1, rel=1e-10)

    def test_nondecreasing_in_n_prefix(self):
        m = small_fcn(l=3)
        masks = [np.ones_like(w) for w in m.weights]
        masks[1][:2, :2] = 0.0
        mask = tuple(masks)
        gaps = [estimate_sup_gap(m, mask, "sphere", n, SEED.sub(4)) for n in (10, 50, 200)]
        assert gaps[0] <= gaps[1] <= gaps[2]

    def test_nondecreasing_from_whole_chunks(self):
        # from n a multiple of _GAP_CHUNK, a larger n runs the same chunks
        # on the same points and then more, so its max cannot be smaller;
        # after a partial chunk the points round differently in the next run
        rng = SEED.sub(6).generator()
        dist = DistributionSpec("uniform", xavier_k=1.0)
        weights = tuple(draw_matrix(dist, 64, 64, rng) for _ in range(4))
        m = FcnModel(weights, RELU)
        mask = build_mask(m, "magnitude-layerwise", (prune_count(0.5, 64 * 64),) * 2)
        ns = [_GAP_CHUNK, _GAP_CHUNK + 1, 2 * _GAP_CHUNK - 1, 2 * _GAP_CHUNK, 2 * _GAP_CHUNK + 77, 3 * _GAP_CHUNK + 200]
        gaps = {n: estimate_sup_gap(m, mask, "sphere", n, SEED.sub(7)) for n in ns}
        for n in (_GAP_CHUNK, 2 * _GAP_CHUNK):
            assert all(gaps[k] >= gaps[n] for k in ns if k > n)

    def test_monotone_under_nested_masks_nonnegative_linear(self):
        d = 3
        weights = tuple(np.abs(RNG.standard_normal((d, d))) for _ in range(3))
        m = FcnModel(weights, IDENT)
        masks = [np.ones((d, d)) for _ in range(3)]
        masks[1][0, 0] = 0.0
        g1 = estimate_sup_gap(m, tuple(np.copy(x) for x in masks), "cube", 64, SEED.sub(5))
        masks[1][1, 1] = 0.0
        g2 = estimate_sup_gap(m, tuple(masks), "cube", 64, SEED.sub(5))
        assert g2 >= g1

    def test_rejects_bad_domain(self):
        m = small_fcn()
        with pytest.raises(ValueError):
            estimate_sup_gap(m, all_ones_masks(m), "disk", 8, SEED)


def cnn_case(d: int, depth: int, seed: int):
    """A cnn-sweep-shaped model at p = 8 (3 input channels, 3 x 3 kernels,
    10 outputs) with every internal conv layer filter-pruned."""
    rng = np.random.default_rng(seed)
    p, q = 8, 3
    chans = [3] + [d] * (depth - 1)
    tensors = tuple(rng.standard_normal((chans[k + 1], chans[k], q, q)) for k in range(depth - 1))
    model = CnnModel(tensors, rng.standard_normal((10, d * p * p)), RELU, p)
    mask = build_mask(model, "filter-random", (filter_prune_count(0.6, d),) * (depth - 2), SEED.sub(8))
    return model, mask


def traced_gap_peak(model, mask, n: int) -> int:
    tracemalloc.start()
    try:
        estimate_sup_gap(model, mask, "cube", n, SEED.sub(9))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cnn_sup_gap_peak_memory():
    """The widest CNN of the cnn-sweep benchmark workload (d = 64, p = 8,
    depth 3, 1000 cube points).  With every FFT pass and activation
    allocating a fresh array the estimator peaked at 47 MB traced, in
    place at 36.9 MB; with the conv layers run in blocks of points into
    reused result arrays and the points drawn per chunk, it peaks at
    29.9 MB."""
    model, mask = cnn_case(64, 3, seed=64)
    assert traced_gap_peak(model, mask, 1000) < 32e6


def test_sup_gap_peak_does_not_grow_with_samples():
    """Eight times the points leave the estimate's traced peak where it
    was, at 8.1 MB for this d = 16 CNN; when all the points were drawn
    up front it rose from 9.8 to 20.5 MB."""
    model, mask = cnn_case(16, 3, seed=16)
    small = traced_gap_peak(model, mask, 1000)
    large = traced_gap_peak(model, mask, 8000)
    assert large - small <= 2**20, (small, large)


@pytest.mark.parametrize("last", [True, False])
def test_one_block_batches_fill_one_reused_array(last):
    """Batches of one conv block, as every chunk of a narrow CNN's estimate
    is, land in the rows of one array of the `buffers` dict, as batches of
    many blocks do, so no chunk allocates its result afresh.  With the
    model's last conv layer the result is the dense operand, without it the
    next conv layer's spectrum."""
    model, _ = cnn_case(4, 3, seed=4)
    khats = _layer_steps(model)[: model.depth - 1]
    khats = khats if last else khats[:1]
    rng = np.random.default_rng(5)
    xs = [rfft2_inplace(unflatten_maps(rng.random((n, model.input_dim)), model.channels[0], model.p)) for n in (200, 150)]
    args = (khats, model.act, model.p, last)
    buffers = {}
    first = _run_convs(*args, xs[0], buffers)
    first_bits = first.copy()
    second = _run_convs(*args, xs[1], buffers)
    assert np.shares_memory(first, second)
    assert len(buffers) == 1
    np.testing.assert_array_equal(first_bits, _run_convs(*args, xs[0], {}))
    np.testing.assert_array_equal(second, _run_convs(*args, xs[1], {}))


def pre_change_forward(model, xs, mask):
    """The forward passes as they were written before the estimator shared
    layers: masked weights rebuilt per call, each conv through conv2d_wrap."""
    if isinstance(model, CnnModel):
        h = flatten_maps(forward_cnn_maps(model, xs, mask))
        return h @ (model.final_dense if mask is None else mask[-1] * model.final_dense).T
    h = xs
    for k, w in enumerate(model.weights):
        h = h @ (w if mask is None else mask[k] * w).T
        if k < model.depth - 1:
            h = model.act.apply(h)
    return h


def pre_change_sup_gap(model, mask, domain, n, seed, chunk_size=256):
    """Bitwise oracle for estimate_sup_gap: the loop it replaced, with two
    independent full forward passes per chunk."""
    pts = (sample_unit_sphere if domain == "sphere" else sample_unit_cube)(model.input_dim, n, seed.generator())
    best = 0.0
    for lo in range(0, n, chunk_size):
        xs = pts[lo : lo + chunk_size]
        diff = pre_change_forward(model, xs, mask) - pre_change_forward(model, xs, None)
        best = max(best, float(np.linalg.norm(diff, axis=1).max()))
    return best


def oracle_case(kind, depth, pattern, seed):
    """A small model and a mask of the given pattern: "random" (random zeros
    in every internal layer), "ones", "zero-internal" (the first internal
    layer fully pruned), "last-internal" (only the last internal layer
    pruned, so the networks share every layer before it), "last" (only the
    output layer pruned, so the estimate's split lands on it: for a CNN,
    right after the last conv layer) or "first" (only the first layer
    pruned, so the networks share no layer)."""
    rng = np.random.default_rng(seed)
    if kind == "fcn":
        widths = [5, 7, 6, 8, 3][: depth + 1]
        weights = tuple(rng.standard_normal((widths[k + 1], widths[k])) for k in range(depth))
        model = FcnModel(weights, RELU)
        masks = [np.ones_like(w) for w in weights]
    else:
        p, q = 4, 3
        chans = [2, 3, 4, 3][:depth]
        tensors = tuple(rng.standard_normal((chans[k + 1], chans[k], q, q)) for k in range(depth - 1))
        model = CnnModel(tensors, rng.standard_normal((2, chans[-1] * p * p)), RELU, p)
        masks = [np.ones(f.shape[:2]) for f in tensors] + [np.ones_like(model.final_dense)]
    def some_zeros(m):
        keep = rng.random(m.shape) < 0.7
        keep.flat[rng.integers(m.size)] = False
        return keep.astype(float)

    if pattern == "random":
        for k in range(1, depth - 1):
            masks[k] = some_zeros(masks[k])
    elif pattern == "zero-internal":
        masks[1] = np.zeros_like(masks[1])
    elif pattern == "last-internal":
        masks[depth - 2] = some_zeros(masks[depth - 2])
    elif pattern == "last":
        masks[-1] = some_zeros(masks[-1])
    elif pattern == "first":
        masks[0] = some_zeros(masks[0])
    return model, tuple(masks)


PATTERNS = ["random", "ones", "zero-internal", "last-internal", "last", "first"]


class TestSupGapOracle:
    @pytest.mark.parametrize("n", [1, 256, 300])
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("depth", [3, 4])
    @pytest.mark.parametrize("kind, domain", [("fcn", "sphere"), ("cnn", "cube")])
    def test_bitwise_equal_to_pre_change_loop(self, kind, domain, depth, pattern, n):
        model, mask = oracle_case(kind, depth, pattern, seed=depth * 10 + n)
        seed = SEED.sub(depth, n)
        want = pre_change_sup_gap(model, mask, domain, n, seed)
        assert estimate_sup_gap(model, mask, domain, n, seed) == want
        if pattern != "ones":
            assert want > 0.0

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("depth", [3, 4])
    @pytest.mark.parametrize("kind", ["fcn", "cnn"])
    def test_forward_bitwise_equal_to_pre_change_passes(self, kind, depth, pattern):
        model, mask = oracle_case(kind, depth, pattern, seed=depth)
        xs = np.random.default_rng(depth).standard_normal((7, model.input_dim))
        fwd = forward_fcn if kind == "fcn" else forward_cnn
        np.testing.assert_array_equal(fwd(model, xs, mask), pre_change_forward(model, xs, mask))
        np.testing.assert_array_equal(fwd(model, xs), pre_change_forward(model, xs, None))

    @pytest.mark.parametrize("kind", ["fcn", "cnn"])
    def test_layer_operands_are_arrays_shared_up_to_the_pruned_layer(self, kind):
        # with only the output layer pruned the estimate's split is the
        # output layer: for a CNN, the first layer after the last conv layer
        model, mask = oracle_case(kind, 4, "last", seed=4)
        target = _layer_steps(model)
        pruned = _layer_steps(model, mask, target)
        assert all(type(op) is np.ndarray for op in target + pruned)
        assert [op is t for op, t in zip(pruned, target)] == [True] * (model.depth - 1) + [False]

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 232, 256, 325])
    @pytest.mark.parametrize("depth", [3, 4])
    def test_conv_blocks_bitwise_equal_to_pre_change_loop(self, blas_core, depth, n):
        # at d = 64, p = 8 a chunk's product output (256 x 64 x 8 x 5 complex)
        # is past the block size, so the conv runner splits each chunk into
        # 64-point blocks, the last one partial when n is not a multiple of
        # 64; at 65 and 129 a lone last point joins the block before it.
        # The block alignment keeps the bits on the core the golden reports
        # were stored on, and a mismatch names it beside the running one.
        assert 256 * 64 * 8 * 5 * 16 > _CONV_BLOCK_BYTES
        cores = f"block alignment measured on OpenBLAS core {STORED_CORE}, run on {blas_core}"
        model, mask = cnn_case(64, depth, seed=depth)
        seed = SEED.sub(depth, n)
        gap, want = estimate_sup_gap(model, mask, "cube", n, seed), pre_change_sup_gap(model, mask, "cube", n, seed)
        assert gap == want, f"sup_gap {gap!r} != {want!r}, {cores}"
        xs = np.random.default_rng(n).random((n, model.input_dim))
        np.testing.assert_array_equal(forward_cnn(model, xs, mask), pre_change_forward(model, xs, mask), err_msg=cores)
        np.testing.assert_array_equal(forward_cnn(model, xs), pre_change_forward(model, xs, None), err_msg=cores)

    def test_rejects_mask_of_other_kind(self):
        fcn, fcn_mask = oracle_case("fcn", 3, "ones", seed=0)
        cnn, cnn_mask = oracle_case("cnn", 3, "ones", seed=0)
        for model, mask in [(fcn, cnn_mask), (cnn, fcn_mask), (fcn, fcn_mask[:-1])]:
            with pytest.raises(ValueError, match="mask does not match"):
                estimate_sup_gap(model, mask, "sphere", 8, SEED)


FCN_SCHEMES = ["magnitude-layerwise", "magnitude-global", "random-with-replacement", "random-without-replacement"]


def identity_fcn_case(scheme, d_in, depth, seed):
    """An identity-activation FCN, d_in -> 6 -> ... -> 3, and its mask under
    `scheme`, which prunes every internal layer."""
    rng = np.random.default_rng(seed)
    dims = [d_in] + [6] * (depth - 1) + [3]
    model = FcnModel(tuple(rng.standard_normal((dims[k + 1], dims[k])) for k in range(depth)), IDENT)
    counts = tuple(prune_count(0.4, w.size) for w in model.weights[1:-1])
    return model, build_mask(model, scheme, counts, SEED.sub(seed))


def identity_cnn_case(depth, seed):
    """An identity-activation CNN on one 3 x 3 input map (2 x 2 kernels, two
    channels, 3 outputs), filter-pruned, so its cube has 2^9 vertices."""
    rng = np.random.default_rng(seed)
    p, chans = 3, [1] + [2] * (depth - 1)
    tensors = tuple(rng.standard_normal((chans[k + 1], chans[k], 2, 2)) for k in range(depth - 1))
    model = CnnModel(tensors, rng.standard_normal((3, chans[-1] * p * p)), IDENT, p)
    return model, build_mask(model, "filter-random", (2,) * (depth - 2), SEED.sub(seed))


def linear_map(model, mask=None) -> np.ndarray:
    """The matrix of an identity-activation network, masked by `mask`: the
    product of its layers' matrices, a conv layer's being the explicit
    doubly block circulant map of its masked filters."""
    mask = all_ones_masks(model) if mask is None else mask
    if isinstance(model, FcnModel):
        layers = [m * w for m, w in zip(mask, model.weights)]
    else:
        convs = zip(model.conv_tensors, mask)
        layers = [build_full_map(pad_kernel(f * m[:, :, None, None], model.p)) for f, m in convs]
        layers.append(mask[-1] * model.final_dense)
    out = np.eye(model.input_dim)
    for w in layers:
        out = w @ out
    return out


class TestIdentityOracle:
    """With the identity activation the gap is linear, D(x) = (prod of the
    masked layers - prod of the layers) x, so its exact sup is known: the
    top singular value of D on the unit sphere, its largest norm at a
    vertex on the unit cube, where the convex norm peaks.  A sampled
    estimate can only fall short of it."""

    @pytest.mark.parametrize("n", [1, 256, 1000, 10_000])
    @pytest.mark.parametrize("d_in", [2, 5])
    @pytest.mark.parametrize("depth", [3, 4])
    @pytest.mark.parametrize("scheme", FCN_SCHEMES)
    def test_fcn_sphere_estimate_at_most_top_singular_value(self, scheme, depth, d_in, n):
        model, mask = identity_fcn_case(scheme, d_in, depth, seed=depth * 10 + d_in)
        exact = np.linalg.svd(linear_map(model, mask) - linear_map(model), compute_uv=False)[0]
        assert exact > 0.0
        gap = estimate_sup_gap(model, mask, "sphere", n, SEED.sub(n))
        assert gap <= exact * (1 + 1e-12)
        if d_in == 2 and n == 10_000:
            # points 2 pi / 10^4 apart leave a relative shortfall near 1e-8
            assert gap >= exact * (1 - 1e-6), (gap, exact)

    @pytest.mark.parametrize("n", [1, 256, 1000, 10_000])
    @pytest.mark.parametrize("depth", [3, 4])
    def test_cnn_cube_estimate_at_most_largest_vertex_norm(self, depth, n):
        model, mask = identity_cnn_case(depth, seed=depth)
        assert model.input_dim <= 9
        diff = linear_map(model, mask) - linear_map(model)
        vertices = (np.arange(2**model.input_dim)[:, None] >> np.arange(model.input_dim) & 1).astype(float)
        exact = np.linalg.norm(vertices @ diff.T, axis=1).max()
        assert exact > 0.0
        assert estimate_sup_gap(model, mask, "cube", n, SEED.sub(n)) <= exact * (1 + 1e-12)

    def test_cnn_linear_map_is_the_forward_pass(self):
        model, mask = identity_cnn_case(4, seed=4)
        xs = np.random.default_rng(0).random((5, model.input_dim))
        np.testing.assert_allclose(forward_cnn(model, xs, mask), xs @ linear_map(model, mask).T, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(forward_cnn(model, xs), xs @ linear_map(model).T, rtol=1e-12, atol=1e-12)
