import ast
from pathlib import Path

import numpy as np
import pytest

import prunelab
from prunelab import pruning
from prunelab.networks import Activation, CnnModel, FcnModel
from prunelab.pruning import (
    build_mask,
    mask_filter_random,
    mask_magnitude_global,
    mask_magnitude_layerwise,
    mask_random_with_replacement,
    mask_random_without_replacement,
    _zero_random_pairs,
)
from prunelab.sampling import SeedSpec


def argsort_mask(values: np.ndarray, count: int) -> np.ndarray:
    """Reference: zero the first `count` entries of a stable argsort of the
    C-order magnitudes, so ties break by position and exact zeros go first."""
    mask = np.ones(values.size)
    mask[np.argsort(np.abs(values).ravel(order="C"), kind="stable")[:count]] = 0.0
    return mask.reshape(values.shape)


def draw(kind: str, shape, rng) -> np.ndarray:
    if kind == "normal":
        return rng.standard_normal(shape)
    if kind == "ties":  # integers 0..3 with random signs: mostly ties, many zeros
        return rng.integers(0, 4, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    # exact zeros of both signs among distinct values
    w = rng.standard_normal(shape)
    w[rng.random(shape) < 0.3] = 0.0
    w[rng.random(shape) < 0.2] = -0.0
    return w


KINDS = ["normal", "ties", "zeros"]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", KINDS)
def test_layerwise_matches_stable_argsort(kind, seed):
    rng = np.random.default_rng(seed)
    weights = [draw(kind, s, rng) for s in [(5, 3), (6, 5), (4, 6), (2, 4)]]
    for counts in [(0, 0), (1, 1), (7, 7), (30, 24)]:  # (30, 24): every weight
        mask = mask_magnitude_layerwise(weights, counts)
        for k, c in zip((1, 2), counts):
            np.testing.assert_array_equal(mask[k], argsort_mask(weights[k], c))
            assert (mask[k] == 0.0).sum() == c


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", KINDS)
def test_global_matches_stable_argsort(kind, seed):
    rng = np.random.default_rng(seed)
    weights = [draw(kind, s, rng) for s in [(5, 3), (6, 5), (4, 6), (2, 4)]]
    pooled = np.concatenate([weights[1].ravel(), weights[2].ravel()])
    # (40, 0): the pool, not the first layer, bounds a count; (30, 24): every weight
    for counts in [(0, 0), (0, 1), (9, 8), (40, 0), (30, 24)]:
        want = argsort_mask(pooled, sum(counts))
        mask = mask_magnitude_global(weights, counts)
        got = np.concatenate([mask[1].ravel(), mask[2].ravel()])
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weights_rejected(bad):
    w = np.ones((2, 2))
    v = w.copy()
    v[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        mask_magnitude_layerwise([w, v, w], (1,))
    with pytest.raises(ValueError, match="finite"):
        mask_magnitude_global([w, v, w], (1,))


def test_global_checks_each_count_before_the_sum():
    # the sum of (3, -1) is a valid count, but a negative one is not
    weights = [np.ones(s) for s in [(5, 3), (6, 5), (4, 6), (2, 4)]]
    with pytest.raises(ValueError, match="nonnegative"):
        mask_magnitude_global(weights, (3, -1))
    with pytest.raises(ValueError, match="expected 2 counts"):
        mask_magnitude_global(weights, (2,))
    with pytest.raises(ValueError, match="total count 55 out of range 0..54"):
        mask_magnitude_global(weights, (30, 25))


FCN_SHAPES = [(6, 4), (7, 6), (5, 7), (3, 5)]
FCN_SCHEMES = ["magnitude-layerwise", "magnitude-global", "random-with-replacement", "random-without-replacement"]


def fcn_model(rng, shapes=FCN_SHAPES) -> FcnModel:
    weights = tuple(rng.standard_normal(s) for s in shapes)
    return FcnModel(weights, Activation("relu"))


def cnn_model(rng) -> CnnModel:
    tensors = (rng.standard_normal((4, 2, 3, 3)), rng.standard_normal((4, 4, 3, 3)), rng.standard_normal((4, 4, 3, 3)))
    return CnnModel(tensors, rng.standard_normal((3, 4 * 5 * 5)), Activation("relu"), 5)


def assert_masks_equal(got, want):
    assert type(got) is tuple and len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("scheme", FCN_SCHEMES)
def test_build_mask_matches_fcn_scheme_function(scheme):
    model = fcn_model(np.random.default_rng(3))
    shapes = [w.shape for w in model.weights]
    counts, seed = (9, 12), SeedSpec(17, 2).sub(1)
    want = {
        "magnitude-layerwise": lambda: mask_magnitude_layerwise(model.weights, counts),
        "magnitude-global": lambda: mask_magnitude_global(model.weights, counts),
        "random-with-replacement": lambda: mask_random_with_replacement(shapes, counts, seed),
        "random-without-replacement": lambda: mask_random_without_replacement(shapes, counts, seed),
    }[scheme]()
    assert_masks_equal(build_mask(model, scheme, counts, seed), want)


def test_build_mask_matches_filter_random():
    model = cnn_model(np.random.default_rng(4))
    counts, seed = (5, 3), SeedSpec(17, 2).sub(1)
    want = mask_filter_random([(4, 2), (4, 4), (4, 4), (3, 100)], counts, seed)
    assert_masks_equal(build_mask(model, "filter-random", counts, seed), want)


def test_build_mask_rejects_wrong_model_kind():
    rng = np.random.default_rng(5)
    seed = SeedSpec(1)
    with pytest.raises(ValueError, match="does not apply to a FcnModel"):
        build_mask(fcn_model(rng), "filter-random", (1, 1), seed)
    for scheme in ("magnitude-layerwise", "random-with-replacement"):
        with pytest.raises(ValueError, match="does not apply to a CnnModel"):
            build_mask(cnn_model(rng), scheme, (1, 1), seed)
    with pytest.raises(TypeError):
        build_mask([np.ones((2, 2))] * 3, "magnitude-layerwise", (1,))


def test_build_mask_checks():
    rng = np.random.default_rng(5)
    fcn, cnn = fcn_model(rng), cnn_model(rng)
    with pytest.raises(ValueError, match="unknown scheme"):
        build_mask(fcn, "magnitude", (1, 1))
    # magnitude-global prunes the sum of the counts, which would hide a negative one
    for model, scheme in [(fcn, s) for s in FCN_SCHEMES] + [(cnn, "filter-random")]:
        with pytest.raises(ValueError, match="nonnegative"):
            build_mask(model, scheme, (1, -1), SeedSpec(1))
    for model, scheme in [(fcn, "random-with-replacement"), (fcn, "random-without-replacement"), (cnn, "filter-random")]:
        with pytest.raises(ValueError, match="requires a seed"):
            build_mask(model, scheme, (1, 1))


def zeros_per_layer(mask) -> list:
    return [int((m == 0.0).sum()) for m in mask]


def test_zero_random_pairs_draws_rows_then_columns():
    # the with-replacement masks and table3's pruned draws both take their
    # pairs this way, so their streams are pinned by one draw
    a = np.arange(1.0, 36.0).reshape(5, 7)
    rng = SeedSpec(3).generator()
    _zero_random_pairs(a, 12, rng)
    ref = SeedSpec(3).generator()
    want = np.arange(1.0, 36.0).reshape(5, 7)
    want[ref.integers(0, 5, size=12), ref.integers(0, 7, size=12)] = 0.0
    np.testing.assert_array_equal(a, want)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("seed", range(5))
def test_random_mask_zero_counts(seed):
    shapes = FCN_SHAPES
    for counts in [(0, 0), (1, 5), (20, 35), (42, 35)]:  # (42, 35): every weight
        without = mask_random_without_replacement(shapes, counts, SeedSpec(seed))
        assert zeros_per_layer(without) == [0, *counts, 0]
        got = zeros_per_layer(mask_random_with_replacement(shapes, counts, SeedSpec(seed)))
        assert got[0] == got[-1] == 0
        assert all(z <= c for z, c in zip(got[1:-1], counts))
        # repeated (row, column) draws collapse: one zero per distinct pair
        rng = SeedSpec(seed).generator()
        distinct = [len(set(zip(rng.integers(0, m, size=c), rng.integers(0, n, size=c))))
                    for (m, n), c in zip(shapes[1:-1], counts)]
        assert got[1:-1] == distinct


@pytest.mark.parametrize("scheme", FCN_SCHEMES)
def test_first_and_last_layers_never_pruned(scheme):
    model = fcn_model(np.random.default_rng(6))
    mask = build_mask(model, scheme, (42, 35), SeedSpec(8))
    assert np.all(mask[0] == 1.0) and np.all(mask[-1] == 1.0)
    cnn = build_mask(cnn_model(np.random.default_rng(7)), "filter-random", (16, 16), SeedSpec(8))
    assert np.all(cnn[0] == 1.0) and np.all(cnn[-1] == 1.0)


@pytest.mark.parametrize("kind", KINDS)
def test_global_equals_layerwise_with_one_internal_layer(kind):
    rng = np.random.default_rng(9)
    weights = [draw(kind, s, rng) for s in [(5, 3), (6, 5), (2, 6)]]
    for count in (0, 1, 13, 30):
        assert_masks_equal(mask_magnitude_global(weights, (count,)), mask_magnitude_layerwise(weights, (count,)))


# `build_mask` is the one mask dispatch: no other module of the package
# names a scheme's function, as a call, an attribute, a name or an import
SCHEME_FUNCTIONS = {name for name in pruning.__all__ if name.startswith("mask_")}
SRC = Path(prunelab.__file__).parent


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "pruning.py"))
def test_no_module_but_pruning_names_a_mask_scheme(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert names & SCHEME_FUNCTIONS == set()


def test_the_scheme_functions_are_the_five_schemes():
    assert len(SCHEME_FUNCTIONS) == 5
