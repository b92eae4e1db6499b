import numpy as np
import pytest

from prunelab.pruning import mask_magnitude_global, mask_magnitude_layerwise


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
            np.testing.assert_array_equal(mask.masks[k], argsort_mask(weights[k], c))
            assert (mask.masks[k] == 0.0).sum() == c


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", KINDS)
def test_global_matches_stable_argsort(kind, seed):
    rng = np.random.default_rng(seed)
    weights = [draw(kind, s, rng) for s in [(5, 3), (6, 5), (4, 6), (2, 4)]]
    pooled = np.concatenate([weights[1].ravel(), weights[2].ravel()])
    for total in (0, 1, 17, pooled.size):
        want = argsort_mask(pooled, total)
        mask = mask_magnitude_global(weights, total)
        got = np.concatenate([mask.masks[1].ravel(), mask.masks[2].ravel()])
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weights_rejected(bad):
    w = np.ones((2, 2))
    v = w.copy()
    v[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        mask_magnitude_layerwise([w, v, w], (1,))
    with pytest.raises(ValueError, match="finite"):
        mask_magnitude_global([w, v, w], 1)
