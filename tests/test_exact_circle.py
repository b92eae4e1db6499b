"""An exact sup-gap oracle for bias-free ReLU FCNs on the unit circle.

With d_in = 2 the unit sphere is the circle u(t) = (cos t, sin t), and the
sup of the gap ||f(u) - F(u)|| between a pruned net f and its target F is
computable without sampling:

- Both nets are linear on every arc where the activation pattern of each
  hidden unit of either net is fixed.  The circle is split layer by layer
  at the angles where a pre-activation row a . u(t) changes sign.  On an
  arc shorter than pi a row changes sign at most once, at
  atan2(a2, a1) + pi/2 modulo pi.
- On each final arc the gap is M u(t), M the difference of the two nets'
  linear maps, and ||M u||^2 = c + q cos 2t + r sin 2t with
  q = (G11 - G22) / 2, r = G12 for G = M^T M.  Its max over the arc is at
  an endpoint or at t = atan2(r, q) / 2 + k pi inside the arc.
- The sup is the max over the arcs.

A deep ReLU net has few linear pieces along a 1-d curve (Hanin & Rolnick,
"Complexity of Linear Regions in Deep Networks", ICML 2019): about 8-10
arcs per unit of width at depth 4, so the oracle is cheap at the widths
below.  `estimate_sup_gap` is a sampled lower bound on the same sup, so it
may not exceed the oracle beyond rounding, and it must approach it as the
points fill the circle.
"""

import math

import numpy as np
import pytest

from prunelab.linalg import top_singular_values
from prunelab.networks import Activation, FcnModel, estimate_sup_gap
from prunelab.pruning import build_mask, prune_count
from prunelab.sampling import DistributionSpec, SeedSpec, draw_matrix

FCN_SCHEMES = ["magnitude-layerwise", "magnitude-global", "random-with-replacement", "random-without-replacement"]


def _sign_changes(rows: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The angles strictly inside [lo, hi], an arc shorter than pi, where
    a nonzero row a of `rows` has a . u(t) change sign."""
    t = np.arctan2(rows[:, 1], rows[:, 0]) + np.pi / 2
    t = lo + np.mod(t - lo, np.pi)
    return t[(t > lo) & (t < hi) & np.any(rows != 0.0, axis=1)]


def exact_circle_sup_gap(model: FcnModel, mask) -> tuple:
    """max over the unit circle of ||f(u) - F(u)||, f the model pruned by
    `mask` and F the model, for a relu or identity FCN with d_in = 2, and
    the number of arcs on which both nets are linear."""
    assert model.input_dim == 2 and model.act.kind in ("relu", "identity")
    relu = model.act.kind == "relu"
    nets = ([m * w for m, w in zip(mask, model.weights)], list(model.weights))
    # an arc and each net's map from u to the current layer's pre-activations
    arcs = [(lo, lo + np.pi / 2, [net[0] for net in nets]) for lo in np.arange(4) * np.pi / 2]
    for k in range(1, model.depth):
        split = []
        for lo, hi, maps in arcs:
            cuts = np.unique(np.concatenate([_sign_changes(h, lo, hi) for h in maps])) if relu else []
            ends = [lo, *cuts, hi]
            for a, b in zip(ends, ends[1:]):
                mid = np.array([math.cos((a + b) / 2), math.sin((a + b) / 2)])
                # a row keeps its sign inside the arc: the sign at its midpoint
                active = [(h @ mid > 0.0)[:, None] if relu else 1.0 for h in maps]
                split.append((a, b, [net[k] @ (h * on) for net, h, on in zip(nets, maps, active)]))
        arcs = split
    best = 0.0
    for lo, hi, (pruned, target) in arcs:
        m = pruned - target
        g = m.T @ m
        peak = 0.5 * math.atan2(g[0, 1], 0.5 * (g[0, 0] - g[1, 1]))
        for t in [lo, hi] + [peak + j * np.pi for j in range(-1, 3) if lo < peak + j * np.pi < hi]:
            best = max(best, float(np.linalg.norm(m @ [math.cos(t), math.sin(t)])))
    return best, len(arcs)


def circle_case(scheme: str, d: int, depth: int, seed: int, act: str = "relu"):
    """An fcn-sweep-style trial on the circle: uniform(+-1/sqrt(max(m, n)))
    weights, widths d, d_out = 16, and the scheme's mask at the sweep's
    pruned-entry counts, alpha 0.5 for magnitude and 0.3 for random
    pruning."""
    shapes = [(d, 2)] + [(d, d)] * (depth - 2) + [(16, d)]
    rng = SeedSpec(seed).sub(0).generator()
    model = FcnModel(tuple(draw_matrix(DistributionSpec("uniform", xavier_k=1.0), m, n, rng) for m, n in shapes),
                     Activation(act))
    alpha = 0.5 if scheme.startswith("magnitude") else 0.3
    counts = tuple(prune_count(alpha, m * n) for m, n in shapes[1:-1])
    return model, build_mask(model, scheme, counts, SeedSpec(seed).sub(1))


@pytest.mark.parametrize("scheme", FCN_SCHEMES)
@pytest.mark.parametrize("depth", [3, 4])
def test_identity_oracle_is_the_top_singular_value(scheme, depth):
    """With the identity activation there is one linear piece, and the sup
    is the top singular value of prod(masked W) - prod(W), d_out x 2."""
    model, mask = circle_case(scheme, 32, depth, 5, "identity")
    pruned, target = np.eye(2), np.eye(2)
    for m, w in zip(mask, model.weights):
        pruned, target = (m * w) @ pruned, w @ target
    exact, arcs = exact_circle_sup_gap(model, mask)
    assert arcs == 4
    want = float(top_singular_values([pruned - target], 16, 2)[0])
    assert want > 0.0
    assert exact == pytest.approx(want, rel=1e-12, abs=0.0)


# The relative distance (exact - sampled) / exact at n = 100,000 sphere
# points ranged over 8.3e-12 to 1.7e-5 in the relu cases below, the largest
# at random-without-replacement, d = 16, depth 4, where the sup sits at a
# kink between two arcs; each case must come within 5e-5.  At n = 1000 the
# distances reached 3.7e-2, and at n = 1 7.2e-1.
DENSE_REL = 5e-5


@pytest.mark.parametrize("scheme", FCN_SCHEMES)
@pytest.mark.parametrize("d, depth", [(8, 3), (16, 4), (32, 3), (64, 4)])
def test_sampled_gap_is_below_the_exact_sup_and_reaches_it(scheme, d, depth):
    model, mask = circle_case(scheme, d, depth, 11 + d)
    exact, arcs = exact_circle_sup_gap(model, mask)
    assert exact > 0.0 and arcs >= 4
    for n in (1, 256, 1000):
        assert estimate_sup_gap(model, mask, "sphere", n, SeedSpec(3)) <= exact * (1.0 + 1e-12)
    dense = estimate_sup_gap(model, mask, "sphere", 100_000, SeedSpec(3))
    assert exact * (1.0 - DENSE_REL) <= dense <= exact * (1.0 + 1e-12), (exact - dense) / exact
