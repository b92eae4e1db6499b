"""Experiment orchestration: the nine experiment kinds and deterministic
CSV/JSON report emission.  The config format lives in the config module;
its public names are re-exported here.

Reports are pure functions of (config, seed): trials draw from per-trial
streams, aggregation folds in trial order, and floats are rendered with
shortest round-trip repr, so a rerun with any worker count reproduces the
report byte for byte.  Wall-clock timings never enter report files.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import circulant, networks, pruning, theory
from .config import EXPERIMENT_KINDS, ConfigError, default_config, load_config, parse_config
from .estimators import estimate_lemma3, estimate_latala, latala_ratio, latala_terms
from .linalg import spectral_norm, top_singular_values
from .parallel import ordered_imap, ordered_map, startup_blas_threads
from .sampling import DistributionSpec, SeedSpec, draw_matrix

__all__ = [
    "ConfigError",
    "Report",
    "EXPERIMENT_KINDS",
    "default_config",
    "load_config",
    "run_experiment",
    "render_report",
    "write_report",
]

@dataclass
class Report:
    """One experiment's output: resolved config, tabular rows, summary."""

    kind: str
    config: dict
    columns: list
    rows: list
    summary: dict = field(default_factory=dict)


@contextmanager
def _theory_inputs(label: str):
    """Theory formulas evaluated on config values: an input outside a
    formula's domain (ValueError) or a value out of floating-point range
    (ArithmeticError) is a config error."""
    try:
        yield
    except OverflowError as exc:
        raise ConfigError(f"{label}: value out of floating-point range") from exc
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{label}: {exc}") from exc


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if v is None:
        return "N/A"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _jsonable(v):
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def render_report(report: Report, fmt: str = "csv") -> str:
    if fmt == "json":
        doc = {
            "kind": report.kind,
            "config": _jsonable(report.config),
            "columns": list(report.columns),
            "rows": _jsonable([list(r) for r in report.rows]),
            "summary": _jsonable(report.summary),
        }
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if fmt != "csv":
        raise ConfigError(f"unknown report format {fmt!r}")
    lines = [f"# kind={report.kind}"]
    for key in sorted(report.config):
        lines.append(f"# {key}={json.dumps(_jsonable(report.config[key]), sort_keys=True)}")
    lines.append(",".join(report.columns))
    for row in report.rows:
        lines.append(",".join(_fmt(v) for v in row))
    for key in sorted(report.summary):
        lines.append(f"# summary {key}={json.dumps(_jsonable(report.summary[key]), sort_keys=True)}")
    return "\n".join(lines) + "\n"


def write_report(report: Report, path, fmt: str = "csv") -> str:
    text = render_report(report, fmt)
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# Table reproductions
# ---------------------------------------------------------------------------


def run_table2(s: SimpleNamespace, workers: int):
    rows = []
    for i, (n1, n2, k_scale) in enumerate(s.rows):
        est = estimate_lemma3(n1, n2, k_scale, s.trials, SeedSpec(s.seed).sub(i), quantiles=s.quantiles, workers=workers)
        rows += [[n1, n2, k_scale, est.mean, est.std, q, c0, d0] for q, c0, d0 in est.quantiles]
    return ["n1", "n2", "K", "mean", "std", "q", "c0", "delta0"], rows, {}


def run_table3(s: SimpleNamespace, workers: int):
    rows = []
    for i, (d, kind, scale, alpha) in enumerate(s.rows):
        dist = DistributionSpec(kind, variance=scale / d)
        est = estimate_latala(d, dist, s.trials, SeedSpec(s.seed).sub(i), prune_alpha=alpha, workers=workers)
        label = "U" if kind == "uniform" else f"N(0,{scale:g}/d)"
        rows.append([d, label, alpha, est.term1, est.term2, est.term3, est.mean_norm, est.c])
    return ["d", "dist", "alpha", "term1", "term2", "term3", "mean_norm", "C"], rows, {}


# ---------------------------------------------------------------------------
# Order statistics and balls-into-bins
# ---------------------------------------------------------------------------


# Entries of U drawn and reduced at a time by the order-statistic kernel:
# 16K doubles (128 KB) stay in L2 from the draw through the selection.
_ORDER_STAT_TILE = 16_384


def run_order_stats(s: SimpleNamespace, workers: int):
    base = SeedSpec(s.seed)
    trials, a = s.trials, s.half_width

    # evaluated before any trial runs, so a moment out of range fails fast
    with _theory_inputs("order_stat_moment"):
        exacts = [theory.order_stat_moment(a, n, r, p) for n, r, p in s.cases]
        # the standard error sums (x^p)^2 with x <= a^2 over the trials; below
        # the smallest normal double those squares lose their bits, down to 0
        if not all(sys.float_info.min <= a ** (4 * p) and math.isfinite(trials * a ** (4 * p)) for _, _, p in s.cases):
            raise OverflowError

    def one(case_index: int):
        n, r, p = s.cases[case_index]
        exact = exacts[case_index]
        rng = base.child(case_index).generator()
        total = 0.0
        total_sq = 0.0
        # The sums run over chunks of up to 4M entries; the draws and the
        # selection run over tiles of whole rows within a chunk, so no
        # chunk-sized array is made.  The bits are those of drawing,
        # squaring and partitioning a whole chunk at once: PCG64 yields one
        # double per uniform, so the tiles read the same stream values in
        # the same order; squaring in place gives the same products as
        # u * u; min, max and partition each return an exact element of a
        # row, the r-th smallest square; and each chunk sum adds the same
        # values in the same order.
        chunk = max(1, 4_000_000 // n)
        tile = max(1, _ORDER_STAT_TILE // n)
        x = np.empty(min(chunk, trials))
        done = 0
        while done < trials:
            b = min(chunk, trials - done)
            for lo in range(0, b, tile):
                hi = min(lo + tile, b)
                u = rng.uniform(-a, a, size=(hi - lo, n))
                np.multiply(u, u, out=u)
                if r == 1:
                    u.min(axis=1, out=x[lo:hi])
                elif r == n:
                    u.max(axis=1, out=x[lo:hi])
                else:
                    x[lo:hi] = np.partition(u, r - 1, axis=1)[:, r - 1]
            vals = x[:b] if p == 1 else x[:b] ** p
            total += float(vals.sum())
            total_sq += float((vals * vals).sum())
            done += b
        mean = total / trials
        var = max(total_sq / trials - mean * mean, 0.0)
        stderr = math.sqrt(var / trials)
        z = (mean - exact) / stderr if stderr > 0 else 0.0
        return [n, r, p, a, exact, mean, stderr, z, abs(z) <= 3.0]

    rows = ordered_map(one, range(len(s.cases)), workers)
    n_pass = sum(1 for r in rows if r[-1])
    columns = ["n", "r", "p", "a", "exact", "mc_mean", "stderr", "z", "within_3se"]
    return columns, rows, {"cases_within_3se": n_pass, "cases_total": len(rows)}


def run_balls_bins(s: SimpleNamespace, workers: int):
    base = SeedSpec(s.seed)

    def one(i: int):
        n, nballs = s.cases[i]
        res = theory.balls_in_bins_check(n, nballs, s.trials, base.child(i))
        mc_ok = None
        if res.exact is not None:
            mc_ok = abs(res.empirical - res.exact) <= 3.0 * max(res.stderr, 1e-12)
        return [
            n, nballs, res.threshold, res.empirical, res.stderr, res.exact,
            res.guarantee_applies, res.guarantee_floor, res.guarantee_holds, mc_ok,
        ]

    rows = ordered_map(one, range(len(s.cases)), workers)
    columns = [
        "bins", "balls", "threshold", "empirical", "stderr", "exact",
        "guarantee_applies", "guarantee_floor", "guarantee_holds", "mc_matches_exact",
    ]
    ok = all((r[8]) and (r[9] in (None, True)) for r in rows)
    return columns, rows, {"all_pass": ok}


# ---------------------------------------------------------------------------
# Circulant equivalence
# ---------------------------------------------------------------------------


def run_circulant_equiv(s: SimpleNamespace, workers: int):
    base = SeedSpec(s.seed)

    def one(i: int):
        rng = base.child(i).generator()
        d_out = int(rng.integers(1, s.max_channels + 1))
        d_in = int(rng.integers(1, s.max_channels + 1))
        p = int(rng.integers(2, s.max_spatial + 1))
        q = int(rng.integers(1, p))
        f = rng.standard_normal((d_out, d_in, q, q))
        x = rng.standard_normal((d_in, p, p))
        kpad = circulant.pad_kernel(f, p)
        w = circulant.build_full_map(kpad)
        svd_norm = float(np.linalg.svd(w, compute_uv=False)[0])
        dft_norm = circulant.spectral_norm_via_dft(kpad)
        power_norm = spectral_norm(w, tol=1e-10)
        fwd_err = float(np.max(np.abs(w @ circulant.flatten_maps(x) - circulant.flatten_maps(circulant.conv2d_wrap(x, f)))))
        denom = max(svd_norm, 1e-300)
        rel_dft = abs(dft_norm - svd_norm) / denom
        rel_pow = abs(power_norm - svd_norm) / denom
        return [
            i, d_out, d_in, p, q, fwd_err, dft_norm, svd_norm, power_norm,
            rel_dft, rel_pow,
            fwd_err <= s.forward_tol and rel_dft <= s.norm_rel_tol,
        ]

    rows = ordered_map(one, range(s.instances), workers)
    columns = [
        "instance", "d_out", "d_in", "p", "q", "forward_max_abs_err",
        "dft_norm", "explicit_svd_norm", "power_iter_norm",
        "rel_err_dft_vs_svd", "rel_err_power_vs_svd", "pass",
    ]
    summary = {
        "max_forward_err": max(r[5] for r in rows),
        "max_rel_err_dft": max(r[9] for r in rows),
        "max_rel_err_power": max(r[10] for r in rows),
        "all_pass": all(r[-1] for r in rows),
    }
    return columns, rows, summary


# ---------------------------------------------------------------------------
# Gap sweeps
# ---------------------------------------------------------------------------


def _bins_event(mask_matrix: np.ndarray, count: int) -> bool:
    zeros = mask_matrix == 0.0
    m, n = mask_matrix.shape
    row_ok = zeros.sum(axis=1).max() <= 3.0 * count / m
    col_ok = zeros.sum(axis=0).max() <= 3.0 * count / n
    return bool(row_ok and col_ok)


def _gap_sweep(s, widths, workers: int, layer_columns: list, tail_columns: list, one_trial, summarize):
    """The width-by-width loop both gap sweeps run; returns the report's
    columns, its rows and the per-width part of its summary.

    one_trial(d, seed) returns a trial's row entries after the four
    d/trial/base_seed/stream columns, then per pruned layer its
    `layer_columns`, then `tail_columns` (one of them sup_gap), and its
    payload: per pruned layer, a tuple of arrays and floats.  Each task is
    one trial, so two workers share even a short sweep, and each trial is
    folded as it arrives and its payload then dropped, so memory does not
    grow with the trial count.  Per width the rows keep trial order, each
    payload component is summed over the trials in trial order, starting
    from 0.0, and summarize(d, rows, sums) adds its fields to the sup_gap
    quantiles.
    """
    columns = ["d", "trial", "base_seed", "stream"]
    columns += [f"{c}_l{k}" for k in range(2, s.depth) for c in layer_columns] + tail_columns
    gap_col = columns.index("sup_gap")

    def trial_run(t: int, d: int):
        # a trial's streams depend only on (base_seed, trial, d), so any
        # recorded row can be recomputed in isolation
        return one_trial(d, SeedSpec(s.seed, t).sub(d))

    all_rows = []
    per_width = []
    for d in widths:
        rows = []
        sums = None
        for t, (entries, payload) in enumerate(ordered_imap(partial(trial_run, d=d), range(s.trials), workers)):
            rows.append([d, t, s.seed, t] + entries)
            if sums is None:
                sums = [[0.0] * len(layer) for layer in payload]
            # 0.0 + c for the first trial, then in place: the additions of
            # a left fold from 0.0, in trial order
            for acc, layer in zip(sums, payload):
                for i, c in enumerate(layer):
                    acc[i] += c
        all_rows.extend(rows)
        gaps = np.array([r[gap_col] for r in rows])
        per_width.append(
            {
                "d": d,
                "median_gap": float(np.median(gaps)),
                "mean_gap": float(gaps.mean()),
                "gap_q25": float(np.quantile(gaps, 0.25)),
                "gap_q75": float(np.quantile(gaps, 0.75)),
                **summarize(d, rows, sums),
            }
        )
    medians = [w["median_gap"] for w in per_width]
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    return columns, all_rows, {"per_width": per_width, "median_gap_strictly_decreasing": decreasing}


def _check_alpha(alpha: float, cap: float, what: str) -> None:
    """The one admissible-alpha rule of Theorems 2 and 3: 0 < alpha <= cap."""
    if not 0.0 < alpha <= cap:
        raise ConfigError(f"alpha={alpha} inadmissible for {what}: requires 0 < alpha <= {cap:.6f}")


def _check_kernel(q: int, p: int) -> None:
    """q x q kernels on p x p wrap-around feature maps need q < p."""
    if q >= p:
        raise ConfigError(f"kernel {q} must be below spatial size {p}")


def run_fcn_gap_sweep(s: SimpleNamespace, workers: int):
    if s.scheme.startswith("random"):
        for d in s.widths:
            with _theory_inputs("thm2_alpha_constraint"):
                cap = theory.thm2_alpha_constraint(d)
            _check_alpha(s.alpha, cap, f"random pruning at width d={d}")
    elif not 0.0 < s.alpha < 1.0:
        raise ConfigError(f"alpha={s.alpha} outside (0, 1) for {s.scheme}")
    l, alpha, k_scale = s.depth, s.alpha, s.xavier_k
    dist = DistributionSpec("uniform", xavier_k=k_scale)
    act = networks.Activation(s.activation)
    magnitude = s.scheme.startswith("magnitude")
    # proof-side exponents: the expected difference norm scales as d^(-2 alpha)
    # for magnitude pruning and d^(-alpha/2) for random pruning; the Markov
    # events use d^(-alpha) and d^(-alpha/4)
    mean_expo = -2.0 * alpha if magnitude else -alpha / 2.0
    event_expo = -alpha if magnitude else -alpha / 4.0

    def shapes_for(d: int) -> list:
        dims = [s.d_in] + [d] * (l - 1) + [s.d_out]
        return [(dims[k + 1], dims[k]) for k in range(l)]

    # An m x n layer's entries lie within K/sqrt(max(m, n)), so its norm is at
    # most K sqrt(min(m, n)); every activation fixes 0 and is 1-Lipschitz.  On
    # the unit sphere the squared gap norm the estimate sums is then at most
    # 4 prod K^2 min(m, n), checked before any trial so it cannot overflow.
    for d in s.widths:
        if not math.isfinite(4.0 * math.prod(k_scale * k_scale * min(shape) for shape in shapes_for(d))):
            raise ConfigError(f"xavier_k={k_scale:g} too large at width d={d}: the squared gap norm can overflow")

    def one_trial(d: int, seed_t: SeedSpec):
        gw = seed_t.sub(0).generator()
        shapes = shapes_for(d)
        weights = [draw_matrix(dist, m, n, gw) for m, n in shapes]
        model = networks.FcnModel(tuple(weights), (act,) * (l - 1))
        counts = tuple(pruning.prune_count(alpha, m * n) for m, n in shapes[1:-1])
        mask = pruning.build_mask(model, s.scheme, counts, seed_t.sub(1))
        internal = range(1, l - 1)  # 0-based internal layer indices

        def pruned_away(k: int) -> np.ndarray:
            return (1.0 - mask[k]) * weights[k]

        diffs = [pruned_away(k) for k in internal]
        # the internal d x d weights and their diffs share one grouped SVD
        square = top_singular_values([weights[k] for k in internal] + diffs, d, d).tolist()
        diff_norms = [square[l - 2 + j] if diff.any() else 0.0 for j, diff in enumerate(diffs)]
        # the gap estimate is a trial's peak, so the diffs are not kept
        # through it: the payload below computes them again, to the same bits
        del diffs
        first, last = (float(top_singular_values([w], *w.shape)[0]) for w in (weights[0], weights[-1]))
        layer_norms = [first] + square[: l - 2] + [last]
        row = []
        for j, (k, nd) in enumerate(zip(internal, diff_norms)):
            bins_ok = _bins_event(mask[k], counts[j])
            diff_ok = nd <= float(d) ** event_expo
            row += [counts[j], layer_norms[k], nd, bins_ok, diff_ok]
        gap = networks.estimate_sup_gap(model, mask, "sphere", s.samples, seed_t.sub(2))
        payload = []
        for k in internal:
            sq = pruned_away(k)
            sq *= sq
            payload.append((sq, sq * sq))
        n_caps = [max(1.0, v) for v in layer_norms]
        with _theory_inputs("gap_bound"):
            if magnitude:
                c0_t = max(n_caps)
                gap_bound = (2 ** (l - 2) - 1) * float(d) ** (-alpha) * c0_t ** (l - 1)
            else:
                gap_bound = (2 ** (l - 2) - 1) * float(d) ** (-alpha / 4.0) * math.prod(n_caps)
        # every supported activation is 1-Lipschitz, so the theorem's Lipschitz product is 1
        row += [gap, gap_bound, gap <= gap_bound]
        return row, payload

    def summarize(d: int, rows: list, sums: list) -> dict:
        layers = []
        for j, (sq, quad) in enumerate(sums):
            base_col = 4 + j * 5
            mean_diff = float(np.mean([r[base_col + 2] for r in rows]))
            c_hat = latala_ratio(mean_diff, latala_terms(sq / s.trials, quad / s.trials))
            m, n = shapes_for(d)[1 + j]
            k1, k2 = dist.moment_constants(m, n)
            if magnitude:
                c2_hat = c_hat * k_scale * (2.0 * math.sqrt(2.0) + 24.0**0.25)
            else:
                c2_hat = c_hat * (2.0 * math.sqrt(3.0 * k1) + k2**0.25)
            bound = c2_hat * float(d) ** mean_expo
            layers.append(
                {
                    "layer": j + 2,
                    "count": int(rows[0][base_col]),
                    "mean_norm_w": float(np.mean([r[base_col + 1] for r in rows])),
                    "mean_norm_diff": mean_diff,
                    "latala_c_hat": c_hat,
                    "c2_hat": c2_hat,
                    "mean_bound": bound,
                    "mean_diff_le_bound": mean_diff <= bound,
                    "frac_trials_diff_le_bound": float(np.mean([r[base_col + 2] <= bound for r in rows])),
                    "freq_bins_event": float(np.mean([r[base_col + 3] for r in rows])),
                    "freq_diff_event": float(np.mean([r[base_col + 4] for r in rows])),
                }
            )
        return {"freq_gap_event": float(np.mean([r[-1] for r in rows])), "layers": layers}

    layer_columns = ["count", "norm_w", "norm_diff", "bins_event", "diff_event"]
    tail_columns = ["sup_gap", "gap_bound", "gap_event"]
    columns, rows, sweep = _gap_sweep(s, s.widths, workers, layer_columns, tail_columns, one_trial, summarize)
    summary = {"scheme": s.scheme, "alpha": alpha, "mean_norm_exponent": mean_expo, "event_exponent": event_expo}
    return columns, rows, summary | sweep


def run_cnn_gap_sweep(s: SimpleNamespace, workers: int):
    l, p, q, alpha = s.depth, s.spatial, s.kernel, s.alpha
    _check_kernel(q, p)
    for d in s.channels:
        _check_alpha(alpha, theory.thm3_alpha_constraint(d), f"filter pruning at d={d}")
    # evaluated before any trial runs, so a bound out of range fails fast
    with _theory_inputs("thm3_rhs"):
        rhs_by_d = {d: theory.thm3_rhs(p, d, p, 1.0, l, s.beta1, s.beta2, alpha) for d in s.channels}
    act = networks.Activation("relu")

    def layer_entries(kernel: np.ndarray, fmask: np.ndarray, count: int, d: int):
        """One internal conv layer's row entries and Latala payload.  The
        padded kernels, the slices and the explicit map die on return, so
        they are not alive through the trial's gap estimate, its peak."""
        kpad = circulant.pad_kernel(kernel, p)
        norm_w = circulant.spectral_norm_via_dft(kpad)
        diff_pad = kpad * (1.0 - fmask)[:, :, None, None]
        norm_diff = circulant.spectral_norm_via_dft(diff_pad) if diff_pad.any() else 0.0
        explicit_norm = None
        if p * p * d <= s.explicit_norm_limit:
            w_full = circulant.build_full_map(kpad)
            # the one SVD off the one-thread rule: from n=768 its bits
            # depend on the thread count (see the parallel module)
            with startup_blas_threads():
                explicit_norm = float(np.linalg.svd(w_full, compute_uv=False)[0])
        bins_ok = _bins_event(fmask, count)
        # per-kernel-position slices of the target and difference tensors
        slices = kernel.transpose(2, 3, 0, 1).reshape(q * q, d, d)
        dslices = slices * (1.0 - fmask)[None, :, :]
        s_norms = np.linalg.svd(slices, compute_uv=False)[:, 0]
        ds_norms = np.linalg.svd(dslices, compute_uv=False)[:, 0]
        entries = [count, norm_w, norm_diff, explicit_norm, bins_ok,
                   norm_w <= p ** (-s.beta1), norm_diff <= float(d) ** (-s.beta2)]
        payload = (
            (slices * slices).sum(axis=0),
            (slices**4).sum(axis=0),
            float(s_norms.sum()),
            (dslices * dslices).sum(axis=0),
            (dslices**4).sum(axis=0),
            float(ds_norms.sum()),
        )
        return entries, payload

    def one_trial(d: int, seed_t: SeedSpec):
        gw = seed_t.sub(0).generator()
        variance = s.moment_c1 / (p * p * d)
        dist = DistributionSpec(s.weight_kind, variance=variance)
        chans = [s.d_in] + [d] * (l - 1)
        tensors = []
        for k in range(l - 1):
            flat = draw_matrix(dist, chans[k + 1], chans[k] * q * q, gw)
            tensors.append(flat.reshape(chans[k + 1], chans[k], q, q))
        dense = draw_matrix(dist, s.d_out, d * p * p, gw)
        model = networks.CnnModel(tuple(tensors), dense, act, p)
        counts = tuple(pruning.filter_prune_count(alpha, d) for _ in range(l - 2))
        mask = pruning.build_mask(model, "filter-random", counts, seed_t.sub(1))
        row = []
        payload = []
        for j, k in enumerate(range(1, l - 1)):  # internal conv layers (0-based)
            entries, layer = layer_entries(tensors[k], mask[k], counts[j], d)
            row += entries
            payload.append(layer)
        gap = networks.estimate_sup_gap(model, mask, "cube", s.samples, seed_t.sub(2))
        row.append(gap)
        return row, payload

    c1_const = s.moment_c1
    with _theory_inputs("moment_c1"):
        c2_const = 3.0 * c1_const**2 if s.weight_kind == "gaussian" else 1.8 * c1_const**2

    # An entry, of variance v = c1 / (p^2 d), lies within b = sqrt(3 v) if
    # uniform; if gaussian, b = 40 sqrt(v) is taken, far past the 12.3
    # standard deviations numpy's normal sampler can return.  A conv layer's
    # map, q^2 shifted d_k x d_{k-1} blocks, then has norm at most
    # q^2 b sqrt(d_k d_{k-1}), the dense layer b sqrt(d_out d p^2) and a cube
    # point sqrt(d_in p^2); relu fixes 0 and is 1-Lipschitz.  The squared gap
    # norm the estimate sums, at most 4 d_in p^2 prod ||W_k||^2, is checked
    # before any trial so it cannot overflow.
    for d in s.channels:
        b2 = (3.0 if s.weight_kind == "uniform" else 1600.0) * c1_const / (p * p * d)
        dims = [s.d_in] + [d] * (l - 1)
        layers = [q**4 * b2 * dims[k + 1] * dims[k] for k in range(l - 1)] + [b2 * s.d_out * d * p * p]
        if not math.isfinite(4.0 * s.d_in * p * p * math.prod(layers)):
            raise ConfigError(f"moment_c1={c1_const:g} too large at d={d}: the squared gap norm can overflow")

    def summarize(d: int, rows: list, sums: list) -> dict:
        layers = []
        n_slices = s.trials * q * q
        for j, (sq_t, quad_t, sum_norm_t, sq_d, quad_d, sum_norm_d) in enumerate(sums):
            mean_slice_t = sum_norm_t / n_slices
            c_hat_t = latala_ratio(mean_slice_t, latala_terms(sq_t / n_slices, quad_t / n_slices))
            c3_hat = c_hat_t * (2.0 * math.sqrt(c1_const) + c2_const**0.25)
            mean_slice_d = sum_norm_d / n_slices
            c_hat_d = latala_ratio(mean_slice_d, latala_terms(sq_d / n_slices, quad_d / n_slices))
            c4_hat = c_hat_d * (2.0 * math.sqrt(3.0 * c1_const) + c2_const**0.25)
            base_col = 4 + j * 7
            mean_w = float(np.mean([r[base_col + 1] for r in rows]))
            mean_diff = float(np.mean([r[base_col + 2] for r in rows]))
            w_bound = c3_hat * q * q / p
            diff_bound = c4_hat * (q * q / p) * float(d) ** (-alpha / 4.0)
            layers.append(
                {
                    "layer": j + 2,
                    "count": int(rows[0][base_col]),
                    "mean_norm_w": mean_w,
                    "w_bound_c3_q2_over_p": w_bound,
                    "mean_w_le_bound": mean_w <= w_bound,
                    "mean_norm_diff": mean_diff,
                    "diff_bound": diff_bound,
                    "mean_diff_le_bound": mean_diff <= diff_bound,
                    "mean_slice_norm": mean_slice_t,
                    "slice_bound_c3_over_p": c3_hat / p,
                    "mean_slice_diff_norm": mean_slice_d,
                    "slice_diff_bound": (c4_hat / p) * float(d) ** (-alpha / 4.0),
                    "c3_hat": c3_hat,
                    "c4_hat": c4_hat,
                    "freq_bins_event": float(np.mean([r[base_col + 4] for r in rows])),
                    "freq_w_event": float(np.mean([r[base_col + 5] for r in rows])),
                    "freq_diff_event": float(np.mean([r[base_col + 6] for r in rows])),
                }
            )
        return {"thm3_rhs": rhs_by_d[d], "layers": layers}

    layer_columns = ["count", "norm_w_dft", "norm_diff_dft", "norm_w_explicit", "bins_event", "w_event", "diff_event"]
    columns, rows, sweep = _gap_sweep(s, s.channels, workers, layer_columns, ["sup_gap"], one_trial, summarize)
    return columns, rows, {"alpha": alpha} | sweep


# ---------------------------------------------------------------------------
# Bound calculators
# ---------------------------------------------------------------------------


def _bound_rows(s: SimpleNamespace) -> list:
    rows = []
    t1 = s.thm1
    if t1:
        terms = theory.thm1_width_terms(t1.c0, t1.c2, t1.delta0, t1.l, t1.lipschitz, t1.alpha, t1.eps, t1.delta)
        rows += [["thm1", name, val] for name, val in terms.items()]
        rows.append(["thm1", "width_bound", math.ceil(max(terms.values()))])
    t2 = s.thm2
    if t2:
        if len(t2.widths) != t2.l - 1:
            raise ConfigError(f"thm2.widths must list the l - 1 = {t2.l - 1} hidden widths, got {len(t2.widths)}")
        # Theorem 2's probability takes one width for every hidden layer
        other = next((w for w in t2.widths if w != t2.d), None)
        if other is not None:
            raise ConfigError(f"thm2.widths must all equal thm2.d = {t2.d}, got width {other}")
        cap = theory.thm2_alpha_constraint(t2.d)
        _check_alpha(t2.alpha, cap, f"random pruning at width d={t2.d}")
        # with equal widths every pruned layer's row and column caps are one cap
        for k in range(2, t2.l):
            rows += [["thm2", f"alpha_max_rows_layer{k}", cap], ["thm2", f"alpha_max_cols_layer{k}", cap]]
        rows.append(["thm2", "alpha_max_overall", cap])
        prob = theory.thm2_probability(t2.l, t2.d, t2.alpha, t2.c2, t2.deltas)
        rows += [["thm2", "probability", prob], ["thm2", "non_vacuous", prob > 0.0]]
    t3 = s.thm3
    if t3:
        _check_kernel(t3.q, t3.p)
        cap = theory.thm3_alpha_constraint(t3.d)
        _check_alpha(t3.alpha, cap, f"filter pruning at d={t3.d}")
        rows.append(["thm3", "alpha_max", cap])
        rows.append(["thm3", "rhs", theory.thm3_rhs(t3.p, t3.d, t3.p0, t3.lipschitz, t3.l, t3.beta1, t3.beta2, t3.alpha)])
        prob = theory.thm3_probability(t3.l, t3.d, t3.p, t3.q, t3.alpha, t3.beta1, t3.beta2, t3.c3, t3.c4, t3.c5)
        rows += [["thm3", "probability", prob], ["thm3", "non_vacuous", prob > 0.0]]
    return rows


def run_bounds(s: SimpleNamespace, workers: int):
    with _theory_inputs("bounds"):
        rows = _bound_rows(s)
    return ["section", "name", "value"], rows, {}


# ---------------------------------------------------------------------------
# Oracle suite
# ---------------------------------------------------------------------------


def run_oracle_suite(s: SimpleNamespace, workers: int):
    rows = []

    def check(name: str, ok: bool, detail: float):
        rows.append([name, bool(ok), detail])

    def sub_run(kind: str, overrides: dict) -> Report:
        return run_experiment(kind, load_config(kind, overrides=overrides | {"seed": s.seed}), workers)

    # power iteration against the LAPACK SVD oracle, mapped like every
    # other kind's BLAS work so that it runs on one BLAS thread
    rng = SeedSpec(s.seed).sub(0).generator()
    mats = [rng.standard_normal((n, max(1, n - 1))) for n in (1, 2, 3, 5, 8, 13, 21, 32)]

    def rel_err(a: np.ndarray) -> float:
        ref = float(np.linalg.svd(a, compute_uv=False)[0])
        return abs(spectral_norm(a, tol=1e-12) - ref) / max(ref, 1e-300)

    worst = max([0.0] + ordered_map(rel_err, mats, workers))
    check("spectral_norm_vs_svd", worst <= 1e-10, worst)

    # circulant forward + norm equivalence
    rep = sub_run("circulant-equiv", {"instances": 10})
    fwd, dft = rep.summary["max_forward_err"], rep.summary["max_rel_err_dft"]
    check("circulant_forward", fwd <= rep.config["forward_tol"], fwd)
    check("circulant_dft_norm", dft <= rep.config["norm_rel_tol"], dft)

    # order statistics closed form vs Monte Carlo
    rep = sub_run("order-stats", {"cases": [[16, 4, 1], [64, 64, 1], [256, 16, 2]], "trials": s.trials})
    worst_z = max(abs(r[7]) for r in rep.rows)
    check("order_stats_3se", all(r[-1] for r in rep.rows), worst_z)

    # balls-into-bins exact enumeration vs Monte Carlo
    rep = sub_run("balls-bins", {"cases": [[4, 8], [2, 12]], "trials": s.trials})
    check("balls_bins", bool(rep.summary["all_pass"]), float(max(r[3] for r in rep.rows)))

    ok = all(r[1] for r in rows)
    return ["check", "pass", "detail"], rows, {"all_pass": ok}


# kind -> runner(parsed config, workers) -> (columns, rows, summary)
_RUNNERS = {
    "table2": run_table2,
    "table3": run_table3,
    "order-stats": run_order_stats,
    "balls-bins": run_balls_bins,
    "circulant-equiv": run_circulant_equiv,
    "fcn-sweep": run_fcn_gap_sweep,
    "cnn-sweep": run_cnn_gap_sweep,
    "bounds": run_bounds,
    "oracle-suite": run_oracle_suite,
}


def run_experiment(kind: str, cfg: dict, workers: int = 1) -> Report:
    """Run one experiment kind on a config dict (as load_config returns it);
    the report keeps the config as given."""
    if kind not in _RUNNERS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    columns, rows, summary = _RUNNERS[kind](parse_config(kind, cfg), workers)
    return Report(kind, cfg, columns, rows, summary)
