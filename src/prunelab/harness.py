"""Experiment orchestration: the nine experiment kinds and deterministic
CSV/JSON report emission.  The config format lives in the config module;
its public names are re-exported here.

Reports are pure functions of (config, seed): trials draw from per-trial
streams, aggregation folds in trial order, and floats are rendered with
shortest round-trip repr, so a rerun with any worker count reproduces the
report byte for byte.  Wall-clock timings never enter report files.

Rows are named records: every runner returns (rows, summary), each row a
dict from column name to value in report order, and the report keeps those
dicts as given.  The estimators and the balls-into-bins check build their
rows themselves; a runner only adds the columns it alone knows.  The
report's columns are the first row's keys, every row must have those keys
in that order, and summaries and oracles read a column by its name, never
by its position.
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
from .linalg import spectral_norm, svd_group_size, top_singular_values
from .parallel import ordered_imap, ordered_map
from .sampling import DistributionSpec, SeedSpec, draw_matrix, fill_uniform

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
    """One experiment's output: resolved config, rows (dicts with the same
    keys in the same order), summary."""

    kind: str
    config: dict
    rows: list
    summary: dict = field(default_factory=dict)

    @property
    def columns(self) -> list:
        return list(self.rows[0])

    def column(self, name: str) -> list:
        """The values of column `name`, in row order."""
        if name not in self.rows[0]:
            raise ValueError(f"{self.kind} has no column {name!r}")
        return [row[name] for row in self.rows]


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


# A numpy float is a float, which json writes with float.__repr__; the other
# numpy scalars (bool_, integers) go in as their Python values.
_dumps = partial(json.dumps, sort_keys=True, default=np.generic.item)


def render_report(report: Report, fmt: str = "csv") -> str:
    if fmt == "json":
        doc = {
            "kind": report.kind,
            "config": report.config,
            "columns": report.columns,
            "rows": [list(r.values()) for r in report.rows],
            "summary": report.summary,
        }
        return _dumps(doc, indent=1) + "\n"
    if fmt != "csv":
        raise ConfigError(f"unknown report format {fmt!r}")
    lines = [f"# kind={report.kind}"]
    for key in sorted(report.config):
        lines.append(f"# {key}={_dumps(report.config[key])}")
    lines.append(",".join(report.columns))
    for row in report.rows:
        lines.append(",".join(_fmt(v) for v in row.values()))
    for key in sorted(report.summary):
        lines.append(f"# summary {key}={_dumps(report.summary[key])}")
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


def _normal(*values: float) -> bool:
    """Whether every value is finite and at least the smallest normal double:
    a sum or power of weight scales off that range has lost its bits."""
    return all(sys.float_info.min <= v < math.inf for v in values)


# numpy makes no array of more than 2^63 - 1 bytes: past that, or past its
# index type in one dimension, it raises "array is too big" or "Maximum
# allowed dimension exceeded" mid-run.  Every kind checks its largest arrays
# against this bound before any trial.  An array below it that does not fit
# in memory ends in MemoryError, which the CLI reports in one line.
_MAX_ARRAY_BYTES = 2**63 - 1


def _check_size(fields: str, nbytes: int) -> None:
    """The one size bound: `fields` names the config values that size an
    array of `nbytes` bytes."""
    if nbytes > _MAX_ARRAY_BYTES:
        raise ConfigError(f"{fields} too large: an array of {nbytes} bytes is past numpy's limit of 2^63 - 1 bytes")


def run_table2(s: SimpleNamespace, workers: int):
    # before any trial: the largest arrays, the trials' norms and a group of
    # SVD inputs (one matrix from min(n1, n2) = 501 on), must fit numpy, and
    # the std's squared norms (of the order of K^2, at most K^2 min(n1, n2))
    # and their sum must be normal doubles
    _check_size(f"trials={s.trials}", s.trials * 8)
    for n1, n2, k_scale in s.rows:
        _check_size(f"rows n1={n1}, n2={n2}", svd_group_size(n1, n2) * n1 * n2 * 8)
        if not _normal(k_scale * k_scale, s.trials * k_scale * k_scale * min(n1, n2)):
            raise ConfigError(f"K={k_scale:g} out of range for {n1} x {n2}: the squared norms overflow or underflow")
    rows = []
    for i, (n1, n2, k_scale) in enumerate(s.rows):
        rows += estimate_lemma3(n1, n2, k_scale, s.trials, SeedSpec(s.seed).sub(i), s.quantiles, workers)
    return rows, {}


def _entry_bound(kind: str, v: float, d: int) -> float:
    """The bound on |entry| of a d x d draw of variance v; 0.0 for a v that
    underflowed to 0, which the caller's underflow check rejects in one line."""
    return DistributionSpec(kind, variance=v).bound(d, d) if v > 0 else 0.0


def run_table3(s: SimpleNamespace, workers: int):
    # before any trial: the largest arrays, as in table2, must fit numpy, and
    # the fourth-moment sums, of the order of v^2 (v = scale / d) and at most
    # trials d^2 b^4 (|entry| <= b = DistributionSpec.bound), must be normal doubles
    _check_size(f"trials={s.trials}", s.trials * 8)
    for d, kind, scale, _ in s.rows:
        _check_size(f"rows d={d}", svd_group_size(d, d) * d * d * 8)
        v = scale / d
        b = _entry_bound(kind, v, d)
        if not _normal(v * v, s.trials * d * d * b * b * b * b):
            raise ConfigError(f"scale={scale:g} out of range at d={d}: the fourth-moment sums overflow or underflow")
    rows = []
    for i, (d, kind, scale, alpha) in enumerate(s.rows):
        dist = DistributionSpec(kind, variance=scale / d)
        est = estimate_latala(d, dist, s.trials, SeedSpec(s.seed).sub(i), prune_alpha=alpha, workers=workers)
        rows.append({"d": d, "dist": "U" if kind == "uniform" else f"N(0,{scale:g}/d)", "alpha": alpha} | est)
    return rows, {}


# ---------------------------------------------------------------------------
# Order statistics and balls-into-bins
# ---------------------------------------------------------------------------


# Entries of U drawn and reduced at a time by the order-statistic kernel:
# 16K doubles (128 KB) stay in L2 from the draw through the selection.
_ORDER_STAT_TILE = 16_384


def run_order_stats(s: SimpleNamespace, workers: int):
    base = SeedSpec(s.seed)
    trials, a = s.trials, s.half_width
    for n, _, _ in s.cases:
        _check_size(f"cases n={n}", max(1, _ORDER_STAT_TILE // n) * n * 8)  # a tile of draws

    # evaluated before any trial runs, so a moment out of range fails fast
    with _theory_inputs("order_stat_moment"):
        exacts = [theory.order_stat_moment(a, n, r, p) for n, r, p in s.cases]
        # the standard error sums (x^p)^2 with x <= a^2 over the trials; below
        # the smallest normal double those squares lose their bits, down to 0
        if not all(_normal(a ** (4 * p), trials * a ** (4 * p)) for _, _, p in s.cases):
            raise OverflowError

    def one(case_index: int):
        n, r, p = s.cases[case_index]
        exact = exacts[case_index]
        rng = base.child(case_index).generator()
        total = 0.0
        total_sq = 0.0
        # The sums run over chunks of up to 4M entries; the draws, into one
        # reused buffer, and the selection run over tiles of whole rows, so
        # no chunk-sized array is made.  The bits are those of a whole chunk
        # drawn by rng.uniform(-a, a), squared and partitioned: PCG64 yields
        # one double per uniform, so the tiles read the same stream values
        # in the same order; `fill_uniform` rounds as uniform does; squaring
        # in place gives u * u; min, max and partition return an exact
        # element of a row, the r-th smallest square; and each chunk sum adds
        # the same values in the same order.
        chunk = max(1, 4_000_000 // n)
        tile = max(1, _ORDER_STAT_TILE // n)
        x = np.empty(min(chunk, trials))
        buffer = np.empty((min(tile, trials), n))
        done = 0
        while done < trials:
            b = min(chunk, trials - done)
            for lo in range(0, b, tile):
                hi = min(lo + tile, b)
                u = fill_uniform(buffer[: hi - lo], a, rng)
                np.multiply(u, u, out=u)
                if r == 1:
                    u.min(axis=1, out=x[lo:hi])
                elif r == n:
                    u.max(axis=1, out=x[lo:hi])
                else:
                    # u is this tile's own scratch: select in place, no copy
                    u.partition(r - 1, axis=1)
                    x[lo:hi] = u[:, r - 1]
            vals = x[:b] if p == 1 else x[:b] ** p
            total += float(vals.sum())
            total_sq += float((vals * vals).sum())
            done += b
        mean = total / trials
        var = max(total_sq / trials - mean * mean, 0.0)
        stderr = math.sqrt(var / trials)
        z = (mean - exact) / stderr if stderr > 0 else 0.0
        return {"n": n, "r": r, "p": p, "a": a, "exact": exact, "mc_mean": mean, "stderr": stderr, "z": z,
                "within_3se": abs(z) <= 3.0}

    rows = ordered_map(one, range(len(s.cases)), workers)
    return rows, {"cases_within_3se": sum(1 for r in rows if r["within_3se"]), "cases_total": len(rows)}


def run_balls_bins(s: SimpleNamespace, workers: int):
    base = SeedSpec(s.seed)
    for _, balls in s.cases:
        _check_size(f"cases balls={balls}", balls * 4)  # one trial's int32 throws

    def one(i: int):
        row = theory.balls_in_bins_check(*s.cases[i], s.trials, base.child(i))
        exact, emp, err = row["exact"], row["empirical"], row["stderr"]
        return row | {"mc_matches_exact": None if exact is None else abs(emp - exact) <= 3.0 * max(err, 1e-12)}

    rows = ordered_map(one, range(len(s.cases)), workers)
    return rows, {"all_pass": all(r["guarantee_holds"] and r["mc_matches_exact"] in (None, True) for r in rows)}


# ---------------------------------------------------------------------------
# Circulant equivalence
# ---------------------------------------------------------------------------


def run_circulant_equiv(s: SimpleNamespace, workers: int):
    base = SeedSpec(s.seed)
    # the explicit map of the widest instance: p^2 d x p^2 d doubles
    _check_size(f"max_channels={s.max_channels}, max_spatial={s.max_spatial}",
                (s.max_spatial**2 * s.max_channels) ** 2 * 8)

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
        svd_norm = float(top_singular_values([w], *w.shape)[0])
        dft_norm = circulant.spectral_norm_via_dft(kpad)
        power_norm = spectral_norm(w, tol=1e-10)
        fwd_err = float(np.max(np.abs(w @ circulant.flatten_maps(x) - circulant.flatten_maps(circulant.conv2d_wrap(x, f)))))
        denom = max(svd_norm, 1e-300)
        rel_dft = abs(dft_norm - svd_norm) / denom
        rel_pow = abs(power_norm - svd_norm) / denom
        return {
            "instance": i, "d_out": d_out, "d_in": d_in, "p": p, "q": q, "forward_max_abs_err": fwd_err,
            "dft_norm": dft_norm, "explicit_svd_norm": svd_norm, "power_iter_norm": power_norm,
            "rel_err_dft_vs_svd": rel_dft, "rel_err_power_vs_svd": rel_pow,
            "pass": fwd_err <= s.forward_tol and rel_dft <= s.norm_rel_tol,
        }

    rows = ordered_map(one, range(s.instances), workers)
    summary = {
        "max_forward_err": max(r["forward_max_abs_err"] for r in rows),
        "max_rel_err_dft": max(r["rel_err_dft_vs_svd"] for r in rows),
        "max_rel_err_power": max(r["rel_err_power_vs_svd"] for r in rows),
        "all_pass": all(r["pass"] for r in rows),
    }
    return rows, summary


# ---------------------------------------------------------------------------
# Gap sweeps
# ---------------------------------------------------------------------------


def _gap_sweep(s, widths, workers: int, one_trial, summarize):
    """The width-by-width loop both gap sweeps run; returns the report's
    rows and the per-width part of its summary.

    one_trial(d, seed) returns a trial's entries per pruned layer, its tail
    entries (sup_gap among them), and its payload: per pruned layer, a
    tuple of arrays and floats.  A row is the d/trial/base_seed/stream
    columns, pruned layer k's entries named `<column>_l<k>`, then the tail.
    Each task is one trial, so two workers share even a short sweep, and
    each trial is folded as it arrives, its payload arrays becoming the
    running sums, so memory does not grow with the trial count.  Per width
    the rows keep trial order, each payload component is summed over the
    trials in trial order, starting from 0.0, and summarize(d, rows, sums)
    adds its fields to the sup_gap quantiles.
    """

    def trial_run(t: int, d: int):
        # a trial's streams depend only on (base_seed, trial, d), so any
        # recorded row can be recomputed in isolation
        return one_trial(d, SeedSpec(s.seed, t).sub(d))

    all_rows = []
    per_width = []
    for d in widths:
        rows = []
        sums = None
        for t, (layers, tail, payload) in enumerate(ordered_imap(partial(trial_run, d=d), range(s.trials), workers)):
            row = {"d": d, "trial": t, "base_seed": s.seed, "stream": t}
            for k, entries in enumerate(layers, start=2):
                row |= {f"{c}_l{k}": v for c, v in entries.items()}
            rows.append(row | tail)
            if sums is None:
                sums = [[0.0] * len(layer) for layer in payload]
            # the additions of a left fold from 0.0 in trial order, each
            # written into the new payload's own component, which becomes
            # the sum: addition commutes, and c + 0.0 turns -0.0 into +0.0
            # as 0.0 + c does.  So no array is copied, and the older sum is
            # freed.
            for acc, layer in zip(sums, payload):
                for i, c in enumerate(layer):
                    c += acc[i]
                    acc[i] = c
        all_rows.extend(rows)
        gaps = np.array([r["sup_gap"] for r in rows])
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
    return all_rows, {"per_width": per_width, "median_gap_strictly_decreasing": decreasing}


def _layer_mean(rows: list, column: str, k: int) -> float:
    """The mean over a width's rows of pruned layer k's entry `column`."""
    return float(np.mean([r[f"{column}_l{k}"] for r in rows]))


def _check_alpha(alpha: float, cap: float, what: str) -> None:
    """The one admissible-alpha rule of Theorems 2 and 3: 0 < alpha <= cap."""
    if not 0.0 < alpha <= cap:
        raise ConfigError(f"alpha={alpha} inadmissible for {what}: requires 0 < alpha <= {cap:.6f}")


def _check_increasing(name: str, sizes: tuple) -> None:
    """median_gap_strictly_decreasing reads a sweep's sizes in list order."""
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError(f"{name} must be strictly increasing, got {list(sizes)}")


def _check_kernel(q: int, p: int) -> None:
    """q x q kernels on p x p wrap-around feature maps need q < p."""
    if q >= p:
        raise ConfigError(f"kernel {q} must be below spatial size {p}")


def run_fcn_gap_sweep(s: SimpleNamespace, workers: int):
    _check_increasing("widths", s.widths)
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

    def shapes_for(d: int) -> list:
        dims = [s.d_in] + [d] * (l - 1) + [s.d_out]
        return [(dims[k + 1], dims[k]) for k in range(l)]

    # Before any trial: the largest arrays, a weight matrix or a chunk's
    # points or activations, must fit numpy.  An m x n layer's entries lie
    # within K/sqrt(max(m, n)), so its norm is at most K sqrt(min(m, n));
    # every activation fixes 0 and is 1-Lipschitz.  On the unit sphere the
    # squared gap norm the estimate sums is then at most 4 prod K^2 min(m, n),
    # checked so it cannot overflow.  The Latala payload's fourth powers, of
    # the order of (K^2 / max(m, n))^2, are checked at the largest layer so
    # they cannot underflow.  The gap bound is checked at unit norms too.
    for d in s.widths:
        largest = max(max(m * n for m, n in shapes_for(d)), networks._GAP_CHUNK * max(s.d_in, d, s.d_out))
        _check_size(f"widths d={d} with d_in={s.d_in}, d_out={s.d_out}", largest * 8)
        if not math.isfinite(4.0 * math.prod(k_scale * k_scale * min(shape) for shape in shapes_for(d))):
            raise ConfigError(f"xavier_k={k_scale:g} too large at width d={d}: the squared gap norm can overflow")
        b2 = k_scale * k_scale / max(map(max, shapes_for(d)))
        if not _normal(b2 * b2):
            raise ConfigError(f"xavier_k={k_scale:g} too small at width d={d}: the entries' fourth powers underflow")
        with _theory_inputs("gap_bound"):
            theory.fcn_gap_bound(l, d, alpha, magnitude, [1.0])

    def one_trial(d: int, seed_t: SeedSpec):
        gw = seed_t.sub(0).generator()
        shapes = shapes_for(d)
        weights = [draw_matrix(dist, m, n, gw) for m, n in shapes]
        model = networks.FcnModel(tuple(weights), act)
        counts = tuple(pruning.prune_count(alpha, m * n) for m, n in shapes[1:-1])
        mask = pruning.build_mask(model, s.scheme, counts, seed_t.sub(1))
        # the gap estimate is a trial's peak, so it runs before the diffs exist
        gap = networks.estimate_sup_gap(model, mask, "sphere", s.samples, seed_t.sub(2))
        internal = range(1, l - 1)  # 0-based internal layer indices
        diffs = [(1.0 - mask[k]) * weights[k] for k in internal]
        # the internal d x d weights and their diffs share one grouped SVD
        square = top_singular_values([weights[k] for k in internal] + diffs, d, d).tolist()
        diff_norms = [square[l - 2 + j] if diff.any() else 0.0 for j, diff in enumerate(diffs)]
        first, last = (float(top_singular_values([w], *w.shape)[0]) for w in (weights[0], weights[-1]))
        layer_norms = [first] + square[: l - 2] + [last]
        threshold = theory.fcn_diff_threshold(d, alpha, magnitude)
        layers = [
            {"count": counts[j], "norm_w": layer_norms[k], "norm_diff": nd,
             "bins_event": theory.balls_in_bins_event(mask[k], counts[j]), "diff_event": nd <= threshold}
            for j, (k, nd) in enumerate(zip(internal, diff_norms))
        ]
        del model, weights  # read for the last time: freed before the Latala payload exists
        for sq in diffs:
            sq *= sq  # in place: the Latala sums take squares and fourth powers
        payload = [(sq, sq * sq) for sq in diffs]
        with _theory_inputs("gap_bound"):  # every supported activation is 1-Lipschitz
            gap_bound = theory.fcn_gap_bound(l, d, alpha, magnitude, layer_norms)
        return layers, {"sup_gap": gap, "gap_bound": gap_bound, "gap_event": gap <= gap_bound}, payload

    def summarize(d: int, rows: list, sums: list) -> dict:
        layers = []
        for k, (sq, quad) in enumerate(sums, start=2):
            mean_diff = _layer_mean(rows, "norm_diff", k)
            c_hat = latala_ratio(mean_diff, latala_terms(sq / s.trials, quad / s.trials))
            c2_hat, bound = theory.fcn_mean_bound(c_hat, d, alpha, magnitude, k_scale, *dist.moment_constants(*shapes_for(d)[k - 1]))
            layers.append(
                {
                    "layer": k,
                    "count": int(rows[0][f"count_l{k}"]),
                    "mean_norm_w": _layer_mean(rows, "norm_w", k),
                    "mean_norm_diff": mean_diff,
                    "latala_c_hat": c_hat,
                    "c2_hat": c2_hat,
                    "mean_bound": bound,
                    "mean_diff_le_bound": mean_diff <= bound,
                    "frac_trials_diff_le_bound": float(np.mean([r[f"norm_diff_l{k}"] <= bound for r in rows])),
                    "freq_bins_event": _layer_mean(rows, "bins_event", k),
                    "freq_diff_event": _layer_mean(rows, "diff_event", k),
                }
            )
        return {"freq_gap_event": float(np.mean([r["gap_event"] for r in rows])), "layers": layers}

    rows, sweep = _gap_sweep(s, s.widths, workers, one_trial, summarize)
    exponents = dict(zip(("mean_norm_exponent", "event_exponent"), theory.fcn_exponents(alpha, magnitude)))
    return rows, {"scheme": s.scheme, "alpha": alpha} | exponents | sweep


def run_cnn_gap_sweep(s: SimpleNamespace, workers: int):
    l, p, q, alpha = s.depth, s.spatial, s.kernel, s.alpha
    _check_increasing("channels", s.channels)
    _check_kernel(q, p)
    # the largest arrays: a kernel transform or a chunk's spectrum (d_k x p x
    # (p // 2 + 1) complex per filter or point), the dense layer, and the
    # explicit map where it is built
    for d in s.channels:
        spectra = max(d, networks._GAP_CHUNK) * max(s.d_in, d) * p * (p // 2 + 1) * 16
        explicit = (p * p * d) ** 2 * 8 if p * p * d <= s.explicit_norm_limit else 0
        largest = max(spectra, s.d_out * d * p * p * 8, explicit)
        _check_size(f"channels d={d} with spatial={p}, d_in={s.d_in}, d_out={s.d_out}", largest)
        _check_alpha(alpha, theory.thm3_alpha_constraint(d), f"filter pruning at d={d}")
    # evaluated before any trial runs, so a bound out of range fails fast
    with _theory_inputs("thm3_rhs"):
        rhs_by_d = {d: theory.thm3_rhs(p, d, p, 1.0, l, s.beta1, s.beta2, alpha) for d in s.channels}
    act = networks.Activation("relu")

    def layer_entries(kernel: np.ndarray, fmask: np.ndarray, count: int, d: int, norm_w_explicit: float | None):
        """One internal conv layer's row entries and Latala payload.  The
        padded kernels and the slices die on return, so they are not alive
        through the trial's gap estimate, its peak."""
        kpad = circulant.pad_kernel(kernel, p)
        norm_w = circulant.spectral_norm_via_dft(kpad)
        diff_pad = kpad * (1.0 - fmask)[:, :, None, None]
        norm_diff = circulant.spectral_norm_via_dft(diff_pad) if diff_pad.any() else 0.0
        # per-kernel-position slices of the target and difference tensors
        slices = kernel.transpose(2, 3, 0, 1).reshape(q * q, d, d)
        dslices = slices * (1.0 - fmask)[None, :, :]
        s_norms = top_singular_values(slices, d, d)
        ds_norms = top_singular_values(dslices, d, d)
        w_max, diff_max = theory.thm3_event_thresholds(p, d, s.beta1, s.beta2)
        entries = {"count": count, "norm_w_dft": norm_w, "norm_diff_dft": norm_diff, "norm_w_explicit": norm_w_explicit,
                   "bins_event": theory.balls_in_bins_event(fmask, count), "w_event": norm_w <= w_max,
                   "diff_event": norm_diff <= diff_max}
        payload = (
            (slices * slices).sum(axis=0),
            (slices**4).sum(axis=0),
            float(s_norms.sum()),
            (dslices * dslices).sum(axis=0),
            (dslices**4).sum(axis=0),
            float(ds_norms.sum()),
        )
        return entries, payload

    def draw_weights(d: int, seed_t: SeedSpec):
        """A trial's conv filter banks and dense layer, drawn from its seed."""
        gw = seed_t.sub(0).generator()
        dist = DistributionSpec(s.weight_kind, variance=s.moment_c1 / (p * p * d))
        chans = [s.d_in] + [d] * (l - 1)
        tensors = tuple(draw_matrix(dist, m, n * q * q, gw).reshape(m, n, q, q) for n, m in zip(chans, chans[1:]))
        return tensors, draw_matrix(dist, s.d_out, d * p * p, gw)

    def explicit_norm(kernel: np.ndarray) -> float:
        w_full = circulant.build_full_map(circulant.pad_kernel(kernel, p))
        return float(top_singular_values([w_full], *w_full.shape)[0])

    def one_trial(d: int, seed_t: SeedSpec):
        tensors, dense = draw_weights(d, seed_t)
        model = networks.CnnModel(tensors, dense, act, p)
        counts = tuple(pruning.filter_prune_count(alpha, d) for _ in range(l - 2))
        mask = pruning.build_mask(model, "filter-random", counts, seed_t.sub(1))
        norms = explicit_norms.get(seed_t, [None] * (l - 2))
        # an (entries, payload) pair per internal conv layer, k 0-based
        layers, payload = zip(*(layer_entries(tensors[k], mask[k], counts[k - 1], d, norms[k - 1]) for k in range(1, l - 1)))
        gap = networks.estimate_sup_gap(model, mask, "cube", s.samples, seed_t.sub(2))
        return layers, {"sup_gap": gap}, payload

    c1 = s.moment_c1
    with _theory_inputs("moment_c1"):
        c2 = theory.thm3_moment_c2(s.weight_kind, c1)

    # An entry, of variance v = c1 / (p^2 d), lies within b = DistributionSpec.bound.
    # A conv layer's map, q^2 shifted d_k x d_{k-1} blocks, then has norm at most
    # q^2 b sqrt(d_k d_{k-1}), the dense layer b sqrt(d_out d p^2) and a cube point
    # sqrt(d_in p^2); relu fixes 0 and is 1-Lipschitz.  Before any trial, the squared
    # gap norm the estimate sums, at most 4 d_in p^2 prod ||W_k||^2, must not overflow,
    # nor the Latala payload's fourth powers, of the order of v^2 <= c1^2 ~ c2, underflow.
    for d in s.channels:
        v = c1 / (p * p * d)
        b = _entry_bound(s.weight_kind, v, d)
        dims = [s.d_in] + [d] * (l - 1)
        layers = [q**4 * b * b * dims[k + 1] * dims[k] for k in range(l - 1)] + [b * b * s.d_out * d * p * p]
        if not math.isfinite(4.0 * s.d_in * p * p * math.prod(layers)):
            raise ConfigError(f"moment_c1={c1:g} too large at d={d}: the squared gap norm can overflow")
        if not _normal(v * v):
            raise ConfigError(f"moment_c1={c1:g} too small at d={d}: the entries' fourth powers underflow")

    def summarize(d: int, rows: list, sums: list) -> dict:
        layers = []
        n_slices = s.trials * q * q
        for k, (sq_t, quad_t, sum_norm_t, sq_d, quad_d, sum_norm_d) in enumerate(sums, start=2):
            mean_slice_t = sum_norm_t / n_slices
            c_hat_t = latala_ratio(mean_slice_t, latala_terms(sq_t / n_slices, quad_t / n_slices))
            mean_slice_d = sum_norm_d / n_slices
            c_hat_d = latala_ratio(mean_slice_d, latala_terms(sq_d / n_slices, quad_d / n_slices))
            c3_hat, c4_hat, w_bound, diff_bound, slice_bound, slice_diff_bound = theory.thm3_layer_bounds(
                c_hat_t, c_hat_d, c1, c2, p, q, d, alpha)
            mean_w = _layer_mean(rows, "norm_w_dft", k)
            mean_diff = _layer_mean(rows, "norm_diff_dft", k)
            layers.append(
                {
                    "layer": k,
                    "count": int(rows[0][f"count_l{k}"]),
                    "mean_norm_w": mean_w,
                    "w_bound_c3_q2_over_p": w_bound,
                    "mean_w_le_bound": mean_w <= w_bound,
                    "mean_norm_diff": mean_diff,
                    "diff_bound": diff_bound,
                    "mean_diff_le_bound": mean_diff <= diff_bound,
                    "mean_slice_norm": mean_slice_t,
                    "slice_bound_c3_over_p": slice_bound,
                    "mean_slice_diff_norm": mean_slice_d,
                    "slice_diff_bound": slice_diff_bound,
                    "c3_hat": c3_hat,
                    "c4_hat": c4_hat,
                    "freq_bins_event": _layer_mean(rows, "bins_event", k),
                    "freq_w_event": _layer_mean(rows, "w_event", k),
                    "freq_diff_event": _layer_mean(rows, "diff_event", k),
                }
            )
        return {"thm3_rhs": rhs_by_d[d], "layers": layers}

    # the explicit-map SVDs, whose bits depend on the BLAS thread count from n = 768,
    # run before the trials, outside every map, at the caller's count
    explicit_norms = {
        seed_t: [explicit_norm(f) for f in draw_weights(d, seed_t)[0][1:]]
        for d in s.channels if p * p * d <= s.explicit_norm_limit
        for seed_t in (SeedSpec(s.seed, t).sub(d) for t in range(s.trials))
    }
    rows, sweep = _gap_sweep(s, s.channels, workers, one_trial, summarize)
    return rows, {"alpha": alpha} | sweep


# ---------------------------------------------------------------------------
# Bound calculators
# ---------------------------------------------------------------------------


@_theory_inputs("bounds")
def run_bounds(s: SimpleNamespace, workers: int):
    if not (s.thm1 or s.thm2 or s.thm3):
        raise ConfigError("needs at least one of thm1, thm2, thm3")
    sections = []  # (section, {name: value})
    t1 = s.thm1
    if t1:
        terms = theory.thm1_width_terms(t1.c0, t1.c2, t1.delta0, t1.l, t1.lipschitz, t1.alpha, t1.eps, t1.delta)
        sections.append(("thm1", terms | {"width_bound": math.ceil(max(terms.values()))}))
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
        caps = {f"alpha_max_{side}_layer{k}": cap for k in range(2, t2.l) for side in ("rows", "cols")}
        prob = theory.thm2_probability(t2.l, t2.d, t2.alpha, t2.c2, t2.deltas)
        sections.append(("thm2", caps | {"alpha_max_overall": cap, "probability": prob, "non_vacuous": prob > 0.0}))
    t3 = s.thm3
    if t3:
        _check_kernel(t3.q, t3.p)
        cap = theory.thm3_alpha_constraint(t3.d)
        _check_alpha(t3.alpha, cap, f"filter pruning at d={t3.d}")
        rhs = theory.thm3_rhs(t3.p, t3.d, t3.p0, t3.lipschitz, t3.l, t3.beta1, t3.beta2, t3.alpha)
        prob = theory.thm3_probability(t3.l, t3.d, t3.p, t3.q, t3.alpha, t3.beta1, t3.beta2, t3.c3, t3.c4, t3.c5)
        sections.append(("thm3", {"alpha_max": cap, "rhs": rhs, "probability": prob, "non_vacuous": prob > 0.0}))
    return [{"section": section, "name": name, "value": value}
            for section, values in sections for name, value in values.items()], {}


# ---------------------------------------------------------------------------
# Oracle suite
# ---------------------------------------------------------------------------


def run_oracle_suite(s: SimpleNamespace, workers: int):
    rows = []

    def check(name: str, ok: bool, detail: float):
        rows.append({"check": name, "pass": bool(ok), "detail": detail})

    def sub_run(kind: str, overrides: dict) -> Report:
        return run_experiment(kind, load_config(kind, overrides=overrides | {"seed": s.seed}), workers)

    # power iteration against the LAPACK SVD oracle, mapped like every
    # other kind's BLAS work so that it runs on one BLAS thread
    rng = SeedSpec(s.seed).sub(0).generator()
    mats = [rng.standard_normal((n, max(1, n - 1))) for n in (1, 2, 3, 5, 8, 13, 21, 32)]

    def rel_err(a: np.ndarray) -> float:
        ref = float(top_singular_values([a], *a.shape)[0])
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
    worst_z = max(abs(z) for z in rep.column("z"))
    check("order_stats_3se", all(rep.column("within_3se")), worst_z)

    # balls-into-bins exact enumeration vs Monte Carlo
    rep = sub_run("balls-bins", {"cases": [[4, 8], [2, 12]], "trials": s.trials})
    check("balls_bins", bool(rep.summary["all_pass"]), float(max(rep.column("empirical"))))

    return rows, {"all_pass": all(r["pass"] for r in rows)}


# kind -> runner(parsed config, workers) -> (rows, summary)
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
    the report keeps the config and the runner's rows as given, and its
    columns are the first row's keys, which every row must repeat in that
    order."""
    s = parse_config(kind, cfg)  # before the runner lookup: it rejects an unknown kind
    report = Report(kind, cfg, *_RUNNERS[kind](s, workers))
    columns = report.columns
    if any(list(row) != columns for row in report.rows):
        raise ValueError(f"{kind} rows differ from the first row's columns {columns}")
    return report
