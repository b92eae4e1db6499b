"""Experiment orchestration: config ingestion, the eight experiment kinds,
and deterministic CSV/JSON report emission.

Reports are pure functions of (config, seed): trials draw from per-trial
streams, aggregation folds in trial order, and floats are rendered with
shortest round-trip repr, so a rerun with any worker count reproduces the
report byte for byte.  Wall-clock timings never enter report files.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import circulant, networks, pruning, theory
from .estimators import QUANTILES, estimate_lemma3, estimate_latala, latala_terms
from .linalg import spectral_norm
from .parallel import ordered_map, single_threaded_blas, trial_blocks
from .sampling import DistributionSpec, SeedSpec, draw_matrix
from .theory import TheoremConstants

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

_SQRT3 = math.sqrt(3.0)
DEFAULT_SEED = 31415926


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class Report:
    """One experiment's output: resolved config, tabular rows, summary."""

    kind: str
    config: dict
    columns: list
    rows: list
    summary: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Config schemas
# ---------------------------------------------------------------------------

_ORDER_STAT_DEFAULT_CASES = [
    [4, 1, 1], [4, 4, 1], [4, 2, 2],
    [16, 1, 1], [16, 8, 1], [16, 16, 2],
    [64, 4, 1], [64, 32, 2], [64, 64, 1],
    [256, 16, 1], [256, 128, 2], [256, 256, 1],
    [1024, 1, 1], [1024, 32, 1], [1024, 512, 2], [1024, 1024, 1],
    [4096, 64, 1], [4096, 1024, 1], [4096, 2048, 2], [4096, 4096, 2],
]

_DEFAULTS: dict[str, dict] = {
    "table2": {
        "rows": [[32, 32, 1.0], [32, 32, _SQRT3], [128, 128, 1.0], [512, 512, _SQRT3]],
        "trials": 1000,
        "quantiles": list(QUANTILES),
        "seed": DEFAULT_SEED,
    },
    "table3": {
        # [d, kind, variance_scale, alpha-or-None]: variance = scale / d
        "rows": [[32, "uniform", 1.0, None], [512, "gaussian", 1.0, None], [256, "gaussian", 1.0, 0.5]],
        "trials": 500,
        "seed": DEFAULT_SEED,
    },
    "order-stats": {
        "cases": _ORDER_STAT_DEFAULT_CASES,
        "trials": 100_000,
        "half_width": 1.0,
        "seed": DEFAULT_SEED,
    },
    "balls-bins": {
        "cases": [[4, 8], [32, 111], [64, 267]],
        "trials": 10_000,
        "seed": DEFAULT_SEED,
    },
    "circulant-equiv": {
        "instances": 50,
        "max_channels": 3,
        "max_spatial": 8,
        "seed": DEFAULT_SEED,
        "forward_tol": 1e-12,
        "norm_rel_tol": 1e-8,
    },
    "fcn-sweep": {
        "depth": 4,
        "widths": [64, 128, 256],
        "d_in": 16,
        "d_out": 16,
        "alpha": 0.5,
        "scheme": "magnitude-layerwise",
        "activation": "relu",
        "xavier_k": 1.0,
        "trials": 50,
        "samples": 1000,
        "seed": DEFAULT_SEED,
    },
    "cnn-sweep": {
        "depth": 3,
        "channels": [16, 32, 64],
        "d_in": 3,
        "d_out": 10,
        "spatial": 8,
        "kernel": 3,
        "alpha": 0.6,
        "moment_c1": 1.0,
        "weight_kind": "gaussian",
        "trials": 30,
        "samples": 1000,
        "beta1": 0.1,
        "beta2": 0.05,
        "explicit_norm_limit": 1500,
        "seed": DEFAULT_SEED,
    },
    "bounds": {
        "thm1": {
            "l": 4, "lipschitz": [1.0, 1.0, 1.0, 1.0], "alpha": 0.5,
            "eps": 0.1, "delta": 0.1, "c0": 1.16, "c2": 3.03, "delta0": 0.029,
        },
        "thm2": {
            "l": 4, "d": 1024, "widths": [1024, 1024, 1024], "alpha": 0.5,
            "c2": 1.61, "deltas": [0.01, 0.01, 0.01, 0.01],
        },
        "thm3": {
            "l": 3, "d": 256, "p": 32, "q": 3, "p0": 32, "lipschitz": 1.0,
            "alpha": 0.6, "beta1": 0.1, "beta2": 0.05, "c3": 0.6, "c4": 0.6, "c5": 0.6,
        },
    },
    "oracle-suite": {
        "seed": DEFAULT_SEED,
        "trials": 20_000,
    },
}

EXPERIMENT_KINDS = tuple(_DEFAULTS)


def default_config(kind: str) -> dict:
    if kind not in _DEFAULTS:
        raise ConfigError(f"unknown experiment kind {kind!r}; choose from {', '.join(EXPERIMENT_KINDS)}")
    return json.loads(json.dumps(_DEFAULTS[kind]))  # deep copy through JSON


def load_config(kind: str, path=None, overrides: dict | None = None) -> dict:
    """Defaults, overlaid with an optional JSON file, overlaid with explicit
    overrides.  Unknown keys and seeds outside [0, 2^64) are rejected."""
    cfg = default_config(kind)
    layers = []
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                layers.append(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if overrides:
        layers.append({k: v for k, v in overrides.items() if v is not None})
    for layer in layers:
        if not isinstance(layer, dict):
            raise ConfigError("config document must be a JSON object")
        for key, value in layer.items():
            if key not in cfg:
                raise ConfigError(f"unknown config field {key!r} for kind {kind!r}")
            cfg[key] = value
    if "seed" in cfg:
        seed = cfg["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
            raise ConfigError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return cfg


def _is_int_at_least(value, minimum: int) -> bool:
    return not isinstance(value, bool) and isinstance(value, int) and value >= minimum


def _count(cfg: dict, key: str, minimum: int) -> int:
    """The config's integer field `key`, which must be >= minimum."""
    value = cfg[key]
    if not _is_int_at_least(value, minimum):
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


def _count_list(cfg: dict, key: str, minimum: int) -> list:
    """The config's field `key`, a nonempty list of integers >= minimum."""
    values = cfg[key]
    if not isinstance(values, list) or not values or not all(_is_int_at_least(v, minimum) for v in values):
        raise ConfigError(f"{key} must be a nonempty list of integers >= {minimum}, got {values!r}")
    return values


@contextmanager
def _theory_inputs(label: str):
    """Theory formulas evaluated on config values: an input outside a
    formula's domain (ValueError) or a value out of floating-point range
    (ArithmeticError) is a config error."""
    try:
        yield
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


def run_table2(cfg: dict, workers: int = 1) -> Report:
    trials = _count(cfg, "trials", 100)
    base = SeedSpec(cfg["seed"])
    columns = ["n1", "n2", "K", "mean", "std", "q", "c0", "delta0"]
    rows = []
    for i, spec_row in enumerate(cfg["rows"]):
        n1, n2, k_scale = int(spec_row[0]), int(spec_row[1]), float(spec_row[2])
        est = estimate_lemma3(
            n1, n2, k_scale, trials, base.sub(i),
            quantiles=tuple(cfg["quantiles"]), workers=workers,
        )
        for q, c0, d0 in est.quantiles:
            rows.append([n1, n2, k_scale, est.mean, est.std, q, c0, d0])
    return Report("table2", cfg, columns, rows)


def _table3_dist(kind: str, variance_scale: float, d: int) -> DistributionSpec:
    if kind == "uniform":
        return DistributionSpec("uniform", variance=variance_scale / d)
    if kind == "gaussian":
        return DistributionSpec("gaussian", variance=variance_scale / d)
    raise ConfigError(f"unknown distribution kind {kind!r}")


def _table3_label(kind: str, variance_scale: float) -> str:
    if kind == "uniform":
        return "U"
    return f"N(0,{variance_scale:g}/d)"


def run_table3(cfg: dict, workers: int = 1) -> Report:
    trials = _count(cfg, "trials", 100)
    base = SeedSpec(cfg["seed"])
    columns = ["d", "dist", "alpha", "term1", "term2", "term3", "mean_norm", "C"]
    rows = []
    for i, spec_row in enumerate(cfg["rows"]):
        d, kind, scale = int(spec_row[0]), str(spec_row[1]), float(spec_row[2])
        alpha = None if spec_row[3] is None else float(spec_row[3])
        est = estimate_latala(
            d, _table3_dist(kind, scale, d), trials, base.sub(i),
            prune_alpha=alpha, workers=workers,
        )
        rows.append([d, _table3_label(kind, scale), alpha, est.term1, est.term2, est.term3, est.mean_norm, est.c])
    return Report("table3", cfg, columns, rows)


# ---------------------------------------------------------------------------
# Order statistics and balls-into-bins
# ---------------------------------------------------------------------------


def run_order_stats(cfg: dict, workers: int = 1) -> Report:
    base = SeedSpec(cfg["seed"])
    trials = _count(cfg, "trials", 1)
    a = float(cfg["half_width"])
    cases = [(int(n), int(r), int(p)) for n, r, p in cfg["cases"]]

    def one(case_index: int):
        n, r, p = cases[case_index]
        exact = theory.order_stat_moment(a, n, r, p)
        rng = base.child(case_index).generator()
        total = 0.0
        total_sq = 0.0
        chunk = max(1, 4_000_000 // n)
        done = 0
        while done < trials:
            b = min(chunk, trials - done)
            u = rng.uniform(-a, a, size=(b, n))
            x = np.partition(u * u, r - 1, axis=1)[:, r - 1]
            vals = x if p == 1 else x**p
            total += float(vals.sum())
            total_sq += float((vals * vals).sum())
            done += b
        mean = total / trials
        var = max(total_sq / trials - mean * mean, 0.0)
        stderr = math.sqrt(var / trials)
        z = (mean - exact) / stderr if stderr > 0 else 0.0
        return [n, r, p, a, exact, mean, stderr, z, abs(z) <= 3.0]

    rows = ordered_map(one, range(len(cases)), workers)
    n_pass = sum(1 for r in rows if r[-1])
    columns = ["n", "r", "p", "a", "exact", "mc_mean", "stderr", "z", "within_3se"]
    return Report("order-stats", cfg, columns, rows, {"cases_within_3se": n_pass, "cases_total": len(rows)})


def run_balls_bins(cfg: dict, workers: int = 1) -> Report:
    base = SeedSpec(cfg["seed"])
    trials = _count(cfg, "trials", 1)
    cases = [(int(n), int(nb)) for n, nb in cfg["cases"]]

    def one(i: int):
        n, nballs = cases[i]
        res = theory.balls_in_bins_check(n, nballs, trials, base.child(i))
        mc_ok = None
        if res.exact is not None:
            mc_ok = abs(res.empirical - res.exact) <= 3.0 * max(res.stderr, 1e-12)
        return [
            n, nballs, res.threshold, res.empirical, res.stderr, res.exact,
            res.guarantee_applies, res.guarantee_floor, res.guarantee_holds, mc_ok,
        ]

    rows = ordered_map(one, range(len(cases)), workers)
    columns = [
        "bins", "balls", "threshold", "empirical", "stderr", "exact",
        "guarantee_applies", "guarantee_floor", "guarantee_holds", "mc_matches_exact",
    ]
    ok = all((r[8]) and (r[9] in (None, True)) for r in rows)
    return Report("balls-bins", cfg, columns, rows, {"all_pass": ok})


# ---------------------------------------------------------------------------
# Circulant equivalence
# ---------------------------------------------------------------------------


def run_circulant_equiv(cfg: dict, workers: int = 1) -> Report:
    base = SeedSpec(cfg["seed"])
    dmax = int(cfg["max_channels"])
    pmax = int(cfg["max_spatial"])

    def one(i: int):
        rng = base.child(i).generator()
        d_out = int(rng.integers(1, dmax + 1))
        d_in = int(rng.integers(1, dmax + 1))
        p = int(rng.integers(2, pmax + 1))
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
            fwd_err <= cfg["forward_tol"] and rel_dft <= cfg["norm_rel_tol"],
        ]

    rows = ordered_map(one, range(int(cfg["instances"])), workers)
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
    return Report("circulant-equiv", cfg, columns, rows, summary)


# ---------------------------------------------------------------------------
# FCN gap sweep
# ---------------------------------------------------------------------------


def _bins_event(mask_matrix: np.ndarray, count: int) -> bool:
    zeros = mask_matrix == 0.0
    m, n = mask_matrix.shape
    row_ok = zeros.sum(axis=1).max() <= 3.0 * count / m
    col_ok = zeros.sum(axis=0).max() <= 3.0 * count / n
    return bool(row_ok and col_ok)


def _fcn_alpha_check(cfg: dict) -> None:
    alpha = float(cfg["alpha"])
    scheme = cfg["scheme"]
    if scheme in ("random-with-replacement", "random-without-replacement"):
        for d in cfg["widths"]:
            hidden = (d,) * (cfg["depth"] - 1)
            for rep in theory.thm2_alpha_constraints(alpha, hidden):
                if not rep.satisfied:
                    raise ConfigError(
                        f"alpha={alpha} inadmissible for random pruning at width d={d}: "
                        f"constraint {rep.name} requires alpha <= {rep.rhs:.6f}"
                    )
    elif not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha={alpha} outside (0, 1) for {scheme}")


def run_fcn_gap_sweep(cfg: dict, workers: int = 1) -> Report:
    scheme = cfg["scheme"]
    if scheme not in ("magnitude-layerwise", "magnitude-global",
                      "random-with-replacement", "random-without-replacement"):
        raise ConfigError(f"scheme {scheme!r} is not an FCN sweep scheme")
    l = _count(cfg, "depth", 3)
    widths = _count_list(cfg, "widths", 1)
    _fcn_alpha_check(cfg)
    alpha = float(cfg["alpha"])
    k_scale = float(cfg["xavier_k"])
    dist = DistributionSpec("uniform", xavier_k=k_scale)
    act = networks.activation(cfg["activation"])
    trials = _count(cfg, "trials", 1)
    samples = _count(cfg, "samples", 1)
    base = SeedSpec(cfg["seed"])
    d_in, d_out = int(cfg["d_in"]), int(cfg["d_out"])
    magnitude = scheme.startswith("magnitude")
    # proof-side exponents: the expected difference norm scales as d^(-2 alpha)
    # for magnitude pruning and d^(-alpha/2) for random pruning; the Markov
    # events use d^(-alpha) and d^(-alpha/4)
    mean_expo = -2.0 * alpha if magnitude else -alpha / 2.0
    event_expo = -alpha if magnitude else -alpha / 4.0

    def shapes_for(d: int) -> list:
        dims = [d_in] + [d] * (l - 1) + [d_out]
        return [(dims[k + 1], dims[k]) for k in range(l)]

    def one_trial(d: int, trial: int):
        # the trial's streams depend only on (base_seed, trial, d), so any
        # recorded row can be recomputed in isolation
        seed_t = SeedSpec(base.base_seed, trial).sub(d)
        gw = seed_t.sub(0).generator()
        shapes = shapes_for(d)
        weights = [draw_matrix(dist, m, n, gw) for m, n in shapes]
        model = networks.FcnModel(tuple(weights), (act,) * (l - 1))
        counts = tuple(pruning.prune_count(alpha, m * n) for m, n in shapes[1:-1])
        if scheme == "magnitude-layerwise":
            mask = pruning.mask_magnitude_layerwise(weights, counts)
        elif scheme == "magnitude-global":
            mask = pruning.mask_magnitude_global(weights, sum(counts))
        elif scheme == "random-with-replacement":
            mask = pruning.mask_random_with_replacement(shapes, counts, seed_t.sub(1))
        else:
            mask = pruning.mask_random_without_replacement(shapes, counts, seed_t.sub(1))
        layer_norms = [float(np.linalg.svd(w, compute_uv=False)[0]) for w in weights]
        row = [d, trial, base.base_seed, trial]
        payload = []
        for j, k in enumerate(range(1, l - 1)):  # 0-based internal layer index
            diff = (1.0 - mask.masks[k]) * weights[k]
            nd = float(np.linalg.svd(diff, compute_uv=False)[0]) if diff.any() else 0.0
            bins_ok = _bins_event(mask.masks[k], counts[j])
            diff_ok = nd <= float(d) ** event_expo
            row += [counts[j], layer_norms[k], nd, bins_ok, diff_ok]
            payload.append((diff * diff, (diff * diff) ** 2, nd))
        gap = networks.estimate_sup_gap(model, mask, "sphere", samples, seed_t.sub(2))
        n_caps = [max(1.0, v) for v in layer_norms]
        if magnitude:
            c0_t = max(n_caps)
            gap_bound = (2 ** (l - 2) - 1) * float(d) ** (-alpha) * c0_t ** (l - 1)
        else:
            gap_bound = (2 ** (l - 2) - 1) * float(d) ** (-alpha / 4.0) * math.prod(n_caps)
        gap_bound *= math.prod(a.lipschitz for a in (act,) * (l - 1))
        row += [gap, gap_bound, gap <= gap_bound]
        return row, payload

    columns = ["d", "trial", "base_seed", "stream"]
    for k in range(2, l):
        columns += [f"count_l{k}", f"norm_w_l{k}", f"norm_diff_l{k}", f"bins_event_l{k}", f"diff_event_l{k}"]
    columns += ["sup_gap", "gap_bound", "gap_event"]

    all_rows = []
    summaries = []
    for d in widths:
        def block_run(block: range, _d=d):
            return [one_trial(_d, t) for t in block]

        results = []
        # one BLAS thread per trial at every worker count, see the
        # threading policy in the parallel module
        with single_threaded_blas():
            blocks = ordered_map(block_run, trial_blocks(trials), workers)
        for blk in blocks:
            results.extend(blk)
        rows = [r for r, _ in results]
        all_rows.extend(rows)
        gaps = np.array([r[-3] for r in rows])
        n_internal = l - 2
        layer_summaries = []
        shapes = shapes_for(d)
        for j in range(n_internal):
            sq = np.zeros(shapes[1 + j])
            quad = np.zeros(shapes[1 + j])
            norms = []
            for _, payload in results:
                sq += payload[j][0]
                quad += payload[j][1]
                norms.append(payload[j][2])
            t1, t2, t3 = latala_terms(sq / trials, quad / trials)
            mean_diff = float(np.mean(norms))
            c_hat = mean_diff / (t1 + t2 + t3) if (t1 + t2 + t3) > 0 else 0.0
            m, n = shapes[1 + j]
            k1, k2 = dist.moment_constants(m, n)
            if magnitude:
                c2_hat = c_hat * k_scale * (2.0 * math.sqrt(2.0) + 24.0**0.25)
            else:
                c2_hat = c_hat * (2.0 * math.sqrt(3.0 * k1) + k2**0.25)
            bound = c2_hat * float(d) ** mean_expo
            base_col = 4 + j * 5
            layer_summaries.append(
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
        summaries.append(
            {
                "d": d,
                "median_gap": float(np.median(gaps)),
                "mean_gap": float(gaps.mean()),
                "gap_q25": float(np.quantile(gaps, 0.25)),
                "gap_q75": float(np.quantile(gaps, 0.75)),
                "freq_gap_event": float(np.mean([r[-1] for r in rows])),
                "layers": layer_summaries,
            }
        )
    medians = [s["median_gap"] for s in summaries]
    summary = {
        "scheme": scheme,
        "alpha": alpha,
        "mean_norm_exponent": mean_expo,
        "event_exponent": event_expo,
        "per_width": summaries,
        "median_gap_strictly_decreasing": all(b < a for a, b in zip(medians, medians[1:])),
    }
    return Report("fcn-sweep", cfg, columns, all_rows, summary)


# ---------------------------------------------------------------------------
# CNN gap sweep
# ---------------------------------------------------------------------------


def run_cnn_gap_sweep(cfg: dict, workers: int = 1) -> Report:
    l = _count(cfg, "depth", 3)
    # thm3_alpha_constraint is defined for d >= 3
    channels = _count_list(cfg, "channels", 3)
    p = int(cfg["spatial"])
    q = int(cfg["kernel"])
    if q >= p:
        raise ConfigError(f"kernel {q} must be below spatial size {p}")
    alpha = float(cfg["alpha"])
    for d in channels:
        cap = theory.thm3_alpha_constraint(d)
        if not 0.0 < alpha <= cap:
            raise ConfigError(
                f"alpha={alpha} inadmissible for filter pruning at d={d}: "
                f"constraint requires 0 < alpha <= {cap:.6f}"
            )
    d_in, d_out = int(cfg["d_in"]), int(cfg["d_out"])
    trials = _count(cfg, "trials", 1)
    samples = _count(cfg, "samples", 1)
    c1_scale = float(cfg["moment_c1"])
    kind = cfg["weight_kind"]
    beta1, beta2 = float(cfg["beta1"]), float(cfg["beta2"])
    if not 0 < beta2 < alpha / 4.0:
        raise ConfigError(f"beta2 must lie in (0, alpha/4)=(0, {alpha / 4.0:g})")
    # evaluated before any trial runs, so a bound out of range fails fast
    with _theory_inputs("thm3_rhs"):
        rhs_by_d = {d: theory.thm3_rhs(p, d, p, 1.0, l, beta1, beta2, alpha=alpha) for d in channels}
    base = SeedSpec(cfg["seed"])
    explicit_limit = int(cfg["explicit_norm_limit"])
    act = networks.activation("relu")

    def one_trial(d: int, trial: int):
        seed_t = SeedSpec(base.base_seed, trial).sub(d)
        gw = seed_t.sub(0).generator()
        variance = c1_scale / (p * p * d)
        dist = DistributionSpec(kind, variance=variance)
        chans = [d_in] + [d] * (l - 1)
        tensors = []
        for k in range(l - 1):
            flat = draw_matrix(dist, chans[k + 1], chans[k] * q * q, gw)
            tensors.append(flat.reshape(chans[k + 1], chans[k], q, q))
        dense = draw_matrix(dist, d_out, d * p * p, gw)
        model = networks.CnnModel(tuple(tensors), dense, act, p)
        counts = tuple(pruning.filter_prune_count(alpha, d) for _ in range(l - 2))
        mask = pruning.mask_filter_random([t.shape[:2] for t in tensors], dense.shape, counts, seed_t.sub(1))
        row = [d, trial, base.base_seed, trial]
        payload = []
        for j, k in enumerate(range(1, l - 1)):  # internal conv layers (0-based)
            kpad = circulant.pad_kernel(tensors[k], p)
            norm_w = circulant.spectral_norm_via_dft(kpad)
            fmask = mask.masks[k]
            diff_pad = kpad * (1.0 - fmask)[:, :, None, None]
            norm_diff = circulant.spectral_norm_via_dft(diff_pad) if diff_pad.any() else 0.0
            explicit_norm = None
            if p * p * d <= explicit_limit:
                w_full = circulant.build_full_map(kpad)
                explicit_norm = float(np.linalg.svd(w_full, compute_uv=False)[0])
            bins_ok = _bins_event(fmask, counts[j])
            # per-kernel-position slices of the target and difference tensors
            slices = tensors[k].transpose(2, 3, 0, 1).reshape(q * q, d, d)
            dslices = slices * (1.0 - fmask)[None, :, :]
            s_norms = np.linalg.svd(slices, compute_uv=False)[:, 0]
            ds_norms = np.linalg.svd(dslices, compute_uv=False)[:, 0]
            row += [counts[j], norm_w, norm_diff, explicit_norm, bins_ok,
                    norm_w <= p ** (-beta1), norm_diff <= float(d) ** (-beta2)]
            payload.append(
                (
                    (slices * slices).sum(axis=0),
                    (slices**4).sum(axis=0),
                    float(s_norms.sum()),
                    (dslices * dslices).sum(axis=0),
                    (dslices**4).sum(axis=0),
                    float(ds_norms.sum()),
                )
            )
        gap = networks.estimate_sup_gap(model, mask, "cube", samples, seed_t.sub(2))
        row.append(gap)
        return row, payload

    columns = ["d", "trial", "base_seed", "stream"]
    for k in range(2, l):
        columns += [
            f"count_l{k}", f"norm_w_dft_l{k}", f"norm_diff_dft_l{k}", f"norm_w_explicit_l{k}",
            f"bins_event_l{k}", f"w_event_l{k}", f"diff_event_l{k}",
        ]
    columns += ["sup_gap"]

    c1_const = c1_scale
    c2_const = 3.0 * c1_scale**2 if kind == "gaussian" else 1.8 * c1_scale**2

    all_rows = []
    summaries = []
    for d in channels:
        def block_run(block: range, _d=d):
            return [one_trial(_d, t) for t in block]

        results = []
        for blk in ordered_map(block_run, trial_blocks(trials), workers):
            results.extend(blk)
        rows = [r for r, _ in results]
        all_rows.extend(rows)
        gaps = np.array([r[-1] for r in rows])
        layer_summaries = []
        for j in range(l - 2):
            sq_t = np.zeros((d, d))
            quad_t = np.zeros((d, d))
            sq_d = np.zeros((d, d))
            quad_d = np.zeros((d, d))
            sum_norm_t = 0.0
            sum_norm_d = 0.0
            for _, payload in results:
                sq_t += payload[j][0]
                quad_t += payload[j][1]
                sum_norm_t += payload[j][2]
                sq_d += payload[j][3]
                quad_d += payload[j][4]
                sum_norm_d += payload[j][5]
            n_slices = trials * q * q
            t1, t2, t3 = latala_terms(sq_t / n_slices, quad_t / n_slices)
            mean_slice_t = sum_norm_t / n_slices
            c_hat_t = mean_slice_t / (t1 + t2 + t3)
            c3_hat = c_hat_t * (2.0 * math.sqrt(c1_const) + c2_const**0.25)
            u1, u2, u3 = latala_terms(sq_d / n_slices, quad_d / n_slices)
            mean_slice_d = sum_norm_d / n_slices
            denom = u1 + u2 + u3
            c_hat_d = mean_slice_d / denom if denom > 0 else 0.0
            c4_hat = c_hat_d * (2.0 * math.sqrt(3.0 * c1_const) + c2_const**0.25)
            base_col = 4 + j * 7
            mean_w = float(np.mean([r[base_col + 1] for r in rows]))
            mean_diff = float(np.mean([r[base_col + 2] for r in rows]))
            w_bound = c3_hat * q * q / p
            diff_bound = c4_hat * (q * q / p) * float(d) ** (-alpha / 4.0)
            layer_summaries.append(
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
        summaries.append(
            {
                "d": d,
                "median_gap": float(np.median(gaps)),
                "mean_gap": float(gaps.mean()),
                "gap_q25": float(np.quantile(gaps, 0.25)),
                "gap_q75": float(np.quantile(gaps, 0.75)),
                "thm3_rhs": rhs_by_d[d],
                "layers": layer_summaries,
            }
        )
    medians = [s["median_gap"] for s in summaries]
    summary = {
        "alpha": alpha,
        "per_width": summaries,
        "median_gap_strictly_decreasing": all(b < a for a, b in zip(medians, medians[1:])),
    }
    return Report("cnn-sweep", cfg, columns, all_rows, summary)


# ---------------------------------------------------------------------------
# Bound calculators
# ---------------------------------------------------------------------------


def _bound_rows(cfg: dict) -> list:
    rows = []
    t1 = cfg.get("thm1")
    if t1:
        consts = TheoremConstants(c0=t1["c0"], c2=t1["c2"], delta0=t1["delta0"])
        terms = theory.thm1_width_terms(
            consts, t1["l"], tuple(t1["lipschitz"]), t1["alpha"], t1["eps"], t1["delta"]
        )
        for name, val in terms.items():
            rows.append(["thm1", name, val])
        rows.append(["thm1", "width_bound", theory.thm1_width_bound(
            consts, t1["l"], tuple(t1["lipschitz"]), t1["alpha"], t1["eps"], t1["delta"]
        )])
    t2 = cfg.get("thm2")
    if t2:
        hidden = tuple(int(x) for x in t2["widths"])
        for lim in theory.thm2_alpha_limits(hidden):
            rows.append(["thm2", f"alpha_max_rows_layer{lim['layer']}", lim["alpha_max_rows"]])
            rows.append(["thm2", f"alpha_max_cols_layer{lim['layer']}", lim["alpha_max_cols"]])
        rows.append(["thm2", "alpha_max_overall", theory.thm2_min_alpha_limit(hidden)])
        prob = theory.thm2_probability(
            t2["l"], t2["d"], t2["alpha"], t2["c2"], tuple(t2["deltas"])
        )
        rows.append(["thm2", "probability", prob.value])
        rows.append(["thm2", "non_vacuous", prob.non_vacuous])
    t3 = cfg.get("thm3")
    if t3:
        rows.append(["thm3", "alpha_max", theory.thm3_alpha_constraint(t3["d"])])
        rows.append(["thm3", "rhs", theory.thm3_rhs(
            t3["p"], t3["d"], t3["p0"], t3["lipschitz"], t3["l"], t3["beta1"], t3["beta2"], alpha=t3["alpha"]
        )])
        prob = theory.thm3_probability(
            t3["l"], t3["d"], t3["p"], t3["q"], t3["alpha"],
            t3["beta1"], t3["beta2"], t3["c3"], t3["c4"], t3["c5"],
        )
        rows.append(["thm3", "probability", prob.value])
        rows.append(["thm3", "non_vacuous", prob.non_vacuous])
    return rows


def run_bounds(cfg: dict, workers: int = 1) -> Report:
    with _theory_inputs("bounds"):
        rows = _bound_rows(cfg)
    return Report("bounds", cfg, ["section", "name", "value"], rows)


# ---------------------------------------------------------------------------
# Oracle suite
# ---------------------------------------------------------------------------


def run_oracle_suite(cfg: dict, workers: int = 1) -> Report:
    base = SeedSpec(cfg["seed"])
    trials = _count(cfg, "trials", 1)
    rows = []

    def check(name: str, ok: bool, detail: float):
        rows.append([name, bool(ok), detail])

    # power iteration against the LAPACK SVD oracle
    rng = base.sub(0).generator()
    worst = 0.0
    for n in (1, 2, 3, 5, 8, 13, 21, 32):
        a = rng.standard_normal((n, max(1, n - 1)))
        ref = float(np.linalg.svd(a, compute_uv=False)[0])
        worst = max(worst, abs(spectral_norm(a, tol=1e-12) - ref) / max(ref, 1e-300))
    check("spectral_norm_vs_svd", worst <= 1e-10, worst)

    # circulant forward + norm equivalence
    sub = load_config("circulant-equiv", overrides={"instances": 10, "seed": base.base_seed})
    rep = run_circulant_equiv(sub, workers)
    check("circulant_forward", rep.summary["max_forward_err"] <= sub["forward_tol"], rep.summary["max_forward_err"])
    check("circulant_dft_norm", rep.summary["max_rel_err_dft"] <= sub["norm_rel_tol"], rep.summary["max_rel_err_dft"])

    # order statistics closed form vs Monte Carlo
    sub = load_config("order-stats", overrides={
        "cases": [[16, 4, 1], [64, 64, 1], [256, 16, 2]],
        "trials": trials, "seed": base.base_seed,
    })
    rep = run_order_stats(sub, workers)
    worst_z = max(abs(r[7]) for r in rep.rows)
    check("order_stats_3se", all(r[-1] for r in rep.rows), worst_z)

    # balls-into-bins exact enumeration vs Monte Carlo
    sub = load_config("balls-bins", overrides={"cases": [[4, 8], [2, 12]], "trials": trials, "seed": base.base_seed})
    rep = run_balls_bins(sub, workers)
    check("balls_bins", bool(rep.summary["all_pass"]), float(max(r[3] for r in rep.rows)))

    ok = all(r[1] for r in rows)
    return Report("oracle-suite", cfg, ["check", "pass", "detail"], rows, {"all_pass": ok})


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
    if kind not in _RUNNERS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    return _RUNNERS[kind](cfg, workers)
