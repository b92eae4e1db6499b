"""Report summaries against their recomputation from the report's columns.

Rows are named records: each summary field here is recomputed from the
columns it is built from, read by name with `Report.column`, so a column
inserted or moved in a runner shows as a mismatch and not as a read that
silently shifts to its neighbour.
"""

import numpy as np
import pytest

from prunelab.harness import Report, load_config, render_report, run_experiment


def _run(kind: str, overrides: dict, workers: int = 1):
    return run_experiment(kind, load_config(kind, overrides=overrides), workers)


def _width_values(report, d: int):
    """name -> the values of column `name` in width d's rows."""
    picked = [i for i, w in enumerate(report.column("d")) if w == d]
    return lambda name: [report.column(name)[i] for i in picked]


# numpy scalars as the runners' arithmetic leaves them: float64s of short
# and of 17-digit repr, -0.0, a subnormal, non-finite values, an int64 past
# 2^53 and both bools
NUMPY_SCALARS = [
    np.float64(0.1), np.float64(1 / 3), np.float64(-0.0), np.float64(5e-324), np.float64("inf"),
    np.float64("nan"), np.int64(2**53 + 1), np.int64(-3), np.bool_(True), np.bool_(False),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_numpy_scalars_render_as_equal_python_scalars(fmt):
    def report(values):
        row = {f"c{i}": v for i, v in enumerate(values)}
        return Report("bounds", {"a": values[6], "b": list(values)}, [row], {"s": {"t": list(values)}, "u": values[0]})

    as_numpy = render_report(report(NUMPY_SCALARS), fmt)
    assert as_numpy == render_report(report([v.item() for v in NUMPY_SCALARS]), fmt)
    assert "np." not in as_numpy and "9007199254740993" in as_numpy


def test_column_reads_one_column_by_name():
    report = _run("table3", {"rows": [[8, "uniform", 1.0, None], [8, "gaussian", 2, 0.5]], "trials": 100})
    assert report.columns == ["d", "dist", "alpha", "term1", "term2", "term3", "mean_norm", "C"]
    assert report.column("dist") == ["U", "N(0,2/d)"]
    assert report.column("alpha") == [None, 0.5]
    with pytest.raises(ValueError):
        report.column("c")


# at 3 trials and seed 0 the sample standard errors are far off, and only
# the first case lies within 3 of them
@pytest.mark.parametrize("trials, seed, within", [(3, 0, 1), (2000, 1, 3)])
def test_order_stats_summary(trials, seed, within):
    report = _run("order-stats", {"cases": [[4, 1, 1], [256, 1, 3], [64, 64, 1]], "trials": trials, "seed": seed})
    assert report.summary == {"cases_within_3se": sum(report.column("within_3se")), "cases_total": 3}
    assert report.summary["cases_within_3se"] == within


# one trial: the frequency is 0 or 1, so the exact-value check fails and
# all_pass is false; 2000 trials pass
@pytest.mark.parametrize("trials", [1, 2000])
def test_balls_bins_summary(trials):
    report = _run("balls-bins", {"cases": [[4, 8], [2, 12], [64, 267]], "trials": trials})
    checks = zip(report.column("guarantee_holds"), report.column("mc_matches_exact"))
    all_pass = all(holds and matches in (None, True) for holds, matches in checks)
    assert report.summary == {"all_pass": all_pass}
    assert all_pass is (trials == 2000)


def test_circulant_equiv_summary():
    # at seed 1 the three maxima differ, so a read of the wrong column shows
    report = _run("circulant-equiv", {"instances": 6, "seed": 1})
    maxima = [max(report.column(c)) for c in ("forward_max_abs_err", "rel_err_dft_vs_svd", "rel_err_power_vs_svd")]
    assert len(set(maxima)) == 3
    assert report.summary == {
        "max_forward_err": max(report.column("forward_max_abs_err")),
        "max_rel_err_dft": max(report.column("rel_err_dft_vs_svd")),
        "max_rel_err_power": max(report.column("rel_err_power_vs_svd")),
        "all_pass": all(report.column("pass")),
    }


def _check_sweep_width(report, width: dict, depth: int):
    """Checks a per-width summary's sup_gap fields and its layers' numbers
    and counts; returns the reader of that width's columns."""
    values = _width_values(report, width["d"])
    gaps = np.array(values("sup_gap"))
    assert width["median_gap"] == float(np.median(gaps))
    assert width["mean_gap"] == float(gaps.mean())
    assert [layer["layer"] for layer in width["layers"]] == list(range(2, depth))
    for layer in width["layers"]:
        assert layer["count"] == values(f"count_l{layer['layer']}")[0]
    return values


@pytest.mark.parametrize("scheme", ["magnitude-layerwise", "random-without-replacement"])
def test_fcn_sweep_summary_at_depth_5(scheme):
    report = _run("fcn-sweep", {"depth": 5, "widths": [8, 16], "trials": 3, "samples": 50, "scheme": scheme})
    assert report.columns[-4:] == ["diff_event_l4", "sup_gap", "gap_bound", "gap_event"]
    for width in report.summary["per_width"]:
        values = _check_sweep_width(report, width, 5)
        assert width["freq_gap_event"] == float(np.mean(values("gap_event")))
        for layer in width["layers"]:
            k = layer["layer"]
            norm_diff = values(f"norm_diff_l{k}")
            assert layer["mean_norm_w"] == float(np.mean(values(f"norm_w_l{k}")))
            assert layer["mean_norm_diff"] == float(np.mean(norm_diff))
            assert layer["frac_trials_diff_le_bound"] == float(np.mean([v <= layer["mean_bound"] for v in norm_diff]))
            assert layer["freq_bins_event"] == float(np.mean(values(f"bins_event_l{k}")))
            assert layer["freq_diff_event"] == float(np.mean(values(f"diff_event_l{k}")))


def test_cnn_sweep_summary_at_depth_4():
    cfg = {"depth": 4, "channels": [4, 8], "spatial": 4, "alpha": 0.5, "d_in": 2, "d_out": 3, "trials": 3, "samples": 20}
    report = _run("cnn-sweep", cfg)
    assert report.columns[-2:] == ["diff_event_l3", "sup_gap"]
    for width in report.summary["per_width"]:
        values = _check_sweep_width(report, width, 4)
        for layer in width["layers"]:
            k = layer["layer"]
            assert layer["mean_norm_w"] == float(np.mean(values(f"norm_w_dft_l{k}")))
            assert layer["mean_norm_diff"] == float(np.mean(values(f"norm_diff_dft_l{k}")))
            assert layer["freq_bins_event"] == float(np.mean(values(f"bins_event_l{k}")))
            assert layer["freq_w_event"] == float(np.mean(values(f"w_event_l{k}")))
            assert layer["freq_diff_event"] == float(np.mean(values(f"diff_event_l{k}")))
