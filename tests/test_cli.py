import json
import math

import pytest

from prunelab import cli
from prunelab.cli import main
from prunelab.harness import EXPERIMENT_KINDS, ConfigError, default_config, load_config, run_experiment

TINY_FCN = {"widths": [16], "samples": 20, "d_in": 4, "d_out": 4}


def _config(tmp_path, body: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    return err


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["table2", "--trials", "10"], "trials must be an integer >= 100"),
        (["table3", "--trials", "50"], "trials must be an integer >= 100"),
        (["fcn-sweep", "--trials", "0"], "trials must be an integer >= 1"),
        (["cnn-sweep", "--trials", "0"], "trials must be an integer >= 1"),
        (["order-stats", "--trials", "0"], "trials must be an integer >= 1"),
        (["balls-bins", "--trials", "0"], "trials must be an integer >= 1"),
        (["oracle-suite", "--trials", "0"], "trials must be an integer >= 1"),
        (["table2", "--seed", "-5"], "seed must be an integer in [0, 2^64)"),
        (["order-stats", "--seed", str(2**64)], "seed must be an integer in [0, 2^64)"),
        (["circulant-equiv", "--trials", "3"], "--trials does not apply to circulant-equiv"),
        (["bounds", "--trials", "3"], "--trials does not apply to bounds"),
        (["bounds", "--seed", "3"], "--seed does not apply to bounds"),
        # argparse's own usage errors: one line and exit 1, not its usage block and exit 2
        (["table2", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        (["table2", "--trials", "1.5"], "argument --trials: invalid int value: '1.5'"),
        (["bounds", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        (["table4"], "argument kind: invalid choice: 'table4'"),
        ([], "the following arguments are required: kind"),
        (["bounds", "--bogus"], "unrecognized arguments: --bogus"),
    ],
)
def test_invalid_input_exits_1_with_one_line(capsys, argv, needle):
    assert main(argv) == 1
    assert needle in _one_line_error(capsys)


@pytest.mark.parametrize("argv", [["--help"], ["bounds", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert "usage: prunelab" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["fcn-sweep", "cnn-sweep"])
def test_zero_trials_in_sweep_config_exits_1(tmp_path, capsys, kind):
    assert main([kind, "--config", _config(tmp_path, {"trials": 0})]) == 1
    assert "trials must be an integer >= 1" in _one_line_error(capsys)


def test_trials_flag_accepted_for_fcn_sweep(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["fcn-sweep", "--config", _config(tmp_path, TINY_FCN), "--trials", "2", "--out", str(out), "--format", "json"]
    assert main(argv) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["config"]["trials"] == 2


# thm3_rhs's bracket p^-b1 (p^-b1 + d^-b2)^(l-2) - p^-(l-1)b1 underflows to
# 0 at this depth, so the bound evaluates non-positive
UNDERFLOW = {"l": 5000, "beta1": 0.9, "beta2": 0.14}


@pytest.mark.parametrize(
    "kind, body, needle",
    [
        ("fcn-sweep", {"widths": "abc"}, "widths must be a nonempty list of integers >= 1"),
        ("fcn-sweep", {"widths": [16, 0]}, "widths must be a nonempty list of integers >= 1"),
        ("fcn-sweep", {"samples": 0}, "samples must be an integer >= 1"),
        ("fcn-sweep", {"depth": "4"}, "depth must be an integer >= 3"),
        ("cnn-sweep", {"channels": [0]}, "channels must be a nonempty list of integers >= 3"),
        ("cnn-sweep", {"channels": []}, "channels must be a nonempty list of integers >= 3"),
        ("cnn-sweep", {"samples": 0}, "samples must be an integer >= 1"),
        (
            "cnn-sweep",
            {"depth": UNDERFLOW["l"], "beta1": UNDERFLOW["beta1"], "beta2": UNDERFLOW["beta2"]},
            "thm3_rhs: bound evaluated non-positive",
        ),
        ("cnn-sweep", {"beta1": 1.5}, "thm3_rhs: beta1 must lie in (0, 1)"),
        ("cnn-sweep", {"beta2": 0.15}, "thm3_rhs: beta2 must be below alpha/4"),
        ("cnn-sweep", {"beta2": 0}, "thm3_rhs: beta2 must be positive"),
        # every field of every kind is checked by one schema, not only the sweeps'
        ("bounds", {"thm3": {"l": 3}}, "thm3.d is missing"),
        ("cnn-sweep", {"spatial": "abc"}, "spatial must be an integer >= 2, got 'abc'"),
        ("fcn-sweep", {"alpha": "x"}, "alpha must be a number, got 'x'"),
        ("fcn-sweep", {"activation": "gelu"}, "activation must be one of relu, tanh, identity, got 'gelu'"),
        ("table2", {"rows": [[32, 32]]}, "rows must be a nonempty list of [n1, n2, K] rows"),
        ("table2", {"quantiles": [1.5]}, "quantiles must be a nonempty list of numbers in (0, 1), got [1.5]"),
        ("table3", {"rows": [[32, "uniform", 1.0, 3.0]]}, "alpha null or in (0, 2), got [[32, 'uniform', 1.0, 3.0]]"),
        ("order-stats", {"cases": [[4, 9, 1]]}, "integers 1 <= r <= n and p >= 1, got [[4, 9, 1]]"),
        ("order-stats", {"half_width": "x"}, "half_width must be a number > 0, got 'x'"),
        ("balls-bins", {"cases": [[4, 0]]}, "cases must be a nonempty list of [bins, balls] pairs of integers >= 1"),
        # the throws are drawn as int32; 2^31 bins used to ask for 16 GB of counts per trial
        (
            "balls-bins",
            {"cases": [[2**31, 1]]},
            "cases must be a nonempty list of [bins, balls] pairs of integers >= 1 with bins < 2^31, got [[2147483648, 1]]",
        ),
        # values out of floating-point range in theory-side formulas used to
        # exit 1 with an OverflowError traceback
        (
            "order-stats",
            {"half_width": 1e200, "cases": [[4, 1, 2]], "trials": 10},
            "order_stat_moment: value out of floating-point range",
        ),
        # the squared draws' sum overflowed: stderr nan and a vacuous within_3se
        (
            "order-stats",
            {"half_width": 1e100, "cases": [[4, 1, 1]], "trials": 10},
            "order_stat_moment: value out of floating-point range",
        ),
        # the forward pass overflowed: sup_gap inf or NaN, with numpy warnings
        (
            "fcn-sweep",
            {"widths": [8], "trials": 1, "samples": 5, "xavier_k": 1e60},
            "xavier_k=1e+60 too large at width d=8: the squared gap norm can overflow",
        ),
        (
            "fcn-sweep",
            {"widths": [8], "trials": 1, "samples": 5, "xavier_k": 1e100},
            "xavier_k=1e+100 too large at width d=8: the squared gap norm can overflow",
        ),
        (
            "fcn-sweep",
            {"widths": [8], "trials": 1, "samples": 1, "xavier_k": 1e300},
            "xavier_k=1e+300 too large at width d=8: the squared gap norm can overflow",
        ),
        (
            "cnn-sweep",
            {"channels": [4], "trials": 1, "samples": 1, "moment_c1": 1e300},
            "moment_c1: value out of floating-point range",
        ),
        ("circulant-equiv", {"instances": 0}, "instances must be an integer >= 1, got 0"),
        ("bounds", {"thm3": default_config("bounds")["thm3"] | {"extra": 1}}, "thm3.extra is not a known field"),
        (
            "bounds",
            {"thm2": default_config("bounds")["thm2"] | {"l": 6, "widths": [8, 8]}},
            "bounds: thm2.widths must list the l - 1 = 5 hidden widths, got 2",
        ),
        # Theorem 2's probability takes one width, so the widths must be thm2.d
        (
            "bounds",
            {"thm2": default_config("bounds")["thm2"] | {"widths": [8, 8, 8]}},
            "bounds: thm2.widths must all equal thm2.d = 1024, got width 8",
        ),
        (
            "bounds",
            {"thm2": default_config("bounds")["thm2"] | {"widths": [1024, 512, 1024]}},
            "bounds: thm2.widths must all equal thm2.d = 1024, got width 512",
        ),
        ("fcn-sweep", {"extra": 1}, "extra is not a known field"),
        ("fcn-sweep", {"scheme": "random-with-replacement", "widths": [2]}, "thm2_alpha_constraint: need d >= 3"),
        # alpha is checked against the cap of Theorem 2 or 3 by one rule, 0 < alpha <= cap
        (
            "fcn-sweep",
            {"scheme": "random-with-replacement", "alpha": -0.5},
            "alpha=-0.5 inadmissible for random pruning at width d=64: requires 0 < alpha <= 0.669486",
        ),
        (
            "cnn-sweep",
            {"alpha": 0.7, "channels": [16]},
            "alpha=0.7 inadmissible for filter pruning at d=16: requires 0 < alpha <= 0.610326",
        ),
        (
            "bounds",
            {"thm2": default_config("bounds")["thm2"] | {"alpha": 0.99}},
            "bounds: alpha=0.99 inadmissible for random pruning at width d=1024: requires 0 < alpha <= 0.639588",
        ),
        (
            "bounds",
            {"thm3": default_config("bounds")["thm3"] | {"alpha": 0.7}},
            "bounds: alpha=0.7 inadmissible for filter pruning at d=256: requires 0 < alpha <= 0.690393",
        ),
        ("bounds", {"thm1": default_config("bounds")["thm1"] | {"c0": 0}}, "thm1.c0 must be a number > 0"),
        # deltas are failure probabilities; [-1] * 4 used to report probability 7.43
        (
            "bounds",
            {"thm2": default_config("bounds")["thm2"] | {"deltas": [-1, -1, -1, -1]}},
            "thm2.deltas must be a nonempty list of numbers in [0, 1], got [-1, -1, -1, -1]",
        ),
        (
            "bounds",
            {"thm2": default_config("bounds")["thm2"] | {"deltas": [0.01, 0.01, 0.01, 1.5]}},
            "thm2.deltas must be a nonempty list of numbers in [0, 1], got [0.01, 0.01, 0.01, 1.5]",
        ),
        # one kernel rule for bounds and cnn-sweep; q 40 at p 32 used to report probability -71.77
        ("bounds", {"thm3": default_config("bounds")["thm3"] | {"q": 40}}, "bounds: kernel 40 must be below spatial size 32"),
        ("bounds", {"thm3": default_config("bounds")["thm3"] | {"q": 32}}, "bounds: kernel 32 must be below spatial size 32"),
        ("cnn-sweep", {"kernel": 8, "spatial": 8}, "kernel 8 must be below spatial size 8"),
        # the squared draws underflowed to 0: exact, mc_mean, stderr and z all
        # 0.0 and a vacuous within_3se
        (
            "order-stats",
            {"half_width": 1e-200, "cases": [[4, 1, 1]], "trials": 10},
            "order_stat_moment: value out of floating-point range",
        ),
        # the forward pass overflowed: sup_gap inf, with numpy warnings
        (
            "cnn-sweep",
            {"channels": [4], "trials": 1, "samples": 5, "moment_c1": 1e150},
            "moment_c1=1e+150 too large at d=4: the squared gap norm can overflow",
        ),
    ],
)
def test_bad_sweep_config_exits_1_with_one_line(tmp_path, capsys, kind, body, needle):
    assert main([kind, "--config", _config(tmp_path, body)]) == 1
    assert needle in _one_line_error(capsys)


@pytest.mark.filterwarnings("error")
def test_largest_admitted_xavier_k_gives_a_finite_gap():
    def run(k: float):
        cfg = load_config("fcn-sweep", overrides={"widths": [8], "trials": 1, "samples": 5, "xavier_k": k})
        return run_experiment("fcn-sweep", cfg, 1)

    # admission is monotone in K, so the bisection ends on the largest
    # admitted float; every admitted K it tries runs without a numpy warning
    lo, hi = 1.0, 1e60
    while lo < (mid := (lo + hi) / 2) < hi:
        try:
            run(mid)
            lo = mid
        except ConfigError:
            hi = mid
    assert hi == math.nextafter(lo, math.inf)
    # the forward pass is finite up to 1e38 on this shape
    assert lo >= 1e38
    report = run(lo)
    assert math.isfinite(report.rows[0][report.columns.index("sup_gap")])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weight_kind", ["gaussian", "uniform"])
def test_largest_admitted_moment_c1_gives_a_finite_gap(weight_kind):
    def run(c1: float):
        overrides = {"channels": [4], "trials": 1, "samples": 5, "moment_c1": c1, "weight_kind": weight_kind}
        return run_experiment("cnn-sweep", load_config("cnn-sweep", overrides=overrides), 1)

    # admission is monotone in c1, so the bisection ends on the largest
    # admitted float; every admitted c1 it tries runs without a numpy warning
    lo, hi = 1.0, 1e150
    while lo < (mid := (lo + hi) / 2) < hi:
        try:
            run(mid)
            lo = mid
        except ConfigError:
            hi = mid
    assert hi == math.nextafter(lo, math.inf)
    # the gaussian forward pass is still finite at 1e100 on this shape
    assert lo >= 1e97
    report = run(lo)
    assert math.isfinite(report.rows[0][report.columns.index("sup_gap")])


def test_bounds_accepts_deltas_at_0_and_1(tmp_path, capsys):
    thm2 = default_config("bounds")["thm2"] | {"deltas": [0, 0, 0, 1]}
    assert main(["bounds", "--config", _config(tmp_path, {"thm2": thm2})]) == 0
    assert "thm2,non_vacuous,false" in capsys.readouterr().out


def test_thm3_rhs_out_of_range_in_bounds_exits_1(tmp_path, capsys):
    thm3 = default_config("bounds")["thm3"] | UNDERFLOW
    assert main(["bounds", "--config", _config(tmp_path, {"thm3": thm3})]) == 1
    assert "bounds: bound evaluated non-positive" in _one_line_error(capsys)


def _fields(cfg: dict, prefix=()):
    """(path, value) of every field of a default config, descending into the
    bounds sections."""
    for key, value in cfg.items():
        yield prefix + (key,), value
        if isinstance(value, dict):
            yield from _fields(value, prefix + (key,))


FIELDS = [(kind, path) for kind in EXPERIMENT_KINDS for path, _ in _fields(default_config(kind))]


@pytest.mark.parametrize("kind, path", FIELDS, ids=[f"{k}-{'.'.join(p)}" for k, p in FIELDS])
def test_string_in_any_field_exits_1_with_one_line(tmp_path, capsys, kind, path):
    body = default_config(kind)
    target = body
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "x"
    assert main([kind, "--config", _config(tmp_path, body)]) == 1
    assert f"{'.'.join(path)} must be " in _one_line_error(capsys)


def test_table3_fully_pruned_row_exits_0_with_c_zero(tmp_path):
    # floor(1^(2 - 1.9)) = 1 zeroes the only entry of the 1x1 matrix in every
    # trial, so the three moment terms and the mean norm are all 0
    out = tmp_path / "report.json"
    body = {"rows": [[1, "gaussian", 1.0, 1.9]], "trials": 100}
    assert main(["table3", "--config", _config(tmp_path, body), "--out", str(out), "--format", "json"]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    (row,) = report["rows"]
    assert dict(zip(report["columns"], row))["C"] == 0.0
    assert row[3:7] == [0.0, 0.0, 0.0, 0.0]


def test_non_integer_workers_env_exits_1_with_one_line(monkeypatch, capsys):
    monkeypatch.setenv("PRUNELAB_WORKERS", "abc")
    assert main(["bounds"]) == 1
    assert _one_line_error(capsys) == "error: PRUNELAB_WORKERS must be an integer, got 'abc'\n"


def _no_run(*args):
    raise AssertionError("the experiment ran")


@pytest.mark.parametrize("out, reason", [("missing/x.csv", "no directory {tmp}/missing"), (".", "is a directory")])
def test_unwritable_out_exits_1_before_the_experiment_runs(tmp_path, monkeypatch, capsys, out, reason):
    monkeypatch.setattr(cli, "run_experiment", _no_run)
    path = str(tmp_path / out)
    assert main(["table3", "--out", path]) == 1
    assert _one_line_error(capsys) == f"error: cannot write report {path}: {reason.format(tmp=tmp_path)}\n"


def test_failed_report_write_exits_1_with_one_line(tmp_path, capsys):
    # the directory exists, so the name passes the early check; open() fails
    path = str(tmp_path / ("x" * 300))
    assert main(["bounds", "--out", path]) == 1
    err = _one_line_error(capsys)
    assert err.startswith(f"error: cannot write report {path}: ") and "too long" in err
