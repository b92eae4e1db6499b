import json
import math
import re

import pytest

from prunelab import cli, harness
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
        (["order-stats", "--trials", "0"], "trials must be an integer >= 2"),
        (["balls-bins", "--trials", "0"], "trials must be an integer >= 1"),
        (["oracle-suite", "--trials", "0"], "trials must be an integer >= 2"),
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

# Sizes whose largest array is past numpy's limit of 2^63 - 1 bytes, or
# whose dimension is past its index type.  Each ended in a traceback: a
# TypeError from np.sqrt of the width, or numpy's "Maximum allowed dimension
# exceeded" or "array is too big"; the rejection comes before any trial.
BIG = 10**30
SIZE_CONFIGS = [
    ("fcn-sweep", {"widths": [BIG]}, f"widths d={BIG} with d_in=16, d_out=16 too large"),
    ("fcn-sweep", {"widths": [2**31], "d_in": 2**31}, "widths d=2147483648 with d_in=2147483648, d_out=16 too large"),
    ("fcn-sweep", {"widths": [8], "d_out": BIG}, f"widths d=8 with d_in=16, d_out={BIG} too large"),
    ("order-stats", {"cases": [[BIG, 1, 1]]}, f"cases n={BIG} too large"),
    ("table2", {"rows": [[BIG, 8, 1.0]]}, f"rows n1={BIG}, n2=8 too large"),
    ("table2", {"rows": [[2**31, 2**31, 1.0]]}, "rows n1=2147483648, n2=2147483648 too large"),
    ("table2", {"trials": BIG}, f"trials={BIG} too large"),
    ("table3", {"rows": [[3037000500, "uniform", 1.0, None]]}, "rows d=3037000500 too large"),
    ("balls-bins", {"cases": [[4, BIG]]}, f"cases balls={BIG} too large"),
    ("cnn-sweep", {"channels": [BIG]}, f"channels d={BIG} with spatial=8, d_in=3, d_out=10 too large"),
    ("cnn-sweep", {"spatial": BIG}, f"channels d=16 with spatial={BIG}, d_in=3, d_out=10 too large"),
    ("circulant-equiv", {"max_channels": BIG}, f"max_channels={BIG}, max_spatial=8 too large"),
]

# Weight scales whose squares or fourth powers overflow or underflow.  Each
# used to exit 0 with a wrong report; the rejection comes before any trial.
SCALE_CONFIGS = [
    # std inf
    (
        "table2",
        {"rows": [[8, 8, 1e200]], "trials": 100},
        "K=1e+200 out of range for 8 x 8: the squared norms overflow or underflow",
    ),
    # std 0.0
    ("table2", {"rows": [[8, 8, 1e-320]]}, "out of range for 8 x 8: the squared norms overflow or underflow"),
    # the second row is checked before the first row's trials
    (
        "table2",
        {"rows": [[8, 8, 1.0], [16, 8, 1e200]], "trials": 100},
        "K=1e+200 out of range for 16 x 8: the squared norms overflow or underflow",
    ),
    # terms inf and C 0.0
    (
        "table3",
        {"rows": [[8, "gaussian", 1e308, None]]},
        "scale=1e+308 out of range at d=8: the fourth-moment sums overflow or underflow",
    ),
    # term3 inf and C 0.0
    (
        "table3",
        {"rows": [[8, "uniform", 1e300, 0.5]]},
        "scale=1e+300 out of range at d=8: the fourth-moment sums overflow or underflow",
    ),
    # term3 0.0 and C 0.824
    (
        "table3",
        {"rows": [[8, "gaussian", 1e-320, None]]},
        "out of range at d=8: the fourth-moment sums overflow or underflow",
    ),
    # the variance scale / d underflows to 0, which DistributionSpec rejects
    # with a ValueError, not a ConfigError
    (
        "table3",
        {"rows": [[2, "gaussian", 5e-324, None]]},
        "scale=4.94066e-324 out of range at d=2: the fourth-moment sums overflow or underflow",
    ),
    (
        "table3",
        {"rows": [[2, "uniform", 5e-324, None]]},
        "scale=4.94066e-324 out of range at d=2: the fourth-moment sums overflow or underflow",
    ),
    # latala_c_hat, c2_hat, mean_bound and sup_gap all 0.0
    (
        "fcn-sweep",
        {"widths": [8], "trials": 2, "samples": 10, "xavier_k": 1e-200},
        "xavier_k=1e-200 too small at width d=8: the entries' fourth powers underflow",
    ),
    # sup_gap 0.0, and c2 = 3 c1^2 underflowed to 0
    (
        "cnn-sweep",
        {"channels": [4], "trials": 1, "samples": 10, "moment_c1": 1e-300},
        "moment_c1=1e-300 too small at d=4: the entries' fourth powers underflow",
    ),
    # the variance c1 / (p^2 d) underflows to 0, as in table3
    (
        "cnn-sweep",
        {"channels": [4], "trials": 1, "samples": 10, "moment_c1": 5e-324},
        "moment_c1=4.94066e-324 too small at d=4: the entries' fourth powers underflow",
    ),
    (
        "cnn-sweep",
        {"channels": [4], "trials": 1, "samples": 10, "moment_c1": 5e-324, "weight_kind": "uniform"},
        "moment_c1=4.94066e-324 too small at d=4: the entries' fourth powers underflow",
    ),
]


BAD_CONFIGS = [
    ("fcn-sweep", {"widths": "abc"}, "widths must be a nonempty list of integers >= 1, got 'abc'"),
    ("fcn-sweep", {"widths": [16, 0]}, "widths must be a nonempty list of integers >= 1, got [16, 0]"),
    ("fcn-sweep", {"samples": 0}, "samples must be an integer >= 1"),
    ("fcn-sweep", {"depth": "4"}, "depth must be an integer >= 3"),
    ("cnn-sweep", {"channels": [0]}, "channels must be a nonempty list of integers >= 3, got [0]"),
    ("cnn-sweep", {"channels": []}, "channels must be a nonempty list of integers >= 3, got []"),
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
    ("circulant-equiv", {"instances": 0}, "instances must be an integer >= 1 and < 2^63, got 0"),
    # one trial gave stderr 0.0, z 0.0 and a vacuous within_3se; oracle-suite
    # hands its trials to an order-stats sub-run
    ("order-stats", {"cases": [[4, 1, 1], [64, 32, 2]], "trials": 1}, "trials must be an integer >= 2 and < 2^63, got 1"),
    ("oracle-suite", {"trials": 1}, "trials must be an integer >= 2 and < 2^63, got 1"),
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
    # a report needs a row to take its columns from; this used to exit 0
    # with a header-only report
    ("bounds", {"thm1": None, "thm2": {}, "thm3": None}, "bounds: needs at least one of thm1, thm2, thm3"),
    # no array grows with the samples, which are drawn chunk by chunk, so
    # numpy's index range bounds them; a depth sizes a list of layers
    ("fcn-sweep", {"samples": BIG}, f"samples must be an integer >= 1 and < 2^63, got {BIG}"),
    ("cnn-sweep", {"samples": 2**63}, "samples must be an integer >= 1 and < 2^63, got 9223372036854775808"),
    ("fcn-sweep", {"depth": BIG}, f"depth must be an integer >= 3 and < 2^63, got {BIG}"),
    # trial and instance counts, which no array bounds either: the first
    # three ran until stopped, the others ended in an OverflowError from
    # the task list of the parallel map
    ("order-stats", {"trials": BIG}, f"trials must be an integer >= 2 and < 2^63, got {BIG}"),
    ("balls-bins", {"trials": BIG}, f"trials must be an integer >= 1 and < 2^63, got {BIG}"),
    ("oracle-suite", {"trials": BIG}, f"trials must be an integer >= 2 and < 2^63, got {BIG}"),
    ("fcn-sweep", {"trials": BIG}, f"trials must be an integer >= 1 and < 2^63, got {BIG}"),
    ("cnn-sweep", {"trials": BIG}, f"trials must be an integer >= 1 and < 2^63, got {BIG}"),
    ("circulant-equiv", {"instances": BIG}, f"instances must be an integer >= 1 and < 2^63, got {BIG}"),
    # median_gap_strictly_decreasing reads the per-width medians in list
    # order, so [32, 16] reported false where [16, 32] reported true
    ("fcn-sweep", {"widths": [32, 16]}, "widths must be strictly increasing, got [32, 16]"),
    ("fcn-sweep", {"widths": [16, 32, 32]}, "widths must be strictly increasing, got [16, 32, 32]"),
    ("cnn-sweep", {"channels": [32, 16]}, "channels must be strictly increasing, got [32, 16]"),
    ("cnn-sweep", {"channels": [16, 16]}, "channels must be strictly increasing, got [16, 16]"),
    # a tolerance of 0 or below failed every instance, and the run exited 2
    # with "circulant-equiv: FAIL" as if the oracle had failed
    ("circulant-equiv", {"forward_tol": -1}, "forward_tol must be a number > 0, got -1"),
    ("circulant-equiv", {"norm_rel_tol": 0}, "norm_rel_tol must be a number > 0, got 0"),
] + SCALE_CONFIGS + SIZE_CONFIGS


def _case_ids(cases: list) -> list:
    """Each case's id: its kind and needle, and its body too where another
    case has the same kind and needle.  Unlike pytest's positional ids,
    these do not change when a case is inserted before them."""
    ids = [f"{kind}-{needle}" for kind, _, needle in cases]
    return [i if ids.count(i) == 1 else f"{i}-{json.dumps(body)}" for i, (_, body, _) in zip(ids, cases)]


@pytest.mark.parametrize("kind, body, needle", BAD_CONFIGS, ids=_case_ids(BAD_CONFIGS))
def test_bad_sweep_config_exits_1_with_one_line(tmp_path, capsys, kind, body, needle):
    assert main([kind, "--config", _config(tmp_path, body)]) == 1
    assert needle in _one_line_error(capsys)


class _TrialStarted(Exception):
    pass


def _start_trial(*args, **kwargs):
    raise _TrialStarted


@pytest.fixture
def no_trials(monkeypatch):
    """Every trial of every kind but bounds starts with one of these calls,
    so reaching one means every check before the trials passed."""
    for name in ("estimate_lemma3", "estimate_latala", "draw_matrix", "ordered_map"):
        monkeypatch.setattr(harness, name, _start_trial)


@pytest.mark.parametrize("kind, body, needle", SCALE_CONFIGS, ids=_case_ids(SCALE_CONFIGS))
def test_out_of_range_weight_scale_is_rejected_before_any_trial(no_trials, kind, body, needle):
    with pytest.raises(ConfigError, match=re.escape(needle)):
        run_experiment(kind, load_config(kind, overrides=body))


@pytest.mark.parametrize("kind, body, needle", SIZE_CONFIGS, ids=_case_ids(SIZE_CONFIGS))
def test_array_past_numpys_limit_is_rejected_before_any_trial(no_trials, kind, body, needle):
    with pytest.raises(ConfigError, match=re.escape(needle) + ".* past numpy's limit of 2\\^63 - 1 bytes"):
        run_experiment(kind, load_config(kind, overrides=body))


def test_size_bound_is_numpys_largest_array():
    harness._check_size("n=1", 2**63 - 1)
    with pytest.raises(ConfigError, match="n=2 too large: an array of 9223372036854775808 bytes"):
        harness._check_size("n=2", 2**63)


# every check before the trials, of sizes and of weight scales, admits the defaults
@pytest.mark.parametrize("kind", ["table2", "table3", "order-stats", "balls-bins", "circulant-equiv", "fcn-sweep", "cnn-sweep"])
def test_default_weight_scales_reach_the_trials(no_trials, kind):
    with pytest.raises(_TrialStarted):
        run_experiment(kind, default_config(kind))


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
    assert math.isfinite(report.column("sup_gap")[0])


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
    assert math.isfinite(report.column("sup_gap")[0])


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
    record = dict(zip(report["columns"], row))
    assert [record[c] for c in ("term1", "term2", "term3", "mean_norm", "C")] == [0.0] * 5


def test_non_integer_workers_env_exits_1_with_one_line(monkeypatch, capsys):
    monkeypatch.setenv("PRUNELAB_WORKERS", "abc")
    assert main(["bounds"]) == 1
    assert _one_line_error(capsys) == "error: PRUNELAB_WORKERS must be an integer >= 1, got 'abc'\n"


# 0 and -3 used to run on one worker and exit 0
@pytest.mark.parametrize("value", ["0", "-3", "1.5", ""])
def test_workers_env_below_1_or_not_an_integer_exits_1_with_one_line(monkeypatch, capsys, value):
    monkeypatch.setenv("PRUNELAB_WORKERS", value)
    assert main(["bounds"]) == 1
    assert _one_line_error(capsys) == f"error: PRUNELAB_WORKERS must be an integer >= 1, got {value!r}\n"


def test_non_utf8_config_exits_1_with_one_line(tmp_path, capsys):
    # a UnicodeDecodeError used to end in a traceback
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["bounds", "--config", str(path)]) == 1
    assert _one_line_error(capsys).startswith(f"error: cannot read config {path}: ")


def test_out_of_memory_exits_1_with_one_line(monkeypatch, capsys):
    # numpy's message for an order-stats case of n = 10^12, which used to end
    # in a traceback; raised here, so nothing is allocated
    message = "Unable to allocate 7.28 TiB for an array with shape (1, 1000000000000) and data type float64"

    def runner(s, workers):
        raise MemoryError(message)

    monkeypatch.setitem(harness._RUNNERS, "order-stats", runner)
    assert main(["order-stats"]) == 1
    assert _one_line_error(capsys) == f"error: out of memory: {message}\n"


def test_out_of_memory_without_a_message_exits_1_with_one_line(monkeypatch, capsys):
    # a list of 2^62 tasks raises a MemoryError with no message
    def runner(s, workers):
        raise MemoryError

    monkeypatch.setitem(harness._RUNNERS, "fcn-sweep", runner)
    assert main(["fcn-sweep"]) == 1
    assert _one_line_error(capsys) == "error: out of memory\n"


def test_unknown_kind_is_rejected_by_the_config_module():
    with pytest.raises(ConfigError, match=re.escape("unknown experiment kind 'nope'; choose from table2, table3, ")):
        run_experiment("nope", {})


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


def test_rows_with_other_columns_than_the_first_are_rejected(monkeypatch):
    # a report's columns are its first row's keys; a row that names others,
    # or the same in another order, is an error in the runner, not a report
    rows = [{"check": "a", "pass": True}, {"pass": True, "check": "b"}]
    monkeypatch.setitem(harness._RUNNERS, "oracle-suite", lambda s, workers: (rows, {}))
    with pytest.raises(ValueError, match="oracle-suite rows differ from the first row's columns"):
        run_experiment("oracle-suite", default_config("oracle-suite"))
    rows[1] = {"check": "b", "passed": True}
    with pytest.raises(ValueError, match=r"\['check', 'pass'\]"):
        run_experiment("oracle-suite", default_config("oracle-suite"))


# Each kind with an all_pass gate exits 2 when it fails, with one line on
# stderr naming the kind; when it passes, 0 with nothing on stderr.
@pytest.mark.parametrize(
    "kind, body, passes",
    [
        # one trial: a frequency of 0 or 1 misses the exact probability
        ("balls-bins", {"cases": [[4, 8], [32, 111]], "trials": 1}, False),
        ("balls-bins", {"cases": [[4, 8], [2, 12], [64, 267]], "trials": 2000}, True),
        # the first instance's forward error is 8.9e-15
        ("circulant-equiv", {"instances": 2, "forward_tol": 1e-15}, False),
        ("circulant-equiv", {"instances": 2}, True),
    ],
)
def test_gated_kind_exit_code_follows_its_gate(tmp_path, capsys, kind, body, passes):
    assert main([kind, "--config", _config(tmp_path, body)]) == (0 if passes else 2)
    assert capsys.readouterr().err == ("" if passes else f"{kind}: FAIL\n")


@pytest.mark.parametrize("passes", [False, True])
def test_oracle_suite_exit_code_follows_its_gate(monkeypatch, capsys, passes):
    rows = [{"check": "a", "pass": passes, "detail": 0.0}]
    monkeypatch.setitem(harness._RUNNERS, "oracle-suite", lambda s, workers: (rows, {"all_pass": passes}))
    assert main(["oracle-suite"]) == (0 if passes else 2)
    assert capsys.readouterr().err == ("" if passes else "oracle-suite: FAIL\n")
