import json

import pytest

from prunelab.cli import main

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
    ],
)
def test_invalid_input_exits_1_with_one_line(capsys, argv, needle):
    assert main(argv) == 1
    assert needle in _one_line_error(capsys)


@pytest.mark.parametrize("kind", ["fcn-sweep", "cnn-sweep"])
def test_zero_trials_in_sweep_config_exits_1(tmp_path, capsys, kind):
    assert main([kind, "--config", _config(tmp_path, {"trials": 0})]) == 1
    assert "trials must be an integer >= 1" in _one_line_error(capsys)


def test_trials_flag_accepted_for_fcn_sweep(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["fcn-sweep", "--config", _config(tmp_path, TINY_FCN), "--trials", "2", "--out", str(out), "--format", "json"]
    assert main(argv) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["config"]["trials"] == 2
