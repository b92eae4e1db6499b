"""Golden sha256 digests of the rendered reports of tiny configs, one or
more per experiment kind.

The sweep digests were taken from the reports of the code before the gap
estimator shared layers between the target and the pruned network,
"order-stats-chunks" from the code before the order-statistic kernel worked
in cache-sized tiles, the "-svd-groups" ones from the code before the
estimators stacked their SVDs, and the others (and the JSON digest) from
the code before the two sweeps shared one loop and the config one schema.
Every report must stay byte-identical at PRUNELAB_WORKERS 1 and 2.  A change that
moves a number updates the digest here and says why.
"""

import hashlib
import json

import pytest

from prunelab.cli import main

FCN = {"widths": [8, 16], "trials": 3, "samples": 300}

CASES = {
    "fcn-magnitude-layerwise": (
        "fcn-sweep",
        FCN | {"scheme": "magnitude-layerwise"},
        "fa3561c37aaf59f9fc1611797235620a03cc066a4a5f04325d9c07198a91f51b",
    ),
    "fcn-magnitude-global": (
        "fcn-sweep",
        FCN | {"scheme": "magnitude-global"},
        "783291efb62b261efa9c734f32eb7441efdedb8a6ed81133bd56e81e4c0ca295",
    ),
    "fcn-random-with-replacement": (
        "fcn-sweep",
        FCN | {"scheme": "random-with-replacement"},
        "1f9110a8d8e21630bf9448158eccc836b80f529dd0e0432e44dfbe6c0210cfc9",
    ),
    "fcn-random-without-replacement": (
        "fcn-sweep",
        FCN | {"scheme": "random-without-replacement"},
        "54e6e67d3676f5568487d52af4b554d4d490915673974eefdb0f4032992584cb",
    ),
    # depth 4 has two pruned conv layers; 26 trials are two trial blocks,
    # one per worker at PRUNELAB_WORKERS=2
    "cnn": (
        "cnn-sweep",
        {"depth": 4, "channels": [4, 8], "spatial": 4, "alpha": 0.5, "d_in": 2, "d_out": 3,
         "trials": 26, "samples": 300},
        "8fec6cae3a9d564b747bc80ba29968a723c12f2202fa17a9f5508be191dfe09f",
    ),
    # integer K: the config block shows 1, the rows 1.0
    "table2": (
        "table2",
        {"rows": [[8, 8, 1], [6, 10, 1.7320508075688772]], "trials": 100},
        "0ba6ff74339e2b8b96bea5ba51dbc47680758eaaa1dff891648c94ca541b80f3",
    ),
    "table3": (
        "table3",
        {"rows": [[8, "uniform", 1.0, None], [8, "gaussian", 2, 0.5]], "trials": 100},
        "9d491867f172af2d09beab874f8911c4d627431103c2cd99f0466cc06d5f4b7f",
    ),
    # the SVD groups' edges: 3 x 167 x 167 (501 values, the smallest group
    # that runs without the interpreter lock) and 13 x 501 x 40; 101 trials
    # leave a last block of one trial
    "table2-svd-groups": (
        "table2",
        {"rows": [[167, 167, 1.0], [501, 40, 1.0]], "trials": 101},
        "015d88b8f4377ee090dd139f47096986b85be038373b3779dbfd0477762a1d2b",
    ),
    "table3-svd-groups": (
        "table3",
        {"rows": [[167, "gaussian", 1.0, 0.5]], "trials": 101},
        "85f9add3cf128dd8b75d23a228892d135485cfa16d9bcbdc254bed79aa08d6d7",
    ),
    "order-stats": (
        "order-stats",
        {"cases": [[4, 1, 1], [16, 8, 2], [64, 64, 1]], "trials": 2000},
        "a1109f60caa6b87486d6a8b01293b2d1331b712d81ce3333cc48c26251257986",
    ),
    # n = 2048: 2100 trials are two summation chunks (1953 rows + 147) and
    # many kernel tiles; r = 1 and r = n take the min/max reductions
    "order-stats-chunks": (
        "order-stats",
        {"cases": [[2048, 1, 1], [2048, 700, 2], [2048, 2048, 3]], "trials": 2100},
        "34ab499cc9ef8dfc4f5e498b3fd5741e86b3cb9267d171d45b53abb9d7d3fd44",
    ),
    "balls-bins": (
        "balls-bins",
        {"cases": [[4, 8], [8, 30]], "trials": 2000},
        "063993b07c5a80175e9df29697e995956b1991bcc9e348b53b66ac5c47ead22f",
    ),
    "circulant-equiv": (
        "circulant-equiv",
        {"instances": 6},
        "95e6627ae98f23ebabb6dcd5a0094fd311a001b657166679840c3abad79f4c2b",
    ),
    "bounds": ("bounds", {}, "ec8e4811f4eeb53d0303bd0a674849740efa4cb1d6dddd4693bc804d33c710e1"),
    "oracle-suite": (
        "oracle-suite",
        {"trials": 2000},
        "c4bccf809775e5a8e5e81fd016aabe88b4e2d32e6eaa52c2c5ade7e226f386e3",
    ),
}

# (kind, config body, sha256 of the --format json report)
JSON_CASES = {
    "cnn": (CASES["cnn"][0], CASES["cnn"][1], "8b8b89c280734f7826065b2507489351f34bddf4f244d178bc7fb4efabd336ed"),
}


def _digest(tmp_path, monkeypatch, workers, kind, body, fmt) -> str:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body), encoding="utf-8")
    out = tmp_path / f"report.{fmt}"
    monkeypatch.setenv("PRUNELAB_WORKERS", workers)
    assert main([kind, "--config", str(config), "--out", str(out), "--format", fmt]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_digest(tmp_path, monkeypatch, case, workers):
    kind, body, digest = CASES[case]
    assert _digest(tmp_path, monkeypatch, workers, kind, body, "csv") == digest


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("case", sorted(JSON_CASES))
def test_json_report_digest(tmp_path, monkeypatch, case, workers):
    kind, body, digest = JSON_CASES[case]
    assert _digest(tmp_path, monkeypatch, workers, kind, body, "json") == digest
