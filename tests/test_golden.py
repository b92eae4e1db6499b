"""Golden sha256 digests of the rendered CSV reports of tiny sweep configs.

The digests were taken from the reports of the code before the gap
estimator shared layers between the target and the pruned network; every
report must stay byte-identical at PRUNELAB_WORKERS 1 and 2.  A change that
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
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_digest(tmp_path, monkeypatch, case, workers):
    kind, body, digest = CASES[case]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body), encoding="utf-8")
    out = tmp_path / "report.csv"
    monkeypatch.setenv("PRUNELAB_WORKERS", workers)
    assert main([kind, "--config", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
