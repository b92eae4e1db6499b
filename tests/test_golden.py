"""Golden sha256 digests of the rendered reports of tiny configs, one or
more per experiment kind.

The sweep digests were taken from the reports of the code before the gap
estimator shared layers between the target and the pruned network,
"order-stats-chunks" from the code before the order-statistic kernel worked
in cache-sized tiles, the "balls-bins-chunks" ones from the code before the
balls-into-bins kernel drew int32 throws and counted them in tiles, "cnn-64"
from the code before the CNN conv step ran its FFT passes and activation in
place, the "-svd-groups" ones from the code before the estimators stacked
their SVDs, "fcn-depth-5" and the fcn JSON digest from the code before
report rows became named records, and the others (and the cnn JSON digest)
from the code before the two sweeps shared one loop and the config one
schema.
Every report must stay byte-identical at PRUNELAB_WORKERS 1 and 2.

Each case's report is stored in golden/<case>.<csv|json>, whose sha256 is
the digest here: a run must give the stored bytes, and a mismatch names
the columns that moved and the largest relative drift of each, and the
OpenBLAS core the stored reports were taken on beside the running one.  A
change that moves a number rewrites the stored reports with
golden/regenerate.py, updates the digests here and says why.
"""

import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from prunelab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# The OpenBLAS core type the stored reports were taken on.  Another core
# (OPENBLAS_CORETYPE=Haswell on the same wheel and host, say) rounds BLAS
# products in other last bits, and every kind with one then differs.
STORED_CORE = "SkylakeX"

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
    # depth 5 has three pruned layers, so its rows reach the _l4 columns and
    # its summary a third layer's sums
    "fcn-depth-5": (
        "fcn-sweep",
        FCN | {"depth": 5},
        "115bf180056cdead601681028124dc98d5bf51b5cd00a0983f1988d930f55f6a",
    ),
    # depth 4 has two pruned conv layers; 26 one-trial tasks, shared by the
    # workers at PRUNELAB_WORKERS=2
    "cnn": (
        "cnn-sweep",
        {"depth": 4, "channels": [4, 8], "spatial": 4, "alpha": 0.5, "d_in": 2, "d_out": 3,
         "trials": 26, "samples": 300},
        "8fec6cae3a9d564b747bc80ba29968a723c12f2202fa17a9f5508be191dfe09f",
    ),
    # the benchmark's widest CNN shape, d = 64 at p = 8: 256-point chunks
    # through the conv product's frequency-major spectra and the in-place FFT
    # passes; 64 * 64 > 1500, so the explicit column is N/A
    "cnn-64": (
        "cnn-sweep",
        {"channels": [64], "spatial": 8, "trials": 1, "samples": 300},
        "af24b06f76f85cacd2b5c6a70caee54da5fd6e4d3aac72987ee3d63ec50dd75e",
    ),
    # two pruned d = 64 conv layers at p = 8: 325 points are a full chunk
    # and a 69-point one, which the conv runner splits into 64-point blocks
    # and a 5-point last block; taken from the code before the conv layers
    # ran in blocks and the points were drawn chunk by chunk
    "cnn-64-depth-4": (
        "cnn-sweep",
        {"depth": 4, "channels": [64], "spatial": 8, "trials": 1, "samples": 325},
        "26b94c76e424f84b590cb457a5db89de5c2d2545ddea3cfa27dd76c3c6f78301",
    ),
    # d = 16 at p = 8: p^2 d = 1024 <= 1500, so each row's explicit map is
    # a 1024 x 1024 SVD, past n = 768, where its last bits depend on the
    # BLAS thread count; taken from the code before that SVD moved out of
    # the mapped trials
    "cnn-16-explicit": (
        "cnn-sweep",
        {"channels": [16], "spatial": 8, "trials": 2, "samples": 64},
        "f77edc0f8cd2e6ec7d5350ec16a949922662402bab0bb79384932de4569ca356",
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
    # 2500 trials of 1000 balls: 65-row tiles, the last of 30 rows, drawn
    # one call each; the digest was taken from a loop that drew two chunks
    # (2000 rows + 500), and a tile straddles that edge
    "balls-bins-chunks": (
        "balls-bins",
        {"cases": [[16, 1000], [3, 7]], "trials": 2500},
        "11d06090cffcdc04175b17f26b886a042b60b63734ad5086c4b6a076efcf3203",
    ),
    # the same with frequencies away from 0 and 1: 245-row tiles at 267
    # balls and 32-row tiles at 2003, the last of 143 and 5 rows; the old
    # loop's chunk edges (7490 + 3 rows, and seven chunks of 998 rows and
    # one of 507) fall inside tiles
    "balls-bins-chunks-hits": (
        "balls-bins",
        {"cases": [[64, 267], [1000, 2003]], "trials": 7493},
        "455ef8871605fbcf994c57be8a3e121db888325f9deacd160dccaff888344e40",
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
    "fcn-random-without-replacement": (
        *CASES["fcn-random-without-replacement"][:2],
        "f0427b871aff175195a79e2bd12cdd629f6dde0be56a5172c6770706fba11ec9",
    ),
}


def render(workdir: Path, kind: str, body: dict, fmt: str) -> bytes:
    """The report of one run of the CLI on `body`, at the PRUNELAB_WORKERS
    of the environment."""
    config = workdir / "config.json"
    config.write_text(json.dumps(body), encoding="utf-8")
    out = workdir / f"report.{fmt}"
    assert main([kind, "--config", str(config), "--out", str(out), "--format", fmt]) == 0
    return out.read_bytes()


# Copied from perfbench/run.py, so that tier-1 does not import the benchmark.
_CELL = re.compile(r"[^,=\[\]{}:\s\"]+")


def max_relative_drift(expected: str, actual: str) -> float | None:
    """Largest relative difference between corresponding numeric cells of two
    reports (summary lines included); None when their layout differs."""
    a, b = _CELL.findall(expected), _CELL.findall(actual)
    if len(a) != len(b):
        return None
    worst = 0.0
    for x, y in zip(a, b):
        if x == y:
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            return None
        scale = max(abs(fx), abs(fy))
        worst = max(worst, abs(fx - fy) / scale if math.isfinite(scale) and scale > 0 else math.inf)
    return worst


def _leaves(name: str, value, columns: dict) -> None:
    # a nested entry's leaves, keyed by their path; list positions share a column
    if isinstance(value, dict):
        for key, v in value.items():
            _leaves(f"{name}.{key}", v, columns)
    elif isinstance(value, list):
        for v in value:
            _leaves(name, v, columns)
    else:
        columns.setdefault(name, []).append(json.dumps(value))


def report_columns(text: str, fmt: str) -> dict:
    """A rendered report's cells by column, in order: the rows' columns by
    their header names, the config and summary entries by their paths, such
    as `config.seed` or `summary.per_width.layers.c2_hat`."""
    columns = {}
    if fmt == "json":
        doc = json.loads(text)
        for row in doc.pop("rows"):
            for name, cell in zip(doc["columns"], row):
                columns.setdefault(name, []).append(json.dumps(cell))
        for key, value in doc.items():
            _leaves(key, value, columns)
        return columns
    header = None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            section, _, key = key.rpartition(" ")
            try:
                value = json.loads(value)
            except ValueError:  # the kind line is not JSON
                pass
            _leaves(f"{section or 'config'}.{key}", value, columns)
        elif header is None:
            header = line.split(",")
            columns["columns"] = header
        else:
            for name, cell in zip(header, line.split(",")):
                columns.setdefault(name, []).append(cell)
    return columns


def _drop(value, path: list) -> None:
    # drop the entry at `path` from a decoded JSON value; list positions
    # share a path, as in report_columns
    if isinstance(value, list):
        for v in value:
            _drop(v, path)
    elif isinstance(value, dict) and path[0] in value:
        if len(path) == 1:
            del value[path[0]]
        else:
            _drop(value[path[0]], path[1:])


def strip_report(text: str, fmt: str, names) -> str:
    """A rendered report without the named entries, as the renderer would
    write it: row columns by their header names, config and summary entries
    by their report_columns paths, such as `config.explicit_norm_limit` or
    `summary.per_width.layers.c3_hat`.  A change that deletes entries keeps
    every other byte when the stored report, stripped of them, is its new
    report.  Raises KeyError on a name the report does not have."""
    names = set(names)
    paths = report_columns(text, fmt).keys()
    missing = {n for n in names if not any(p == n or p.startswith(n + ".") for p in paths)}
    if missing:
        raise KeyError(sorted(missing))
    if fmt == "json":
        doc = json.loads(text)
        keep = [i for i, name in enumerate(doc["columns"]) if name not in names]
        doc["columns"] = [doc["columns"][i] for i in keep]
        doc["rows"] = [[row[i] for i in keep] for row in doc["rows"]]
        for name in names:
            _drop(doc, name.split("."))
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"
    lines, header, keep = [], None, None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            section, _, key = key.rpartition(" ")
            path = f"{section or 'config'}.{key}"
            if path in names:
                continue
            inner = [n[len(path) + 1 :].split(".") for n in names if n.startswith(path + ".")]
            if inner:
                value = json.loads(value)
                for rest in inner:
                    _drop(value, rest)
                line = f"{line.partition('=')[0]}={json.dumps(value, sort_keys=True)}"
        elif header is None:
            header = line.split(",")
            keep = [i for i, name in enumerate(header) if name not in names]
            line = ",".join(header[i] for i in keep)
        elif len(keep) < len(header):
            cells = line.split(",")
            if len(cells) != len(header):
                raise ValueError(f"row of {len(cells)} cells under {len(header)} columns: {line}")
            line = ",".join(cells[i] for i in keep)
        lines.append(line)
    return "\n".join(lines) + "\n"


def report_diff(expected: str, actual: str, fmt: str) -> str:
    """One line per column that differs between two rendered reports, with
    the largest relative drift of its numeric cells."""
    old, new = report_columns(expected, fmt), report_columns(actual, fmt)
    lines = [f"{name}: only in the stored report" for name in old if name not in new]
    lines += [f"{name}: only in the new report" for name in new if name not in old]
    for name in old.keys() & new.keys():
        a, b = old[name], new[name]
        if a == b:
            continue
        drift = max_relative_drift("\n".join(a), "\n".join(b)) if len(a) == len(b) else None
        changed = sum(x != y for x, y in zip(a, b)) if len(a) == len(b) else f"{len(a)} -> {len(b)}"
        what = "non-numeric or reshaped" if drift is None else f"largest relative drift {drift:.3g}"
        lines.append(f"{name}: {changed} cells differ, {what}")
    return "\n".join(sorted(lines)) or "same cells, other bytes"


def _check(case: str, fmt: str, digest: str, report: bytes, core: str) -> None:
    path = GOLDEN / f"{case}.{fmt}"
    stored = path.read_bytes()
    assert hashlib.sha256(stored).hexdigest() == digest, f"{path.name} is not the report of digest {digest}"
    if report != stored:
        pytest.fail(
            f"report differs from {path.name}, stored on OpenBLAS core {STORED_CORE}, run on {core}:\n"
            f"{report_diff(stored.decode(), report.decode(), fmt)}"
        )


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_digest(tmp_path, monkeypatch, blas_core, case, workers):
    kind, body, digest = CASES[case]
    monkeypatch.setenv("PRUNELAB_WORKERS", workers)
    _check(case, "csv", digest, render(tmp_path, kind, body, "csv"), blas_core)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("case", sorted(JSON_CASES))
def test_json_report_digest(tmp_path, monkeypatch, blas_core, case, workers):
    kind, body, digest = JSON_CASES[case]
    monkeypatch.setenv("PRUNELAB_WORKERS", workers)
    _check(case, "json", digest, render(tmp_path, kind, body, "json"), blas_core)


def _alter_cell(text: str, column: str) -> str:
    # scale the first data row's cell of `column` by 1 + 1e-9
    lines = text.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    at = lines[first].rstrip("\n").split(",").index(column)
    cells = lines[first + 1].rstrip("\n").split(",")
    cells[at] = repr(float(cells[at]) * (1 + 1e-9))
    lines[first + 1] = ",".join(cells) + "\n"
    return "".join(lines)


def test_mismatch_names_the_changed_column():
    stored = (GOLDEN / "fcn-magnitude-layerwise.csv").read_text(encoding="utf-8")
    message = report_diff(stored, _alter_cell(stored, "norm_diff_l3"), "csv")
    assert re.fullmatch(r"norm_diff_l3: 1 cells differ, largest relative drift 1e-09", message), message


def test_mismatch_names_the_stored_and_the_running_core():
    case = "fcn-magnitude-layerwise"
    stored = (GOLDEN / f"{case}.csv").read_text(encoding="utf-8")
    altered = _alter_cell(stored, "norm_diff_l3").encode()
    with pytest.raises(pytest.fail.Exception) as failed:
        _check(case, "csv", CASES[case][2], altered, "Haswell")
    first, _, diff = str(failed.value).partition("\n")
    assert first == f"report differs from {case}.csv, stored on OpenBLAS core SkylakeX, run on Haswell:"
    assert diff.startswith("norm_diff_l3: 1 cells differ")


def test_mismatch_names_a_changed_summary_entry():
    stored = json.loads((GOLDEN / "cnn.json").read_text(encoding="utf-8"))
    stored["summary"]["per_width"][1]["gap_q75"] *= 2
    altered = json.dumps(stored, sort_keys=True, indent=1) + "\n"
    message = report_diff((GOLDEN / "cnn.json").read_text(encoding="utf-8"), altered, "json")
    assert message == "summary.per_width.gap_q75: 1 cells differ, largest relative drift 0.5", message


def test_strip_drops_only_the_named_columns():
    stored = (GOLDEN / "cnn.csv").read_text(encoding="utf-8")
    names = {"norm_w_explicit_l2", "norm_w_explicit_l3"}
    before = report_columns(stored, "csv")
    after = report_columns(strip_report(stored, "csv", names), "csv")
    assert after.pop("columns") == [name for name in before.pop("columns") if name not in names]
    assert after == {name: cells for name, cells in before.items() if name not in names}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_strip_drops_only_the_named_config_and_summary_entries(fmt):
    stored = (GOLDEN / f"cnn.{fmt}").read_text(encoding="utf-8")
    names = {"config.explicit_norm_limit", "summary.per_width.layers", "summary.per_width.gap_q75"}
    before = report_columns(stored, fmt)
    after = report_columns(strip_report(stored, fmt, names), fmt)
    dropped = {p for p in before if any(p == n or p.startswith(n + ".") for n in names)}
    assert dropped >= {"config.explicit_norm_limit", "summary.per_width.layers.c3_hat"}
    assert after == {name: cells for name, cells in before.items() if name not in dropped}


@pytest.mark.parametrize("name", sorted(path.name for path in GOLDEN.iterdir() if path.suffix in (".csv", ".json")))
def test_strip_nothing_gives_the_stored_bytes(name):
    stored = (GOLDEN / name).read_text(encoding="utf-8")
    assert strip_report(stored, name.rpartition(".")[2], ()) == stored


def test_strip_rejects_a_name_the_report_lacks():
    stored = (GOLDEN / "cnn.csv").read_text(encoding="utf-8")
    with pytest.raises(KeyError, match="norm_w_explicit_l9"):
        strip_report(stored, "csv", ["norm_w_explicit_l2", "norm_w_explicit_l9"])


def test_every_stored_report_belongs_to_a_case():
    stored = {path.name for path in GOLDEN.iterdir() if path.suffix in (".csv", ".json")}
    assert stored == {f"{c}.csv" for c in CASES} | {f"{c}.json" for c in JSON_CASES}
