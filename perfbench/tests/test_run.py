"""Config generator, report checks and BENCHMARK.json consistency.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
from prunelab.harness import EXPERIMENT_KINDS, load_config
from workloads import WORKLOADS, build_configs, write_configs

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_config_generator_is_deterministic_per_seed(name):
    assert build_configs(name, 7) == build_configs(name, 7)
    a, b = build_configs(name, 7), build_configs(name, 8)
    for kind in a:
        if "seed" in a[kind]:
            assert a[kind]["seed"] != b[kind]["seed"]
        # only the seed depends on the workload seed, so every seed does the same work
        assert {k: v for k, v in a[kind].items() if k != "seed"} == {k: v for k, v in b[kind].items() if k != "seed"}
    assert WORKLOADS[name].work(a) == WORKLOADS[name].work(b) > 0


def test_workloads_cover_every_kind_once():
    kinds = [k for w in WORKLOADS.values() for k in w.kinds]
    assert sorted(kinds) == sorted(EXPERIMENT_KINDS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_configs_are_accepted(tmp_path, name):
    for kind, path in write_configs(name, 3, tmp_path).items():
        load_config(kind, path)


def test_drift_of_numeric_cells():
    ref = "a,b\n1.0,2.0\n# summary x=4.0\n"
    assert run.max_relative_drift(ref, ref) == 0.0
    assert run.max_relative_drift(ref, ref.replace("4.0", "4.4")) == pytest.approx(0.4 / 4.4)
    assert run.max_relative_drift(ref, ref.replace("2.0", "true")) is None
    assert run.max_relative_drift(ref, ref + "3.0,4.0\n") is None
    assert run.report_shape(ref) == ("a,b", 1)


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [(w.name, w.description) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(tracer.LAYER_METRICS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)


def test_references_cover_every_kind():
    stored = json.loads((run.REFERENCE_DIR / "sha256.json").read_text())
    assert sorted(stored) == sorted(EXPERIMENT_KINDS)
    assert all((run.REFERENCE_DIR / f"{k}.csv").is_file() for k in stored)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
