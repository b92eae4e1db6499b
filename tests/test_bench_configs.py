"""Every config the benchmark runs is one the program accepts.

`perfbench/run.py` hands the program the config files that
`perfbench/workloads.py` writes, and a config the schema rejects makes the
benchmark exit 1.  This test reads the workloads from that file, without
changing anything under `perfbench/`, writes each workload's configs for the
reference seed and one other seed, and loads each through
`config.load_config`, so a schema change that would break the benchmark
fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from prunelab.config import load_config

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("seed", [workloads.REFERENCE_SEED, 7])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_benchmark_config_loads(tmp_path, workload, seed):
    bodies = workloads.build_configs(workload, seed)
    paths = workloads.write_configs(workload, seed, tmp_path)
    assert sorted(paths) == sorted(workloads.WORKLOADS[workload].kinds)
    for kind, path in paths.items():
        cfg = load_config(kind, path)
        assert {key: cfg[key] for key in bodies[kind]} == bodies[kind]
