"""The traced benchmark run wraps functions by (module, attribute) name.

`perfbench/tracer.py` skips a target whose attribute is gone, so a renamed or
deleted call site would silently drop its spans from the traced run.  This
test reads the tracer's target lists from that file, without changing
anything under `perfbench/`, and checks that every target resolves.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()
TARGETS = [(path, attr) for path, attr, *_ in tracer.TARGETS] + list(tracer.MAP_TARGETS)


@pytest.mark.parametrize("path, attr", TARGETS, ids=[f"{p}.{a}" for p, a in TARGETS])
def test_every_target_resolves(path, attr):
    assert callable(getattr(tracer._resolve(path), attr, None)), f"{path} has no function {attr}"
