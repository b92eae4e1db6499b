"""Span arithmetic, wrapper restoration and result neutrality of the tracer.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import importlib
import json
import time

import pytest

import tracer as tr
from tracer import Span, Tracer, layer_metrics, self_times


def _span(sid, parent, start, end, name="x", thread=1):
    # end_seq only orders events that share a timestamp
    return Span(sid, parent, name, thread, start, end, 1000 + end, 0.0)


def test_nested_spans_self_time_is_duration_minus_child_coverage():
    spans = [
        _span(1, None, 0, 100),
        _span(2, 1, 20, 50),
        _span(3, 1, 60, 70),
        _span(4, 3, 60, 65),
    ]
    assert self_times(spans) == {1: 60.0, 2: 30.0, 3: 5.0, 4: 5.0}


def test_two_thread_spans_split_overlap_and_sum_to_wall():
    # root R; map M; tasks T1 (thread 2, with child K) and T2 (thread 3)
    spans = [
        _span(1, None, 0, 100),
        _span(2, 1, 10, 90),
        _span(3, 2, 10, 50, thread=2),
        _span(4, 2, 10, 90, thread=3),
        _span(5, 3, 20, 40, thread=2),
    ]
    own = self_times(spans)
    assert own == {1: 20.0, 2: 0.0, 3: 10.0, 4: 60.0, 5: 10.0}
    assert sum(own.values()) == 100.0


def _sleepy(x):
    time.sleep(0.01 * (x + 1))
    return x


def test_recorded_worker_spans_attach_to_the_map_and_add_up():
    from prunelab import parallel

    t = Tracer()
    traced_map = t._wrap_map(parallel.ordered_map)
    assert t.invoke(traced_map, _sleepy, range(4), 2) == [0, 1, 2, 3]
    (map_span,) = [s for s in t.spans if s.name == tr.MAP]
    tasks = [s for s in t.spans if s.name == tr.TASK]
    assert len(tasks) == 4 and all(s.parent == map_span.id for s in tasks)
    assert len({s.thread for s in tasks}) == 2
    (root,) = [s for s in t.spans if s.name == tr.ROOT]
    assert sum(self_times(t.spans).values()) == pytest.approx(root.end - root.start, rel=1e-9)
    m = layer_metrics(t.spans)
    assert m["parallel.tasks"] == 4
    assert 0.0 < m["parallel.utilization"] <= 1.0
    layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert layers + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)


def _current(path, attr):
    return getattr(tr._resolve(path), attr)


def test_every_wrapper_is_restored():
    targets = [(p, a) for p, a, _, _ in tr.TARGETS] + list(tr.MAP_TARGETS)
    before = {(p, a): _current(p, a) for p, a in targets}
    t = Tracer()
    with pytest.raises(ZeroDivisionError):
        with t:
            assert all(_current(p, a) is not before[(p, a)] for p, a in targets)
            1 / 0
    assert all(_current(p, a) is before[(p, a)] for p, a in targets)


def test_every_span_name_has_a_self_time_metric():
    names = {m for m, _, _ in tr.LAYER_METRICS}
    assert {f"{n}.self_s" for n in tr.SPAN_NAMES} <= names
    assert tr.ROOT not in tr.SPAN_NAMES


@pytest.mark.parametrize(
    "kind, cfg, expect",
    [
        ("fcn-sweep", {"widths": [8], "d_in": 4, "d_out": 4, "trials": 2, "samples": 10, "seed": 5},
         {"kernel.svd", "networks.forward", "pruning.mask", "kernel.argsort", "sampling.points"}),
        ("table2", {"rows": [[8, 8, 1.0]], "trials": 100, "seed": 5},
         {"estimators.lemma3", "sampling.draw_matrix", "harness.trial", "parallel.map"}),
    ],
)
def test_traced_report_is_byte_identical(tmp_path, monkeypatch, kind, cfg, expect):
    monkeypatch.setenv("PRUNELAB_WORKERS", "2")
    cli = importlib.import_module("prunelab.cli")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    assert cli.main([kind, "--config", str(config), "--out", str(plain)]) == 0
    t = Tracer()
    with t:
        assert t.invoke(cli.main, [kind, "--config", str(config), "--out", str(traced)]) == 0
    assert traced.read_bytes() == plain.read_bytes()
    assert expect <= {s.name for s in t.spans}
    m = layer_metrics(t.spans)
    layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert layers + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
