"""In-process span recorder for the traced benchmark run.

Spans are recorded by wrapping public functions of the prunelab modules from
the benchmark's side; nothing under src/ knows about tracing.  A name bound
by `from x import y` is wrapped where it is looked up (as well as where it
is defined, so a later move of the call site keeps its layer), and the
numpy kernels are wrapped as module attributes.  `uninstall` puts every
original back.

Each span records name, start, end, parent and thread.  Every thread keeps
its own span stack; a task handed to `ordered_map` is a child of the map's
span even when a pool thread runs it.  Spans stay in memory until
`layer_metrics` reduces them.

Self time: at each instant the wall time is split evenly among the
innermost running spans (running spans with no running child).  With one
thread this is a span's duration minus the time its children cover; with
worker threads the self times of all spans still add up to the wall time,
so layer self times plus the unattributed remainder equal the traced wall.
"""

from __future__ import annotations

import importlib
import itertools
import math
import threading
import time
from collections import defaultdict
from typing import NamedTuple

ROOT = "bench.invocation"  # one CLI call; its self time is the unattributed remainder
TASK = "harness.trial"  # a per-trial/per-case body handed to ordered_map
MAP = "parallel.map"


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    thread: int
    start: int  # perf_counter_ns
    end: int
    end_seq: int  # orders end events that share a timestamp
    work: float  # span-specific amount: flops, rows, points or threads


def _svd_gflop(args, kwargs) -> float:
    # LAPACK singular values only (no vectors): about 4 m n^2 - 4 n^3 / 3
    # flops for m >= n, per matrix in a stacked input.  Computed from shapes.
    shape = getattr(args[0] if args else kwargs["a"], "shape", ())
    if len(shape) < 2:
        return 0.0
    m, n = max(shape[-2:]), min(shape[-2:])
    return math.prod(shape[:-2]) * (4.0 * m * n * n - 4.0 * n**3 / 3.0) / 1e9


def _rows(args, kwargs) -> float:
    x = args[1] if len(args) > 1 else kwargs["x"]
    shape = getattr(x, "shape", ())
    return float(shape[0]) if len(shape) == 2 else 1.0


def _points(args, kwargs) -> float:
    return float(args[3] if len(args) > 3 else kwargs["n"])


_FFT = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")
_MASKS = (
    "mask_random_with_replacement", "mask_random_without_replacement",
    "mask_magnitude_layerwise", "mask_magnitude_global", "mask_filter_random", "build_mask",
)

# (module, attribute, span name, work function or None)
TARGETS = (
    [("numpy.linalg", "svd", "kernel.svd", _svd_gflop)]
    + [("numpy.fft", f, "kernel.fft", None) for f in _FFT]
    + [
        ("numpy", "partition", "kernel.partition", None),
        ("numpy", "argsort", "kernel.argsort", None),
        ("prunelab.linalg", "spectral_norm", "linalg.spectral_norm", None),
        ("prunelab.harness", "spectral_norm", "linalg.spectral_norm", None),
        ("prunelab.circulant", "conv2d_wrap", "circulant.conv2d_wrap", None),
        ("prunelab.networks", "conv2d_wrap", "circulant.conv2d_wrap", None),
        ("prunelab.circulant", "spectral_norm_via_dft", "circulant.dft_norm", None),
        ("prunelab.circulant", "build_full_map", "circulant.full_map", None),
        ("prunelab.networks", "estimate_sup_gap", "networks.sup_gap", _points),
        ("prunelab.networks", "forward_fcn", "networks.forward", _rows),
        ("prunelab.networks", "forward_cnn", "networks.forward", _rows),
    ]
    + [("prunelab.pruning", f, "pruning.mask", None) for f in _MASKS]
    + [
        ("prunelab.estimators", "estimate_lemma3", "estimators.lemma3", None),
        ("prunelab.harness", "estimate_lemma3", "estimators.lemma3", None),
        ("prunelab.estimators", "estimate_latala", "estimators.latala", None),
        ("prunelab.harness", "estimate_latala", "estimators.latala", None),
        ("prunelab.sampling", "draw_matrix", "sampling.draw_matrix", None),
        ("prunelab.harness", "draw_matrix", "sampling.draw_matrix", None),
        ("prunelab.estimators", "draw_matrix", "sampling.draw_matrix", None),
        ("prunelab.sampling", "sample_unit_sphere", "sampling.points", None),
        ("prunelab.sampling", "sample_unit_cube", "sampling.points", None),
        ("prunelab.networks", "sample_unit_sphere", "sampling.points", None),
        ("prunelab.networks", "sample_unit_cube", "sampling.points", None),
        ("prunelab.sampling.SeedSpec", "generator", "sampling.generator", None),
        ("prunelab.theory", "order_stat_moment", "theory.order_stat_moment", None),
        ("prunelab.theory", "balls_in_bins_check", "theory.balls_bins", None),
        ("prunelab.theory", "balls_in_bins_exact", "theory.balls_bins", None),
        ("prunelab.harness", "run_experiment", "harness.aggregate", None),
        ("prunelab.cli", "run_experiment", "harness.aggregate", None),
        ("prunelab.harness", "write_report", "harness.render", None),
        ("prunelab.cli", "write_report", "harness.render", None),
    ]
)
MAP_TARGETS = (("prunelab.parallel", "ordered_map"), ("prunelab.harness", "ordered_map"), ("prunelab.estimators", "ordered_map"))

SPAN_NAMES = sorted({t[2] for t in TARGETS} | {TASK, MAP})

# The per-layer metrics a traced run reports: (name, unit, better).
LAYER_METRICS = (
    [
        ("kernel.svd.calls", "count", "lower"),
        ("kernel.svd.gflop", "gflop_computed", "lower"),
        ("kernel.fft.calls", "count", "lower"),
        ("linalg.spectral_norm.calls", "count", "lower"),
        ("circulant.conv2d_wrap.calls", "count", "lower"),
        ("networks.forward.calls", "count", "lower"),
        ("networks.forward.rows_per_point", "rows/point", "lower"),
        ("pruning.mask.calls", "count", "lower"),
        ("parallel.tasks", "count", "higher"),
        ("parallel.utilization", "fraction", "higher"),
        ("parallel.wait_s", "s", "lower"),
        ("sampling.draw_matrix.calls", "count", "lower"),
        ("sampling.generator.calls", "count", "lower"),
    ]
    + [(f"{name}.self_s", "s", "lower") for name in SPAN_NAMES]
    + [
        ("trace.wall_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def _resolve(path: str):
    """A module, or a class inside one (`pkg.mod.Class`)."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._seq = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []  # (owner, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, work=0.0, parent=None, span_id=None):
        """Run fn(*args, **kwargs) inside a span; the parent defaults to the
        innermost open span of the calling thread."""
        kwargs = kwargs or {}
        stack = self._stack()
        sid = next(self._seq) if span_id is None else span_id
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(sid, parent, name, threading.get_ident(), start, end, next(self._seq), work))

    def invoke(self, fn, *args):
        """Run one CLI call as a root span."""
        return self.call(ROOT, fn, args)

    def _wrap(self, name, fn, work_fn):
        def traced(*args, **kwargs):
            work = work_fn(args, kwargs) if work_fn else 0.0
            return self.call(name, fn, args, kwargs, work)

        traced.__wrapped__ = fn
        return traced

    def _wrap_map(self, fn):
        def traced_map(body, items, workers):
            items = list(items)
            threads = min(workers, len(items)) if workers > 1 and len(items) > 1 else 1
            sid = next(self._seq)

            def task(item):
                return self.call(TASK, body, (item,), parent=sid)

            return self.call(MAP, fn, (task, items, workers), work=threads, span_id=sid)

        traced_map.__wrapped__ = fn
        return traced_map

    def _patch(self, owner, attr, wrapper_for):
        original = getattr(owner, attr, None)
        if original is None:  # call site gone in this version of the package
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper_for(original))

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for path, attr, name, work_fn in TARGETS:
                self._patch(_resolve(path), attr, lambda fn, n=name, w=work_fn: self._wrap(n, fn, w))
            for path, attr in MAP_TARGETS:
                self._patch(_resolve(path), attr, self._wrap_map)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans) -> dict:
    """{span id: self time in ns}, splitting each instant evenly among the
    innermost running spans (see the module docstring)."""
    parent = {s.id: s.parent for s in spans}
    events = sorted(
        [(s.start, s.id, 1, s.id) for s in spans] + [(s.end, s.end_seq, 0, s.id) for s in spans]
    )
    out = dict.fromkeys(parent, 0.0)
    running_children = defaultdict(int)
    running, leaves = set(), set()
    prev = None
    for t, _, is_start, sid in events:
        if leaves and prev is not None and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                out[leaf] += share
        prev = t
        p = parent[sid]
        if is_start:
            running.add(sid)
            if running_children[sid] == 0:
                leaves.add(sid)
            if p in running:
                running_children[p] += 1
                leaves.discard(p)
        else:
            running.discard(sid)
            leaves.discard(sid)
            if p in running:
                running_children[p] -= 1
                if running_children[p] == 0:
                    leaves.add(p)
    return out


def layer_metrics(spans) -> dict:
    """Reduce one traced pass's spans to the per-layer metrics (without
    trace.overhead_s, which needs an untraced pass)."""
    own = self_times(spans)
    calls, self_ns, work = defaultdict(int), defaultdict(float), defaultdict(float)
    task_ns = capacity_ns = wall_ns = 0
    for s in spans:
        calls[s.name] += 1
        self_ns[s.name] += own[s.id]
        work[s.name] += s.work
        if s.name == TASK:
            task_ns += s.end - s.start
        elif s.name == MAP:
            capacity_ns += s.work * (s.end - s.start)
        elif s.name == ROOT:
            wall_ns += s.end - s.start
    m = {
        "kernel.svd.calls": calls["kernel.svd"],
        "kernel.svd.gflop": work["kernel.svd"],
        "kernel.fft.calls": calls["kernel.fft"],
        "linalg.spectral_norm.calls": calls["linalg.spectral_norm"],
        "circulant.conv2d_wrap.calls": calls["circulant.conv2d_wrap"],
        "networks.forward.calls": calls["networks.forward"],
        "networks.forward.rows_per_point": (
            work["networks.forward"] / work["networks.sup_gap"] if work["networks.sup_gap"] else 0.0
        ),
        "pruning.mask.calls": calls["pruning.mask"],
        "parallel.tasks": calls[TASK],
        "parallel.utilization": task_ns / capacity_ns if capacity_ns else 0.0,
        "parallel.wait_s": (capacity_ns - task_ns) / 1e9,
        "sampling.draw_matrix.calls": calls["sampling.draw_matrix"],
        "sampling.generator.calls": calls["sampling.generator"],
    }
    for name in SPAN_NAMES:
        m[f"{name}.self_s"] = self_ns[name] / 1e9
    m["trace.wall_s"] = wall_ns / 1e9
    m["trace.unattributed_s"] = self_ns[ROOT] / 1e9
    return m
