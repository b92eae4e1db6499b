import functools
import itertools
import math
import operator
import re
import threading
import time
import tracemalloc
from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np
import pytest

from prunelab import estimators, harness, networks, parallel
from prunelab.config import ConfigError, default_config
from prunelab.estimators import estimate_latala, estimate_lemma3
from prunelab.harness import load_config, run_experiment
from prunelab.parallel import ordered_imap, ordered_map, single_threaded_blas, trial_blocks
from prunelab.sampling import DistributionSpec, SeedSpec

# table2's default quantiles
QUANTILES = tuple(default_config("table2")["quantiles"])


@pytest.mark.parametrize("value", ["0", "abc"])
def test_resolve_workers_raises_config_error(monkeypatch, value):
    monkeypatch.setenv("PRUNELAB_WORKERS", value)
    with pytest.raises(ConfigError, match=re.escape(f"PRUNELAB_WORKERS must be an integer >= 1, got {value!r}")):
        parallel.resolve_workers()


@pytest.fixture
def blas_threads():
    """(get, set) of numpy's OpenBLAS thread count; the count is restored
    after the test."""
    blas = parallel._openblas_threads()
    if blas is None:
        pytest.skip("numpy carries no OpenBLAS with a thread-count API")
    get, set_ = blas
    before = get()
    yield get, set_
    set_(before)


class TestSingleThreadedBlas:
    def test_one_thread_inside_previous_count_after(self, blas_threads):
        get, set_ = blas_threads
        set_(2)
        with single_threaded_blas():
            assert get() == 1
        assert get() == 2

    def test_restores_when_block_raises(self, blas_threads):
        get, set_ = blas_threads
        set_(2)
        with pytest.raises(RuntimeError, match="boom"):
            with single_threaded_blas():
                assert get() == 1
                raise RuntimeError("boom")
        assert get() == 2

    def test_nested_blocks_restore_outer_count(self, blas_threads):
        get, set_ = blas_threads
        set_(2)
        with single_threaded_blas():
            with single_threaded_blas():
                assert get() == 1
            assert get() == 1
        assert get() == 2

    def test_no_library_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(parallel, "_openblas_threads", lambda: None)
        ran = []
        with single_threaded_blas():
            ran.append(True)
        assert ran == [True]
        with pytest.raises(RuntimeError, match="boom"):
            with single_threaded_blas():
                raise RuntimeError("boom")


class TestOrderedMap:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_keeps_item_order(self, workers):
        # later items finish first on several workers
        def fn(x):
            time.sleep(0.001 * (8 - x))
            return x * x

        assert ordered_map(fn, range(8), workers) == [x * x for x in range(8)]

    def test_empty_and_single_item(self):
        assert ordered_map(str, [], 2) == []
        assert ordered_map(str, [7], 2) == ["7"]

    def test_trial_blocks_partition(self):
        blocks = trial_blocks(60)
        assert [(b.start, b.stop) for b in blocks] == [(0, 25), (25, 50), (50, 60)]


class TestOrderedImap:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_yields_in_item_order(self, workers):
        # later items finish first on two workers
        def fn(x):
            time.sleep(0.001 * (8 - x))
            return x * x

        assert list(ordered_imap(fn, range(8), workers)) == [x * x for x in range(8)]

    def test_one_worker_calls_fn_as_results_are_consumed(self):
        calls = []

        def fn(x):
            calls.append(x)
            return -x

        it = ordered_imap(fn, range(3), 1)
        assert calls == []
        assert next(it) == 0 and calls == [0]
        assert next(it) == -1 and calls == [0, 1]
        assert list(it) == [-2] and calls == [0, 1, 2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exception_in_fn_surfaces_from_the_iterator(self, workers):
        def fn(x):
            if x == 2:
                raise RuntimeError("boom")
            return x

        it = ordered_imap(fn, range(4), workers)
        assert [next(it), next(it)] == [0, 1]
        with pytest.raises(RuntimeError, match="boom"):
            next(it)

    def test_empty_and_single_item(self):
        assert list(ordered_imap(str, [], 2)) == []
        assert list(ordered_imap(str, [7], 2)) == ["7"]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_look_ahead_is_bounded(self, workers):
        started = []

        def fn(x):
            started.append(x)
            return x

        got = []
        ahead = []
        for x in ordered_imap(fn, range(20), workers):
            # a slow consumer, so the workers run as far ahead as they may
            full = min(20, len(got) + 1 + 2 * workers)
            deadline = time.monotonic() + 0.5
            while len(started) < full and time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(0.005)
            ahead.append(len(started) - len(got) - 1)
            got.append(x)
        assert got == list(range(20))
        assert max(ahead) == 2 * workers

    @pytest.mark.parametrize("workers", [2, 4])
    def test_raising_task_leaves_nothing_queued(self, workers):
        started = []

        def fn(x):
            started.append(x)
            if x == 0:
                time.sleep(0.05)
                raise RuntimeError("boom")
            return x

        with pytest.raises(RuntimeError, match="boom"):
            list(ordered_imap(fn, range(40), workers))
        # 2 * workers + 1 items are submitted before the first result is awaited
        assert len(started) <= 2 * workers + 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_call_runs_on_one_blas_thread(self, blas_threads, workers):
        get, set_ = blas_threads
        set_(2)
        assert ordered_map(lambda x: get(), range(8), workers) == [1] * 8
        assert get() == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_count_restored_when_fn_raises(self, blas_threads, workers):
        get, set_ = blas_threads
        set_(2)

        def fn(x):
            if x == 3:
                raise RuntimeError("boom")
            return x

        with pytest.raises(RuntimeError, match="boom"):
            ordered_map(fn, range(8), workers)
        assert get() == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_count_restored_when_consumer_stops_early(self, blas_threads, workers):
        get, set_ = blas_threads
        set_(2)
        it = ordered_imap(lambda x: x, range(8), workers)
        assert next(it) == 0
        assert get() == 1  # the cap lasts while the map is open
        it.close()
        assert get() == 2


def _traced_peak(kind: str, overrides: dict, workers: int) -> int:
    """Peak bytes numpy and Python allocate while the experiment runs."""
    cfg = load_config(kind, overrides=overrides)
    tracemalloc.start()
    try:
        run_experiment(kind, cfg, workers)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# kind: (config, fewer trials, more trials).  A trial's payload is folded and
# dropped as it arrives, so four times the trials must not raise the peak;
# when every trial's payload was kept, fcn-sweep's went from 6.5 to 17.4 MB.
MEMORY_CASES = {
    "fcn-sweep": ({"widths": [128], "samples": 64}, 8, 32),
    "table3": ({"rows": [[256, "gaussian", 1.0, None]]}, 100, 400),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", MEMORY_CASES)
def test_peak_memory_does_not_grow_with_trials(kind, workers):
    cfg, fewer, more = MEMORY_CASES[kind]
    small = _traced_peak(kind, cfg | {"trials": fewer}, workers)
    large = _traced_peak(kind, cfg | {"trials": more}, workers)
    assert large - small <= 2 * 2**20, (small, large)


# kind: (config, traced peak bound).  A trial peaks in its sup-gap estimate;
# the arrays only its norm and Latala steps read die before it.  While they
# were kept through it, these runs peaked at 12.6 and 40.6 MB, and then at
# 9.6 and 36.3 MB.  The fcn-sweep run peaked at 9.46 MiB while its masks
# were float64, a trial's weights lived until it returned and the running
# sums were a copy beside the last trial's payload; with bool masks, the
# weights freed before the payload and each payload becoming the sums, it
# peaks at 6.53 MiB.
GAP_PEAK_CASES = {
    "fcn-sweep": ({"widths": [256], "trials": 3}, 7.5 * 2**20),
    "cnn-sweep": ({"channels": [64], "trials": 1}, 38.5 * 2**20),
}


@pytest.mark.parametrize("kind", GAP_PEAK_CASES)
def test_trial_scratch_dies_before_the_gap_estimate(kind):
    cfg, bound = GAP_PEAK_CASES[kind]
    peak = _traced_peak(kind, cfg, 1)
    assert peak <= bound, peak / 2**20


def test_cnn_trial_peak_with_blocked_conv_layers():
    """The d = 64 cnn-sweep trial of GAP_PEAK_CASES again, bounded below the
    37.0 MiB it peaked at while the estimate drew all its points up front,
    ran each conv layer on whole chunks and kept a chunk's shared spectrum
    into the next chunk; it now peaks at 30.4 MiB."""
    cfg, _ = GAP_PEAK_CASES["cnn-sweep"]
    peak = _traced_peak("cnn-sweep", cfg, 1)
    assert peak <= 32 * 2**20, peak / 2**20


def _stub_payload(d: int, seed_t: SeedSpec) -> list:
    """Two pruned layers' payload components, arrays and floats, among them
    ones whose every entry is -0.0 and an array with some -0.0 entries."""
    rng = seed_t.generator()
    mixed = rng.standard_normal(d)
    mixed[rng.random(d) < 0.5] = -0.0
    return [(rng.standard_normal((d, d)), float(rng.standard_normal()), np.full(d, -0.0)), (-0.0, mixed)]


@pytest.mark.parametrize("workers", [1, 2])
def test_gap_sweep_sums_are_the_last_payload_folded_from_zero(workers):
    """Each payload component is added into the new trial's own component,
    which becomes the running sum: the bits of a left fold from 0.0 in
    trial order (+0.0 where every term is -0.0), with no array copied."""
    s = SimpleNamespace(seed=31, trials=5)
    made, seen = {}, {}

    def one_trial(d, seed_t):
        made[seed_t] = _stub_payload(d, seed_t)
        return [{"x": 0.0}, {"x": 1.0}], {"sup_gap": 1.0}, made[seed_t]

    def summarize(d, rows, sums):
        seen[d] = sums
        return {}

    harness._gap_sweep(s, (3, 4), workers, one_trial, summarize)
    assert sorted(seen) == [3, 4]
    for d, sums in seen.items():
        payloads = [_stub_payload(d, SeedSpec(s.seed, t).sub(d)) for t in range(s.trials)]
        last = made[SeedSpec(s.seed, s.trials - 1).sub(d)]
        assert [len(layer) for layer in sums] == [3, 2]
        for k, layer in enumerate(sums):
            for i, got in enumerate(layer):
                want = functools.reduce(operator.add, [p[k][i] for p in payloads], 0.0)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
                if isinstance(want, np.ndarray):
                    assert got is last[k][i]
    for sums in seen.values():  # every term -0.0, the sum +0.0
        assert not np.signbit(sums[0][2]).any() and math.copysign(1.0, sums[1][0]) == 1.0


def _state_key(rng: np.random.Generator) -> tuple:
    """A PCG64 generator's position, hashable: a fresh generator's key names
    its stream."""
    state = rng.bit_generator.state["state"]
    return state["state"], state["inc"]


class TestEstimatorsAcrossWorkers:
    def test_lemma3_identical_at_one_and_two_workers(self):
        seed = SeedSpec(2024)
        one = estimate_lemma3(128, 128, 1.0, 100, seed, QUANTILES, workers=1)
        two = estimate_lemma3(128, 128, 1.0, 100, seed, QUANTILES, workers=2)
        assert one == two

    def test_latala_identical_at_one_and_two_workers(self):
        seed = SeedSpec(2024)
        dist = DistributionSpec("gaussian", variance=1.0 / 128)
        one = estimate_latala(128, dist, 100, seed, prune_alpha=0.5, workers=1)
        two = estimate_latala(128, dist, 100, seed, prune_alpha=0.5, workers=2)
        assert one == two

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["lemma3", "latala"])
    def test_each_block_draws_into_its_own_buffer(self, monkeypatch, kind, workers):
        # every draw of a block fills one array, and no two blocks share
        # one: each task allocates its buffer, none lives at module level
        seed, trials = SeedSpec(5), 125
        trial_of = {_state_key(seed.child(t).generator()): t for t in range(trials)}
        buffers = {}  # block -> the arrays its draws received, kept alive
        draw = estimators.draw_matrix

        def spy(*args, **kwargs):
            t = trial_of[_state_key(args[3])]
            buffers.setdefault(t // parallel.BLOCK_SIZE, []).append(args[4] if len(args) > 4 else kwargs.get("out"))
            return draw(*args, **kwargs)

        monkeypatch.setattr(estimators, "draw_matrix", spy)
        if kind == "lemma3":
            shape = (16, 24)
            estimate_lemma3(*shape, 1.0, trials, seed, QUANTILES, workers=workers)
        else:
            shape = (16, 16)
            estimate_latala(16, DistributionSpec("gaussian", variance=1.0 / 16), trials, seed, prune_alpha=0.5,
                            workers=workers)
        assert sorted(buffers) == list(range(len(trial_blocks(trials))))
        assert all(len(outs) == parallel.BLOCK_SIZE for outs in buffers.values())
        for outs in buffers.values():
            assert isinstance(outs[0], np.ndarray) and outs[0].shape == shape
            assert all(out is outs[0] for out in outs)
        assert len({id(outs[0]) for outs in buffers.values()}) == len(buffers)
        assert not any(isinstance(v, np.ndarray) for v in vars(estimators).values())

    @staticmethod
    def _thread_counts(get, monkeypatch, workers) -> list:
        seen = []
        draw = estimators.draw_matrix

        def spy(*args, **kwargs):
            seen.append(get())
            return draw(*args, **kwargs)

        monkeypatch.setattr(estimators, "draw_matrix", spy)
        estimate_lemma3(16, 16, 1.0, 100, SeedSpec(5), QUANTILES, workers=workers)
        estimate_latala(16, DistributionSpec("uniform", variance=1.0 / 16), 100, SeedSpec(5), workers=workers)
        return seen

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trials_run_on_one_blas_thread(self, blas_threads, monkeypatch, workers):
        get, set_ = blas_threads
        set_(2)
        assert self._thread_counts(get, monkeypatch, workers) == [1] * 200
        assert get() == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_cap_is_the_maps(self, blas_threads, monkeypatch, workers):
        # the estimators set no count of their own: without the map's cap
        # their trials run at the caller's count
        get, set_ = blas_threads
        set_(2)
        monkeypatch.setattr(parallel, "single_threaded_blas", nullcontext)
        assert self._thread_counts(get, monkeypatch, workers) == [2] * 200
        assert get() == 2


class TestFcnSweepThreads:
    @staticmethod
    def _thread_counts(get, monkeypatch, workers) -> list:
        seen = []
        gap = networks.estimate_sup_gap

        def spy(*args, **kwargs):
            seen.append(get())
            return gap(*args, **kwargs)

        monkeypatch.setattr(networks, "estimate_sup_gap", spy)
        # one trial per task, 13 per worker at workers=2
        cfg = load_config("fcn-sweep", overrides={"widths": [8], "trials": 26, "samples": 4, "d_in": 4, "d_out": 4})
        run_experiment("fcn-sweep", cfg, workers)
        return seen

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trials_run_on_one_blas_thread(self, blas_threads, monkeypatch, workers):
        get, set_ = blas_threads
        set_(2)
        assert self._thread_counts(get, monkeypatch, workers) == [1] * 26
        assert get() == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_cap_is_the_maps(self, blas_threads, monkeypatch, workers):
        get, set_ = blas_threads
        set_(2)
        monkeypatch.setattr(parallel, "single_threaded_blas", nullcontext)
        assert self._thread_counts(get, monkeypatch, workers) == [2] * 26
        assert get() == 2


def _sweep_tasks(monkeypatch, kind: str, cfg: dict) -> list:
    """The items each of the sweep's maps hands out, one list per width."""
    tasks = []
    ordered = harness.ordered_imap

    def spy(fn, items, workers):
        items = list(items)
        tasks.append(items)
        return ordered(fn, items, workers)

    monkeypatch.setattr(harness, "ordered_imap", spy)
    run_experiment(kind, load_config(kind, overrides=cfg), 2)
    return tasks


class TestFcnSweepTrials:
    CFG = {"widths": [8, 16], "trials": 26, "samples": 4, "d_in": 4, "d_out": 4}

    def test_one_trial_per_block(self, monkeypatch):
        # each task is one trial index
        assert _sweep_tasks(monkeypatch, "fcn-sweep", self.CFG) == [list(range(26))] * 2

    def test_all_zero_diff_reports_norm_diff_zero(self, monkeypatch):
        draw = harness.draw_matrix
        # -0.0 entries where the draw is negative
        monkeypatch.setattr(harness, "draw_matrix", lambda *args: 0.0 * draw(*args))
        rep = run_experiment("fcn-sweep", load_config("fcn-sweep", overrides=self.CFG | {"trials": 3}), 1)
        for col in ("norm_w_l2", "norm_diff_l2", "norm_diff_l3"):
            values = rep.column(col)
            assert values == [0.0] * 6
            assert all(math.copysign(1.0, v) == 1.0 for v in values)


class TestCnnSweepTrials:
    CFG = {"channels": [4, 8], "spatial": 4, "alpha": 0.5, "trials": 26, "samples": 4}

    def test_one_trial_per_block(self, monkeypatch):
        # each task is one trial index, as in fcn-sweep
        assert _sweep_tasks(monkeypatch, "cnn-sweep", self.CFG) == [list(range(26))] * 2

    def test_1024_wide_explicit_map_identical_at_one_and_two_workers(self):
        # 16 channels of 8 x 8 maps: the explicit map is 1024 x 1024, where
        # the SVD's last bits depend on the BLAS thread count
        cfg = load_config("cnn-sweep", overrides={"channels": [16], "spatial": 8, "trials": 4, "samples": 64})
        one, two = (harness.render_report(run_experiment("cnn-sweep", cfg, w)) for w in (1, 2))
        assert "norm_w_explicit_l2" in one.splitlines()[len(cfg) + 1]
        assert one == two


# kind: a small config whose trials call np.linalg.svd
SVD_KINDS = {
    "table2": {"rows": [[16, 16, 1.0]], "trials": 100},
    "table3": {"rows": [[16, "uniform", 1.0, None], [16, "gaussian", 1.0, 0.5]], "trials": 100},
    "fcn-sweep": {"widths": [8], "trials": 4, "samples": 4, "d_in": 4, "d_out": 4},
    "cnn-sweep": {"channels": [4], "spatial": 4, "alpha": 0.5, "trials": 4, "samples": 4},
    "circulant-equiv": {"instances": 6},
    "oracle-suite": {"trials": 100},
}


class TestBlasThreadsPerKind:
    """Every SVD of every kind inside a map runs on one BLAS thread at
    workers 1 and 2.  cnn-sweep's explicit-map SVDs run before its trials, on
    the thread that called `run_experiment`, at that caller's count; the
    count after a run is the count before it."""

    @staticmethod
    def _spy_svd(monkeypatch, get, explicit_n=None):
        """Records the count each np.linalg.svd call sees and whether it ran
        on the calling thread, the explicit-map calls apart."""
        seen = {"explicit": [], "other": []}
        caller = threading.get_ident()
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            # the explicit map arrives alone, or stacked as (1, n, n)
            if explicit_n is not None and np.shape(a)[-2:] == (explicit_n, explicit_n):
                seen["explicit"].append((get(), threading.get_ident() == caller))
            else:
                seen["other"].append(get())
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        return seen

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", SVD_KINDS)
    def test_every_svd_runs_on_one_blas_thread(self, blas_threads, monkeypatch, kind, workers):
        get, set_ = blas_threads
        before = get() + 1  # neither the cap nor the count the process started at
        set_(before)
        cfg = SVD_KINDS[kind]
        explicit_n = cfg["spatial"] ** 2 * cfg["channels"][0] if kind == "cnn-sweep" else None
        seen = self._spy_svd(monkeypatch, get, explicit_n)
        run_experiment(kind, load_config(kind, overrides=cfg), workers)
        assert seen["other"] and set(seen["other"]) == {1}
        if kind == "cnn-sweep":
            assert seen["explicit"] == [(before, True)] * cfg["trials"]
        else:
            assert seen["explicit"] == []
        assert get() == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_count_restored_when_the_explicit_svd_raises(self, blas_threads, monkeypatch, workers):
        get, set_ = blas_threads
        set_(3)
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            if np.shape(a)[-2:] == (64, 64):
                raise RuntimeError("boom")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        with pytest.raises(RuntimeError, match="boom"):
            run_experiment("cnn-sweep", load_config("cnn-sweep", overrides=SVD_KINDS["cnn-sweep"]), workers)
        assert get() == 3

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["table3", "fcn-sweep"])
    def test_count_restored_when_a_trial_raises(self, blas_threads, monkeypatch, kind, workers):
        get, set_ = blas_threads
        set_(3)
        calls = itertools.count()  # next() is atomic, so one trial raises at 2 workers too
        draw = harness.draw_matrix if kind == "fcn-sweep" else estimators.draw_matrix

        def spy(*args):
            if next(calls) == 4:
                raise RuntimeError("boom")
            return draw(*args)

        monkeypatch.setattr(harness if kind == "fcn-sweep" else estimators, "draw_matrix", spy)
        with pytest.raises(RuntimeError, match="boom"):
            run_experiment(kind, load_config(kind, overrides=SVD_KINDS[kind]), workers)
        assert get() == 3
