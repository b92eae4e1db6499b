import math
import time
import tracemalloc

import pytest

from prunelab import estimators, harness, networks, parallel
from prunelab.estimators import estimate_latala, estimate_lemma3
from prunelab.harness import load_config, run_experiment
from prunelab.parallel import ordered_imap, ordered_map, single_threaded_blas, trial_blocks
from prunelab.sampling import DistributionSpec, SeedSpec


@pytest.fixture
def blas_threads():
    """(get, set) of numpy's OpenBLAS thread count; the count is restored
    after the test."""
    funcs = parallel._openblas_threads()
    if funcs is None:
        pytest.skip("numpy carries no OpenBLAS with a thread-count API")
    get, set_ = funcs
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


class TestEstimatorsAcrossWorkers:
    def test_lemma3_identical_at_one_and_two_workers(self):
        seed = SeedSpec(2024)
        one = estimate_lemma3(128, 128, 1.0, 100, seed, workers=1)
        two = estimate_lemma3(128, 128, 1.0, 100, seed, workers=2)
        assert one == two

    def test_latala_identical_at_one_and_two_workers(self):
        seed = SeedSpec(2024)
        dist = DistributionSpec("gaussian", variance=1.0 / 128)
        one = estimate_latala(128, dist, 100, seed, prune_alpha=0.5, workers=1)
        two = estimate_latala(128, dist, 100, seed, prune_alpha=0.5, workers=2)
        assert one == two

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trials_run_on_one_blas_thread(self, blas_threads, monkeypatch, workers):
        get, set_ = blas_threads
        set_(2)
        seen = []
        draw = estimators.draw_matrix

        def spy(*args, **kwargs):
            seen.append(get())
            return draw(*args, **kwargs)

        monkeypatch.setattr(estimators, "draw_matrix", spy)
        estimate_lemma3(16, 16, 1.0, 100, SeedSpec(5), workers=workers)
        estimate_latala(16, DistributionSpec("uniform", variance=1.0 / 16), 100, SeedSpec(5), workers=workers)
        assert seen == [1] * 200
        assert get() == 2


class TestFcnSweepThreads:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_trials_run_on_one_blas_thread(self, blas_threads, monkeypatch, workers):
        get, set_ = blas_threads
        set_(2)
        seen = []
        gap = networks.estimate_sup_gap

        def spy(*args, **kwargs):
            seen.append(get())
            return gap(*args, **kwargs)

        monkeypatch.setattr(networks, "estimate_sup_gap", spy)
        # one trial per block, 13 per worker at workers=2
        cfg = load_config("fcn-sweep", overrides={"widths": [8], "trials": 26, "samples": 4, "d_in": 4, "d_out": 4})
        run_experiment("fcn-sweep", cfg, workers)
        assert seen == [1] * 26
        assert get() == 2


class TestFcnSweepTrials:
    CFG = {"widths": [8, 16], "trials": 26, "samples": 4, "d_in": 4, "d_out": 4}

    def test_one_trial_per_block(self, monkeypatch):
        sizes = []
        ordered = harness.ordered_imap

        def spy(fn, items, workers):
            items = list(items)
            sizes.append([len(b) for b in items])
            return ordered(fn, items, workers)

        monkeypatch.setattr(harness, "ordered_imap", spy)
        run_experiment("fcn-sweep", load_config("fcn-sweep", overrides=self.CFG), 2)
        assert sizes == [[1] * 26, [1] * 26]

    def test_all_zero_diff_reports_norm_diff_zero(self, monkeypatch):
        draw = harness.draw_matrix
        # -0.0 entries where the draw is negative
        monkeypatch.setattr(harness, "draw_matrix", lambda *args: 0.0 * draw(*args))
        rep = run_experiment("fcn-sweep", load_config("fcn-sweep", overrides=self.CFG | {"trials": 3}), 1)
        for col in ("norm_w_l2", "norm_diff_l2", "norm_diff_l3"):
            values = [r[rep.columns.index(col)] for r in rep.rows]
            assert values == [0.0] * 6
            assert all(math.copysign(1.0, v) == 1.0 for v in values)
