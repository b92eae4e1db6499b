"""Deterministic trial-level parallelism and the BLAS threading policy.

Each kind maps tasks that do not depend on the worker count (a sweep's
trial, a Monte Carlo check's case or instance, and for table2 and table3
a block of `BLOCK_SIZE` trials) and folds their results in task order, so
reports are byte-identical for any number of workers.  The worker count
comes from the PRUNELAB_WORKERS environment variable and affects wall time only.

Callers fold results as they arrive: `ordered_imap` yields each task's
result in task order as soon as it is ready, and the sweeps and table3 add
it to their running sums and drop it, so memory does not grow with the
trial count.  The sums take the same additions in the same order as a fold
over the finished list would, so the bits do not depend on when a result
arrives.  At most `2 * workers` tasks run or wait ahead of the consumer,
so a consumer that falls behind holds that many finished results at most.

Threading policy: every mapped task runs on one BLAS thread.
`ordered_imap` runs the whole map under `single_threaded_blas`, at every
worker count, so parallelism comes only from the worker threads, and the
BLAS thread count a task runs at never depends on PRUNELAB_WORKERS.
Workers are threads of one process; they overlap only inside numpy kernels
that release the interpreter lock, and those kernels may run on OpenBLAS,
which otherwise keeps a pool of one thread per core.  Two workers that each
call a multithreaded SVD ask a 2-core host for 4 threads: table2 at the
benchmark's sizes took as long at 2 workers as at 1 (5.9 vs 6.2 s), and
4.8 s at 1 worker and 3.0 s at 2 on one BLAS thread.  For n <= 512 the
SVD gives the same bits at 1 and 2 BLAS threads and is faster at 1 (1.1 vs
2.2 ms at n=128, 37 vs 43 ms at n=512).  cnn-sweep, the last kind to run on
all BLAS threads, went from 4.16 to 2.97 s of CPU per pass of the
benchmark's cnn-sweep workload at 1 worker on a 2-core host (medians of
10 alternating pairs), at 2.15 vs 2.26 s wall: its conv einsum's complex products lost
their second thread.  Its default config at 2 workers went from 32-34 to
23-24 s wall.
`np.linalg.svd` releases the interpreter lock only when one call returns
more than 500 singular values, so every SVD is a call of the one kernel,
`linalg.top_singular_values`, which stacks the matrices into calls past
that count.  Numpy's FFT and einsum release the lock: two threads of
`np.fft.rfft2` on a (256, 64, 8, 8) batch, one BLAS thread, ran at 1.9
times the speed of one, and the conv einsum on the same shapes at 2.1
times, so cnn-sweep's trials overlap in all three kernels.

The one exception is cnn-sweep's explicit-map SVD, a single 1024 x 1024
call in the default config.  From n=768 the SVD's last bits depend on the
BLAS thread count, so it runs inside `startup_blas_threads`, at the count
OpenBLAS had when this module first looked it up, before any cap: its
value is then the same at every worker count.  A module lock serialises
these calls and every change of the count, so only the lock holder changes
the count while workers run.  The other workers' BLAS calls in that window
may run at the start-up count too; their SVDs are all far below n=768, and
the cnn-sweep reports, one with a 1024 x 1024 explicit map among them, are
byte-identical at 1 and 2 workers.  The exception leaves with the
explicit-map column.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

from .config import ConfigError

__all__ = [
    "resolve_workers",
    "ordered_map",
    "ordered_imap",
    "trial_blocks",
    "single_threaded_blas",
    "startup_blas_threads",
    "BLOCK_SIZE",
]

_ENV_VAR = "PRUNELAB_WORKERS"
BLOCK_SIZE = 25

# (get, set) thread-count symbols, tried in order: the scipy-openblas build
# that numpy 2 wheels bundle, the 64-bit-integer build of older wheels, then
# plain OpenBLAS.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def resolve_workers() -> int:
    """PRUNELAB_WORKERS, an integer >= 1 (else a ConfigError); 1 when it is not set."""
    raw = os.environ.get(_ENV_VAR, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"{_ENV_VAR} must be an integer >= 1, got {raw!r}")
    return workers


def trial_blocks(trials: int) -> list[range]:
    """Fixed partition of range(trials) into BLOCK_SIZE blocks, independent
    of the worker count.  table3 sums its moments block by block, so the
    block size is part of its values: a constant, not a parameter."""
    return [range(lo, min(lo + BLOCK_SIZE, trials)) for lo in range(0, trials, BLOCK_SIZE)]


def ordered_imap(fn, items, workers: int):
    """Map preserving item order, on `workers` threads when there is more
    than one item, yielding each result as soon as it and every earlier one
    are ready.  Every call of fn runs on one BLAS thread, inside
    `single_threaded_blas`, which lasts until the map is consumed or closed.
    On one worker fn runs only as results are consumed; on more, at most
    `2 * workers` items are submitted ahead of the consumer."""
    items = list(items)
    with single_threaded_blas():
        if workers <= 1 or len(items) <= 1:
            yield from map(fn, items)
            return
        with ThreadPoolExecutor(max_workers=workers) as ex:
            pending = deque()
            try:
                for item in items:
                    pending.append(ex.submit(fn, item))
                    if len(pending) > 2 * workers:
                        yield pending.popleft().result()
                while pending:
                    yield pending.popleft().result()
            finally:
                # a raising task or an early close leaves nothing queued
                for future in pending:
                    future.cancel()


def ordered_map(fn, items, workers: int) -> list:
    """`ordered_imap` collected into a list."""
    return list(ordered_imap(fn, items, workers))


class _Blas(NamedTuple):
    get: Callable[[], int]
    set: Callable[[int], None]
    startup: int  # the count at the first lookup, before any cap


# Held while the thread count is read and set, and for the whole block of
# `startup_blas_threads`, so only the lock holder changes the count.
_BLAS_LOCK = threading.Lock()


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """The OpenBLAS library bundled with numpy, or None when there is none.
    Looked up on first use, not at import."""
    import numpy

    pkg = Path(numpy.__file__).resolve().parent
    # numpy.libs/ holds the Linux and Windows wheel libraries, .dylibs/ the macOS ones
    for path in sorted(pkg.parent.glob("numpy.libs/*openblas*")) + sorted(pkg.glob(".dylibs/*openblas*")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


@functools.cache
def _openblas_threads() -> _Blas | None:
    """Thread-count functions of the OpenBLAS bundled with numpy and the
    count it had at this first lookup, or None when there is none."""
    lib = _openblas()
    if lib is None:
        return None
    for get_name, set_name in _OPENBLAS_SYMBOLS:
        get = getattr(lib, get_name, None)
        set_ = getattr(lib, set_name, None)
        if get is None or set_ is None:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return _Blas(get, set_, get())
    return None


@contextmanager
def single_threaded_blas():
    """Run the block with numpy's OpenBLAS at one thread and restore the
    previous thread count afterwards, also when the block raises.

    The count is process-wide: `ordered_imap` enters this from the thread
    that starts the workers, so no worker changes it but the holder of the
    module lock.  A no-op when numpy carries no OpenBLAS this can find.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    with _BLAS_LOCK:
        previous = blas.get()
        blas.set(1)
    try:
        yield
    finally:
        with _BLAS_LOCK:
            blas.set(previous)


@contextmanager
def startup_blas_threads():
    """Run the block at the thread count numpy's OpenBLAS had at start-up,
    holding the module lock, and restore the previous count afterwards,
    also when the block raises.

    The one exception to the one-thread rule: cnn-sweep's explicit-map SVD,
    whose last bits depend on the thread count from n=768 (see the module
    docstring).  The block must not change the count itself.  A no-op when
    numpy carries no OpenBLAS this can find.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    with _BLAS_LOCK:
        previous = blas.get()
        blas.set(blas.startup)
        try:
            yield
        finally:
            blas.set(previous)
