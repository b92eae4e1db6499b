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

Threading policy, one rule: every mapped task runs on one BLAS thread,
and code outside a map runs at the thread count of its caller, as
cnn-sweep's explicit-map SVDs do before its trials: from n=768 an SVD's
last bits depend on that count, the same at every worker count.
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
10 alternating pairs), at 2.15 vs 2.26 s wall: its conv products lost
their second thread.  Its default config at 2 workers went from 32-34 to
23-24 s wall.
`np.linalg.svd` releases the interpreter lock only when one call returns
more than 500 singular values, so every SVD is a call of the one kernel,
`linalg.top_singular_values`, which stacks the matrices into calls past
that count.  Numpy's FFT and matmul release the lock: two threads of
`np.fft.rfft2` on a (256, 64, 8, 8) batch, one BLAS thread, ran at 1.9
times the speed of one, and the conv product on the same shapes at 2.1
times, so cnn-sweep's trials overlap in all three kernels.
"""

from __future__ import annotations

import ctypes
import functools
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from .config import ConfigError

__all__ = [
    "resolve_workers",
    "ordered_map",
    "ordered_imap",
    "trial_blocks",
    "single_threaded_blas",
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
def _openblas_threads() -> tuple | None:
    """The (get, set) thread-count functions of the OpenBLAS bundled with
    numpy, or None when there is none."""
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
        return get, set_
    return None


@contextmanager
def single_threaded_blas():
    """Run the block with numpy's OpenBLAS at one thread and restore the
    previous thread count afterwards, also when the block raises.

    The count is process-wide: `ordered_imap` enters this from the thread
    that starts the workers, so no worker changes it.  A no-op when numpy
    carries no OpenBLAS this can find.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)
