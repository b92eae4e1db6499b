"""Deterministic trial-level parallelism and the BLAS threading policy.

Work is split into fixed-size blocks that do not depend on the worker
count, and block results are folded in block order, so reports are
byte-identical for any number of workers.  The worker count comes from the
PRUNELAB_WORKERS environment variable and affects wall time only.

Threading policy.  Workers are threads of one process.  They overlap only
inside numpy kernels that release the interpreter lock, and those kernels
may run on OpenBLAS, which keeps its own pool of one thread per core.
`np.linalg.svd` releases the lock only when one call returns more than 500
singular values: a lone SVD of n <= 500 keeps every other worker waiting,
so the norms go through `linalg.top_singular_values`, which stacks such
matrices into calls past that count.  Two workers that each call a
multithreaded SVD ask a 2-core host for 4 threads, and table2 at the
benchmark's sizes took as long at 2 workers as at 1 (5.9 vs 6.2 s).  The
Monte Carlo norm estimators therefore run their trial blocks under
`single_threaded_blas` at every worker count, so parallelism comes only
from trial blocks; that table2 run then took 4.8 s at 1 worker and 3.0 s at
2.  For n <= 512 the SVD gives the same bits at 1 and 2 BLAS threads and is
faster at 1 (1.1 vs 2.2 ms at n=128, 37 vs 43 ms at n=512).  fcn-sweep runs
its trials under the same cap, one trial per block: its weight matrices are
at most a few hundred wide (256 in the default config), where the SVDs and
forward-pass products give the same bits at 1 and 2 BLAS threads, and one
BLAS thread per trial thread keeps 2 workers from asking for 4 threads.
The cap is not applied inside `ordered_map`: from n=768 the SVD's last bits
depend on the BLAS thread count, so a cap that followed the worker count
would break byte-identity across worker counts, and such single large calls
(the 1024 x 1024 explicit-map SVD of cnn-sweep: 286 vs 380 ms) are faster on
all BLAS threads.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "resolve_workers",
    "ordered_map",
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


def resolve_workers(explicit: int | None = None) -> int:
    """Explicit argument wins; otherwise PRUNELAB_WORKERS; otherwise 1."""
    if explicit is not None:
        return max(1, int(explicit))
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return 1
    try:
        return max(1, int(raw))
    except ValueError as exc:
        raise ValueError(f"{_ENV_VAR} must be an integer, got {raw!r}") from exc


def trial_blocks(trials: int, block_size: int = BLOCK_SIZE) -> list[range]:
    """Fixed partition of range(trials) into blocks (independent of workers)."""
    return [range(lo, min(lo + block_size, trials)) for lo in range(0, trials, block_size)]


def ordered_map(fn, items, workers: int) -> list:
    """Map preserving item order, on `workers` threads when there is more
    than one item.  It leaves the BLAS thread count alone: callers whose
    items are small BLAS calls wrap it in `single_threaded_blas`."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS bundled with numpy,
    or None when there is none.  Looked up on first use, not at import."""
    import numpy

    pkg = Path(numpy.__file__).resolve().parent
    # numpy.libs/ holds the Linux and Windows wheel libraries, .dylibs/ the macOS ones
    for path in sorted(pkg.parent.glob("numpy.libs/*openblas*")) + sorted(pkg.glob(".dylibs/*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is None or set_ is None:
                continue
            get.argtypes = []
            get.restype = ctypes.c_int
            set_.argtypes = [ctypes.c_int]
            set_.restype = None
            return get, set_
    return None


@contextmanager
def single_threaded_blas():
    """Run the block with numpy's OpenBLAS at one thread and restore the
    previous thread count afterwards, also when the block raises.

    The count is process-wide, so enter this from the thread that starts
    the workers, not from inside them.  A no-op when numpy carries no
    OpenBLAS this can find.
    """
    funcs = _openblas_threads()
    if funcs is None:
        yield
        return
    get, set_ = funcs
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)
