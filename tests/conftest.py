"""Session header: the numpy and BLAS build the reports' bits depend on.

The golden digests hold for one numpy build and one OpenBLAS core type.
cnn-sweep's widest explicit-map SVDs run outside every map, at the thread
count the process runs at, so their digests hold for one start-up thread
count too.  The header names all three, read through ctypes from the
OpenBLAS that numpy bundles, as `prunelab.parallel` finds it.
"""

import ctypes

import numpy as np
import pytest

from prunelab import parallel


def _call(lib, name: str, restype):
    fn = getattr(lib, name, None)
    if fn is None:
        return "unknown"
    fn.argtypes, fn.restype = [], restype
    value = fn()
    return value.decode().strip() if isinstance(value, bytes) else value


def openblas_core() -> str:
    """The name of the OpenBLAS core type this process runs, "unknown" when
    the library does not say, or "none" without a bundled OpenBLAS."""
    lib = parallel._openblas()
    return "none" if lib is None else _call(lib, "scipy_openblas_get_corename64_", ctypes.c_char_p)


@pytest.fixture(scope="session")
def blas_core() -> str:
    return openblas_core()


def pytest_report_header(config):
    lines = [f"numpy {np.__version__}"]
    lib = parallel._openblas()
    if lib is None:
        return lines + ["OpenBLAS: not found in the numpy wheel"]
    return lines + [
        f"OpenBLAS config: {_call(lib, 'scipy_openblas_get_config64_', ctypes.c_char_p)}",
        f"OpenBLAS core: {openblas_core()}",
        f"OpenBLAS threads at start-up: {_call(lib, 'scipy_openblas_get_num_threads64_', ctypes.c_int)}",
    ]
