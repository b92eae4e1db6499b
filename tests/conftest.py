"""Session header: the numpy and BLAS build the reports' bits depend on.

The golden digests hold for one numpy build and one OpenBLAS core type, and
cnn-sweep's widest explicit-map SVDs for one start-up thread count too, so
the header names all three, read through ctypes from the OpenBLAS that
numpy bundles.
"""

import ctypes
from pathlib import Path

import numpy as np


def _openblas() -> ctypes.CDLL | None:
    # numpy.libs/ holds the Linux and Windows wheel libraries, .dylibs/ the macOS ones
    pkg = Path(np.__file__).resolve().parent
    for path in sorted(pkg.parent.glob("numpy.libs/*openblas*")) + sorted(pkg.glob(".dylibs/*openblas*")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


def _call(lib, name: str, restype):
    fn = getattr(lib, name, None)
    if fn is None:
        return "unknown"
    fn.argtypes, fn.restype = [], restype
    value = fn()
    return value.decode().strip() if isinstance(value, bytes) else value


def pytest_report_header(config):
    lines = [f"numpy {np.__version__}"]
    lib = _openblas()
    if lib is None:
        return lines + ["OpenBLAS: not found in the numpy wheel"]
    return lines + [
        f"OpenBLAS config: {_call(lib, 'scipy_openblas_get_config64_', ctypes.c_char_p)}",
        f"OpenBLAS core: {_call(lib, 'scipy_openblas_get_corename64_', ctypes.c_char_p)}",
        f"OpenBLAS threads at start-up: {_call(lib, 'scipy_openblas_get_num_threads64_', ctypes.c_int)}",
    ]
