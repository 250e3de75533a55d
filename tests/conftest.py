"""Session header: the numpy version and the OpenBLAS kernel in use, on which the golden digests depend."""

import ctypes
import glob
import os

import numpy


def _openblas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS chose at run time (``OPENBLAS_CORETYPE`` overrides it)."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "libscipy_openblas64_*.so"))
    if not libs:
        return "unknown"
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def pytest_report_header(config):
    return f"numpy {numpy.__version__}, OpenBLAS kernel: {_openblas_kernel()}"
