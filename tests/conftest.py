"""Name the build the stream and digest pins ran on, in every log of this
suite: the stream's values depend on numpy's float64 ``log`` and ``cos``
loops and on the C library behind them, and the digest's also on the BLAS
library and the kernels it and numpy pick for the CPU.  The stamp names
the kernel OpenBLAS picked (``OPENBLAS_CORETYPE`` overrides it), so a run
under another kernel finds no pin instead of failing against this one's.
The BLAS thread count is not named: on the kernel pinned, no pinned number
depends on it."""

import ctypes
import platform

import numpy as np


def blas_core() -> str:
    """The kernel numpy's OpenBLAS runs, e.g. ``SkylakeX``, or ``unknown``
    when its library does not export ``scipy_openblas_get_corename64_``."""
    try:
        corename = ctypes.CDLL(np._core._multiarray_umath.__file__
                               ).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def build_stamp() -> str:
    """One line naming everything the digest pins are known to depend on:
    numpy, its BLAS, the C library, the machine, whether the CPU has
    AVX-512 and the BLAS kernel."""
    libc, version = platform.libc_ver()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            avx512f = "yes" if "avx512f" in fh.read().split() else "no"
    except OSError:
        avx512f = "unknown"
    return (f"numpy {np.__version__}, blas {blas}, libc {libc or 'unknown'} "
            f"{version}, machine {platform.machine()}, avx512f {avx512f}, "
            f"blas core {blas_core()}")


def pytest_report_header(config):
    return build_stamp()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q drops the header, so a quiet log names the build at its end
    if config.get_verbosity() < 0:
        terminalreporter.write_line(build_stamp())
