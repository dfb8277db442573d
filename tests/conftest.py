"""Name the build the stream and digest pins ran on, in every log of this
suite: the stream's values depend on numpy's float64 ``log`` and ``cos``
loops and on the C library behind them, and the digest's also on the BLAS
library and the kernels it and numpy pick for the CPU.  The BLAS thread
count is not named: no pinned number depends on it."""

import platform

import numpy as np


def build_stamp() -> str:
    """One line naming everything the digest pins are known to depend on:
    numpy, its BLAS, the C library, the machine and whether the CPU has
    AVX-512."""
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
            f"{version}, machine {platform.machine()}, avx512f {avx512f}")


def pytest_report_header(config):
    return build_stamp()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q drops the header, so a quiet log names the build at its end
    if config.get_verbosity() < 0:
        terminalreporter.write_line(build_stamp())
