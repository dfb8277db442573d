"""Name the build the stream pins ran on, in every log of this suite: the
stream's values depend on numpy's float64 ``log`` and ``cos`` loops and on
the C library behind them."""

import platform

import numpy as np


def _build() -> str:
    libc, version = platform.libc_ver()
    return (f"numpy {np.__version__}, libc {libc or 'unknown'} {version}, "
            f"machine {platform.machine()}")


def pytest_report_header(config):
    return _build()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q drops the header, so a quiet log names the build at its end
    if config.get_verbosity() < 0:
        terminalreporter.write_line(_build())
