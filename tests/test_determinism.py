"""Golden values pinning the stream and one short trajectory per family.

What is bit-identical: stream values.  Each is a SplitMix64 hash pushed
through libm's ``log``, an IEEE ``sqrt`` and libm's ``cos``.  In blocks
they come from numpy's float64 ``log`` into a reversed output and its
``cos``, whose scalar loops call libm's on the one build measured (numpy
2.4.6, glibc 2.36, AVX-512); ``tests/test_numcore.py`` names both
equalities.  So a value is the same double on every machine whose libm
rounds ``log`` and ``cos`` the same way and whose numpy sends these calls
to libm, and independent of how draws are batched.  The stream pins
compare ``float.hex`` strings.

What is identical only to rounding: trajectories.  A step multiplies
``U``, ``Z`` and ``V`` with BLAS, whose summation order depends on the
numpy build and the CPU, and the problems evaluate their losses with
matmuls too.  The trajectory pins therefore compare at ``rtol=1e-9``; a
change in the perturbation draws, the pass sequence or the update rule
moves them by far more than that.

What the BLAS thread count moves: nothing pinned, on the build measured.
There the one number that moved with it was the quadratic's ``H``, a BLAS
product at d = 100, and ``QuadraticProblem.generate`` now forms ``H`` in
numpy's own ``einsum`` loop.  ``tools/digest.py`` prints the same bytes
under the default thread count and under ``OPENBLAS_NUM_THREADS=1`` and
``=4``, so a build has one digest pin whatever its thread count.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import build_stamp
from subzero import (GaussianStream, OptimizerConfig, QuadraticProblem,
                     numcore, stack_params, train)

STREAM_PINS = {
    0: ("-0x1.1cc5092122682p-3", "-0x1.46e5a527ea622p+1", "-0x1.854471a94fb19p-6"),
    7: ("-0x1.274cf9737a9adp-2", "0x1.257f223013240p-1", "0x1.e09b59b82c4d8p-2"),
    2 ** 64 - 1: ("-0x1.51914a245a409p-1", "-0x1.ec9744cc806bdp-2",
                  "-0x1.b3282134fb33fp-2"),
}
STREAM_INDICES = (0, 1, 1000)

# (last loss_plus, last rho, final validation loss, ||final params||^2)
TRAJECTORY_PINS = {
    "subzero": (0.37753780529483, 0.07754271041704452,
                0.37741392510742244, 0.8711522814056665),
    "spsa_full": (0.4293663570405213, 0.7829487197779927,
                  0.4257746676144405, 0.9235948032661684),
    "spsa_dense_subspace": (0.4703474312956311, 3.390474716726682,
                            0.47945636237514533, 1.6602069390893799),
    "exact_sgd": (0.37767181909266095, float("nan"),
                  0.3729417715229347, 0.8294829676363179),
}
# the (8, 2) layer cannot hold rank 4 natively, so subzero relayouts it to
# 4x4; scale_z exercises the per-layer core scales
FAMILY_OPTIONS = {
    "subzero": dict(rank=4, alignment="scale_z"),
    "spsa_full": {},
    "spsa_dense_subspace": dict(dense_q=8),
    "exact_sgd": {},
}


@pytest.mark.parametrize("seed", sorted(STREAM_PINS))
def test_stream_values_are_pinned(seed):
    expected = STREAM_PINS[seed]
    single = GaussianStream(seed)
    assert tuple(single.normal_at(j).hex() for j in STREAM_INDICES) == expected
    batch = GaussianStream(seed).normals(STREAM_INDICES[-1] + 1)
    assert tuple(float(batch[j]).hex() for j in STREAM_INDICES) == expected


def test_the_cli_stream_check_compares_these_pins():
    assert numcore._PINNED == STREAM_PINS
    assert numcore._PINNED_AT == STREAM_INDICES
    assert numcore.stream_check() == "ok"


@pytest.mark.parametrize("family", sorted(TRAJECTORY_PINS))
def test_twenty_step_trajectory_is_pinned(family):
    problem = QuadraticProblem.generate(5, [(6, 6), (8, 2), (5,)], dataset_size=32)
    config = OptimizerConfig(family=family, steps=20, batch_size=8,
                             learning_rate=0.005, epsilon=1e-3,
                             refresh_period=7, master_seed=3,
                             **FAMILY_OPTIONS[family])
    record = train(problem, config)
    x = stack_params(record.final_params)
    last = record.steps[-1]
    got = (last.loss_plus, last.rho, record.validation[-1][1], float(x @ x))
    np.testing.assert_allclose(got, TRAJECTORY_PINS[family], rtol=1e-9)


DIGEST = Path(__file__).resolve().parents[1] / "tools" / "digest.py"
# the variables OpenBLAS reads its thread count from
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_digest(threads=None) -> subprocess.Popen:
    """tools/digest.py started in a subprocess under ``threads`` OpenBLAS
    threads, or under OpenBLAS's default with ``None``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.Popen([sys.executable, str(DIGEST)], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def digest_output(proc: subprocess.Popen) -> str:
    out, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err
    return out


@pytest.fixture(scope="module")
def default_digest() -> str:
    """tools/digest.py's output under OpenBLAS's default thread count."""
    return digest_output(run_digest())


def test_blas_thread_count_moves_no_trajectory(default_digest):
    procs = [run_digest(threads) for threads in ("1", "4")]
    assert [digest_output(proc) for proc in procs] == [default_digest] * 2


# tools/digest.py's output, keyed by the build stamp it was measured under
# (conftest.build_stamp); it depends on the numpy, libm and BLAS build and
# on the BLAS kernel, not on the BLAS thread count under the kernel pinned
# (under Haswell's, monte_carlo and diagnostics do move with the thread
# count, and that is not pinned).  Re-keyed with the same hashes when the
# stamp began to name the kernel.  A change that moves a section on purpose
# updates its pin here and says why.  Last moves: quadratic, monte_carlo
# and diagnostics when QuadraticProblem.generate formed H with einsum in
# place of a BLAS product (H moved by rounding); train_mlp_fullspace when
# it gained 20 spsa_dense_subspace steps, and monte_carlo when it gained
# the small convergence cell's hitting times; combined with them.
DIGEST_PINS = {
    "numpy 2.4.6, blas scipy-openblas 0.3.31.188.0, libc glibc 2.36, "
    "machine x86_64, avx512f yes, blas core SkylakeX": {
        "train_mlp_wide": "3a79cc6128d5cbdbca41a334822626580c1b693682b4a50aa3b2e075baa0ffc4",
        "train_mlp_fullspace":
            "9d61b4046aba9a74d04ebc8b46aae1be3ef2cdb1d8189010d39eb3ddc145171a",
        "quadratic": "dee84aff898fd663a4d8a0e3fa830af2235d1435973fd5dd1cdeac05383dcecc",
        "monte_carlo": "402cb8e37e0cedee63ed187742f7bc669b56669ab2332721e050a1ab81832a55",
        "diagnostics": "02d177b5c5e7c45ca84adafd25a843985ece2504fa90f3e3e62886c4e5295edb",
        "exact_sgd": "441ce35e67a53852ab4974668fe84f4c6b8472f19f31189147c8c408f48fc32f",
        "combined": "b7a434e683b233dd6722c5487f0aa06142e902a67e32d53bc6745a50353f8d3b",
    },
}


def test_digest_tool_prints_six_sections_and_a_combined_hash(default_digest):
    # tools/digest.py is what every bit-identity claim cites; its output is
    # compared with the pin of this build, if one is recorded
    *sections, combined = default_digest.splitlines()
    assert [line.split()[0] for line in sections] == [
        "train_mlp_wide", "train_mlp_fullspace", "quadratic", "monte_carlo",
        "diagnostics", "exact_sgd"]
    assert all(re.fullmatch("[0-9a-f]{64}", line.split()[1]) for line in sections)
    assert re.fullmatch("[0-9a-f]{64}", combined)
    stamp = build_stamp()
    if stamp not in DIGEST_PINS:
        pytest.skip(f"no digest pin for the build {stamp!r}")
    assert {**dict(line.split() for line in sections),
            "combined": combined} == DIGEST_PINS[stamp]
