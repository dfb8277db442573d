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

What the BLAS thread count moves: on one numpy build and CPU, training
trajectories and convergence hitting times are bit-identical under one
and two OpenBLAS threads, and a Monte Carlo report moves by rounding only
(9e-16 relative on the battery's ``variance_ordering`` row, when measured).
"""

import json
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


# 20 steps of each family with train_mlp_wide's settings (spsa_full and
# spsa_dense_subspace draw d stream values a pass, so they train on
# train_mlp_fullspace's problem), the small convergence cell's hits, and
# the battery's variance-ordering estimate
THREADS_SCRIPT = """
import hashlib, json
import numpy as np
import subzero as sz
from subzero import cli
from subzero.verification import convergence_hitting_times

h = hashlib.sha256()
wide = cli.build_problem(cli.ProblemSpec(family="mlp", n_features=512, hidden=(512,),
                                         n_outputs=8, dataset_size=256))
small = cli.build_problem(cli.ProblemSpec(family="mlp", n_features=64, hidden=(64,),
                                          n_outputs=16, dataset_size=256))
for problem, family in ((wide, "subzero"), (wide, "exact_sgd"),
                        (small, "spsa_full"), (small, "spsa_dense_subspace")):
    config = sz.OptimizerConfig(family=family, steps=20, batch_size=32, rank=16,
                                learning_rate=5e-3, epsilon=1e-3, refresh_period=50)
    state = sz.init_state(problem, config)
    for _ in range(config.steps):
        rec = sz.step(problem, state, config)
        h.update(np.array([rec.loss_plus, rec.loss_minus, rec.rho]).tobytes())
    for w in state.params:
        h.update(np.ascontiguousarray(w).tobytes())
problem = sz.QuadraticProblem.generate(34, [(6, 6)])
pairs = sz.build_pairs(sz.GaussianStream(sz.derive_seed(3, 0x64, 0)),
                       problem.initial_params(), 2, reshape="never")
cfg = sz.ConvergenceConfig(rank=2, runs=6, step_cap=30_000, master_seed=3)
cells = convergence_hitting_times(problem, pairs, [0.1, 0.05, 0.025], cfg)
ordering = [r.estimate for r in sz.run_default_battery(n_mc=300, n_mc_bias=300)
            if r.check == "variance_ordering"]
print(json.dumps({"hash": h.hexdigest(), "hits": [c.hit for c in cells],
                  "variance_ordering": ordering[0]}))
"""


def test_blas_thread_count_moves_no_trajectory():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    # the thread count is set in the two subprocesses' environment only
    procs = [subprocess.Popen([sys.executable, "-c", THREADS_SCRIPT],
                              env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                                       PYTHONPATH=path),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for threads in ("1", "2")]
    results = []
    for proc in procs:
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
        results.append(json.loads(out))
    one, two = results
    assert one["hash"] == two["hash"]
    assert one["hits"] == two["hits"] == [681, 340, 167]
    assert one["variance_ordering"] == pytest.approx(two["variance_ordering"],
                                                     rel=1e-12, abs=0.0)


# tools/digest.py's output, keyed by the build stamp it was measured under
# (conftest.build_stamp).  Its hashes depend on the numpy, libm and BLAS
# build and on the BLAS thread count: under OPENBLAS_NUM_THREADS=1 the
# monte_carlo and diagnostics sections move.  A change that moves a section
# on purpose updates its pin here and says why.  monte_carlo last moved when
# the expectation check's target became the layer-wise P P^T grad in place
# of the materialized projector's product: its three expectation_identity
# rows moved in their last digits (under 1e-15 relative), no pass changed.
DIGEST_PINS = {
    "numpy 2.4.6, blas scipy-openblas 0.3.31.188.0, libc glibc 2.36, "
    "machine x86_64, avx512f yes, cpus 2": {
        "train_mlp_wide": "3a79cc6128d5cbdbca41a334822626580c1b693682b4a50aa3b2e075baa0ffc4",
        "train_mlp_fullspace":
            "9587fe1e18c260c16fc69387e45fbc32411e07b5999c89b60a70a84063dfcca4",
        "quadratic": "3aa83482800392f0dc1a39efe40e322efa19d1d777c3357804d30ddd713c2ca9",
        "monte_carlo": "f9dc666cf9de62854128f70f373829ce2675f3e9ac170f3c10c566eb13c4e91c",
        "diagnostics": "6b92f20f8ff19a930b3d72d23070d0e0e13a99d53a589ef5f9189c5c8f51afcd",
        "exact_sgd": "441ce35e67a53852ab4974668fe84f4c6b8472f19f31189147c8c408f48fc32f",
        "combined": "6f95ce0d2156a88cdb53ad5c5ffb2f42737a327374d13833bea1957630a50ba5",
    },
    "numpy 2.4.6, blas scipy-openblas 0.3.31.188.0, libc glibc 2.36, "
    "machine x86_64, avx512f yes, cpus 2, OPENBLAS_NUM_THREADS=1": {
        "train_mlp_wide": "3a79cc6128d5cbdbca41a334822626580c1b693682b4a50aa3b2e075baa0ffc4",
        "train_mlp_fullspace":
            "9587fe1e18c260c16fc69387e45fbc32411e07b5999c89b60a70a84063dfcca4",
        "quadratic": "3aa83482800392f0dc1a39efe40e322efa19d1d777c3357804d30ddd713c2ca9",
        "monte_carlo": "570664a1a31bb3535082226fe8f67ce001ac4b67393e34839ec1d41c15da313b",
        "diagnostics": "a6082a44117626da326865f84760305e61566a88e9dac5242c296d93b9ef275c",
        "exact_sgd": "441ce35e67a53852ab4974668fe84f4c6b8472f19f31189147c8c408f48fc32f",
        "combined": "8c1e1a8145741e9f169f6025541030459cf60974bc50f83c24bdde63460e743f",
    },
}


def test_digest_tool_prints_six_sections_and_a_combined_hash():
    # tools/digest.py is what every bit-identity claim cites; its output is
    # compared with the pin of this build, if one is recorded
    digest = Path(__file__).resolve().parents[1] / "tools" / "digest.py"
    proc = subprocess.run([sys.executable, str(digest)], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    *sections, combined = proc.stdout.splitlines()
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
