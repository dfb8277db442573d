"""Golden values pinning the stream and one short trajectory per family.

What is bit-identical: stream values.  Each is a SplitMix64 hash pushed
through ``math.log``, ``math.sqrt`` and ``math.cos``, so it is the same
double on every machine whose libm rounds those three the same way, and
independent of how draws are batched.  The stream pins compare
``float.hex`` strings.

What is identical only to rounding: trajectories.  A step multiplies
``U``, ``Z`` and ``V`` with BLAS, whose summation order depends on the
numpy build and the CPU, and the problems evaluate their losses with
matmuls too.  The trajectory pins therefore compare at ``rtol=1e-9``; a
change in the perturbation draws, the pass sequence or the update rule
moves them by far more than that.
"""

import numpy as np
import pytest

from subzero import (GaussianStream, OptimizerConfig, QuadraticProblem,
                     stack_params, train)

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
