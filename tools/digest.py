"""Bit-identity digest of the package's numbers.

Hashes the per-step probe losses, rho values and final parameters of 60
steps of the ``train_mlp_wide`` benchmark config and 20 of
``train_mlp_fullspace``'s, under ``spsa_full`` and then
``spsa_dense_subspace``; a ``scale_z`` and a ``spsa_dense_subspace`` run
on a small quadratic; ``check_second_moment`` for ``subzero`` and
``spsa_full``, ``run_default_battery(n_mc=300, n_mc_bias=300)`` and the
small convergence cell's hitting times; ``spsa_dense_subspace``
diagnostics on the battery's ordering cell, and diagnostics of all three
estimator families on a small MLP and a small logistic problem, which
have no row-wise ``losses``; and last 60 steps of ``train_mlp_wide``'s
config under ``exact_sgd``.  A change that keeps every value bit for bit
prints the same digest.

It prints one sha256 per section (the two benchmark problems' runs, the
quadratic runs, the Monte Carlo reports and hitting times, the
diagnostics, the exact SGD run), then the combined digest of all
sections' bytes in that order as its last line.  The reports are hashed
as the ``repr`` of one list, cut where the diagnostics begin.

Run from the root of a checkout:

    python3 tools/digest.py

The hashes depend on the build (numpy, BLAS, C library, CPU), so the
script first writes one line naming it, the line tier-1's pin is keyed
by, to standard error; standard output holds only the hashes.  They do
not depend on the BLAS thread count: ``tests/test_determinism.py``
compares the output under the default thread count with the output under
``OPENBLAS_NUM_THREADS=1`` and ``=4``, byte for byte.
"""
import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import subzero as sz  # noqa: E402
from subzero import cli, verification  # noqa: E402
import workloads  # noqa: E402
from conftest import build_stamp  # noqa: E402

print(build_stamp(), file=sys.stderr)
combined = hashlib.sha256()
sections = {}


def feed(section, data):
    combined.update(data)
    sections.setdefault(section, hashlib.sha256()).update(data)


def run(section, problem, config):
    state = sz.init_state(problem, config)
    for _ in range(config.steps):
        rec = sz.step(problem, state, config)
        for x in (rec.loss_plus, rec.loss_minus, rec.rho):
            feed(section, np.ascontiguousarray(x, dtype=np.float64).tobytes())
    for w in state.params:
        feed(section, np.ascontiguousarray(w, dtype=np.float64).tobytes())


for name, steps, family in (("train_mlp_wide", 60, "subzero"),
                            ("train_mlp_fullspace", 20, "spsa_full"),
                            ("train_mlp_fullspace", 20, "spsa_dense_subspace")):
    spec, config = workloads.WORKLOADS[name].configure(1)
    run(name, cli.build_problem(spec),
        dataclasses.replace(config, steps=steps, family=family))
quad = sz.QuadraticProblem.generate(4, [(6, 6), (8, 2), (5,)], dataset_size=32)
for extra in (dict(family="subzero", rank=2, alignment="scale_z"),
              dict(family="spsa_dense_subspace", dense_q=8)):
    run("quadratic", quad, sz.OptimizerConfig(steps=30, batch_size=8, learning_rate=0.01,
                                              master_seed=9, **extra))
problem, params, pairs = verification.battery_cell(((3, 2), (3, 2)), 1, 11)
monte_carlo = [sz.check_second_moment(problem, pairs, params, 500, family=f)
               for f in ("subzero", "spsa_full")]
monte_carlo += sz.run_default_battery(n_mc=300, n_mc_bias=300)
# the small convergence cell: hits 681, 340 and 167 steps
problem = sz.QuadraticProblem.generate(34, [(6, 6)])
monte_carlo += verification.convergence_hitting_times(
    problem, verification._pinned_pairs(problem.initial_params(), 2, 3), [0.1, 0.05, 0.025],
    sz.ConvergenceConfig(rank=2, runs=6, step_cap=30_000, master_seed=3))
# the battery's variance-ordering cell (seed 11 + 4), through the dense family
problem, params, _ = verification.battery_cell(((10, 10),), 2, 15)
diagnostics = [sz.estimator_diagnostics(problem, params, "spsa_dense_subspace",
                                        300, dense_q=8)]
for problem in (sz.MlpProblem.generate(5, dataset_size=64),
                sz.LogisticProblem.generate(6, (4, 5), dataset_size=64)):
    params = problem.initial_params()
    pairs = sz.build_pairs(sz.GaussianStream(7), params, 2)
    diagnostics += [sz.estimator_diagnostics(problem, params, family, 100,
                                             pairs=pairs, dense_q=6)
                    for family in ("subzero", "spsa_full", "spsa_dense_subspace")]
text = repr(monte_carlo + diagnostics).encode()
cut = len(repr(monte_carlo)) - 1   # the list's repr up to its closing bracket
feed("monte_carlo", text[:cut])
feed("diagnostics", text[cut:])
spec, config = workloads.WORKLOADS["train_mlp_wide"].configure(1)
run("exact_sgd", cli.build_problem(spec),
    dataclasses.replace(config, steps=60, family="exact_sgd"))
for name, section in sections.items():
    print(f"{name:20} {section.hexdigest()}")
print(combined.hexdigest())
