"""Bit-identity digest of the package's numbers.

Hashes the per-step probe losses, rho values and final parameters of 60
steps of the ``train_mlp_wide`` benchmark config and 20 of
``train_mlp_fullspace``'s, a ``scale_z`` and a ``spsa_dense_subspace`` run
on a small quadratic, ``check_second_moment`` for ``subzero`` and
``spsa_full``, ``run_default_battery(n_mc=300, n_mc_bias=300)``, and
``spsa_dense_subspace`` diagnostics on the battery's ordering cell, and
diagnostics of all three estimator families on a small MLP and a small
logistic problem, which have no row-wise ``losses``.  A change that keeps
every value bit for bit prints the same digest.

Run from the root of a checkout:

    PYTHONPATH=src:perfbench python3 tools/digest.py
"""
import dataclasses
import hashlib

import numpy as np

import subzero as sz
from subzero import cli, verification
import workloads

h = hashlib.sha256()


def feed(*xs):
    for x in xs:
        h.update(np.ascontiguousarray(x, dtype=np.float64).tobytes())


def run(problem, config):
    state = sz.init_state(problem, config)
    for _ in range(config.steps):
        rec = sz.step(problem, state, config)
        feed(rec.loss_plus, rec.loss_minus, rec.rho)
    feed(*state.params)


for name, steps in (("train_mlp_wide", 60), ("train_mlp_fullspace", 20)):
    spec, config = workloads.WORKLOADS[name].configure(1)
    run(cli.build_problem(spec), dataclasses.replace(config, steps=steps))
quad = sz.QuadraticProblem.generate(4, [(6, 6), (8, 2), (5,)], dataset_size=32)
for extra in (dict(family="subzero", rank=2, alignment="scale_z"),
              dict(family="spsa_dense_subspace", dense_q=8)):
    run(quad, sz.OptimizerConfig(steps=30, batch_size=8, learning_rate=0.01,
                                 master_seed=9, **extra))
problem, params, pairs = verification.battery_cell(((3, 2), (3, 2)), 1, 11)
reports = [sz.check_second_moment(problem, pairs, params, 500, family=f)
           for f in ("subzero", "spsa_full")]
reports += sz.run_default_battery(n_mc=300, n_mc_bias=300)
# the battery's variance-ordering cell (seed 11 + 4), through the dense family
problem, params, _ = verification.battery_cell(((10, 10),), 2, 15)
reports.append(sz.estimator_diagnostics(problem, params, "spsa_dense_subspace",
                                        300, dense_q=8))
for problem in (sz.MlpProblem.generate(5, dataset_size=64),
                sz.LogisticProblem.generate(6, (4, 5), dataset_size=64)):
    params = problem.initial_params()
    pairs = sz.build_pairs(sz.GaussianStream(7), params, 2)
    reports += [sz.estimator_diagnostics(problem, params, family, 100,
                                         pairs=pairs, dense_q=6)
                for family in ("subzero", "spsa_full", "spsa_dense_subspace")]
h.update(repr(reports).encode())
print(h.hexdigest())
