"""Test oracles that the package itself never calls."""

from dataclasses import replace

import numpy as np

from subzero import (OptimizerConfig, derive_seed, full_batch, init_state,
                     iter_perturbation_layers, stack_params, step,
                     subspace_dimension, subzero_estimate,
                     theoretical_step_size)
from subzero.estimators import (_dense_direction, _split_rowmajor,
                                dense_subspace_probe)
from subzero.problems import Minibatch
from subzero.verification import subspace_start


def fd_gradient(problem, params: list[np.ndarray], batch,
                delta: float = 1e-6) -> list[np.ndarray]:
    """Central-difference gradient of ``problem.loss`` per parameter entry,
    with step ``delta``.

    Slow by construction (two loss evaluations per entry); intended as an
    independent oracle for analytic gradients on desk-scale problems, not
    for use inside training loops.
    """
    if delta <= 0.0:
        raise ValueError("finite difference step must be positive")
    work = [np.array(w, dtype=np.float64) for w in params]
    grads = []
    for w in work:
        g = np.empty_like(w)
        flat_w = w.reshape(-1)
        flat_g = g.reshape(-1)
        for j in range(flat_w.size):
            orig = flat_w[j]
            flat_w[j] = orig + delta
            lp = problem.loss(work, batch)
            flat_w[j] = orig - delta
            lm = problem.loss(work, batch)
            flat_w[j] = orig
            flat_g[j] = (lp - lm) / (2.0 * delta)
        grads.append(g)
    return grads


def loop_estimates(problem, params, pairs, n_mc: int, epsilon: float, seed: int,
                   dense_q=None, first: int = 0):
    """The per-sample reference for ``verification._estimates``, with the
    same signature and sample order: sample ``k`` runs the estimator once,
    on a fresh copy of the parameters, and its perturbation is replayed
    from the seed.  Yields one block ``(rho, delta)``."""
    batch = full_batch(problem)
    rho = np.empty(n_mc)
    delta = np.empty((n_mc, sum(w.size for w in params)))
    for i in range(n_mc):
        s = derive_seed(seed, 0x61, first + i)
        work = [w.copy() for w in params]
        if dense_q is None:
            ld, _ = subzero_estimate(problem, work, pairs, batch, epsilon, s)
            layers = list(iter_perturbation_layers(params, pairs, s))
        else:
            ld, _ = dense_subspace_probe(problem, work, batch, epsilon, dense_q, s)
            layers = _split_rowmajor(_dense_direction(params, dense_q, s, None), params)
        rho[i] = ld.rho
        delta[i] = stack_params(layers)
    yield rho, delta


def loop_states(problem, pairs, x0, eta: float, cfg):
    """The per-run reference for ``verification._run_positions``: one
    pinned-pair ``subzero`` trainer per run, each with its own master seed,
    advanced by ``optimizer.step`` in run order.  Yields the list of trainer
    states after 0, 1, 2, ... steps."""
    base = OptimizerConfig(family="subzero", batch_size=cfg.batch_size,
                           learning_rate=eta, schedule="constant",
                           epsilon=cfg.epsilon, rank=cfg.rank)
    runs = [replace(base, master_seed=derive_seed(cfg.master_seed, 0x63, j))
            for j in range(cfg.runs)]
    states = [init_state(problem, run, params=x0, pairs=list(pairs)) for run in runs]
    while True:
        yield states
        for state, run in zip(states, runs):
            step(problem, state, run)


def loop_hitting_times(problem, pairs, targets, cfg) -> list:
    """The per-run reference for ``verification.convergence_hitting_times``:
    the same start, step size, targets and stopping rule, with each run's
    probe loss evaluated by ``problem.loss`` and summed in run order.
    Returns the hits, tightest target first."""
    targets = sorted(float(t) for t in targets)
    q = subspace_dimension(problem.initial_params(), pairs)
    eta = theoretical_step_size(q, problem.smoothness)
    x0 = subspace_start(problem, pairs, derive_seed(cfg.master_seed, 0x62, q),
                        cfg.start_value)
    probe = Minibatch(indices=np.zeros(1, dtype=np.int64))
    hits = {}
    total = 0.0
    for n, states in zip(range(cfg.step_cap + 1), loop_states(problem, pairs, x0, eta, cfg)):
        loss = 0.0
        for state in states:
            loss += problem.loss(state.params, probe)
        total += loss / cfg.runs
        for t in targets:
            if t not in hits and total / (n + 1) <= t:
                hits[t] = n
        if targets[0] in hits:
            break
    return [hits.get(t) for t in targets]
