"""Test oracles that the package itself never calls."""

import numpy as np

from subzero import (derive_seed, full_batch, iter_perturbation_layers,
                     stack_params, subzero_estimate)
from subzero.estimators import (_dense_direction, _split_rowmajor,
                                dense_subspace_probe)


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
