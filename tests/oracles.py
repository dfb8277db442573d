"""Test oracles that the package itself never calls."""

import numpy as np


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
