"""Two-point gradient estimators: full-space, dense-subspace and low-rank.

All three share the same probe: perturb the parameters in place by
``+epsilon``, evaluate, swing to ``-epsilon`` in one pass, evaluate again,
then restore.  The scalar

    rho = (loss_plus - loss_minus) / (2 * epsilon)

multiplies the perturbation direction to form the gradient estimate.  The
layer-wise estimator and the full-space baseline never store the direction;
they regenerate it from the seed.  The dense-subspace baseline materializes
its d-by-q projection, which is exactly the memory cost the layer-wise
estimator avoids, and refuses projections beyond an entry budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AllocationRefused, NonFiniteLoss, ShapeError
from .numcore import GaussianStream, stack_params
from .perturbation import (ProjectionPair, _axpy_stored, axpy_perturbation,
                           iter_perturbation_layers, subspace_dimension)

DENSE_ENTRY_CAP = 10 ** 8


@dataclass(frozen=True)
class LossDifference:
    """The two probe losses of a step and the probe radius that linked them."""

    loss_plus: float
    loss_minus: float
    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def rho(self) -> float:
        """Central-difference directional derivative estimate."""
        return (self.loss_plus - self.loss_minus) / (2.0 * self.epsilon)


@dataclass(frozen=True)
class EstimateMeta:
    """Provenance of a gradient estimate: which family produced it, from
    which seed, at which probe radius, searching a subspace of dimension q
    (q equals the full dimension for the full-space family)."""

    family: str
    seed: int
    epsilon: float
    q: int
    pairs: Optional[tuple] = None


@dataclass(frozen=True, eq=False)
class GradEstimate:
    """A gradient estimate, one array per parameter layer."""

    layers: list[np.ndarray]
    meta: EstimateMeta

    def stacked(self) -> np.ndarray:
        """Flattened estimate under the package's column-major convention."""
        return stack_params(self.layers)

    def norm(self) -> float:
        return float(math.sqrt(sum(float(np.sum(g * g)) for g in self.layers)))


def _checked(value: float, sign: str) -> float:
    if not math.isfinite(value):
        raise NonFiniteLoss(f"probe loss at {sign}epsilon evaluated to {value!r}")
    return float(value)


def _probe(problem, params: Sequence[np.ndarray], batch, epsilon: float,
           apply: Callable[[float], None]) -> LossDifference:
    """The (+eps, -2 eps, +eps) probe around ``apply(coeff)``, which adds
    ``coeff`` times one fixed direction to the parameters in place.  On any
    error the net coefficient applied so far is taken back, which restores
    the parameters to rounding when a failed ``apply`` undoes itself."""
    applied = 0.0
    try:
        apply(epsilon)
        applied = epsilon
        loss_plus = _checked(problem.loss(params, batch), "+")
        apply(-2.0 * epsilon)
        applied = -epsilon
        loss_minus = _checked(problem.loss(params, batch), "-")
        apply(epsilon)
        applied = 0.0
    except BaseException:
        if applied:
            apply(-applied)
        raise
    return LossDifference(loss_plus=loss_plus, loss_minus=loss_minus, epsilon=epsilon)


def two_sided_loss_diff(
    problem,
    params: Sequence[np.ndarray],
    pairs: Sequence[Optional[ProjectionPair]],
    batch,
    epsilon: float,
    seed: int,
    z_scales: Optional[Sequence[float]] = None,
) -> LossDifference:
    """Probe the loss at ``+epsilon`` and ``-epsilon`` along one seeded
    perturbation, restoring the parameters before returning.

    The three in-place passes replay the same seed through
    :func:`axpy_perturbation`, so nothing layer-sized is retained between
    passes.  If a loss evaluation or a pass raises, the parameters are
    restored to working precision before the error propagates.
    """

    def apply(coeff: float) -> None:
        axpy_perturbation(params, pairs, seed, coeff, z_scales)

    return _probe(problem, params, batch, epsilon, apply)


def subzero_estimate(
    problem,
    params: Sequence[np.ndarray],
    pairs: Sequence[Optional[ProjectionPair]],
    batch,
    epsilon: float,
    seed: int,
    z_scales: Optional[Sequence[float]] = None,
) -> tuple[LossDifference, GradEstimate]:
    """Layer-wise low-rank gradient estimate.

    Matrix layers are perturbed along ``U Z V^T`` for their projection pair,
    vector layers (pair ``None``) along a full Gaussian.  After the probe
    the perturbation is regenerated from the seed and scaled by rho, so the
    estimate costs two loss evaluations and no stored directions.
    """
    ld = two_sided_loss_diff(problem, params, pairs, batch, epsilon, seed, z_scales)
    rho = ld.rho
    layers = []
    for delta in iter_perturbation_layers(params, pairs, seed, z_scales):
        delta *= rho
        layers.append(delta)
    meta = EstimateMeta(family="subzero", seed=seed, epsilon=epsilon,
                        q=subspace_dimension(params, pairs), pairs=tuple(pairs))
    return ld, GradEstimate(layers=layers, meta=meta)


def spsa_full(problem, params: Sequence[np.ndarray], batch,
              epsilon: float, seed: int) -> GradEstimate:
    """Full-space two-point estimate: :func:`subzero_estimate` with every
    layer on the dense Gaussian fallback."""
    _, est = subzero_estimate(problem, params, [None] * len(params), batch,
                              epsilon, seed)
    return replace(est, meta=replace(est.meta, family="spsa_full", pairs=None))


def _dense_direction(params: Sequence[np.ndarray], q: int, seed: int,
                     max_entries: int,
                     projection: Optional[np.ndarray]) -> np.ndarray:
    """The stacked direction ``P z`` of the dense-subspace estimator.

    Draw order is ``z`` first (q values), then ``P`` row-major, so
    overriding ``P`` (the identity hook) leaves ``z`` unchanged and
    reproduces the full-space draws value for value.
    """
    d = sum(w.size for w in params)
    if q < 1:
        raise ShapeError(f"subspace dimension must be positive, got {q}")
    stream = GaussianStream(seed)
    z = stream.normals(q)
    if projection is None:
        if d * q > max_entries:
            raise AllocationRefused(
                f"dense projection needs {d * q} entries, over the cap of {max_entries}")
        p = stream.normals(d * q).reshape(d, q)
    else:
        p = np.asarray(projection, dtype=np.float64)
        if p.shape != (d, q):
            raise ShapeError(f"projection must be {(d, q)}, got {p.shape}")
    return p @ z


def _split_rowmajor(direction: np.ndarray,
                    params: Sequence[np.ndarray]) -> list[np.ndarray]:
    # row-major per layer to mirror the order full-space draws fill layers
    out = []
    offset = 0
    for w in params:
        out.append(direction[offset:offset + w.size].reshape(w.shape))
        offset += w.size
    return out


def dense_subspace_probe(
    problem,
    params: Sequence[np.ndarray],
    batch,
    epsilon: float,
    q: int,
    seed: int,
    max_entries: int = DENSE_ENTRY_CAP,
    projection: Optional[np.ndarray] = None,
) -> tuple[LossDifference, GradEstimate]:
    """Dense-subspace estimate plus its probe losses; see
    :func:`spsa_dense_subspace`."""
    direction = _dense_direction(params, q, seed, max_entries, projection)
    chunks = _split_rowmajor(direction, params)

    ld = _probe(problem, params, batch, epsilon,
                lambda coeff: _axpy_stored(params, chunks, coeff))
    layers = [np.ascontiguousarray(ld.rho * c) for c in chunks]
    meta = EstimateMeta(family="spsa_dense_subspace", seed=seed,
                        epsilon=epsilon, q=q)
    return ld, GradEstimate(layers=layers, meta=meta)


def spsa_dense_subspace(
    problem,
    params: Sequence[np.ndarray],
    batch,
    epsilon: float,
    q: int,
    seed: int,
    max_entries: int = DENSE_ENTRY_CAP,
    projection: Optional[np.ndarray] = None,
) -> GradEstimate:
    """Two-point estimate restricted to a dense random q-dimensional
    subspace of the stacked parameter space.

    Draws an unstructured Gaussian projection of d-by-q entries each call,
    refusing allocations over ``max_entries``.  ``projection`` overrides the
    drawn matrix (the identity at ``q = d`` reproduces :func:`spsa_full`
    exactly, which tests rely on).
    """
    _, est = dense_subspace_probe(problem, params, batch, epsilon, q, seed,
                                  max_entries=max_entries, projection=projection)
    return est
