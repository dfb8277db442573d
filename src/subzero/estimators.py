"""Two-point gradient estimators: the seeded low-rank one and a dense-subspace
baseline.

Both share the same probe: perturb the parameters in place by
``+epsilon``, evaluate, swing to ``-epsilon`` in one pass, evaluate again,
then restore.  The seeded probe holds some layers out of those passes when
the problem's loss can take them in factored form (the MLP's does): a
matrix layer of more than ``_DOT_MAX_ENTRIES`` entries, perturbed in its
own shape, is never written during the probe, and each loss call adds its
``+-epsilon U Z V^T`` as ``((h U) Z) V^T``.  The scalar

    rho = (loss_plus - loss_minus) / (2 * epsilon)

multiplies the perturbation direction to form the gradient estimate.  The
layer-wise estimator never stores the direction; it regenerates it from the
seed.  Full-space SPSA is the layer-wise estimator with every pair ``None``,
so every layer takes the full Gaussian fallback.  The dense-subspace
baseline materializes its d-by-q projection, which is exactly the memory
cost the layer-wise estimator avoids, and refuses projections beyond an
entry budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AllocationRefused, NonFiniteLoss, ShapeError
from .numcore import GaussianStream, stack_params
from .perturbation import (Direction, ProjectionPair, _axpy_stored,
                           axpy_perturbation, draw_direction, held_out_factors,
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
    (q equals the full dimension when every pair is ``None``)."""

    family: str
    seed: int
    epsilon: float
    q: int


@dataclass(frozen=True, eq=False)
class GradEstimate:
    """A gradient estimate, one array per parameter layer."""

    layers: list[np.ndarray]
    meta: EstimateMeta

    def stacked(self) -> np.ndarray:
        """Flattened estimate under the package's column-major convention."""
        return stack_params(self.layers)


def _loss(problem, params, batch, held: Optional[dict], coeff: float,
          sign: str) -> float:
    """One probe loss, with the held-out layers ``{i: (u, Z, v)}`` passed as
    ``low_rank={i: (u, coeff * Z, v)}``; a non-finite value raises."""
    if held is None:
        value = problem.loss(params, batch)
    else:
        value = problem.loss(params, batch, low_rank={
            i: (u, coeff * z, v) for i, (u, z, v) in held.items()})
    if not math.isfinite(value):
        raise NonFiniteLoss(f"probe loss at {sign}epsilon evaluated to {value!r}")
    return float(value)


def _probe(problem, params: Sequence[np.ndarray], batch, epsilon: float,
           apply: Callable[[float], None],
           held: Optional[dict] = None) -> LossDifference:
    """The (+eps, -2 eps, +eps) probe around ``apply(coeff)``, which adds
    ``coeff`` times one fixed direction to the parameters in place.  The
    layers in ``held`` are left to the loss, which gets them in factored
    form at the coefficient ``applied`` so far (:func:`_loss`).  On any
    error the net coefficient applied so far is taken back, which restores
    the parameters to rounding when a failed ``apply`` undoes itself.  A
    non-positive ``epsilon`` raises ``ValueError`` before the first pass."""
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    applied = 0.0
    try:
        apply(epsilon)
        applied = epsilon
        loss_plus = _loss(problem, params, batch, held, applied, "+")
        apply(-2.0 * epsilon)
        applied = -epsilon
        loss_minus = _loss(problem, params, batch, held, applied, "-")
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
    seed: int | Direction,
) -> LossDifference:
    """Probe the loss at ``+epsilon`` and ``-epsilon`` along one seeded
    perturbation, restoring the parameters before returning.

    ``seed`` is an int or a :class:`~subzero.perturbation.Direction`; a
    norm-aligned probe passes a direction drawn with ``aligned=True``.  The
    direction is drawn once and the three in-place passes of
    :func:`axpy_perturbation` share it, so nothing layer-sized is retained
    between passes, and each pass holds one transient buffer: a small
    layer's delta or a row block of at most 256 kB of a large one.

    When the problem sets ``loss_takes_low_rank``, some layers are held
    out of the passes and never written: those of more than
    ``_DOT_MAX_ENTRIES`` entries whose pair is in the layer's own shape
    (:func:`~subzero.perturbation.held_out_factors`).  :func:`_probe`
    gives each loss call their perturbation as factors ``(u, coeff * Z,
    v)`` instead, at the coefficient the passes have applied to the other
    layers.  The probe losses then agree with the in-place ones to
    rounding, not bit for bit.  If a loss evaluation or a pass raises, the
    parameters are restored to working precision before the error
    propagates.
    """
    direction = draw_direction(params, pairs, seed)
    held = None
    if getattr(problem, "loss_takes_low_rank", False):
        held = held_out_factors(params, pairs, direction) or None

    def apply(coeff: float) -> None:
        axpy_perturbation(params, pairs, direction, coeff, skip=held or ())

    return _probe(problem, params, batch, epsilon, apply, held)


def subzero_estimate(
    problem,
    params: Sequence[np.ndarray],
    pairs: Sequence[Optional[ProjectionPair]],
    batch,
    epsilon: float,
    seed: int | Direction,
) -> tuple[LossDifference, GradEstimate]:
    """Layer-wise low-rank gradient estimate.

    Matrix layers are perturbed along ``U Z V^T`` for their projection pair,
    vector layers (pair ``None``) along a full Gaussian.  The direction is
    drawn once from ``seed`` (an int or a drawn
    :class:`~subzero.perturbation.Direction`); after the probe the
    perturbation is formed once more from it and scaled by rho, so the
    estimate costs two loss evaluations and stores the q core floats plus
    any vector values the direction keeps.
    """
    direction = draw_direction(params, pairs, seed)
    ld = two_sided_loss_diff(problem, params, pairs, batch, epsilon, direction)
    rho = ld.rho
    layers = []
    for delta in iter_perturbation_layers(params, pairs, direction):
        delta *= rho
        layers.append(delta)
    meta = EstimateMeta(family="subzero", seed=direction.seed, epsilon=epsilon,
                        q=subspace_dimension(params, pairs))
    return ld, GradEstimate(layers=layers, meta=meta)


def _dense_direction(params: Sequence[np.ndarray], q: int, seed: int,
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
        if d * q > DENSE_ENTRY_CAP:
            raise AllocationRefused(f"dense projection needs {d * q} entries, "
                                    f"over the cap of {DENSE_ENTRY_CAP}")
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
    projection: Optional[np.ndarray] = None,
) -> tuple[LossDifference, GradEstimate]:
    """Two-point estimate restricted to a dense random q-dimensional
    subspace of the stacked parameter space, plus its probe losses.

    Draws an unstructured Gaussian projection of d-by-q entries each call,
    refusing allocations over ``DENSE_ENTRY_CAP``.  ``projection`` overrides
    the drawn matrix; the identity at ``q = d`` reproduces the full-space
    estimate exactly, which tests rely on.
    """
    direction = _dense_direction(params, q, seed, projection)
    chunks = _split_rowmajor(direction, params)

    ld = _probe(problem, params, batch, epsilon,
                lambda coeff: _axpy_stored(params, chunks, coeff))
    layers = [np.ascontiguousarray(ld.rho * c) for c in chunks]
    meta = EstimateMeta(family="spsa_dense_subspace", seed=seed,
                        epsilon=epsilon, q=q)
    return ld, GradEstimate(layers=layers, meta=meta)
