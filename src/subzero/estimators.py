"""Two-point gradient estimators: the seeded low-rank one and a dense-subspace
baseline.

Both run one probe along a drawn :class:`~subzero.perturbation.Direction`:
perturb the parameters in place by ``+epsilon``, evaluate, swing to
``-epsilon`` in one pass, evaluate again, then restore.  The probe holds
some layers out of those passes when the problem's loss can take them in
factored form, which its ``probe_batch`` hook declares (the MLP's does): a
matrix layer of more than ``_DOT_MAX_ENTRIES`` entries, perturbed in its
own shape, is never written during the probe, and each loss call adds its
``+-epsilon U Z V^T`` as ``((h U) Z) V^T``.  The scalar

    rho = (loss_plus - loss_minus) / (2 * epsilon)

multiplies the direction to form the gradient estimate.  The layer-wise
estimator keeps its q core values, its small layers formed once (within
16 kB) and the vector values that fit, and regenerates the rest from the
seed.
Full-space SPSA is the layer-wise estimator with every pair ``None``, so
every layer takes the full Gaussian fallback.  The dense-subspace baseline
materializes its d-by-q projection and stores its direction ``P z`` whole,
as a direction that keeps every layer, which is exactly the memory cost
the layer-wise estimator avoids, and refuses projections beyond an entry
budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import AllocationRefused, NonFiniteLoss, ShapeError
from .numcore import GaussianStream, stack_params
from .perturbation import (Direction, ProjectionPair, axpy_perturbation,
                           draw_direction, held_out_factors,
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


def _held_out(problem, params, direction: Direction) -> dict:
    """The layers a probe holds out of its passes, as
    :func:`~subzero.perturbation.held_out_factors` gives them, when the
    problem has a ``probe_batch`` hook; otherwise none."""
    if hasattr(problem, "probe_batch"):
        return held_out_factors(params, direction)
    return {}


def _loss(problem, params, batch, held: dict, coeff: float, sign: str,
          pending: Optional[Mapping[int, np.ndarray]]) -> float:
    """One probe loss, with the held-out layers ``{i: (u, Z, v)}``, if any,
    passed as ``low_rank={i: (u, coeff * Z, v)}``, or ``(u, A + coeff * Z,
    v)`` for a layer with a pending core ``A``; a non-finite value raises."""
    if not held:
        value = problem.loss(params, batch)
    else:
        low_rank = {}
        for i, (u, z, v) in held.items():
            core = coeff * z
            if pending and i in pending:
                core += pending[i]
            low_rank[i] = (u, core, v)
        value = problem.loss(params, batch, low_rank=low_rank)
    if not math.isfinite(value):
        raise NonFiniteLoss(f"probe loss at {sign}epsilon evaluated to {value!r}")
    return float(value)


def two_sided_loss_diff(
    problem,
    params: Sequence[np.ndarray],
    pairs: Sequence[Optional[ProjectionPair]],
    batch,
    epsilon: float,
    seed: int | Direction,
    pending: Optional[Mapping[int, np.ndarray]] = None,
) -> LossDifference:
    """Probe the loss at ``+epsilon`` and ``-epsilon`` along one
    perturbation, restoring the parameters before returning.

    ``seed`` is an int or a :class:`~subzero.perturbation.Direction` (one
    drawn with ``aligned=True``, or the dense baseline's stored one).  The
    three in-place passes of :func:`axpy_perturbation` share the direction
    and its kept layers, and each holds one transient buffer: a small
    layer's delta, or its product with the pass's coefficient when the
    direction keeps it, or a row block of at most 256 kB of a large one.
    A non-positive ``epsilon`` raises ``ValueError`` before the first
    pass.

    When the problem has a ``probe_batch`` hook, some layers are held
    out of the passes and never written: those of more than
    ``_DOT_MAX_ENTRIES`` entries whose pair is in the layer's own shape
    (:func:`~subzero.perturbation.held_out_factors`).  Each loss call gets
    their perturbation as factors ``(u, coeff * Z, v)`` instead, at the
    coefficient the passes have applied to the other layers, so the probe
    losses agree with the in-place ones to rounding, not bit for bit.  The
    hook is called once, before the first pass, with those factors, and
    both loss calls take the batch it returns: the MLP's forms its held
    first layer's input products there once for both signs, bit for bit
    as each call formed them before.  If a loss or a pass raises, the net
    coefficient applied so far is taken back (a failed pass first undoes
    itself) before the error propagates.

    ``pending`` maps a held layer's index to an ``(r, r)`` core ``A`` of
    updates not yet merged into it (the trainer's; see
    :class:`~subzero.optimizer.TrainerState`): the layer's value is then
    ``W + U A V^T``, and its loss calls get ``(u, A + coeff * Z, v)``.  A
    layer with no pending core gets ``(u, coeff * Z, v)`` bit for bit.  A
    pending core for a layer the probe does not hold raises
    ``ValueError`` before the first pass.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    direction = draw_direction(params, pairs, seed)
    held = _held_out(problem, params, direction)
    if pending and not pending.keys() <= held.keys():
        raise ValueError("a pending core needs its layer held out of the probe")
    if hasattr(problem, "probe_batch"):
        batch = problem.probe_batch(params, batch, held)
    applied = 0.0
    try:
        axpy_perturbation(params, pairs, direction, epsilon, held)
        applied = epsilon
        loss_plus = _loss(problem, params, batch, held, applied, "+", pending)
        axpy_perturbation(params, pairs, direction, -2.0 * epsilon, held)
        applied = -epsilon
        loss_minus = _loss(problem, params, batch, held, applied, "-", pending)
        axpy_perturbation(params, pairs, direction, epsilon, held)
        applied = 0.0
    except BaseException:
        if applied:
            axpy_perturbation(params, pairs, direction, -applied, held)
        raise
    return LossDifference(loss_plus=loss_plus, loss_minus=loss_minus, epsilon=epsilon)


def _estimate(problem, params, pairs, batch, epsilon: float, direction: Direction,
              family: str, q: int) -> tuple[LossDifference, GradEstimate]:
    """Probe along ``direction``, then scale each layer of it by rho: a
    kept layer into a fresh array, any other formed again and scaled in
    place."""
    ld = two_sided_loss_diff(problem, params, pairs, batch, epsilon, direction)
    rho = ld.rho
    layers = []
    for d in iter_perturbation_layers(params, pairs, direction):
        # a kept delta is read-only, and never scaled in place
        layers.append(np.multiply(d, rho, out=d if d.flags.writeable else None))
    meta = EstimateMeta(family=family, seed=direction.seed, epsilon=epsilon, q=q)
    return ld, GradEstimate(layers=layers, meta=meta)


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
    :class:`~subzero.perturbation.Direction`); after the probe each
    layer of it is scaled by rho once more, so the estimate costs two loss
    evaluations and stores the q core floats plus the vector values and
    small layers the direction keeps.
    """
    direction = draw_direction(params, pairs, seed)
    return _estimate(problem, params, pairs, batch, epsilon, direction, "subzero",
                     subspace_dimension(params, pairs))


def _dense_direction(params: Sequence[np.ndarray], q: int, seed: int) -> Direction:
    """The dense-subspace direction ``P z``, stored whole: a
    :class:`~subzero.perturbation.Direction` that keeps every layer, each a
    row-major view of the one d-sized ``P z``.  Its passes run with every
    pair ``None``.  Draw order is ``z`` first (q values), then ``P``
    row-major.
    """
    d = sum(w.size for w in params)
    if q < 1:
        raise ShapeError(f"subspace dimension must be positive, got {q}")
    if d * q > DENSE_ENTRY_CAP:
        raise AllocationRefused(f"dense projection needs {d * q} entries, "
                                f"over the cap of {DENSE_ENTRY_CAP}")
    stream = GaussianStream(seed)
    z = stream.normals(q)
    p = stream.normals(d * q).reshape(d, q)
    values, layers = p @ z, []
    for w in params:
        layers.append(values[:w.size].reshape(w.shape))
        values = values[w.size:]
    return Direction(stream.seed, layers)


def dense_subspace_probe(
    problem,
    params: Sequence[np.ndarray],
    batch,
    epsilon: float,
    q: int,
    seed: int,
) -> tuple[LossDifference, GradEstimate]:
    """Two-point estimate restricted to a dense random q-dimensional
    subspace of the stacked parameter space, plus its probe losses.

    Draws an unstructured Gaussian projection of d-by-q entries each call,
    refusing allocations over ``DENSE_ENTRY_CAP``, and probes along ``P z``.
    """
    direction = _dense_direction(params, q, seed)
    return _estimate(problem, params, [None] * len(params), batch, epsilon,
                     direction, "spsa_dense_subspace", q)
