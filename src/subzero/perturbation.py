"""Layer-wise low-rank perturbations and their projection pairs.

A matrix layer ``W`` of shape ``(m, n)`` is perturbed along ``U Z V^T`` where
``U`` and ``V`` are column-orthonormal ``(m, r)`` and ``(n, r)`` bases drawn
once per refresh period, and ``Z`` is an ``(r, r)`` standard normal draw made
fresh every step.  Vector layers (biases and the like) have no useful
low-rank structure; they fall back to a full Gaussian perturbation and are
marked by a ``None`` entry in the pairs list.

Perturbations are never stored.  ``axpy_perturbation`` seeds a stream, walks
the layers in order drawing exactly ``r_i**2`` values per matrix layer
(``size`` values per vector layer), and adds a multiple of each layer's
perturbation in place.  Replaying one seed with coefficients ``+eps``,
``-2 eps``, ``+eps`` and then ``-lr * rho`` implements the probe, the restore
and the update with no per-layer state beyond one transient buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ShapeError
from .numcore import GaussianStream, gaussian_matrix, qr_orthonormal


@dataclass(frozen=True)
class LayerShape:
    """A 2-D layer geometry, possibly the result of a relayout."""

    rows: int
    cols: int

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ShapeError(f"layer dimensions must be positive, got {self}")

    @property
    def size(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class ProjectionPair:
    """Column-orthonormal factors spanning a rank-r perturbation subspace."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if self.u.ndim != 2 or self.v.ndim != 2:
            raise ShapeError("projection factors must be matrices")
        if self.u.shape[1] != self.v.shape[1]:
            raise ShapeError(
                f"factor ranks disagree: {self.u.shape} vs {self.v.shape}")

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    @property
    def shape(self) -> LayerShape:
        """Geometry of the layer this pair perturbs."""
        return LayerShape(self.u.shape[0], self.v.shape[0])


@dataclass(frozen=True)
class PerturbSpec:
    """One pass of the perturb/restore sequence.

    ``direction`` is the signed multiple of ``epsilon`` to apply; the
    two-sided probe uses the sequence ``+1, -2, +1``.
    """

    epsilon: float
    seed: int
    direction: int

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.direction == 0:
            raise ValueError("direction must be nonzero")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def generate_proj_pair(stream: GaussianStream, m: int, n: int, r: int) -> ProjectionPair:
    """Draw and orthonormalize a projection pair for an ``(m, n)`` layer.

    Consumes ``(m + n) * r`` stream values: the ``U`` draw first, then ``V``,
    both row-major.  Requires ``1 <= r <= min(m, n)`` so both QR
    factorizations are tall.
    """
    if r < 1 or r > min(m, n):
        raise ShapeError(f"rank {r} not in [1, min{(m, n)}]")
    u = qr_orthonormal(gaussian_matrix(stream, m, r))
    v = qr_orthonormal(gaussian_matrix(stream, n, r))
    return ProjectionPair(u=u, v=v)


def low_rank_perturbation(pair: ProjectionPair, z: np.ndarray) -> np.ndarray:
    """Materialize ``U Z V^T`` for a given core matrix ``z``."""
    z = np.asarray(z, dtype=np.float64)
    r = pair.rank
    if z.shape != (r, r):
        raise ShapeError(f"core must be {(r, r)}, got {z.shape}")
    return pair.u @ (z @ pair.v.T)


def reshape_near_square(m: int, n: int) -> LayerShape:
    """Most nearly square factorization of ``m * n``.

    Returns the divisor pair ``(a, b)`` of ``m * n`` with ``a >= b`` and
    minimal aspect ratio ``a / b``; equivalently, ``a`` is the smallest
    divisor at or above ``sqrt(m * n)``.  A prime product degenerates to
    ``(m * n, 1)``, which callers may reject but this function reports
    faithfully.
    """
    if m <= 0 or n <= 0:
        raise ShapeError(f"dimensions must be positive, got {(m, n)}")
    total = m * n
    start = math.isqrt(total)
    if start * start < total:
        start += 1
    for a in range(start, total + 1):
        if total % a == 0:
            return LayerShape(a, total // a)
    return LayerShape(total, 1)


def reshaped_view(w: np.ndarray, shape: LayerShape) -> np.ndarray:
    """Row-major view of ``w`` under a new geometry; never copies.

    In-place updates through the view land in the original parameter, which
    is how reshaped layers are trained without a relayout pass.
    """
    if w.size != shape.size:
        raise ShapeError(f"cannot view {w.shape} as {shape}")
    if not w.flags.c_contiguous:
        raise ShapeError("relayout requires a C-contiguous parameter")
    return w.reshape(shape.rows, shape.cols)


def norm_alignment_factor(m: int, n: int, r: int) -> float:
    """Scale that matches a rank-r perturbation's expected Frobenius norm
    to a full Gaussian one for an ``(m, n)`` layer: ``sqrt(m * n) / r``."""
    if r < 1 or r > min(m, n):
        raise ShapeError(f"rank {r} not in [1, min{(m, n)}]")
    return math.sqrt(m * n) / r


@dataclass(frozen=True)
class LayerPlan:
    """How one parameter layer is perturbed: ``shape is None`` marks the
    full-space fallback for vectors, otherwise the (possibly reshaped)
    geometry and the clamped rank of its low-rank subspace."""

    shape: Optional[LayerShape]
    rank: int


def plan_layers(params: Sequence[np.ndarray], rank: int,
                reshape: str = "auto") -> list[LayerPlan]:
    """Decide geometry and rank per layer for a requested rank.

    ``reshape`` controls relayout of awkward geometries:

    * ``"never"``: use each layer's own shape; rank is clamped to
      ``min(m, n)`` when the layer cannot support the requested rank.
    * ``"auto"``: relayout only layers with ``min(m, n) < rank``, i.e. only
      when the requested rank does not fit the native shape.

    Vector layers always get the full-space fallback, recorded as a plan
    with ``shape=None`` and rank equal to the entry count.
    """
    if rank < 1:
        raise ShapeError(f"rank must be positive, got {rank}")
    if reshape not in ("auto", "never"):
        raise ValueError(f"unknown reshape policy {reshape!r}")
    plans: list[LayerPlan] = []
    for w in params:
        if w.ndim == 1:
            plans.append(LayerPlan(shape=None, rank=w.size))
            continue
        if w.ndim != 2:
            raise ShapeError(f"parameters must be 1-D or 2-D, got ndim={w.ndim}")
        m, n = w.shape
        if reshape == "auto" and min(m, n) < rank:
            geom = reshape_near_square(m, n)
            m, n = geom.rows, geom.cols
        plans.append(LayerPlan(shape=LayerShape(m, n), rank=min(rank, m, n)))
    return plans


def pairs_from_plan(stream: GaussianStream,
                    plans: Sequence[LayerPlan]) -> list[Optional[ProjectionPair]]:
    """Draw fresh projection pairs following a layer plan, in layer order."""
    pairs: list[Optional[ProjectionPair]] = []
    for plan in plans:
        if plan.shape is None:
            pairs.append(None)
        else:
            pairs.append(generate_proj_pair(
                stream, plan.shape.rows, plan.shape.cols, plan.rank))
    return pairs


def build_pairs(stream: GaussianStream, params: Sequence[np.ndarray], rank: int,
                reshape: str = "auto") -> list[Optional[ProjectionPair]]:
    """Generate one projection pair per matrix layer, ``None`` per vector.

    Convenience wrapper around :func:`plan_layers` and
    :func:`pairs_from_plan`; pairs carry the (possibly reshaped) geometry,
    and the perturbation routines detect a geometry whose size matches the
    layer and work through a view.
    """
    return pairs_from_plan(stream, plan_layers(params, rank, reshape))


# ndarray.dot makes the same BLAS calls as @, bit for bit, and skips matmul's
# ufunc dispatch, which costs more than the product on a small layer; but it
# zero-fills its output first.  On a 2-vCPU VM dot takes 0.84x the time of @
# for a 64x64 layer at rank 16, 1.01x at 128x64 and 1.6x at 512x512.
_DOT_MAX_ENTRIES = 4096


def iter_perturbation_layers(
    params: Sequence[np.ndarray],
    pairs: Sequence[Optional[ProjectionPair]],
    seed: int,
    z_scales: Optional[Sequence[float]] = None,
) -> Iterator[np.ndarray]:
    """Yield each layer's unit perturbation for a given seed, one at a time.

    Layer ``i`` is ``z`` (full Gaussian, layer-shaped) when ``pairs[i]`` is
    ``None`` and ``scale * U Z V^T`` otherwise, always in the layer's native
    shape.  Every pass of :func:`axpy_perturbation` walks this sequence, so
    the same seed reproduces exactly what a pass added to the parameters,
    up to its coefficient.
    """
    if len(params) != len(pairs):
        raise ShapeError("params and pairs must align layer by layer")
    if z_scales is not None and len(z_scales) != len(params):
        raise ShapeError("z_scales must align layer by layer")
    stream = GaussianStream(seed)
    for i, (w, pair) in enumerate(zip(params, pairs)):
        if pair is None:
            delta = stream.normals(w.size).reshape(w.shape)
        else:
            u, v = pair.u, pair.v
            if w.size != u.shape[0] * v.shape[0]:
                raise ShapeError(
                    f"pair geometry {pair.shape} does not cover a layer of shape {w.shape}")
            r = u.shape[1]
            z = stream.normals(r * r).reshape(r, r)
            if w.size <= _DOT_MAX_ENTRIES:
                delta = u.dot(z.dot(v.T))
            else:
                delta = u @ (z @ v.T)
            if delta.shape != w.shape:
                delta = delta.reshape(w.shape)
        scale = 1.0 if z_scales is None else float(z_scales[i])
        if scale != 1.0:
            delta *= scale
        yield delta


def axpy_perturbation(
    params: Sequence[np.ndarray],
    pairs: Sequence[Optional[ProjectionPair]],
    seed: int,
    coeff: float,
    z_scales: Optional[Sequence[float]] = None,
) -> None:
    """Add ``coeff`` times the seeded perturbation to params, in place.

    Works layer by layer with one transient buffer, so peak extra memory is
    the largest single layer, never the full parameter count.  Atomic: if
    anything raises partway, the layers already added are replayed with
    ``-coeff`` before the error propagates.
    """
    done = 0
    try:
        for w, delta in zip(params, iter_perturbation_layers(params, pairs, seed, z_scales)):
            delta *= coeff
            w += delta
            done += 1
    except BaseException:
        if done:
            axpy_perturbation(params[:done], pairs[:done], seed, -coeff,
                              None if z_scales is None else z_scales[:done])
        raise


def _axpy_stored(params: Sequence[np.ndarray], layers: Sequence[np.ndarray],
                 coeff: float) -> None:
    """Add ``coeff * layers[i]`` to ``params[i]`` in place, for a direction
    that is stored rather than seeded.  Atomic like
    :func:`axpy_perturbation`: on error the layers done are taken back."""
    done = 0
    try:
        for w, g in zip(params, layers):
            w += coeff * g
            done += 1
    except BaseException:
        for w, g in zip(params[:done], layers[:done]):
            w -= coeff * g
        raise


def perturb_params_inplace(
    params: Sequence[np.ndarray],
    pairs: Sequence[Optional[ProjectionPair]],
    spec: PerturbSpec,
    z_scales: Optional[Sequence[float]] = None,
) -> None:
    """Add ``direction * epsilon`` times the seeded perturbation to params;
    see :func:`axpy_perturbation`."""
    axpy_perturbation(params, pairs, spec.seed,
                      float(spec.direction) * spec.epsilon, z_scales)


def plan_alignment_scales(plans: Sequence[LayerPlan]) -> list[float]:
    """Per-layer core scales implementing norm alignment (``"scale_z"``).

    Each matrix layer's core draw is multiplied by ``sqrt(m * n) / r`` so
    the low-rank perturbation has the Frobenius norm a full Gaussian would;
    vector layers already are full Gaussians and get scale one.
    """
    return [1.0 if plan.shape is None
            else norm_alignment_factor(plan.shape.rows, plan.shape.cols, plan.rank)
            for plan in plans]


def subspace_dimension(params: Sequence[np.ndarray],
                       pairs: Sequence[Optional[ProjectionPair]]) -> int:
    """Dimension of the random subspace the estimator searches: ``r_i**2``
    per matrix layer plus the full entry count of each vector layer."""
    total = 0
    for w, pair in zip(params, pairs):
        total += w.size if pair is None else pair.rank ** 2
    return total
