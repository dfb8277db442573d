"""Layer-wise low-rank perturbations and their projection pairs.

A matrix layer ``W`` of shape ``(m, n)`` is perturbed along ``U Z V^T`` where
``U`` and ``V`` are column-orthonormal ``(m, r)`` and ``(n, r)`` bases drawn
once per refresh period, and ``Z`` is an ``(r, r)`` standard normal draw made
fresh every step.  Vector layers (biases and the like) have no useful
low-rank structure; they fall back to a full Gaussian perturbation and are
marked by a ``None`` entry in the pairs list.

Perturbations are never stored whole.  A step draws its direction once:
:func:`draw_direction` walks the layers in stream order and draws the
``r_i**2`` core values of each matrix layer into one flat array of
``q = sum r_i**2`` floats, each core multiplied as it is drawn by the
norm-alignment scale ``sqrt(m * n) / r`` of its pair when the direction is
drawn aligned.  The ``size`` values each vector layer owns are
drawn into a second flat array when their total is at most the largest
matrix layer's size, and skipped otherwise.  Every pass of
:func:`axpy_perturbation` then reads its values from those arrays and
replays from the seed only the vector layers that were skipped.  Replaying
one direction with coefficients ``+eps``, ``-2 eps``, ``+eps`` and then
``-lr * rho`` implements the probe, the restore and the update; the
probe's passes skip the layers its loss takes in factored form, and a
skipped layer costs a pass nothing.  Across them a step holds
``8 (q + kept vector values)`` bytes of direction.  A pass adds one
transient buffer at a time: the whole delta of a layer of at most
``_DOT_MAX_ENTRIES`` entries, or a row block of at most 256 kB of a larger
matrix layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterator, Optional, Sequence

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


@dataclass(frozen=True)
class LayerPlan:
    """How one parameter layer is perturbed: ``shape is None`` marks the
    full-space fallback for vectors, otherwise the (possibly reshaped)
    geometry and the clamped rank of its low-rank subspace."""

    shape: Optional[LayerShape]
    rank: int


RESHAPE_POLICIES = ("auto", "never")


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
    if reshape not in RESHAPE_POLICIES:
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


# How a matrix layer's pass forms its product, by the layer's entry count:
#
# * at most _DOT_MAX_ENTRIES: u.dot(z.dot(v.T)) into a fresh layer-sized
#   array.  ndarray.dot makes the same BLAS calls as @, bit for bit, and skips
#   matmul's ufunc dispatch, which costs more than the product on a small
#   layer; but it zero-fills its output first.  On a 2-vCPU VM dot takes
#   0.84x the time of @ for a 64x64 layer at rank 16, 1.01x at 128x64 and
#   1.6x at 512x512.
# * above it, in a pass of axpy_perturbation: u @ (z @ v.T) in row blocks of
#   at most _BLOCK_ENTRIES values (256 kB), each written into one reused
#   buffer with np.matmul(..., out=), scaled and added in place, so no
#   layer-sized delta exists.  At rank 16 a blocked pass takes 1.14x the
#   time of forming, scaling and adding the whole delta for a 128x64 layer,
#   1.08x at 128x128, 0.29x at 256x256 and 0.6-0.75x at 512x512, where
#   64-row blocks beat 16, 32 and 128 rows.  Every other caller of
#   iter_perturbation_layers gets the whole delta, from u @ (z @ v.T).
#
# The probe's held-out layers (held_out_factors) are the native ones above
# it too.  Timed per optimizer step of a d->h->8 MLP at rank 16 and batch 32
# (median of 20 alternating rounds of 200 steps on a 2-vCPU VM), holding W1 out of
# the probe took 1.09x the in-place time at 64x48, 1.07x at 64x60, 1.02x at
# 64x64, 1.07x at 64x96 (lower in 10 of 20 rounds) and 0.88x at 128x96.  So
# the factored probe does not pay below this cut-over, and only starts to
# pay somewhat above it.
_DOT_MAX_ENTRIES = 4096
_BLOCK_ENTRIES = 32768


class Direction:
    """A seeded perturbation with its stream values already drawn.

    ``cores`` holds the ``r_i**2`` core values of every matrix layer in
    layer order, as one flat array of q floats, norm-aligned if drawn so.
    ``vectors`` holds the values of the vector layers in layer order when
    their total is at most the largest matrix layer's size, and is ``None``
    otherwise: then each pass replays them from the seed.  So the kept
    values never outgrow one matrix layer, and a model of vector layers
    only holds no parameter-sized draw.  Every function that takes a seed
    also takes a ``Direction`` in its place, so a step draws once and its
    passes replay at most the vector layers.
    """

    __slots__ = ("seed", "cores", "vectors")

    def __init__(self, seed: int, cores: np.ndarray,
                 vectors: Optional[np.ndarray] = None):
        self.seed = seed
        self.cores = cores
        self.vectors = vectors


def draw_direction(params: Sequence[np.ndarray],
                   pairs: Sequence[Optional[ProjectionPair]],
                   seed: int | Direction, aligned: bool = False) -> Direction:
    """Draw the matrix-layer cores of a seeded perturbation, and the vector
    layers' values when they fit the largest matrix layer, walking the
    stream in layer order and skipping what is not kept; a ``Direction`` is
    returned as is.  ``aligned`` (norm alignment, ``"scale_z"``) multiplies
    each core as it is drawn by ``sqrt(m * n) / r``, read from its pair, so
    the low-rank perturbation has the Frobenius norm a full Gaussian would
    in expectation and no pass scales anything.  ``aligned`` with a drawn
    ``Direction`` raises ``ValueError``, so nothing is scaled twice."""
    if isinstance(seed, Direction):
        if aligned:
            raise ValueError("aligned applies when a direction is drawn, "
                             "not to a drawn one")
        return seed
    if len(params) != len(pairs):
        raise ShapeError("params and pairs must align layer by layer")
    q = kept = largest = 0
    for w, pair in zip(params, pairs):
        if pair is None:
            kept += w.size
        else:
            q += pair.rank ** 2
            if w.size > largest:
                largest = w.size
    stream = GaussianStream(seed)
    cores = np.empty(q)
    vectors = np.empty(kept) if 0 < kept <= largest else None
    at = 0
    for w, pair in zip(params, pairs):
        if pair is not None:
            n = pair.rank ** 2
            core = cores[at:at + n]
            core[:] = stream.normals(n)
            if aligned:
                core *= math.sqrt(pair.u.shape[0] * pair.v.shape[0]) / pair.rank
            at += n
        elif vectors is None:
            stream.skip(w.size)
        else:
            start = stream.index - at
            vectors[start:start + w.size] = stream.normals(w.size)
    return Direction(stream.seed, cores, vectors)


def iter_perturbation_layers(
    params: Sequence[np.ndarray],
    pairs: Sequence[Optional[ProjectionPair]],
    seed: int | Direction,
    factored: bool = False,
) -> Iterator[np.ndarray]:
    """Yield each layer's unit perturbation for a seed or a drawn
    :class:`Direction`, one at a time.

    Layer ``i`` is ``z`` (full Gaussian, layer-shaped) when ``pairs[i]`` is
    ``None`` and ``U Z V^T`` otherwise, always in the layer's native shape.
    Matrix cores and kept vector values come from the direction (an int
    seed is drawn first, unaligned; see :func:`draw_direction`), other
    vector layers from the stream at their counter offset, so a seed and
    its drawn direction yield the same values bit for bit.  Every pass of
    :func:`axpy_perturbation` walks this sequence with ``factored`` set:
    then a matrix layer above ``_DOT_MAX_ENTRIES`` that is C-contiguous or
    in the pair's geometry is yielded as the tuple ``(u, Z, v)`` instead.
    """
    if len(params) != len(pairs):
        raise ShapeError("params and pairs must align layer by layer")
    direction = draw_direction(params, pairs, seed)
    cores = direction.cores
    stream = None
    index = 0   # stream counter at the current layer
    at = 0      # offset of the current core in ``cores``
    for w, pair in zip(params, pairs):
        if pair is None:
            if direction.vectors is not None:
                # the kept values are the stream's with the cores left out
                delta = direction.vectors[index - at:index - at + w.size].copy()
            else:
                if stream is None:
                    stream = GaussianStream(direction.seed)
                stream.reset(index)
                delta = stream.normals(w.size)
            delta = delta.reshape(w.shape)
            index += w.size
        else:
            u, v = pair.u, pair.v
            if w.size != u.shape[0] * v.shape[0]:
                raise ShapeError(
                    f"pair geometry {pair.shape} does not cover a layer of shape {w.shape}")
            r = u.shape[1]
            n = r * r
            z = cores[at:at + n].reshape(r, r)
            at += n
            index += n
            if w.size <= _DOT_MAX_ENTRIES:
                delta = u.dot(z.dot(v.T))
            elif factored and _yields_factors(w, pair):
                yield u, z, v
                continue
            else:
                delta = u @ (z @ v.T)
            if delta.shape != w.shape:
                delta = delta.reshape(w.shape)
        yield delta


def _yields_factors(w: np.ndarray, pair: ProjectionPair) -> bool:
    """Whether a factored pass yields matrix layer ``w`` as factors: it is
    above ``_DOT_MAX_ENTRIES`` and the rows of its pair's geometry are views
    of it (C-contiguous, or in that geometry)."""
    return w.size > _DOT_MAX_ENTRIES and (
        w.flags.c_contiguous or w.shape == (pair.u.shape[0], pair.v.shape[0]))


def held_out_factors(
    params: Sequence[np.ndarray],
    pairs: Sequence[Optional[ProjectionPair]],
    direction: Direction,
) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The layers a loss can take in factored form, as ``{i: (u, Z, v)}``:
    those a factored pass yields as factors whose pair is in the layer's
    own shape, so ``h @ W`` gains ``((h @ u) @ Z) @ v.T``.  A pass of
    :func:`axpy_perturbation` that skips exactly these indices costs them
    nothing.  A large layer in a relayout geometry is not among them: its
    pass adds it in row blocks.  Empty when no layer qualifies."""
    factors = {}
    at = 0      # offset of the current core in ``direction.cores``
    for i, (w, pair) in enumerate(zip(params, pairs)):
        if pair is None:
            continue
        r = pair.rank
        if _yields_factors(w, pair) and w.shape == (pair.u.shape[0], pair.v.shape[0]):
            factors[i] = (pair.u, direction.cores[at:at + r * r].reshape(r, r), pair.v)
        at += r * r
    return factors


def _add_rows(w: np.ndarray, u: np.ndarray, z: np.ndarray, v: np.ndarray,
              coeff: float) -> None:
    """Add ``coeff * (u @ core)``, with ``core = z @ v.T``, to ``w`` in
    place, in the geometry of ``u @ core``, one block of rows at a time
    through one reused buffer.

    Each block is scaled in the order a whole delta is, and on the BLAS
    builds measured a block of rows of ``u @ core`` has the bytes of those
    rows of the whole product, so the pass adds what forming the whole
    delta would.  Atomic: if a block raises, the blocks already added are
    taken back first.
    """
    core = z @ v.T
    m, n = u.shape[0], core.shape[1]
    w = w.reshape(m, n)     # a view: the layer is C-contiguous or (m, n)
    rows = max(1, _BLOCK_ENTRIES // n)
    buf = np.empty((min(rows, m), n))
    done = 0
    try:
        while done < m:
            target = w[done:done + rows]
            target += _block(buf, u[done:done + rows], core, coeff)
            done += rows
    except BaseException:
        for start in range(0, done, rows):
            target = w[start:start + rows]
            target -= _block(buf, u[start:start + rows], core, coeff)
        raise


def _block(buf: np.ndarray, u_rows: np.ndarray, core: np.ndarray,
           coeff: float) -> np.ndarray:
    block = buf[:u_rows.shape[0]]
    np.matmul(u_rows, core, out=block)
    block *= coeff
    return block


def axpy_perturbation(
    params: Sequence[np.ndarray],
    pairs: Sequence[Optional[ProjectionPair]],
    seed: int | Direction,
    coeff: float,
    skip: Collection[int] = (),
) -> None:
    """Add ``coeff`` times the perturbation of a seed or a drawn
    :class:`Direction` to params, in place, leaving the layers whose index
    is in ``skip`` untouched.

    Works layer by layer.  A layer of at most ``_DOT_MAX_ENTRIES`` entries
    is formed whole in one transient buffer and added; a larger matrix
    layer is added in row blocks of at most 256 kB (:func:`_add_rows`), and
    a skipped large layer costs nothing.  So peak extra memory is the drawn
    direction plus one such buffer, never the full parameter count.
    Atomic: if anything raises partway, the layers already added are
    replayed with ``-coeff``, skipping the same ones, before the error
    propagates.
    """
    direction = draw_direction(params, pairs, seed)
    done = 0
    try:
        # factored=True goes positionally: the benchmark's tracer wraps the
        # generator with four positional parameters and forwards them as given
        for w, delta in zip(params, iter_perturbation_layers(params, pairs,
                                                             direction, True)):
            if done in skip:
                pass
            elif type(delta) is tuple:
                _add_rows(w, *delta, coeff)
            else:
                delta *= coeff
                w += delta
            done += 1
    except BaseException:
        if done:
            axpy_perturbation(params[:done], pairs[:done], direction, -coeff, skip)
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
) -> None:
    """Add ``direction * epsilon`` times the seeded perturbation to params;
    see :func:`axpy_perturbation`."""
    axpy_perturbation(params, pairs, spec.seed, float(spec.direction) * spec.epsilon)


def subspace_dimension(params: Sequence[np.ndarray],
                       pairs: Sequence[Optional[ProjectionPair]]) -> int:
    """Dimension of the random subspace the estimator searches: ``r_i**2``
    per matrix layer plus the full entry count of each vector layer."""
    total = 0
    for w, pair in zip(params, pairs):
        total += w.size if pair is None else pair.rank ** 2
    return total
