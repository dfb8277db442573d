"""Layer-wise low-rank perturbations and their projection pairs.

A matrix layer ``W`` of shape ``(m, n)`` is perturbed along ``U Z V^T`` where
``U`` and ``V`` are column-orthonormal ``(m, r)`` and ``(n, r)`` bases drawn
once per refresh period, and ``Z`` is an ``(r, r)`` standard normal draw made
fresh every step.  Vector layers (biases and the like) have no useful
low-rank structure; they fall back to a full Gaussian perturbation and are
marked by a ``None`` entry in the pairs list.

Seeded perturbations are never stored whole (see :class:`Direction` for
the two stored directions, the dense baseline's and exact SGD's gradient).
Every write to a model's parameters, probe and update of every family, is
a pass of :func:`axpy_perturbation` along one direction.  A step draws its
direction once: :func:`draw_direction` sizes it, then walks the layers
once, in stream order.  A matrix layer draws the ``r**2`` values of its
core.  In a model with a matrix layer, a vector layer draws its ``size``
values when the vector layers total at most the largest matrix layer's
size, and otherwise skips them; in a model with none (``spsa_full``, every
pair ``None``), the vector layers are kept first fit in layer order while
they total at most ``_KEPT_BYTES`` (2048 values), and the rest skipped.
Each run of adjacent drawn layers is one stream call, and each layer's
core or vector values are a view of that call's array, each core
multiplied as it is drawn by the norm-alignment scale ``sqrt(m * n) / r``
of its pair when the direction is drawn aligned.  The walk forms each
matrix layer of at most ``_DOT_MAX_ENTRIES`` entries once, while the
formed layers total at most ``_KEPT_BYTES``, and keeps it read-only.  The
direction records what each pass does with each layer, so a pass hands
out a kept layer as it is, forms only the other matrix layers and replays
from the seed only the vector layers that were skipped.  Replaying one
direction with coefficients ``+eps``, ``-2 eps``, ``+eps`` and then
``-lr * rho`` implements the probe, the restore and the update; a
trainer's passes skip the layers its loss takes in factored form, and a
skipped layer costs a pass nothing.  Across them a step holds
``8 (q + kept vector values)`` bytes of direction, plus at most
``_KEPT_BYTES`` of formed layers (kept vector values are within
``_KEPT_BYTES`` too when no layer is a matrix, or within the largest
matrix layer's size).  A pass adds one transient buffer at a
time: a kept layer's product with the pass's coefficient, the whole delta
of another layer of at most ``_DOT_MAX_ENTRIES`` entries, a row block of
at most 256 kB of a larger matrix layer, or a chunk of at most
``_CHUNK_VALUES`` (2048 values, 16 kB) of replayed values.  A pass streams
each run of adjacent replayed layers that are C-contiguous, so no
replayed layer exists whole; a column-major one is drawn whole.
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
    minimal aspect ratio ``a / b``; equivalently, ``b`` is the largest
    divisor at or below ``sqrt(m * n)``, found in ``O(sqrt(m * n))``.  A
    prime product degenerates to ``(m * n, 1)``, which callers may reject
    but this function reports faithfully.
    """
    if m <= 0 or n <= 0:
        raise ShapeError(f"dimensions must be positive, got {(m, n)}")
    total = m * n
    b = math.isqrt(total)
    while total % b:
        b -= 1
    return LayerShape(total // b, b)


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
#
# A direction forms each small matrix layer once, where a step's four
# passes (and an estimate's fifth) each formed it before, while the formed
# layers total at most _KEPT_BYTES, taken in layer order.  The budget keeps
# that storage off the step's peak: train_mlp_wide's 512x8 layer, relaid to
# 64x64 (4096 entries, 32 kB), kept through a step raised that workload's
# peak step bytes by 13 %, so it stays formed in each pass.  16 kB is half
# the whole delta a pass of a small layer may already hold, so only layers
# below the cut-over are ever kept.
#
# A pass streams replayed vector values in chunks of _CHUNK_VALUES, the
# kept budget's 2048 values (16 kB), fixed when the module loads, so a
# budget patched to 0 (nothing formed) still streams.  A model with no
# matrix layer keeps its vector layers first fit within _KEPT_BYTES, read
# at each draw.  On train_mlp_fullspace the direction keeps b1, W2 and b2
# (1104 values, 3 stream blocks) and a pass replays W1 in 2 calls of 8
# blocks, so a step draws 17 488 values in 35 blocks where replaying all
# 5200 values in each pass drew 20 800 in 44.  A pass peaks at 34.7 kB
# under tracemalloc (a 16 kB chunk plus the stream's block scratch), and
# with the 8.8 kB of kept values it sets the step's peak.
_DOT_MAX_ENTRIES = 4096
_BLOCK_ENTRIES = 32768
_KEPT_BYTES = 16384
_CHUNK_VALUES = _KEPT_BYTES // 8


class Direction:
    """A seeded perturbation with its stream values already drawn, as the
    layout every pass reads: ``layers`` holds one entry per layer.

    * an array in the layer's shape: the layer's values, kept.  A matrix
      layer of at most ``_DOT_MAX_ENTRIES`` entries is formed once, as
      ``u.dot(z.dot(v.T))``, while the formed layers total at most
      ``_KEPT_BYTES`` (16 kB), in layer order.  A vector layer's values
      are kept when all of them total at most the largest matrix layer's
      size, or, in a model of vector layers only, first fit in layer order
      while the kept ones total at most ``_KEPT_BYTES``, so no model holds
      a parameter-sized draw.  Kept vector values are a view of the stream
      call that drew them.
    * ``(u, Z, v)``, with ``Z`` the layer's ``(r, r)`` core, norm-aligned
      if drawn so and a view of the stream call that drew it: a matrix
      layer each pass forms, or adds in row blocks, or the probe holds
      out.
    * an int: a vector layer replayed from the stream at that counter, by
      each pass in chunks of at most ``_CHUNK_VALUES`` values.

    The constructor marks every kept array read-only, so no pass scales
    one in place: a pass adds ``coeff * delta``, which rounds as scaling a
    copy in place and adding it does, and a rolled-back pass replays the
    values as they were.  ``kept`` is true when every entry is an array,
    and a pass then hands out ``layers`` as they are.

    :func:`draw_direction` makes the seeded ones, which hold ``8 (q + kept
    vector values)`` bytes of values plus at most ``_KEPT_BYTES`` of formed
    layers.  Every function that takes a seed also takes a ``Direction`` in
    its place, so a step draws once and its passes form only the layers
    over the budget and replay at most the vector layers.  Two directions
    are stored, every layer kept: the dense baseline's ``P z``, whose
    d-sized direction is exactly the cost that baseline exists to show, and
    exact SGD's minibatch gradient, the gradient arrays themselves.  A
    direction is replayed with the parameters and pairs it was made for: a
    pass raises ``ShapeError`` when the direction's layers are not one per
    parameter, or when a kept array's shape is not its layer's.
    """

    __slots__ = ("seed", "layers", "kept")

    def __init__(self, seed: int, layers: list):
        self.seed = seed
        self.layers = layers
        self.kept = True
        for layer in layers:
            if isinstance(layer, np.ndarray):
                layer.setflags(write=False)
            else:
                self.kept = False


def draw_direction(params: Sequence[np.ndarray],
                   pairs: Sequence[Optional[ProjectionPair]],
                   seed: int | Direction, aligned: bool = False) -> Direction:
    """Draw a seeded perturbation and record its layout (see
    :class:`Direction`): after sizing the draw, one walk over the layers in
    stream order draws, forms and records each.  The sizing pass decides
    which vector layers are kept: all or none by the largest matrix
    layer's size, or first fit within ``_KEPT_BYTES`` when no layer is a
    matrix.  Each run of adjacent drawn layers is one stream call, whose
    array holds each matrix layer's ``Z`` and each kept vector layer's
    values as views; a replayed vector layer draws nothing, skips its
    values and ends the run.  A layer whose
    pair's geometry does not cover it raises ``ShapeError``.
    ``aligned`` (norm alignment, ``"scale_z"``) multiplies each core as it
    is drawn by ``sqrt(m * n) / r``, read from its pair, so the low-rank
    perturbation has the Frobenius norm a full Gaussian would in
    expectation and no pass scales anything.  A ``Direction`` is returned
    as is when it has one layer per parameter, and raises ``ShapeError``
    otherwise; ``aligned`` with one raises ``ValueError``, so nothing is
    scaled twice."""
    if len(params) != len(pairs):
        raise ShapeError("params and pairs must align layer by layer")
    if isinstance(seed, Direction):
        if aligned:
            raise ValueError("aligned applies when a direction is drawn, "
                             "not to a drawn one")
        if len(seed.layers) != len(params):
            raise ShapeError("a direction has one layer per parameter")
        return seed
    sizes, vectors, largest, room, replayed = [], 0, 0, _KEPT_BYTES // 8, []
    for w, pair in zip(params, pairs):
        if pair is not None:
            sizes.append(pair.u.shape[1] ** 2)
            largest = max(largest, w.size)
            continue
        if w.size > room:   # first fit, the rule when no layer is a matrix
            replayed.append(len(sizes))
        else:
            room -= w.size
        sizes.append(w.size)
        vectors += w.size
    if largest:     # every vector layer is drawn, or none is
        replayed = () if vectors <= largest else [i for i, p in enumerate(pairs) if p is None]
    stream = GaussianStream(seed)
    layers, run, at, formed = [], (), 0, 0  # formed: entries of formed layers
    for w, pair, size in zip(params, pairs, sizes):
        if pair is None and len(layers) in replayed:
            layers.append(stream.index)
            stream.skip(size)
            continue
        if at == len(run):  # the first of a run of drawn layers: one draw
            start = end = len(layers)
            while end < len(pairs) and end not in replayed:
                end += 1
            run, at = stream.normals(sum(sizes[start:end])), 0
        values = run[at:at + size]
        at += size
        if pair is not None:
            u, v = pair.u, pair.v
            if w.size != u.shape[0] * v.shape[0]:
                raise ShapeError(f"pair geometry {pair.shape} does not cover {w.shape}")
            r = u.shape[1]
            z = values.reshape(r, r)
            if aligned:
                z *= math.sqrt(u.shape[0] * v.shape[0]) / r
            if formed + w.size > _KEPT_BYTES // 8:
                layers.append((u, z, v))
                continue
            formed += w.size
            values = u.dot(z.dot(v.T))
        if values.shape != w.shape:
            values = values.reshape(w.shape)
        layers.append(values)
    return Direction(stream.seed, layers)


def iter_perturbation_layers(
    params: Sequence[np.ndarray],
    pairs: Sequence[Optional[ProjectionPair]],
    seed: int | Direction,
    factored: bool = False,
) -> Iterator[np.ndarray]:
    """Each layer's unit perturbation for a seed or a drawn
    :class:`Direction`, one at a time.

    Layer ``i`` is ``z`` (full Gaussian, layer-shaped) when ``pairs[i]`` is
    ``None`` and ``U Z V^T`` otherwise, always in the layer's native shape.
    An int seed is drawn first, unaligned (see :func:`draw_direction`), so
    a seed and its drawn direction yield the same values bit for bit.  A
    layer the direction keeps is yielded as its read-only array, with no
    product formed; when it keeps every layer, the result is an iterator
    over its ``layers``.  Every other layer is formed or drawn for this
    walk alone, and the caller may scale it in place.  Every pass of
    :func:`axpy_perturbation` walks this sequence with ``factored`` set:
    then a matrix layer above ``_DOT_MAX_ENTRIES`` that is C-contiguous or
    in the pair's geometry is yielded as the tuple ``(u, Z, v)`` instead,
    and a replayed C-contiguous layer as its stream counter, an int, which
    the pass streams; nothing is drawn for it here.
    """
    direction = draw_direction(params, pairs, seed)
    if direction.kept:
        return iter(direction.layers)
    return _layers(params, direction, factored)


def _layers(params: Sequence[np.ndarray], direction: Direction,
            factored: bool) -> Iterator[np.ndarray]:
    for w, layer in zip(params, direction.layers):
        if type(layer) is tuple:
            u, z, v = layer
            if w.size <= _DOT_MAX_ENTRIES:
                delta = u.dot(z.dot(v.T))
            elif factored and (w.flags.c_contiguous
                               or w.shape == (u.shape[0], v.shape[0])):
                # the rows of the pair's geometry are views of w
                yield layer
                continue
            else:
                delta = u @ (z @ v.T)
            if delta.shape != w.shape:
                delta = delta.reshape(w.shape)
        elif type(layer) is int and not (factored and w.flags.c_contiguous):
            stream = GaussianStream(direction.seed)
            stream.reset(layer)
            delta = stream.normals(w.size).reshape(w.shape)
        else:   # kept, or a replayed layer a factored pass streams
            delta = layer
        yield delta


def held_out_factors(
    params: Sequence[np.ndarray],
    direction: Direction,
) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The layers a loss can take in factored form, as ``{i: (u, Z, v)}``,
    read from the direction's layout: those a factored pass yields as
    factors whose pair is in the layer's own shape, so ``h @ W`` gains
    ``((h @ u) @ Z) @ v.T``.  A pass of
    :func:`axpy_perturbation` that skips exactly these indices costs them
    nothing.  A large layer in a relayout geometry is not among them: its
    pass adds it in row blocks.  Empty when no layer qualifies."""
    factors = {}
    for i, (w, layer) in enumerate(zip(params, direction.layers)):
        if (type(layer) is tuple and w.size > _DOT_MAX_ENTRIES
                and w.shape == (layer[0].shape[0], layer[2].shape[0])):
            factors[i] = layer
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


def _run_end(params: Sequence[np.ndarray], layers: list, i: int,
             skip: Collection[int]) -> int:
    """The counter where the run of replayed layers from layer ``i`` ends:
    the layers a pass streams (C-contiguous, not skipped) whose counters
    follow one another."""
    end = layers[i]
    while (i < len(layers) and type(layers[i]) is int and layers[i] == end
           and i not in skip and params[i].flags.c_contiguous):
        end, i = end + params[i].size, i + 1
    return end


class _Replay:
    """The rest of a run of replayed layers in one pass, added from chunks
    of at most ``_CHUNK_VALUES`` stream values, each scaled in place by
    ``coeff`` and drawn when the last is used up.  ``chunk`` holds the
    scaled values drawn and not added yet, and ``end`` is the counter where
    the run ends (:func:`_run_end`): a chunk never reaches past it, so it
    continues into a layer only when that layer's counter is where the
    chunk stands."""

    __slots__ = ("stream", "coeff", "chunk", "end")

    def __init__(self, seed: int, coeff: float, end: int):
        self.stream, self.coeff, self.chunk, self.end = GaussianStream(seed), coeff, (), end

    def add(self, flat: np.ndarray, at: int) -> None:
        """Add the scaled values from counter ``at`` on to the 1-D view
        ``flat`` in place.  Atomic: if a draw or an add raises, the values
        already added are redrawn and taken back first."""
        done = 0
        try:
            while done < flat.size:
                if not len(self.chunk):
                    self.chunk = ()     # released before the next is drawn
                    self.stream.reset(at + done)
                    self.chunk = self.stream.normals(min(_CHUNK_VALUES, self.end - at - done))
                    self.chunk *= self.coeff
                take = min(len(self.chunk), flat.size - done)
                target = flat[done:done + take]
                target += self.chunk[:take]
                self.chunk, done = self.chunk[take:], done + take
        except BaseException:
            _Replay(self.stream.seed, -self.coeff, at + done).add(flat[:done], at)
            raise


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

    Works layer by layer.  A layer the direction keeps is added as
    ``coeff * delta``, a transient product, and never scaled in place;
    another layer of at most ``_DOT_MAX_ENTRIES`` entries is formed whole
    in one transient buffer, scaled there and added; a larger matrix layer
    is added in row blocks of at most 256 kB (:func:`_add_rows`), and a
    skipped large layer costs nothing.  Each run of adjacent replayed
    layers that are C-contiguous and not skipped is added from chunks of
    at most ``_CHUNK_VALUES`` values, one stream call each, drawn after the
    last is released, scaled in place and added through each layer's flat
    view (:class:`_Replay`); a chunk runs on into the next layer when that
    layer's counter is where it stands.  Every value rounds as in the whole
    delta.  So peak extra memory is the drawn direction plus one such
    buffer or chunk, never a replayed layer and never the full parameter
    count.  Atomic: a layer whose row blocks or chunks raise partway takes
    back what it added, and then the layers already added are replayed
    with ``-coeff``, skipping the same ones, before the error propagates.
    """
    direction = draw_direction(params, pairs, seed)
    replay, done = None, 0
    try:
        # factored=True goes positionally: the benchmark's tracer wraps the
        # generator with four positional parameters and forwards them as given
        for w, delta in zip(params, iter_perturbation_layers(params, pairs,
                                                             direction, True)):
            if done in skip:
                pass
            elif type(delta) is tuple:
                _add_rows(w, *delta, coeff)
            elif type(delta) is int:
                if replay is None or not len(replay.chunk):
                    # a run starts, or its last chunk ended with the last layer
                    replay = _Replay(direction.seed, coeff,
                                     _run_end(params, direction.layers, done, skip))
                replay.add(w.reshape(-1), delta)
            elif delta.shape != w.shape:
                raise ShapeError(f"kept layer {delta.shape} does not fit {w.shape}")
            else:   # a kept delta is read-only, and never scaled in place
                w += np.multiply(delta, coeff,
                                 out=delta if delta.flags.writeable else None)
            done += 1
    except BaseException:
        if done:
            prefix = Direction(direction.seed, direction.layers[:done])
            axpy_perturbation(params[:done], pairs[:done], prefix, -coeff, skip)
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
