"""Deterministic random streams, orthonormal bases, and flattening.

This module is the numerical floor of the package.  Everything above it
(perturbations, estimators, the trainer) assumes:

* all floating point work is float64;
* parameter matrices are 2-D C-contiguous arrays, vector parameters are 1-D;
* random values come from :class:`GaussianStream`, where the j-th value of a
  stream is a pure function of ``(seed, j)``.  Replaying a seed therefore
  regenerates identical values regardless of how draws were batched, which is
  what lets the estimators re-create a perturbation instead of storing it.
  A value depends on numpy's float64 ``log`` into a reversed output and
  ``cos``, which run numpy's scalar loops over the C library's ``log`` and
  ``cos`` on the one build measured (numpy 2.4.6, glibc 2.36, AVX-512), and
  on IEEE ``sqrt`` and multiplication; ``tests/test_numcore.py`` pins both
  equalities with ``math.log`` and ``math.cos`` by name.

The flattening convention used everywhere is column-major per layer: a 2-D
layer contributes its entries column by column (``order="F"``), a 1-D layer
contributes its entries as is, and layers are concatenated in parameter
order.  Under this convention a low-rank update ``U Z V^T`` flattens to
``(V kron U) vec(Z)``, which the verification module relies on.
:func:`stack_params` flattens one parameter list; :func:`stack_rows` is its
block form, which flattens many as the rows of one array.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RankDeficient, ShapeError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_STREAM_SALT = 0x8BADF00D5EEDC0DE
_DERIVE_SALT = 0xA0761D6478BD642F

_TWO_PI = 2.0 * math.pi
_INV_2_53 = 2.0 ** -53

# numpy scalars, so the block path converts no Python int per ufunc call
_MIX_A_U64, _MIX_B_U64 = np.uint64(_MIX_A), np.uint64(_MIX_B)
_SHIFT_11, _SHIFT_27, _SHIFT_30, _SHIFT_31 = (np.uint64(k) for k in (11, 27, 30, 31))


def _mix64(x: int) -> int:
    """SplitMix64 finalizer; bijective on 64-bit integers."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX_A) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_B) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master: int, *parts: int) -> int:
    """Derive a child seed from a master seed and non-negative integer parts.

    Used for seed lineage: per-step seeds, per-replica seeds and projection
    refresh seeds are all derived from one experiment seed through this
    function, so runs are reproducible from a single integer.
    """
    h = _mix64(master ^ _DERIVE_SALT)
    for p in parts:
        if p < 0:
            raise ValueError("seed parts must be non-negative")
        h = _mix64(h + (_GOLDEN * (p + 1) & _MASK64))
    return h


def _mix64_block(x: np.ndarray) -> np.ndarray:
    """:func:`_mix64` of every entry of a ``uint64`` array, in place; numpy
    wraps the products modulo 2**64 as the masks do, so each entry equals
    the scalar finalizer's bit for bit.  The three shifts share one buffer."""
    t = np.right_shift(x, _SHIFT_30)
    x ^= t
    x *= _MIX_A_U64
    np.right_shift(x, _SHIFT_27, out=t)
    x ^= t
    x *= _MIX_B_U64
    np.right_shift(x, _SHIFT_31, out=t)
    x ^= t
    return x


def derive_seeds(master, *parts: int, last) -> np.ndarray:
    """``derive_seed(m, *parts, k)`` as a ``uint64`` array, bit for bit, for
    every master ``m`` (an int or a ``uint64`` array) broadcast against every
    ``k`` in ``last``; no operand is 0-d, as numpy warns if one wraps.  An
    int master is reduced modulo 2**64 first, as :func:`derive_seed` does,
    and mixed with ``parts`` there, so only ``last`` is mixed as a block."""
    if isinstance(master, int):
        h = np.array([derive_seed(master, *parts)], dtype=np.uint64)
        parts = ()
    else:
        h = _mix64_block(np.array(master, ndmin=1).astype(np.uint64)
                         ^ np.uint64(_DERIVE_SALT))
    for k in (*parts, last):   # each part mixes in as ``last`` does
        h = _mix64_block((np.array(k, dtype=np.uint64, ndmin=1) + np.uint64(1))
                         * np.uint64(_GOLDEN) + h)
    return h


class GaussianStream:
    """Counter-based stream of independent standard normal values.

    Value ``j`` is produced by hashing ``(seed, j)`` with SplitMix64 and
    feeding two uniforms through the Box-Muller transform.  The stream keeps
    only a counter, so state is O(1), values never depend on batching, and
    ``reset()`` replays the stream exactly.
    """

    __slots__ = ("seed", "_key", "_index")

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._key = _mix64(self.seed ^ _STREAM_SALT)
        self._index = 0

    @property
    def index(self) -> int:
        """Number of normal values consumed so far."""
        return self._index

    def reset(self, index: int = 0) -> None:
        """Rewind (or fast-forward) the stream to a given value index."""
        if index < 0:
            raise ValueError("stream index must be non-negative")
        self._index = index

    def normal_at(self, j: int) -> float:
        """The j-th value of the stream, independent of the counter."""
        return float(_draw(self._key, j, 1)[0])

    def normals(self, n: int) -> np.ndarray:
        """Consume and return the next ``n`` values as a float64 vector."""
        if n < 0:
            raise ValueError("cannot draw a negative number of values")
        out = _draw(self._key, self._index, n)
        self._index += n
        return out

    def skip(self, n: int) -> None:
        """Advance the counter without generating values."""
        if n < 0:
            raise ValueError("cannot skip a negative number of values")
        self._index += n


# Draws of _VECTOR_MIN or more values hash in uint64 blocks of up to _BLOCK
# values, which wrap modulo 2**64 like the masked int ops; each value equals
# the scalar loop's bit for bit (numpy's log and cos over libm's, see
# _box_muller).  A block's scratch is 32 B per value at its peak (the hashes
# plus one shift buffer), about 17 kB at 512.  On a 2-vCPU VM a block costs
# about 27 us at any size up to 32 values, against about 3.1 us per value
# for the loop: 2.0x the loop at 4 values, 1.1x at 8, 0.85-1.05x at 10 and
# 0.56x at 16.  Long draws run at about 15-16 M values/s in 512-value
# blocks, 21 M in 1024 and 23 M in 2048; blocks above 560 values would
# break test_block_scratch_stays_under_budget's 18 kB, and the hashes alone
# take 16 B per value.
_BLOCK = 512
_VECTOR_MIN = 10
_BLOCK_STEPS = np.arange(2 * _BLOCK, dtype=np.uint64) * np.uint64(_GOLDEN)


def _draw(key: int, base: int, n: int) -> np.ndarray:
    """Values ``base .. base + n - 1`` of the stream keyed ``key``."""
    out = np.empty(n)
    if n >= _VECTOR_MIN:
        for start in range(0, n, _BLOCK):
            _fill_block(key, base + start, out[start:start + _BLOCK])
        return out
    # value j hashes key + golden * (2j + 1) and key + golden * (2j + 2);
    # _mix64 reduces its argument modulo 2**64
    h = key + _GOLDEN * (2 * base + 1)
    for i in range(n):
        x1 = _mix64(h)
        x2 = _mix64(h + _GOLDEN)
        h += 2 * _GOLDEN
        # open-interval uniforms in (0, 1): top 53 bits, offset by half an ulp
        u1 = ((x1 >> 11) + 0.5) * _INV_2_53
        u2 = ((x2 >> 11) + 0.5) * _INV_2_53
        out[i] = math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)
    return out


def _fill_block(key: int, base: int, out: np.ndarray) -> None:
    x = _BLOCK_STEPS[:2 * out.size] + np.uint64((key + _GOLDEN * (2 * base + 1)) & _MASK64)
    _box_muller(_mix64_block(x), out)


def normals_block(seeds, n: int) -> np.ndarray:
    """Row ``k`` holds values ``0 .. n - 1`` of ``GaussianStream(seeds[k])``,
    bit for bit, for a 1-D array of seeds."""
    keys = _mix64_block(np.asarray(seeds, dtype=np.uint64) ^ np.uint64(_STREAM_SALT))
    x = keys[:, None] + np.arange(1, 2 * n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    out = np.empty((keys.size, n))
    _box_muller(_mix64_block(x.reshape(-1)), out.reshape(-1))
    return out


# the stream values tests/test_determinism.py pins, as float.hex: seed ->
# the values at _PINNED_AT
_PINNED = {
    0: ("-0x1.1cc5092122682p-3", "-0x1.46e5a527ea622p+1", "-0x1.854471a94fb19p-6"),
    7: ("-0x1.274cf9737a9adp-2", "0x1.257f223013240p-1", "0x1.e09b59b82c4d8p-2"),
    2 ** 64 - 1: ("-0x1.51914a245a409p-1", "-0x1.ec9744cc806bdp-2",
                  "-0x1.b3282134fb33fp-2"),
}
_PINNED_AT = (0, 1, 1000)


def stream_check() -> str:
    """``"ok"`` when this build draws the pinned stream values bit for bit,
    in one block of draws and one value at a time; otherwise the first
    mismatch, as ``"mismatch at index j of seed s"``.  Takes 0.2-0.5 ms
    on a 2-vCPU x86-64 VM."""
    for seed, values in _PINNED.items():
        block = GaussianStream(seed).normals(_PINNED_AT[-1] + 1)
        for j, value in zip(_PINNED_AT, values):
            want = float.fromhex(value)
            if block[j] != want or GaussianStream(seed).normal_at(j) != want:
                return f"mismatch at index {j} of seed {seed}"
    return "ok"


def _box_muller(x: np.ndarray, out: np.ndarray) -> None:
    """Normals from hashed pairs: ``out[j]`` from ``x[2j]`` and ``x[2j+1]``.

    Consumes ``x``: the uniforms, and then ``cos(2 pi u2)``, are formed in
    its own memory.  The other scratch is the ``log`` column and the copy
    numpy stages of the overlapping input when it converts ``x`` to float."""
    m = out.size
    x >>= _SHIFT_11
    u = x.view(np.float64)
    np.add(x, 0.5, out=u)   # the top 53 bits convert exactly
    u *= _INV_2_53
    # numpy 2.4.6 runs its own AVX-512F float64 log, which differs from
    # libm's in the last bit on some inputs, only into a unit-stride output;
    # into a reversed view it runs its scalar loop, which calls libm's log.
    # r holds log(u1) back to front, so the elementwise steps stay unit-stride
    r = np.empty(m)
    np.log(u[0::2], out=r[::-1])
    c = u[1::2]
    c *= _TWO_PI
    np.cos(c, out=c)   # libm's cos on the builds measured, bit for bit
    r *= -2.0
    np.sqrt(r, out=r)
    np.multiply(r[::-1], c, out=out)


def gaussian_matrix(stream: GaussianStream, m: int, n: int) -> np.ndarray:
    """Draw an ``m``-by-``n`` matrix of iid standard normals, row-major fill."""
    if m <= 0 or n <= 0:
        raise ShapeError(f"gaussian_matrix needs positive dimensions, got {(m, n)}")
    return stream.normals(m * n).reshape(m, n)


def qr_orthonormal(a: np.ndarray) -> np.ndarray:
    """Column-orthonormal basis for the range of a tall matrix.

    Thin Householder QR with the sign convention that the diagonal of R is
    positive, which makes the factorization (and everything seeded through
    it) unique.  Raises :class:`RankDeficient` when the smallest ``|R_ii|``
    falls below ``1e-12`` times the largest, since a rank-deficient draw
    would silently shrink the subspace dimension.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"qr_orthonormal expects a matrix, got ndim={a.ndim}")
    m, n = a.shape
    if m < n:
        raise ShapeError(f"qr_orthonormal expects m >= n, got {(m, n)}")
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r)
    largest = np.max(np.abs(diag)) if n else 0.0
    if n and (largest == 0.0 or np.min(np.abs(diag)) < 1e-12 * largest):
        raise RankDeficient(f"QR of a {m}x{n} draw is numerically rank deficient")
    signs = np.where(diag < 0.0, -1.0, 1.0)
    return np.ascontiguousarray(q * signs)


def stack_params(params: list[np.ndarray]) -> np.ndarray:
    """Flatten a parameter list into one vector, column-major per 2-D layer."""
    if not params:
        return np.zeros(0)
    parts = []
    for w in params:
        if w.ndim == 2:
            parts.append(w.ravel(order="F"))
        elif w.ndim == 1:
            parts.append(w.ravel())
        else:
            raise ShapeError(f"parameters must be 1-D or 2-D, got ndim={w.ndim}")
    return np.concatenate(parts)


def stack_rows(blocks: list[np.ndarray]) -> np.ndarray:
    """The block form of :func:`stack_params`: ``blocks[j]`` holds layer
    ``j`` of all ``k`` rows, shaped ``(k, *shape_j)``, and row ``i`` of the
    ``(k, d)`` result is ``stack_params([b[i] for b in blocks])`` bit for
    bit.  Each layer is written once, through a view of the result; there
    is at least one block."""
    k = len(blocks[0])
    out = np.empty((k, sum(math.prod(b.shape[1:]) for b in blocks)))
    col = 0
    for b in blocks:
        n = math.prod(b.shape[1:])
        # column-major per 2-D layer: row i of the view is b[i].T
        out[:, col:col + n].reshape(k, *b.shape[:0:-1])[...] = b.swapaxes(1, -1)
        col += n
    return out


def unstack_params(x: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Inverse of :func:`stack_params` for the given layer shapes."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    total = sum(int(np.prod(s)) for s in shapes)
    if x.size != total:
        raise ShapeError(f"vector of size {x.size} does not split into shapes {shapes}")
    out = []
    offset = 0
    for s in shapes:
        size = int(np.prod(s))
        chunk = x[offset : offset + size]
        if len(s) == 2:
            out.append(np.ascontiguousarray(chunk.reshape(s, order="F")))
        else:
            out.append(chunk.copy())
        offset += size
    return out

