"""Desk-scale test problems with exact gradients.

Every problem exposes the same surface.  One private base holds its shared
part: ``layer_shapes``, ``dimension``, ``dataset_size`` and
``initial_params()``, which returns a fresh copy of the start layers.  Each
problem adds ``loss(params, batch)``, a scalar mean loss over the batch,
and ``exact_gradient(params, batch)``, arrays shaped like the parameters.
The quadratic, quartic and logistic problems take their start point as one
stacked ``x0``, whose length is checked when the problem is built.  Losses
are pure functions of their arguments; they never mutate parameters and
raise :class:`NonFiniteLoss` instead of returning NaN or infinity.

The quadratic and quartic families ignore the batch contents (every example
is the same function), which keeps estimator statistics exact while still
exercising the minibatch plumbing.  They also offer ``losses(xs)``, the loss
of each row of a ``(K, d)`` block of stacked parameter vectors: an optional
speed-up that lets the verification checks evaluate many probes in one
numpy call, not a capability they need.  The MLP alone offers
``probe_batch(params, batch, held)``, which prepares a batch for the
two-point probe's loss calls; its presence tells the estimators that the
loss takes held-out layers in factored form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NonFiniteLoss, ShapeError
from .numcore import (GaussianStream, derive_seeds, gaussian_matrix,
                      qr_orthonormal, stack_params, unstack_params)

_TAG_BATCH = 0x53


@dataclass(frozen=True, eq=False, slots=True)
class Minibatch:
    """Indices of the examples a loss evaluation averages over."""

    indices: np.ndarray

    @property
    def size(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True, eq=False, slots=True)
class ProductBatch(Minibatch):
    """A minibatch whose MLP first-layer input products are formed:
    ``xw = x @ W1`` and ``xu = x @ u`` for the rows ``x`` the indices
    select, without ``x``, and the ``u`` they were formed with; see
    :meth:`MlpProblem.probe_batch`."""

    xw: np.ndarray
    xu: np.ndarray
    u: np.ndarray


def sample_minibatch(problem, seed: int, t: int, b: int) -> Minibatch:
    """Uniform sample of ``b`` distinct example indices for step ``t``.

    Deterministic in ``(seed, t)`` via a hashed partial Fisher-Yates shuffle;
    ``b`` equal to the dataset size returns the full dataset in canonical
    order.
    """
    n = problem.dataset_size
    if not 1 <= b <= n:
        raise ShapeError(f"batch size {b} not in [1, {n}]")
    if b == n:
        return Minibatch(indices=np.arange(n, dtype=np.int64))
    # swap i hashes derive_seed(seed, _TAG_BATCH, t, i)
    swaps = np.arange(b, dtype=np.uint64)
    h = derive_seeds(seed, _TAG_BATCH, t, last=swaps)
    # the shuffle kept sparse: ``moved`` holds only the positions a swap
    # touched (any other position p holds p), so time and memory are O(b)
    # whatever the dataset size
    moved: dict[int, int] = {}
    for i, j in enumerate((swaps + h % (np.uint64(n) - swaps)).tolist()):
        moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
    return Minibatch(indices=np.array([moved.get(i, i) for i in range(b)],
                                      dtype=np.int64))


def _check_finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise NonFiniteLoss(f"{what} evaluated to {value!r}")
    return float(value)


def _check_finite_rows(values: np.ndarray, what: str) -> np.ndarray:
    bad = ~np.isfinite(values)
    if bad.any():
        row = int(np.argmax(bad))
        raise NonFiniteLoss(f"{what} evaluated to {values[row]!r} at row {row}")
    return values


class _Problem:
    """The surface every problem shares: ``layer_shapes``, ``dimension``,
    ``dataset_size`` and a stored start point that ``initial_params()``
    copies.  A problem without parameters is a ``ShapeError``."""

    def __init__(self, params0, dataset_size: int):
        self._params0 = [np.array(w, dtype=np.float64) for w in params0]
        self.layer_shapes = [w.shape for w in self._params0]
        self.dimension = sum(w.size for w in self._params0)
        if not self.dimension:
            raise ShapeError(f"a problem needs parameters; layers {self.layer_shapes}")
        self.dataset_size = int(dataset_size)

    def initial_params(self) -> list[np.ndarray]:
        return [w.copy() for w in self._params0]


def _start_layers(x0: np.ndarray | None,
                  layer_shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """A stacked start point (zeros for ``None``) split into layers, after
    checking that it has one entry per parameter."""
    d = sum(int(np.prod(s)) for s in layer_shapes)
    x0 = np.zeros(d) if x0 is None else np.asarray(x0, dtype=np.float64)
    if x0.shape != (d,):
        raise ShapeError(f"x0 must have shape {(d,)}, got {x0.shape}")
    return unstack_params(x0, layer_shapes)


class QuadraticProblem(_Problem):
    """``f(x) = x^T H x + b^T x`` over a layered parameter vector.

    ``H`` is stored as its symmetric part ``(H + H^T) / 2``, which gives
    the same loss, so the gradient is ``2 H x + b`` for any ``H`` given.
    For a positive semidefinite ``H`` the gradient Lipschitz constant is
    twice the largest eigenvalue; :meth:`generate`'s is positive definite,
    so its loss is strongly convex.
    Layer shapes define how ``x`` is split into parameter matrices under the
    package's column-major flattening.
    """

    def __init__(self, h: np.ndarray, layer_shapes: list[tuple[int, ...]],
                 b: np.ndarray | None = None,
                 x0: np.ndarray | None = None, dataset_size: int = 512):
        super().__init__(_start_layers(x0, layer_shapes), dataset_size)
        d = self.dimension
        self.h = np.asarray(h, dtype=np.float64)
        if self.h.shape != (d, d):
            raise ShapeError(f"H must be {(d, d)} for these layers, got {self.h.shape}")
        self.h = 0.5 * (self.h + self.h.T)
        self.b = np.zeros(d) if b is None else np.asarray(b, dtype=np.float64)
        if self.b.shape != (d,):
            raise ShapeError(f"b must have shape {(d,)}, got {self.b.shape}")

    @classmethod
    def generate(cls, seed: int, layer_shapes: list[tuple[int, ...]],
                 kappa: float = 10.0, lam_max: float = 1.0,
                 dataset_size: int = 512) -> "QuadraticProblem":
        """Random instance with eigenvalues log-spaced across condition
        number ``kappa`` and a unit-norm random start."""
        d = sum(int(np.prod(s)) for s in layer_shapes)
        stream = GaussianStream(seed)
        q = qr_orthonormal(gaussian_matrix(stream, d, d))
        lams = np.geomspace(lam_max / kappa, lam_max, d)
        x0 = stream.normals(d)
        x0 /= np.linalg.norm(x0)
        # H in numpy's own C loop, not BLAS: the same on any BLAS thread count
        return cls(h=np.einsum("ik,jk->ij", q * lams, q), layer_shapes=layer_shapes,
                   x0=x0, dataset_size=dataset_size)

    def loss(self, params, batch) -> float:
        x = stack_params(params)
        return _check_finite(x.dot(self.h.dot(x)) + self.b.dot(x), "quadratic loss")

    def losses(self, xs: np.ndarray) -> np.ndarray:
        """:meth:`loss` of each row of a ``(K, d)`` block of stacked
        parameter vectors, agreeing with it to rounding."""
        values = np.einsum("kd,kd->k", xs @ self.h, xs) + xs @ self.b
        return _check_finite_rows(values, "quadratic loss")

    def exact_gradient(self, params, batch) -> list[np.ndarray]:
        x = stack_params(params)
        g = 2.0 * (self.h @ x) + self.b
        return unstack_params(g, self.layer_shapes)

    @property
    def smoothness(self) -> float:
        """Gradient Lipschitz constant, diagonalized directly."""
        return 2.0 * float(np.linalg.eigvalsh(self.h)[-1])


class QuarticProblem(_Problem):
    """``f(x) = sum(x_i^4)``; a smooth convex loss with nonvanishing third
    derivatives, used to probe the curvature term of the estimator bias.

    The Hessian is ``diag(12 x_i^2)``, so its Lipschitz constant on a ball
    of radius ``rho`` around ``x`` is bounded by ``24 (max|x_i| + rho)``.
    """

    def __init__(self, layer_shapes: list[tuple[int, ...]],
                 x0: np.ndarray | None = None, dataset_size: int = 512):
        super().__init__(_start_layers(x0, layer_shapes), dataset_size)

    @classmethod
    def generate(cls, seed: int, layer_shapes: list[tuple[int, ...]],
                 dataset_size: int = 512) -> "QuarticProblem":
        d = sum(int(np.prod(s)) for s in layer_shapes)
        x0 = GaussianStream(seed).normals(d)
        return cls(layer_shapes=layer_shapes, x0=x0, dataset_size=dataset_size)

    def loss(self, params, batch) -> float:
        x = stack_params(params)
        return _check_finite(float(np.sum(x ** 4)), "quartic loss")

    def losses(self, xs: np.ndarray) -> np.ndarray:
        """:meth:`loss` of each row of a ``(K, d)`` block of stacked
        parameter vectors, agreeing with it to rounding."""
        return _check_finite_rows(np.sum(xs ** 4, axis=1), "quartic loss")

    def exact_gradient(self, params, batch) -> list[np.ndarray]:
        x = stack_params(params)
        return unstack_params(4.0 * x ** 3, self.layer_shapes)

    def hessian_lipschitz(self, params, radius: float) -> float:
        """Bound on the Hessian's Lipschitz constant within ``radius`` of
        the given point."""
        x = stack_params(params)
        return 24.0 * (float(np.max(np.abs(x))) + radius)


class LogisticProblem(_Problem):
    """Binary logistic regression with the weight kept as one matrix layer.

    Scores are linear in the flattened weight, labels come from a planted
    weight with label noise, and an optional ridge term keeps the problem
    strongly convex.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray,
                 layer_shape: tuple[int, int], l2: float = 0.0,
                 x0: np.ndarray | None = None):
        self.features = np.asarray(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.float64)
        super().__init__(_start_layers(x0, [layer_shape]), self.labels.size)
        p = self.dimension
        if self.features.ndim != 2 or self.features.shape[1] != p:
            raise ShapeError(f"features must be (n, {p}), got {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ShapeError("labels must align with features")
        self.l2 = float(l2)

    @classmethod
    def generate(cls, seed: int, layer_shape: tuple[int, int],
                 dataset_size: int = 512, flip_fraction: float = 0.05,
                 l2: float = 1e-3) -> "LogisticProblem":
        p = int(np.prod(layer_shape))
        stream = GaussianStream(seed)
        features = gaussian_matrix(stream, dataset_size, p)
        planted = stream.normals(p)
        planted /= np.linalg.norm(planted)
        margins = features @ planted
        labels = (margins > 0).astype(np.float64)
        # flip a deterministic slice of labels to keep the optimum interior
        n_flip = int(flip_fraction * dataset_size)
        if n_flip:
            order = np.argsort(np.abs(margins), kind="stable")
            flip = order[:n_flip]
            labels[flip] = 1.0 - labels[flip]
        x0 = 0.1 * stream.normals(p)
        return cls(features=features, labels=labels, layer_shape=layer_shape,
                   l2=l2, x0=x0)

    def loss(self, params, batch) -> float:
        x = stack_params(params)
        rows = self.features[batch.indices]
        y = self.labels[batch.indices]
        z = rows @ x
        value = float(np.mean(np.logaddexp(0.0, z) - y * z))
        value += 0.5 * self.l2 * float(x @ x)
        return _check_finite(value, "logistic loss")

    def exact_gradient(self, params, batch) -> list[np.ndarray]:
        x = stack_params(params)
        rows = self.features[batch.indices]
        y = self.labels[batch.indices]
        z = rows @ x
        p = 0.5 * (1.0 + np.tanh(0.5 * z))
        g = rows.T @ (p - y) / y.size + self.l2 * x
        return unstack_params(g, self.layer_shapes)


class MlpProblem(_Problem):
    """Small tanh network trained by mean squared error against a frozen
    teacher network of the same architecture.

    Parameters alternate matrix and vector layers ``[W1, b1, W2, b2, ...]``,
    which exercises both the low-rank path and the full-space fallback.
    The loss averages over batch examples and output coordinates.

    ``loss`` also takes ``low_rank``, a mapping from a weight layer's index
    to factors ``(u, c, v)``: that layer is then evaluated as
    ``W + u c v^T`` without forming the sum, which is how the two-point
    probe perturbs a large layer without writing it.  :meth:`probe_batch`
    declares this to the estimators: its presence is the protocol.
    """

    def __init__(self, inputs: np.ndarray, targets: np.ndarray,
                 params0: list[np.ndarray]):
        self.inputs = np.asarray(inputs, dtype=np.float64)
        self.targets = np.asarray(targets, dtype=np.float64)
        if self.inputs.ndim != 2 or self.targets.ndim != 2:
            raise ShapeError("inputs and targets must be 2-D")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ShapeError("inputs and targets must align")
        super().__init__(params0, self.inputs.shape[0])

    @staticmethod
    def _draw_params(stream: GaussianStream, widths: list[int]) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            w = gaussian_matrix(stream, fan_in, fan_out) / math.sqrt(fan_in)
            params.append(w)
            params.append(np.zeros(fan_out))
        return params

    @classmethod
    def generate(cls, seed: int, n_features: int = 6, hidden: tuple[int, ...] = (8,),
                 n_outputs: int = 4, dataset_size: int = 256,
                 noise: float = 0.05) -> "MlpProblem":
        widths = [n_features, *hidden, n_outputs]
        stream = GaussianStream(seed)
        inputs = gaussian_matrix(stream, dataset_size, n_features)
        teacher = cls._draw_params(stream, widths)
        *_, targets = _forward(teacher, inputs)
        if noise:
            targets = targets + noise * gaussian_matrix(stream, *targets.shape)
        params0 = cls._draw_params(stream, widths)
        return cls(inputs=inputs, targets=targets, params0=params0)

    def probe_batch(self, params, batch, held) -> Minibatch:
        """``batch`` as the probe's two loss calls take it, given the
        probe's held-out factors ``held`` (``{i: (u, Z, v)}``).  When layer
        0 is held, its input is the batch itself and its weight is never
        written during the probe, so both of its input products are formed
        here once, for both signs: the result is a :class:`ProductBatch`
        holding ``x @ W1`` and ``x @ u``, and the gathered rows ``x`` are
        dropped.  Otherwise ``batch`` is returned as it is, and each loss
        call gathers its rows.  The products are valid while ``W1`` and
        ``u`` are unchanged, that is, within one probe."""
        if 0 not in held:
            return batch
        idx, u = batch.indices, held[0][0]
        x = self.inputs[idx]
        return ProductBatch(indices=idx, xw=x @ params[0], xu=x @ u, u=u)

    def loss(self, params, batch, low_rank=None) -> float:
        first = (batch.xw, batch.xu, batch.u) if isinstance(batch, ProductBatch) else None
        # only the last output is held, and the gathered rows only by _forward
        for out in _forward(params, None if first else self.inputs[batch.indices],
                            low_rank, first):
            pass
        y = self.targets[batch.indices]     # gathered after the forward
        return _check_finite(float(np.mean((out - y) ** 2)), "mlp loss")

    def exact_gradient(self, params, batch) -> list[np.ndarray]:
        x, y = self.inputs[batch.indices], self.targets[batch.indices]
        acts = [x, *_forward(params, x)]
        out = acts[-1]
        grads: list[np.ndarray] = [np.empty(0)] * len(params)
        delta = 2.0 * (out - y) / out.size
        for k in range(len(params) - 2, -2, -2):
            h_in = acts[k // 2]
            grads[k] = h_in.T @ delta
            grads[k + 1] = delta.sum(axis=0)
            if k == 0:
                break
            delta = (delta @ params[k].T) * (1.0 - h_in ** 2)
        return grads


def _forward(params: list[np.ndarray], h: np.ndarray | None,
             low_rank=None, first=None) -> Iterator[np.ndarray]:
    """Each layer's output in turn, from the input rows ``h``; hidden
    layers tanh, final layer linear.  Only a layer's input and output are
    held while it is computed: the input rows are dropped once layer 0 has
    run, and an output once the next layer's has replaced it, unless the
    caller keeps them.

    A weight layer ``k`` in ``low_rank``, with factors ``(u, c, v)``,
    computes ``h @ W + ((h @ u) @ c) @ v.T``: the ``(r, r)`` core stays
    factored, so the perturbed layer is never formed.  ``first``, layer
    0's input products and their ``u``, ``(x @ W1, x @ u, u)``, formed once
    by :meth:`MlpProblem.probe_batch`, stands in for ``h`` (then ``None``):
    layer 0 is formed as ``((x u) c) v^T``, and ``x @ W1`` is added into
    that fresh term, the same sum bit for bit, since IEEE addition is
    commutative.  Layer 0's factors must then carry that same ``u`` array:
    products formed with another ``u`` would give a wrong loss silently.
    """
    if len(params) < 2 or len(params) % 2 != 0:
        raise ShapeError("mlp parameters must alternate weight and bias")
    n_layers = len(params) // 2
    for i in range(n_layers):
        w, b = params[2 * i], params[2 * i + 1]
        factors = None if low_rank is None else low_rank.get(2 * i)
        if i == 0 and first is not None:
            xw, xu, u = first
            if factors is None or factors[0] is not u:
                raise ShapeError("layer 0's input products need the factors "
                                 "they were formed with")
            _, c, v = factors
            h = (xu @ c) @ v.T
            h += xw
        else:
            out = h @ w
            if factors is not None:
                u, c, v = factors
                out += ((h @ u) @ c) @ v.T
            h = out
        _add_bias(h, b)
        if i < n_layers - 1:
            np.tanh(h, out=h)
        yield h


def _add_bias(h: np.ndarray, b: np.ndarray) -> None:
    """``h += b`` in blocks of rows of at most 512 entries, bit for bit the
    same additions.  numpy gives a broadcast in-place add an iterator
    buffer the size of its operand, up to 64 kB; a block's is at most
    4 kB.  A block of one row is a 1-D row of ``h``, whose add broadcasts
    nothing and takes no buffer (half the time of a ``(1, n)`` block)."""
    rows = 512 // b.size
    if rows <= 1:
        for row in h:
            row += b
        return
    for start in range(0, len(h), rows):
        block = h[start:start + rows]
        block += b


def full_batch(problem) -> Minibatch:
    """The whole dataset in canonical order; used for validation losses."""
    return Minibatch(indices=np.arange(problem.dataset_size, dtype=np.int64))
