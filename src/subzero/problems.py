"""Desk-scale test problems with exact gradients.

Every problem exposes the same surface: ``dataset_size``, ``initial_params()``
returning a fresh list of float64 arrays, ``loss(params, batch)`` returning a
scalar mean loss over the batch, and ``exact_gradient(params, batch)``
returning arrays shaped like the parameters.  Losses are pure functions of
their arguments; they never mutate parameters and raise
:class:`NonFiniteLoss` instead of returning NaN or infinity.

The quadratic and quartic families ignore the batch contents (every example
is the same function), which keeps estimator statistics exact while still
exercising the minibatch plumbing.  They also offer ``losses(xs)``, the loss
of each row of a ``(K, d)`` block of stacked parameter vectors: an optional
speed-up that lets the verification checks evaluate many probes in one
numpy call, not a capability they need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteLoss, ShapeError
from .numcore import (GaussianStream, _GOLDEN, _MASK64, _mix64, derive_seed,
                      gaussian_matrix, qr_orthonormal, stack_params,
                      unstack_params)

_TAG_BATCH = 0x53


@dataclass(frozen=True, eq=False)
class Minibatch:
    """Indices of the examples a loss evaluation averages over."""

    indices: np.ndarray

    @property
    def size(self) -> int:
        return int(self.indices.size)


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
    key = derive_seed(seed, _TAG_BATCH, t)
    perm = np.arange(n, dtype=np.int64)
    for i in range(b):
        h = _mix64((key + _GOLDEN * (i + 1)) & _MASK64)
        j = i + h % (n - i)
        perm[i], perm[j] = perm[j], perm[i]
    return Minibatch(indices=perm[:b].copy())


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


def _copy_params(params) -> list[np.ndarray]:
    return [np.array(w, dtype=np.float64) for w in params]


class QuadraticProblem:
    """``f(x) = x^T H x + b^T x`` over a layered parameter vector.

    ``H`` is symmetric positive definite, so the loss is strongly convex
    with curvature known in closed form: the gradient is ``2 H x + b`` and
    the gradient Lipschitz constant is twice the largest eigenvalue.
    Layer shapes define how ``x`` is split into parameter matrices under the
    package's column-major flattening.
    """

    name = "quadratic"

    def __init__(self, h: np.ndarray, layer_shapes: list[tuple[int, ...]],
                 b: np.ndarray | None = None,
                 x0: np.ndarray | None = None, dataset_size: int = 512):
        h = np.asarray(h, dtype=np.float64)
        d = sum(int(np.prod(s)) for s in layer_shapes)
        if h.shape != (d, d):
            raise ShapeError(f"H must be {(d, d)} for these layers, got {h.shape}")
        self.h = h
        self.b = np.zeros(d) if b is None else np.asarray(b, dtype=np.float64)
        if self.b.shape != (d,):
            raise ShapeError(f"b must have shape {(d,)}, got {self.b.shape}")
        self.layer_shapes = [tuple(s) for s in layer_shapes]
        self.dimension = d
        self.dataset_size = int(dataset_size)
        self._x0 = np.zeros(d) if x0 is None else np.asarray(x0, dtype=np.float64)
        if self._x0.shape != (d,):
            raise ShapeError(f"x0 must have shape {(d,)}, got {self._x0.shape}")

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
        h = (q * lams) @ q.T
        h = 0.5 * (h + h.T)
        x0 = stream.normals(d)
        x0 /= np.linalg.norm(x0)
        return cls(h=h, layer_shapes=layer_shapes, x0=x0,
                   dataset_size=dataset_size)

    def initial_params(self) -> list[np.ndarray]:
        return unstack_params(self._x0, self.layer_shapes)

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


class QuarticProblem:
    """``f(x) = sum(x_i^4)``; a smooth convex loss with nonvanishing third
    derivatives, used to probe the curvature term of the estimator bias.

    The Hessian is ``diag(12 x_i^2)``, so its Lipschitz constant on a ball
    of radius ``rho`` around ``x`` is bounded by ``24 (max|x_i| + rho)``.
    """

    name = "quartic"

    def __init__(self, layer_shapes: list[tuple[int, ...]],
                 x0: np.ndarray | None = None, dataset_size: int = 512):
        d = sum(int(np.prod(s)) for s in layer_shapes)
        self.layer_shapes = [tuple(s) for s in layer_shapes]
        self.dimension = d
        self.dataset_size = int(dataset_size)
        self._x0 = np.zeros(d) if x0 is None else np.asarray(x0, dtype=np.float64)
        if self._x0.shape != (d,):
            raise ShapeError(f"x0 must have shape {(d,)}, got {self._x0.shape}")

    @classmethod
    def generate(cls, seed: int, layer_shapes: list[tuple[int, ...]],
                 dataset_size: int = 512) -> "QuarticProblem":
        d = sum(int(np.prod(s)) for s in layer_shapes)
        x0 = GaussianStream(seed).normals(d)
        return cls(layer_shapes=layer_shapes, x0=x0, dataset_size=dataset_size)

    def initial_params(self) -> list[np.ndarray]:
        return unstack_params(self._x0, self.layer_shapes)

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


class LogisticProblem:
    """Binary logistic regression with the weight kept as one matrix layer.

    Scores are linear in the flattened weight, labels come from a planted
    weight with label noise, and an optional ridge term keeps the problem
    strongly convex.
    """

    name = "logistic"

    def __init__(self, features: np.ndarray, labels: np.ndarray,
                 layer_shape: tuple[int, int], l2: float = 0.0,
                 x0: np.ndarray | None = None):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        p = int(np.prod(layer_shape))
        if features.ndim != 2 or features.shape[1] != p:
            raise ShapeError(f"features must be (n, {p}), got {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ShapeError("labels must align with features")
        self.features = features
        self.labels = labels
        self.layer_shapes = [tuple(layer_shape)]
        self.l2 = float(l2)
        self.dimension = p
        self.dataset_size = features.shape[0]
        self._x0 = np.zeros(p) if x0 is None else np.asarray(x0, dtype=np.float64)

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

    def initial_params(self) -> list[np.ndarray]:
        return unstack_params(self._x0, self.layer_shapes)

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


class MlpProblem:
    """Small tanh network trained by mean squared error against a frozen
    teacher network of the same architecture.

    Parameters alternate matrix and vector layers ``[W1, b1, W2, b2, ...]``,
    which exercises both the low-rank path and the full-space fallback.
    The loss averages over batch examples and output coordinates.
    """

    name = "mlp"

    def __init__(self, inputs: np.ndarray, targets: np.ndarray,
                 params0: list[np.ndarray]):
        self.inputs = np.asarray(inputs, dtype=np.float64)
        self.targets = np.asarray(targets, dtype=np.float64)
        if self.inputs.ndim != 2 or self.targets.ndim != 2:
            raise ShapeError("inputs and targets must be 2-D")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ShapeError("inputs and targets must align")
        self._params0 = _copy_params(params0)
        self.layer_shapes = [w.shape for w in self._params0]
        self.dimension = sum(w.size for w in self._params0)
        self.dataset_size = self.inputs.shape[0]

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
        targets = _forward(teacher, inputs)[-1]
        if noise:
            targets = targets + noise * gaussian_matrix(stream, *targets.shape)
        params0 = cls._draw_params(stream, widths)
        return cls(inputs=inputs, targets=targets, params0=params0)

    def initial_params(self) -> list[np.ndarray]:
        return _copy_params(self._params0)

    def _batch_data(self, batch):
        idx = batch.indices
        return self.inputs[idx], self.targets[idx]

    def loss(self, params, batch) -> float:
        x, y = self._batch_data(batch)
        out = _forward(params, x)[-1]
        return _check_finite(float(np.mean((out - y) ** 2)), "mlp loss")

    def exact_gradient(self, params, batch) -> list[np.ndarray]:
        x, y = self._batch_data(batch)
        acts = _forward(params, x)
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


def _forward(params: list[np.ndarray], x: np.ndarray) -> list[np.ndarray]:
    """Activations per layer; hidden layers tanh, final layer linear."""
    if len(params) < 2 or len(params) % 2 != 0:
        raise ShapeError("mlp parameters must alternate weight and bias")
    acts = [x]
    h = x
    n_layers = len(params) // 2
    for i in range(n_layers):
        w, b = params[2 * i], params[2 * i + 1]
        h = h @ w + b
        if i < n_layers - 1:
            h = np.tanh(h)
        acts.append(h)
    return acts


def full_batch(problem) -> Minibatch:
    """The whole dataset in canonical order; used for validation losses."""
    return Minibatch(indices=np.arange(problem.dataset_size, dtype=np.int64))
