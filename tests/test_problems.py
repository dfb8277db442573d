"""Problem implementations against independent oracles."""

import math

import numpy as np
import pytest

from subzero.errors import NonFiniteLoss, ShapeError
from oracles import fd_gradient
from subzero.numcore import GaussianStream, unstack_params
from subzero.problems import (LogisticProblem, Minibatch, MlpProblem,
                              QuadraticProblem, QuarticProblem, full_batch,
                              sample_minibatch)


def flatten_colmajor(params):
    """Independent re-statement of the flattening convention."""
    parts = []
    for w in params:
        if w.ndim == 2:
            for j in range(w.shape[1]):
                parts.extend(w[:, j].tolist())
        else:
            parts.extend(w.tolist())
    return np.array(parts)


def assert_gradients_match(problem, params, batch, rtol=1e-5, atol=1e-7):
    exact = problem.exact_gradient(params, batch)
    fd = fd_gradient(problem, params, batch)
    for a, b in zip(exact, fd):
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=rtol, atol=atol)


class TestQuadratic:
    def setup_method(self):
        self.prob = QuadraticProblem.generate(7, [(3, 2), (4,), (2, 2)])

    def test_loss_matches_direct_quadratic_form(self):
        params = self.prob.initial_params()
        x = flatten_colmajor(params)
        expected = float(x @ self.prob.h @ x + self.prob.b @ x)
        got = self.prob.loss(params, full_batch(self.prob))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        assert_gradients_match(self.prob, self.prob.initial_params(),
                               full_batch(self.prob), rtol=1e-6, atol=1e-9)

    def test_hessian_is_positive_definite(self):
        eigs = np.linalg.eigvalsh(self.prob.h)
        assert eigs[0] > 0
        assert eigs[-1] / eigs[0] == pytest.approx(10.0, rel=1e-6)

    def test_smoothness_matches_power_iteration(self):
        a = 2.0 * self.prob.h
        v = GaussianStream(0).normals(a.shape[0])
        for _ in range(500):
            v = a @ v
            v /= np.linalg.norm(v)
        lam = float(v @ a @ v)
        assert self.prob.smoothness == pytest.approx(lam, rel=1e-8)

    def _loss_at(self, x):
        return self.prob.loss(unstack_params(x, self.prob.layer_shapes),
                              full_batch(self.prob))

    def test_global_min_is_a_lower_bound(self):
        xstar = np.linalg.solve(2.0 * self.prob.h, -self.prob.b)
        fmin = self._loss_at(xstar)
        for seed in range(5):
            x = xstar + 0.1 * GaussianStream(seed).normals(self.prob.dimension)
            assert self._loss_at(x) >= fmin - 1e-12

    def test_zero_linear_term_has_zero_minimum(self):
        xstar = np.linalg.solve(2.0 * self.prob.h, -self.prob.b)
        assert self._loss_at(xstar) == pytest.approx(0.0, abs=1e-12)

    def test_start_is_unit_norm(self):
        x = flatten_colmajor(self.prob.initial_params())
        assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-12)

    def test_loss_ignores_batch_contents(self):
        params = self.prob.initial_params()
        a = self.prob.loss(params, Minibatch(indices=np.array([0])))
        b = self.prob.loss(params, Minibatch(indices=np.array([3, 7])))
        assert a == b

    def test_overflow_raises_non_finite(self):
        params = self.prob.initial_params()
        params[0] *= 1e200
        with np.errstate(over="ignore"), pytest.raises(NonFiniteLoss):
            self.prob.loss(params, full_batch(self.prob))

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            QuadraticProblem(h=np.eye(3), layer_shapes=[(2, 2)])

    def test_row_losses_match_loss(self):
        assert_row_losses_match_loss(self.prob)


def assert_row_losses_match_loss(prob):
    """``losses`` of stacked rows equals ``loss`` of each row's layers to
    rounding, and a non-finite row raises."""
    stream = GaussianStream(11)
    xs = np.stack([stream.normals(prob.dimension) for _ in range(7)])
    got = prob.losses(xs)
    assert got.shape == (7,)
    for x, value in zip(xs, got):
        expected = prob.loss(unstack_params(x, prob.layer_shapes), full_batch(prob))
        assert value == pytest.approx(expected, rel=1e-12)
    xs[3, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLoss, match="row 3"):
        prob.losses(xs)


class TestQuartic:
    def setup_method(self):
        self.prob = QuarticProblem.generate(3, [(3, 3)])

    def test_loss_is_sum_of_fourth_powers(self):
        params = self.prob.initial_params()
        x = flatten_colmajor(params)
        assert self.prob.loss(params, full_batch(self.prob)) == pytest.approx(
            float(np.sum(x ** 4)), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        assert_gradients_match(self.prob, self.prob.initial_params(),
                               full_batch(self.prob), rtol=1e-5, atol=1e-7)

    def test_hessian_lipschitz_bound(self):
        params = self.prob.initial_params()
        x = flatten_colmajor(params)
        got = self.prob.hessian_lipschitz(params, radius=0.5)
        assert got == pytest.approx(24.0 * (np.max(np.abs(x)) + 0.5))
        # third derivative of x^4 is 24 x, so the bound dominates it inside
        # the ball
        assert got >= 24.0 * np.max(np.abs(x))

    def test_row_losses_match_loss(self):
        assert_row_losses_match_loss(QuarticProblem.generate(4, [(3, 2), (5,)]))


def reference_logistic_loss(features, labels, x, l2):
    z = features @ x
    # stable cross entropy, written differently from the implementation
    per = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - labels * z
    return float(np.mean(per)) + 0.5 * l2 * float(x @ x)


def reference_logistic_gradient(features, labels, x, l2):
    z = features @ x
    p = 1.0 / (1.0 + np.exp(-z))
    return features.T @ (p - labels) / labels.size + l2 * x


class TestLogistic:
    def setup_method(self):
        self.prob = LogisticProblem.generate(5, (4, 3), dataset_size=128)

    def test_loss_matches_reference_formula(self):
        params = self.prob.initial_params()
        x = flatten_colmajor(params)
        batch = full_batch(self.prob)
        expected = reference_logistic_loss(self.prob.features, self.prob.labels,
                                           x, self.prob.l2)
        assert self.prob.loss(params, batch) == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_reference_formula(self):
        params = self.prob.initial_params()
        x = flatten_colmajor(params)
        batch = Minibatch(indices=np.arange(40, dtype=np.int64))
        got = flatten_colmajor(self.prob.exact_gradient(params, batch))
        expected = reference_logistic_gradient(
            self.prob.features[:40], self.prob.labels[:40], x, self.prob.l2)
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_gradient_matches_finite_differences(self):
        batch = Minibatch(indices=np.arange(32, dtype=np.int64))
        assert_gradients_match(self.prob, self.prob.initial_params(), batch,
                               rtol=1e-4, atol=1e-8)

    def test_labels_are_binary_with_planted_flips(self):
        assert set(np.unique(self.prob.labels)) <= {0.0, 1.0}
        clean = LogisticProblem.generate(5, (4, 3), dataset_size=128,
                                         flip_fraction=0.0)
        diff = int(np.sum(self.prob.labels != clean.labels))
        assert diff == int(0.05 * 128)

    def test_single_layer_shape(self):
        assert self.prob.layer_shapes == [(4, 3)]
        params = self.prob.initial_params()
        assert params[0].shape == (4, 3)


class TestMlp:
    def setup_method(self):
        self.prob = MlpProblem.generate(9, n_features=5, hidden=(6, 4),
                                        n_outputs=3, dataset_size=64)

    def test_parameter_layout_alternates(self):
        params = self.prob.initial_params()
        assert [w.shape for w in params] == [(5, 6), (6,), (6, 4), (4,), (4, 3), (3,)]

    def test_loss_matches_loop_forward(self):
        params = self.prob.initial_params()
        batch = Minibatch(indices=np.arange(10, dtype=np.int64))
        total = 0.0
        count = 0
        for idx in batch.indices:
            h = self.prob.inputs[idx]
            h = np.tanh(h @ params[0] + params[1])
            h = np.tanh(h @ params[2] + params[3])
            out = h @ params[4] + params[5]
            total += float(np.sum((out - self.prob.targets[idx]) ** 2))
            count += out.size
        assert self.prob.loss(params, batch) == pytest.approx(total / count,
                                                              rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        batch = Minibatch(indices=np.arange(16, dtype=np.int64))
        assert_gradients_match(self.prob, self.prob.initial_params(), batch,
                               rtol=1e-4, atol=1e-8)

    def test_single_hidden_layer_gradient(self):
        prob = MlpProblem.generate(2, n_features=3, hidden=(4,), n_outputs=2,
                                   dataset_size=32)
        assert_gradients_match(prob, prob.initial_params(), full_batch(prob),
                               rtol=1e-4, atol=1e-8)

    def test_initial_params_are_fresh_copies(self):
        a = self.prob.initial_params()
        b = self.prob.initial_params()
        a[0][0, 0] += 1.0
        assert b[0][0, 0] != a[0][0, 0]

    def test_gradient_does_not_mutate_params(self):
        params = self.prob.initial_params()
        before = [w.copy() for w in params]
        self.prob.exact_gradient(params, full_batch(self.prob))
        for w, b in zip(params, before):
            assert np.array_equal(w, b)

    def test_odd_parameter_count_rejected(self):
        params = self.prob.initial_params()[:-1]
        with pytest.raises(ShapeError):
            self.prob.loss(params, full_batch(self.prob))

    @pytest.mark.parametrize("layer", [2, 4], ids=["hidden", "output"])
    def test_low_rank_factors_equal_the_layer_formed_whole(self, layer):
        assert MlpProblem.loss_takes_low_rank
        params = self.prob.initial_params()
        m, n = params[layer].shape
        stream = GaussianStream(11)
        u = stream.normals(m * 2).reshape(m, 2)
        c = stream.normals(4).reshape(2, 2)
        v = stream.normals(n * 2).reshape(n, 2)
        whole = [w.copy() for w in params]
        whole[layer] += u @ c @ v.T
        batch = full_batch(self.prob)
        before = [w.tobytes() for w in params]
        got = self.prob.loss(params, batch, low_rank={layer: (u, c, v)})
        assert got == pytest.approx(self.prob.loss(whole, batch), rel=1e-12)
        assert got != pytest.approx(self.prob.loss(params, batch), rel=1e-6)
        assert [w.tobytes() for w in params] == before


class TestMinibatch:
    def setup_method(self):
        self.prob = QuadraticProblem.generate(1, [(8, 8)], dataset_size=64)

    def test_deterministic_in_seed_and_step(self):
        a = sample_minibatch(self.prob, 5, 3, 8)
        b = sample_minibatch(self.prob, 5, 3, 8)
        assert np.array_equal(a.indices, b.indices)

    def test_steps_give_different_batches(self):
        a = sample_minibatch(self.prob, 5, 3, 8)
        b = sample_minibatch(self.prob, 5, 4, 8)
        assert not np.array_equal(a.indices, b.indices)

    def test_indices_distinct_and_in_range(self):
        for t in range(50):
            batch = sample_minibatch(self.prob, 2, t, 16)
            assert batch.size == 16
            assert len(set(batch.indices.tolist())) == 16
            assert batch.indices.min() >= 0
            assert batch.indices.max() < 64

    def test_full_batch_is_canonical_order(self):
        batch = sample_minibatch(self.prob, 9, 0, 64)
        assert np.array_equal(batch.indices, np.arange(64))

    def test_marginal_uniformity(self):
        counts = np.zeros(64)
        draws = 40_000
        for t in range(draws):
            counts[sample_minibatch(self.prob, 11, t, 16).indices] += 1
        expected = draws * 16 / 64
        assert np.max(np.abs(counts - expected)) < 0.05 * expected

    def test_bounds_checked(self):
        with pytest.raises(ShapeError):
            sample_minibatch(self.prob, 0, 0, 0)
        with pytest.raises(ShapeError):
            sample_minibatch(self.prob, 0, 0, 65)

    def test_full_batch_helper(self):
        batch = full_batch(self.prob)
        assert batch.size == 64
        assert np.array_equal(batch.indices, np.arange(64))
