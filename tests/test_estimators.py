"""Probe mechanics and gradient estimates: the seeded estimator, with
full-space SPSA as its all-fallback case, and the dense-subspace probe."""

import math

import numpy as np
import pytest

from subzero import estimators
from subzero.errors import AllocationRefused, NonFiniteLoss, ShapeError
from subzero.estimators import (DENSE_ENTRY_CAP, LossDifference,
                                dense_subspace_probe, subzero_estimate,
                                two_sided_loss_diff)
from subzero.numcore import GaussianStream, stack_params
from subzero.perturbation import build_pairs, iter_perturbation_layers
from subzero.problems import QuadraticProblem, full_batch


def quadratic_setup(seed=3, shapes=((4, 3), (5,)), rank=2):
    prob = QuadraticProblem.generate(seed, list(shapes))
    params = prob.initial_params()
    pairs = build_pairs(GaussianStream(seed + 100), params, rank)
    return prob, params, pairs, full_batch(prob)


class _Counting:
    """Wraps a problem and counts loss evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.dataset_size = inner.dataset_size

    def loss(self, params, batch):
        self.calls += 1
        return self.inner.loss(params, batch)


class _FailsAt:
    """Returns inf on the n-th loss call to exercise the restore path."""

    def __init__(self, inner, fail_at):
        self.inner = inner
        self.fail_at = fail_at
        self.calls = 0
        self.dataset_size = inner.dataset_size

    def loss(self, params, batch):
        self.calls += 1
        if self.calls == self.fail_at:
            return math.inf
        return self.inner.loss(params, batch)


class TestLossDifference:
    def test_rho_is_central_difference(self):
        ld = LossDifference(loss_plus=1.2, loss_minus=0.8, epsilon=0.1)
        assert ld.rho == pytest.approx((1.2 - 0.8) / 0.2)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            LossDifference(loss_plus=0.0, loss_minus=0.0, epsilon=0.0)


class TestTwoSidedProbe:
    @pytest.mark.parametrize("epsilon", [0.0, -1e-3])
    @pytest.mark.parametrize("probe", ["seeded", "dense"])
    def test_bad_epsilon_refused_before_any_pass(self, probe, epsilon):
        prob, params, pairs, batch = quadratic_setup()
        counting = _Counting(prob)
        before = [w.tobytes() for w in params]
        with pytest.raises(ValueError, match="epsilon must be positive"):
            if probe == "seeded":
                two_sided_loss_diff(counting, params, pairs, batch, epsilon, seed=1)
            else:
                dense_subspace_probe(counting, params, batch, epsilon, 3, seed=1)
        assert counting.calls == 0
        assert [w.tobytes() for w in params] == before

    def test_exactly_two_loss_evaluations(self):
        prob, params, pairs, batch = quadratic_setup()
        counting = _Counting(prob)
        two_sided_loss_diff(counting, params, pairs, batch, 1e-3, seed=1)
        assert counting.calls == 2

    def test_restores_parameters(self):
        prob, params, pairs, batch = quadratic_setup()
        before = [w.copy() for w in params]
        two_sided_loss_diff(prob, params, pairs, batch, 1e-2, seed=5)
        for w, b in zip(params, before):
            assert np.max(np.abs(w - b)) <= 1e-12

    def test_probe_losses_are_on_the_segment(self):
        prob, params, pairs, batch = quadratic_setup()
        ld = two_sided_loss_diff(prob, params, pairs, batch, 1e-2, seed=5)
        deltas = list(iter_perturbation_layers(params, pairs, seed=5))
        plus = [w + 1e-2 * d for w, d in zip(params, deltas)]
        minus = [w - 1e-2 * d for w, d in zip(params, deltas)]
        assert ld.loss_plus == pytest.approx(prob.loss(plus, batch), rel=1e-9)
        assert ld.loss_minus == pytest.approx(prob.loss(minus, batch), rel=1e-9)

    def test_restore_after_failure_on_first_eval(self):
        prob, params, pairs, batch = quadratic_setup()
        before = [w.copy() for w in params]
        with pytest.raises(NonFiniteLoss):
            two_sided_loss_diff(_FailsAt(prob, 1), params, pairs, batch,
                                1e-3, seed=2)
        for w, b in zip(params, before):
            assert np.max(np.abs(w - b)) <= 1e-12

    def test_restore_after_failure_on_second_eval(self):
        prob, params, pairs, batch = quadratic_setup()
        before = [w.copy() for w in params]
        with pytest.raises(NonFiniteLoss):
            two_sided_loss_diff(_FailsAt(prob, 2), params, pairs, batch,
                                1e-3, seed=2)
        for w, b in zip(params, before):
            assert np.max(np.abs(w - b)) <= 1e-12


class TestSubzeroEstimate:
    def test_rho_equals_directional_derivative_on_quadratic(self):
        # central differences are exact for quadratics, so rho must match
        # the inner product of the true gradient with the direction
        prob, params, pairs, batch = quadratic_setup()
        ld, est = subzero_estimate(prob, params, pairs, batch, 1e-4, seed=9)
        g = stack_params(prob.exact_gradient(params, batch))
        delta = stack_params(list(iter_perturbation_layers(params, pairs, 9)))
        assert ld.rho == pytest.approx(float(g @ delta), rel=1e-7)

    def test_estimate_factorizes_as_rho_times_direction(self):
        prob, params, pairs, batch = quadratic_setup()
        ld, est = subzero_estimate(prob, params, pairs, batch, 1e-4, seed=9)
        deltas = list(iter_perturbation_layers(params, pairs, 9))
        for layer, delta in zip(est.layers, deltas):
            assert np.array_equal(layer, ld.rho * delta)

    def test_meta_records_provenance(self):
        prob, params, pairs, batch = quadratic_setup()
        _, est = subzero_estimate(prob, params, pairs, batch, 1e-4, seed=9)
        assert est.meta.family == "subzero"
        assert est.meta.seed == 9
        assert est.meta.epsilon == 1e-4
        assert est.meta.q == 2 * 2 + 5

    def test_stacked_uses_column_major_convention(self):
        prob, params, pairs, batch = quadratic_setup()
        _, est = subzero_estimate(prob, params, pairs, batch, 1e-4, seed=9)
        assert np.array_equal(est.stacked(), stack_params(est.layers))

    def test_deterministic_replay_from_fresh_start(self):
        prob, _, _, batch = quadratic_setup()
        outs = []
        for _ in range(2):
            params = prob.initial_params()
            pairs = build_pairs(GaussianStream(103), params, 2)
            ld, est = subzero_estimate(prob, params, pairs, batch, 1e-4, seed=77)
            outs.append((ld, est))
        assert outs[0][0].rho == outs[1][0].rho
        for a, b in zip(outs[0][1].layers, outs[1][1].layers):
            assert np.array_equal(a, b)

    def test_layer_count_mismatch(self):
        prob, params, pairs, batch = quadratic_setup()
        with pytest.raises(ShapeError):
            subzero_estimate(prob, params, pairs[:1], batch, 1e-4, seed=0)

    def test_z_scales_scale_the_probe_direction(self):
        prob, params, pairs, batch = quadratic_setup()
        scales = [2.0, 1.0]
        ld = two_sided_loss_diff(prob, params, pairs, batch, 1e-4, seed=9,
                                 z_scales=scales)
        g = stack_params(prob.exact_gradient(params, batch))
        delta = stack_params(list(
            iter_perturbation_layers(params, pairs, 9, z_scales=scales)))
        assert ld.rho == pytest.approx(float(g @ delta), rel=1e-7)


class TestSpsaFull:
    """Full-space SPSA: :func:`subzero_estimate` with every pair ``None``."""

    def test_is_subzero_with_full_fallback_everywhere(self):
        # every layer takes its full Gaussian draw from the stream in layer
        # order, and the estimate is rho times those draws, bit for bit
        prob, params, _, batch = quadratic_setup()
        ld, est = subzero_estimate(prob, params, [None, None], batch, 1e-4,
                                   seed=4)
        s = GaussianStream(4)
        draws = [s.normals(w.size).reshape(w.shape) for w in params]
        for layer, z in zip(est.layers, draws):
            assert np.array_equal(layer, ld.rho * z)

    def test_q_equals_total_dimension(self):
        prob, params, _, batch = quadratic_setup()
        _, est = subzero_estimate(prob, params, [None, None], batch, 1e-4, seed=4)
        assert est.meta.q == 12 + 5


class TestDenseSubspace:
    def test_identity_projection_reproduces_full_space(self):
        prob, params, _, batch = quadratic_setup()
        d = sum(w.size for w in params)
        _, dense = dense_subspace_probe(prob, [w.copy() for w in params], batch,
                                        1e-4, q=d, seed=4, projection=np.eye(d))
        _, full = subzero_estimate(prob, [w.copy() for w in params],
                                   [None, None], batch, 1e-4, seed=4)
        for a, b in zip(dense.layers, full.layers):
            assert np.array_equal(a, b)

    def test_estimate_lies_in_projection_range(self):
        prob, params, _, batch = quadratic_setup()
        ld, est = dense_subspace_probe(prob, params, batch, 1e-4, q=3, seed=6)
        d = sum(w.size for w in params)
        s = GaussianStream(6)
        z = s.normals(3)
        p = s.normals(d * 3).reshape(d, 3)
        flat = np.concatenate([layer.ravel() for layer in est.layers])
        assert np.allclose(flat, ld.rho * (p @ z), atol=1e-15)

    def test_two_evaluations_and_restore(self):
        prob, params, _, batch = quadratic_setup()
        counting = _Counting(prob)
        before = [w.copy() for w in params]
        dense_subspace_probe(counting, params, batch, 1e-3, q=4, seed=1)
        assert counting.calls == 2
        for w, b in zip(params, before):
            assert np.max(np.abs(w - b)) <= 1e-12

    def test_restore_after_failure(self):
        prob, params, _, batch = quadratic_setup()
        before = [w.copy() for w in params]
        with pytest.raises(NonFiniteLoss):
            dense_subspace_probe(_FailsAt(prob, 2), params, batch, 1e-3,
                                 q=4, seed=1)
        for w, b in zip(params, before):
            assert np.max(np.abs(w - b)) <= 1e-12

    def test_allocation_cap_enforced(self, monkeypatch):
        assert DENSE_ENTRY_CAP == 10 ** 8
        prob, params, _, batch = quadratic_setup()
        monkeypatch.setattr(estimators, "DENSE_ENTRY_CAP", 10)
        with pytest.raises(AllocationRefused):
            dense_subspace_probe(prob, params, batch, 1e-3, q=4, seed=0)

    def test_projection_shape_validated(self):
        prob, params, _, batch = quadratic_setup()
        with pytest.raises(ShapeError):
            dense_subspace_probe(prob, params, batch, 1e-3, q=2, seed=0,
                                 projection=np.eye(5))

    def test_q_must_be_positive(self):
        prob, params, _, batch = quadratic_setup()
        with pytest.raises(ShapeError):
            dense_subspace_probe(prob, params, batch, 1e-3, q=0, seed=0)

    def test_meta(self):
        prob, params, _, batch = quadratic_setup()
        _, est = dense_subspace_probe(prob, params, batch, 1e-3, q=4, seed=12)
        assert est.meta.family == "spsa_dense_subspace"
        assert est.meta.q == 4
        assert est.meta.seed == 12
