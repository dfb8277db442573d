"""Probe mechanics and gradient estimates: the seeded estimator, with
full-space SPSA as its all-fallback case, and the dense-subspace probe."""

import math
import tracemalloc

import numpy as np
import pytest

from subzero import estimators
from subzero.errors import AllocationRefused, NonFiniteLoss, ShapeError
from subzero.estimators import (DENSE_ENTRY_CAP, LossDifference,
                                dense_subspace_probe, subzero_estimate,
                                two_sided_loss_diff)
from subzero.numcore import GaussianStream, stack_params
from subzero.perturbation import (_DOT_MAX_ENTRIES, Direction, axpy_perturbation,
                                  build_pairs, draw_direction, held_out_factors,
                                  iter_perturbation_layers)
from subzero.problems import (MlpProblem, QuadraticProblem, full_batch,
                              sample_minibatch)
from subzero.verification import estimator_diagnostics


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
        # the aligned 4x3 core at rank 2 carries sqrt(12) / 2, so rho is the
        # derivative along the scaled direction, not the plain one
        prob, params, pairs, batch = quadratic_setup()
        direction = draw_direction(params, pairs, 9, aligned=True)
        ld = two_sided_loss_diff(prob, params, pairs, batch, 1e-4, seed=direction)
        g = stack_params(prob.exact_gradient(params, batch))
        delta = stack_params(list(iter_perturbation_layers(params, pairs, direction)))
        plain = stack_params(list(iter_perturbation_layers(params, pairs, 9)))
        assert ld.rho == pytest.approx(float(g @ delta), rel=1e-7)
        assert float(g @ delta) != pytest.approx(float(g @ plain), rel=1e-3)


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
        # a stored direction holding the seed's full-space draws (P = I)
        # gives the seeded full-space estimate bit for bit
        prob, params, _, batch = quadratic_setup()
        s = GaussianStream(4)
        stored = Direction(4, [s.normals(w.size).reshape(w.shape) for w in params])
        ld_s, dense = subzero_estimate(prob, [w.copy() for w in params],
                                       [None, None], batch, 1e-4, stored)
        ld_f, full = subzero_estimate(prob, [w.copy() for w in params],
                                      [None, None], batch, 1e-4, seed=4)
        assert ld_s == ld_f
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

    def test_q_must_be_positive(self):
        prob, params, _, batch = quadratic_setup()
        with pytest.raises(ShapeError):
            dense_subspace_probe(prob, params, batch, 1e-3, q=0, seed=0)

    # (loss_plus, loss_minus) and the last estimate layer, as float.hex, of
    # the probe at the initial parameters on the full batch, q=4, seed=7
    PINS = {
        "quadratic": (("0x1.dee7398509249p-2", "0x1.ddb3ffb9bc8e6p-2"),
                      ["0x1.d7d4635747d3bp-2", "-0x1.550af2c561f2dp-1",
                       "0x1.9966e9bf318c5p-7", "0x1.f15390879b884p+0",
                       "0x1.ce7a7e5824cb7p-1"]),
        "mlp": (("0x1.dd5b39c8b918bp-1", "0x1.dc87024300c9cp-1"),
                ["-0x1.61ac6f1513699p-4", "-0x1.7ad93f1c98034p-1",
                 "0x1.ecb682f75551cp-6", "-0x1.11a84e346b47ep-3"]),
    }

    @pytest.mark.parametrize("cell", sorted(PINS))
    def test_probe_losses_and_estimate_are_pinned(self, cell):
        if cell == "quadratic":
            prob = QuadraticProblem.generate(3, [(4, 3), (5,)])
        else:
            prob = MlpProblem.generate(37, dataset_size=64)
        ld, est = dense_subspace_probe(prob, prob.initial_params(),
                                       full_batch(prob), 1e-3, q=4, seed=7)
        losses, layer = self.PINS[cell]
        assert (ld.loss_plus.hex(), ld.loss_minus.hex()) == losses
        assert [float(x).hex() for x in est.layers[-1]] == layer

    def test_meta(self):
        prob, params, _, batch = quadratic_setup()
        _, est = dense_subspace_probe(prob, params, batch, 1e-3, q=4, seed=12)
        assert est.meta.family == "spsa_dense_subspace"
        assert est.meta.q == 4
        assert est.meta.seed == 12


def held_out_setup(seed=4):
    """A 64-96-8 MLP at rank 16: W1 (64x96, 6144 entries) is native and
    above the dot cut-over, so the probe holds it out; W2 (96x8) is relaid
    to 32x24 and stays in the in-place passes with both biases."""
    prob = MlpProblem.generate(seed, n_features=64, hidden=(96,), n_outputs=8,
                               dataset_size=64)
    params = prob.initial_params()
    pairs = build_pairs(GaussianStream(seed + 100), params, 16)
    assert params[0].size > _DOT_MAX_ENTRIES
    assert (pairs[0].shape.rows, pairs[0].shape.cols) == params[0].shape
    assert params[2].shape != (pairs[2].shape.rows, pairs[2].shape.cols)
    return prob, params, pairs, full_batch(prob)


class _LowRankSpy:
    """Forwards the ``probe_batch`` hook, which declares the factored loss,
    and counts its calls; records every loss call: the held-out layer's
    bytes, a copy of the other layers and the ``low_rank`` keys.  Returns
    inf on the ``fail_at``-th loss call."""

    def __init__(self, inner, fail_at=None):
        self.inner = inner
        self.fail_at = fail_at
        self.dataset_size = inner.dataset_size
        self.calls = []
        self.probe_batches = 0

    def probe_batch(self, params, batch, held):
        self.probe_batches += 1
        return self.inner.probe_batch(params, batch, held)

    def loss(self, params, batch, low_rank=None):
        params = [np.asarray(w) for w in params]
        self.calls.append((params[0].tobytes(), [w.copy() for w in params[1:]],
                           sorted(low_rank or ())))
        if len(self.calls) == self.fail_at:
            return math.inf
        return self.inner.loss(params, batch, low_rank=low_rank)


class TestHeldOutLayers:
    """The probe leaves a large native layer out of its in-place passes and
    hands it to the loss in factored form."""

    @pytest.mark.parametrize("scaled", [False, True], ids=["plain", "scale_z"])
    def test_factored_rho_matches_the_in_place_probe(self, scaled):
        prob, params, pairs, batch = held_out_setup()
        for seed in range(6):
            direction = draw_direction(params, pairs, seed, scaled)
            factored = two_sided_loss_diff(prob, params, pairs, batch, 1e-3,
                                           direction)
            in_place = two_sided_loss_diff(_Counting(prob), params, pairs, batch,
                                           1e-3, direction)
            assert factored.rho == pytest.approx(in_place.rho, rel=1e-9)
            assert factored.loss_plus == pytest.approx(in_place.loss_plus, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_shared_products_equal_direct_loss_calls_bit_for_bit(self, seed):
        # the same in-place passes, with each loss call gathering the batch
        # and forming x @ W1 itself
        prob, params, pairs, batch = held_out_setup()
        direction = draw_direction(params, pairs, seed, aligned=True)
        direct = [w.copy() for w in params]
        held = held_out_factors(direct, direction)
        u, z, v = held[0]
        eps = 1e-3
        axpy_perturbation(direct, pairs, direction, eps, held)
        plus = prob.loss(direct, batch, low_rank={0: (u, eps * z, v)})
        axpy_perturbation(direct, pairs, direction, -2.0 * eps, held)
        minus = prob.loss(direct, batch, low_rank={0: (u, -eps * z, v)})
        ld = two_sided_loss_diff(prob, params, pairs, batch, eps, direction)
        assert ld.loss_plus.hex() == plus.hex()
        assert ld.loss_minus.hex() == minus.hex()

    def test_a_pending_core_is_part_of_its_layer(self):
        # the trainer's pending core A: the probe sees W + U A V^T
        prob, params, pairs, batch = held_out_setup()
        core = draw_direction(params, pairs, 9).layers[0][1] * 1e-2
        merged = [w.copy() for w in params]
        merged[0] += pairs[0].u @ core @ pairs[0].v.T
        lazy = two_sided_loss_diff(prob, params, pairs, batch, 1e-3, 3, {0: core})
        eager = two_sided_loss_diff(prob, merged, pairs, batch, 1e-3, 3)
        assert lazy.rho == pytest.approx(eager.rho, rel=1e-9)
        assert lazy.loss_plus == pytest.approx(eager.loss_plus, rel=1e-12)

    def test_a_pending_core_needs_its_layer_held(self):
        prob, params, pairs, batch = held_out_setup()
        before = [w.copy() for w in params]
        for problem, pending in ((_Counting(prob), {0: np.zeros((16, 16))}),
                                 (prob, {2: np.zeros((16, 16))})):
            with pytest.raises(ValueError, match="held"):
                two_sided_loss_diff(problem, params, pairs, batch, 1e-3, 3, pending)
        assert all(np.array_equal(w, b) for w, b in zip(params, before))

    def test_hook_is_called_once_per_probe(self):
        prob, params, pairs, batch = held_out_setup()
        spy = _LowRankSpy(prob)
        two_sided_loss_diff(spy, params, pairs, batch, 1e-3, seed=3)
        assert spy.probe_batches == 1 and len(spy.calls) == 2
        subzero_estimate(spy, params, pairs, batch, 1e-3, seed=4)
        assert spy.probe_batches == 2 and len(spy.calls) == 4

    def test_shared_products_lower_the_probe_peak(self):
        # n_features = h, as in the wide benchmark, so the gathered rows the
        # probe no longer holds are one b x h activation; the probe keeps
        # x @ u (b x r) across both calls instead, and a few Python objects
        b, h, r = 32, 128, 16
        prob = MlpProblem.generate(4, n_features=h, hidden=(h,), n_outputs=8,
                                   dataset_size=64)

        class SeparateProducts:
            """The earlier loss path: each call gathers its rows and forms
            x @ W1 itself."""

            dataset_size = prob.dataset_size
            loss = prob.loss

            def probe_batch(self, params, batch, held):
                return batch

        params = prob.initial_params()
        pairs = build_pairs(GaussianStream(104), params, r)
        batch = sample_minibatch(prob, 1, 0, b)
        direction = draw_direction(params, pairs, 3)
        peaks = []
        for problem in (prob, SeparateProducts()):
            two_sided_loss_diff(problem, params, pairs, batch, 1e-3, direction)
            tracemalloc.start()
            try:
                two_sided_loss_diff(problem, params, pairs, batch, 1e-3, direction)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        shared, separate = peaks
        assert separate - shared >= 8 * (b * h - b * r) - 1024

    def test_held_out_layer_is_never_written(self):
        prob, params, pairs, batch = held_out_setup()
        spy = _LowRankSpy(prob)
        w1 = params[0].tobytes()
        before = [w.copy() for w in params]
        two_sided_loss_diff(spy, params, pairs, batch, 1e-3, seed=3)
        assert [keys for _, _, keys in spy.calls] == [[0], [0]]
        assert all(held == w1 for held, _, _ in spy.calls)
        # the other layers were displaced during the probe, and came back
        assert all(np.max(np.abs(a - b)) > 0.0 for a, b in zip(spy.calls[0][1],
                                                               before[1:]))
        assert params[0].tobytes() == w1
        for w, b in zip(params, before):
            assert np.max(np.abs(w - b)) <= 1e-12

    @pytest.mark.parametrize("fail_at", [1, 2], ids=["plus", "minus"])
    def test_non_finite_loss_restores_and_leaves_the_held_out_layer(self, fail_at):
        prob, params, pairs, batch = held_out_setup()
        w1 = params[0].tobytes()
        before = [w.copy() for w in params]
        with pytest.raises(NonFiniteLoss):
            two_sided_loss_diff(_LowRankSpy(prob, fail_at), params, pairs, batch,
                                1e-3, seed=3)
        assert params[0].tobytes() == w1
        for w, b in zip(params, before):
            assert np.max(np.abs(w - b)) <= 1e-12

    # the in-place adds of one probe pass: b1, W2 and b2 (W1 is held out)
    @pytest.mark.parametrize("fail_at", range(9),
                             ids=[f"pass{k // 3}-{name}" for k, name in
                                  enumerate(("b1", "W2", "b2") * 3)])
    def test_failed_add_restores_and_leaves_the_held_out_layer(self, fail_at):
        prob, params, pairs, batch = held_out_setup()
        touches = 0

        class FailingAdd(np.ndarray):
            def __iadd__(self, other):
                nonlocal touches
                touches += 1
                if touches == fail_at + 1:
                    raise MemoryError("injected")
                return super().__iadd__(other)

        params = [w.view(FailingAdd) for w in params]
        w1 = params[0].tobytes()
        before = [np.array(w) for w in params]
        direction = draw_direction(params, pairs, 3, aligned=True)
        with pytest.raises(MemoryError):
            two_sided_loss_diff(_LowRankSpy(prob), params, pairs, batch, 1e-3,
                                seed=direction)
        assert params[0].tobytes() == w1
        for w, b in zip(params, before):
            assert np.max(np.abs(w - b)) <= 1e-12

    def test_block_sampler_guard_passes_with_a_held_out_layer(self):
        prob, params, pairs, _ = held_out_setup()
        row = estimator_diagnostics(prob, params, "subzero", 64, pairs=pairs)
        assert row.n_mc == 64 and math.isfinite(row.cosine)
