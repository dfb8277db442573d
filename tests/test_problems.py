"""Problem implementations against independent oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from subzero.errors import NonFiniteLoss, ShapeError
from oracles import fd_gradient
from subzero.numcore import (_GOLDEN, GaussianStream, _mix64, derive_seed,
                             unstack_params)
from subzero.problems import (_TAG_BATCH, LogisticProblem, Minibatch, MlpProblem,
                              ProductBatch, QuadraticProblem, QuarticProblem,
                              _add_bias, _forward, full_batch, sample_minibatch)


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

    def test_an_asymmetric_h_is_read_as_its_symmetric_part(self):
        prob = QuadraticProblem(h=[[2.0, 1.0], [0.0, 3.0]], layer_shapes=[(2,)],
                                x0=[1.0, -2.0])
        params = prob.initial_params()
        np.testing.assert_array_equal(prob.exact_gradient(params, None)[0], [2.0, -11.0])
        assert_gradients_match(prob, params, full_batch(prob), rtol=1e-6, atol=1e-9)
        # the symmetric part's eigenvalues are (5 -+ sqrt(2)) / 2
        assert prob.smoothness == pytest.approx(5.0 + math.sqrt(2.0), rel=1e-12)

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
        # the probe_batch hook declares the factored loss; only the MLP has it
        assert callable(MlpProblem.probe_batch)
        assert not any(hasattr(cls, "probe_batch") for cls in
                       (QuadraticProblem, QuarticProblem, LogisticProblem))
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


    def first_layer_factors(self, params, r=2):
        m, n = params[0].shape
        stream = GaussianStream(12)
        return (stream.normals(m * r).reshape(m, r), stream.normals(r * r).reshape(r, r),
                stream.normals(n * r).reshape(n, r))

    @pytest.mark.parametrize("coeff", [1e-3, -1e-3])
    def test_product_batch_forward_equals_the_gathered_one_bit_for_bit(self, coeff):
        # wide enough that a reordered product changes some bits
        prob = MlpProblem.generate(9, n_features=16, hidden=(24, 4), n_outputs=3,
                                   dataset_size=64)
        params = prob.initial_params()
        params[1] = GaussianStream(13).normals(params[1].size)
        u, z, v = self.first_layer_factors(params, r=8)
        batch = sample_minibatch(prob, 3, 1, 16)
        products = prob.probe_batch(params, batch, {0: (u, z, v)})
        assert isinstance(products, ProductBatch)
        assert np.array_equal(products.indices, batch.indices)
        low_rank = {0: (u, coeff * z, v)}
        gathered = _forward(params, prob.inputs[batch.indices], low_rank)
        assert products.u is u
        shared = _forward(params, None, low_rank, (products.xw, products.xu, u))
        for a, b in zip(gathered[1:], shared[1:]):
            assert a.tobytes() == b.tobytes()
        got = prob.loss(params, products, low_rank=low_rank)
        assert got.hex() == prob.loss(params, batch, low_rank=low_rank).hex()

    def test_probe_batch_without_layer_zero_is_the_batch(self):
        params = self.prob.initial_params()
        batch = sample_minibatch(self.prob, 3, 1, 16)
        assert self.prob.probe_batch(params, batch, {}) is batch
        m, n = params[2].shape
        held = {2: (np.ones((m, 1)), np.ones((1, 1)), np.ones((n, 1)))}
        assert self.prob.probe_batch(params, batch, held) is batch

    @pytest.mark.parametrize("shape", [(32, 512), (32, 64), (256, 64), (1, 8), (37, 24)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_bias_blocks_add_what_a_broadcast_adds(self, shape):
        # one 1-D row per block at 512 columns, 8 rows at 64, one short
        # block at (1, 8), and a last partial block of 16 rows at (37, 24)
        s = GaussianStream(21)
        h, b = s.normals(math.prod(shape)).reshape(shape), s.normals(shape[1])
        expected = h.copy()
        expected += b
        _add_bias(h, b)
        assert h.tobytes() == expected.tobytes()

    def test_a_loss_holds_no_broadcast_buffer(self):
        # a plain (32, 64) batch through a 64-64-16 MLP: the gathered rows
        # x and the hidden activation h (16 kB each), at most 4 kB of
        # iterator buffer per bias block, and as slack the (32, 16) output
        # (4 kB) and 4 kB of Python objects.  A broadcast ``h += b`` took a
        # 16 kB buffer here (54.7 kB in all, against 42.6 kB)
        b, n = 32, 64
        prob = MlpProblem.generate(1, n_features=n, hidden=(n,), n_outputs=16,
                                   dataset_size=256)
        params = prob.initial_params()
        batch = sample_minibatch(prob, 1, 0, b)
        prob.loss(params, batch)
        tracemalloc.start()
        try:
            prob.loss(params, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        x = h = 8 * b * n
        assert peak < x + h + 4096 + (8 * b * 16 + 4096), peak

    def test_product_batch_needs_the_first_layer_factors(self):
        params = self.prob.initial_params()
        factors = self.first_layer_factors(params)
        products = self.prob.probe_batch(params, full_batch(self.prob), {0: factors})
        with pytest.raises(ShapeError):
            self.prob.loss(params, products)
        assert math.isfinite(self.prob.loss(params, products, low_rank={0: factors}))

    def test_product_batch_refuses_factors_with_another_u(self):
        # products formed with one u would give a wrong loss with another
        params = self.prob.initial_params()
        u, c, v = self.first_layer_factors(params)
        products = self.prob.probe_batch(params, full_batch(self.prob), {0: (u, c, v)})
        for other in (u.copy(), 2.0 * u):
            with pytest.raises(ShapeError):
                self.prob.loss(params, products, low_rank={0: (other, c, v)})


@pytest.mark.parametrize("build,match", [
    (lambda: QuadraticProblem(h=np.eye(4), layer_shapes=[(2, 2)], b=np.zeros(3)),
     "b must have shape"),
    (lambda: QuadraticProblem(h=np.eye(4), layer_shapes=[(2, 2)], x0=np.zeros(3)),
     "x0 must have shape"),
    (lambda: QuarticProblem([(2, 2), (3,)], x0=np.zeros((7, 1))),
     "x0 must have shape"),
    (lambda: LogisticProblem(np.zeros((5, 3)), np.zeros(5), (2, 2)),
     "features must be"),
    (lambda: LogisticProblem(np.zeros(4), np.zeros(1), (2, 2)),
     "features must be"),
    (lambda: LogisticProblem(np.zeros((5, 4)), np.zeros(4), (2, 2)),
     "labels must align"),
    # checked when the problem is built, not first in initial_params
    (lambda: LogisticProblem(np.zeros((5, 4)), np.zeros(5), (2, 2), x0=np.zeros(5)),
     "x0 must have shape"),
    (lambda: MlpProblem(np.zeros(5), np.zeros((5, 2)), [np.zeros((1, 2)), np.zeros(2)]),
     "must be 2-D"),
    (lambda: MlpProblem(np.zeros((5, 1)), np.zeros((4, 2)),
                        [np.zeros((1, 2)), np.zeros(2)]),
     "must align"),
])
def test_constructors_reject_misshaped_inputs(build, match):
    with pytest.raises(ShapeError, match=match):
        build()


@pytest.mark.parametrize("build", [
    lambda: QuarticProblem.generate(1, []),
    lambda: QuadraticProblem(np.zeros((0, 0)), []),
], ids=["quartic-generate", "quadratic"])
def test_a_problem_without_parameters_is_refused(build):
    # the shared base refuses it, so no check, step or sampler runs on
    # zero parameters
    with pytest.raises(ShapeError, match="a problem needs parameters"):
        build()


def test_start_point_is_copied_at_construction():
    x0 = np.arange(6.0)
    prob = LogisticProblem(np.zeros((5, 6)), np.zeros(5), (2, 3), x0=x0)
    x0[:] = -1.0
    first = prob.initial_params()
    first[0][:] = 7.0
    np.testing.assert_array_equal(prob.initial_params()[0],
                                  np.arange(6.0).reshape(2, 3, order="F"))


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

    # indices of the per-swap hashed loop this sampler replaced, computed
    # with it: (seed, t, b, n) -> indices
    GOLDEN = {
        (5, 3, 8, 64): [15, 11, 59, 45, 55, 0, 29, 53],
        (0, 0, 1, 2): [0],
        (2 ** 64 - 1, 7, 16, 17): [13, 7, 2, 14, 9, 5, 0, 1, 12, 3, 11, 8, 10, 15,
                                   16, 4],
        (1, 599, 32, 256): [31, 233, 62, 160, 172, 164, 159, 38, 219, 109, 64, 209,
                            152, 220, 255, 51, 190, 9, 66, 1, 121, 60, 239, 112,
                            119, 166, 181, 42, 129, 127, 153, 195],
        (1, 599, 32, 512): [287, 477, 458, 418, 96, 192, 453, 155, 219, 26, 16, 217,
                            300, 466, 313, 504, 46, 233, 284, 116, 425, 212, 169,
                            302, 71, 293, 275, 136, 257, 207, 139, 187],
        (3, 11, 32, 65536): [35357, 51719, 4177, 63559, 55485, 11473, 55636, 19893,
                             56938, 5137, 42942, 47838, 23464, 59867, 11543, 1107,
                             26224, 26738, 42082, 61748, 25650, 11849, 56281, 21804,
                             59838, 27455, 47229, 1469, 28247, 41383, 40370, 61602],
        (7, 2, 5, 1000003): [708217, 476958, 923999, 500035, 799459],
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN), ids=str)
    def test_indices_are_pinned(self, case):
        seed, t, b, n = case
        prob = QuadraticProblem(np.eye(1), [(1,)], dataset_size=n)
        batch = sample_minibatch(prob, seed, t, b)
        assert batch.indices.dtype == np.int64
        assert batch.indices.tolist() == self.GOLDEN[case]

    def test_indices_match_the_scalar_shuffle(self):
        # the partial Fisher-Yates shuffle with one scalar hash per swap
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 300))
            b = int(rng.integers(1, n))
            seed, t = int(rng.integers(0, 2 ** 63)), int(rng.integers(0, 10 ** 6))
            key = derive_seed(seed, _TAG_BATCH, t)
            perm = list(range(n))
            for i in range(b):
                j = i + _mix64(key + _GOLDEN * (i + 1)) % (n - i)
                perm[i], perm[j] = perm[j], perm[i]
            prob = QuadraticProblem(np.eye(1), [(1,)], dataset_size=n)
            assert sample_minibatch(prob, seed, t, b).indices.tolist() == perm[:b]

    def test_memory_does_not_grow_with_the_dataset(self):
        # the shuffle touches only the positions it swaps: O(b), not O(n)
        peaks = []
        for n in (256, 1 << 20):
            prob = QuadraticProblem(np.eye(1), [(1,)], dataset_size=n)
            sample_minibatch(prob, 1, 0, 32)
            tracemalloc.start()
            try:
                sample_minibatch(prob, 1, 5, 32)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 4096, peaks

    def test_full_batch_helper(self):
        batch = full_batch(self.prob)
        assert batch.size == 64
        assert np.array_equal(batch.indices, np.arange(64))
