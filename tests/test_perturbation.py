"""Projection pairs, layer plans, seeded perturbations and relayout."""

import math

import numpy as np
import pytest

from subzero import estimators, perturbation
from subzero.errors import ShapeError
from subzero.numcore import GaussianStream, gaussian_matrix, stack_params
from subzero.errors import ConfigError
from subzero.optimizer import OptimizerConfig
from subzero.problems import QuarticProblem, full_batch
from oracles import Injected, failing_views, stream_calls
from subzero.perturbation import (RESHAPE_POLICIES, Direction, LayerPlan,
                                  LayerShape, PerturbSpec, ProjectionPair,
                                  axpy_perturbation, build_pairs,
                                  draw_direction, generate_proj_pair,
                                  iter_perturbation_layers, pairs_from_plan,
                                  perturb_params_inplace, plan_layers,
                                  reshape_near_square, reshaped_view,
                                  subspace_dimension)


def two_layer_params(seed=0):
    s = GaussianStream(seed)
    return [gaussian_matrix(s, 4, 3), s.normals(5)]


def alignment_scale(pair):
    """Norm alignment's core scale for a pair: sqrt(m * n) / r."""
    return math.sqrt(pair.u.shape[0] * pair.v.shape[0]) / pair.rank


def layout_bytes(direction):
    """A direction's values, layer by layer: a kept array's bytes, the
    ``Z`` bytes of a ``(u, Z, v)`` or a replayed layer's stream counter."""
    return [layer[1].tobytes() if type(layer) is tuple
            else layer.tobytes() if type(layer) is np.ndarray else layer
            for layer in direction.layers]


def assert_cores_scaled(monkeypatch, params, pairs, scales, seed=17):
    """An aligned draw's cores are ``scales[i]`` times the plain draw's, bit
    for bit, one per matrix layer; the vector layers are the plain ones.
    With no layer formed, each core is the ``Z`` of its ``(u, Z, v)``."""
    monkeypatch.setattr(perturbation, "_KEPT_BYTES", 0)
    plain = draw_direction(params, pairs, seed)
    aligned = draw_direction(params, pairs, seed, aligned=True)
    assert aligned.seed == plain.seed
    cores = [(a[1], p[1]) for a, p, pair in zip(aligned.layers, plain.layers, pairs)
             if pair is not None]
    assert len(cores) == len(scales)
    for (a, p), scale in zip(cores, scales):
        assert a.shape == p.shape and a.tobytes() == (float(scale) * p).tobytes()
    for a, p, pair in zip(layout_bytes(aligned), layout_bytes(plain), pairs):
        if pair is None:    # the same kept values, or the same stream counter
            assert a == p


class TestProjectionPair:
    def test_draw_count_is_m_plus_n_times_r(self):
        s = GaussianStream(0)
        generate_proj_pair(s, 6, 4, 2)
        assert s.index == (6 + 4) * 2

    def test_factors_orthonormal(self):
        pair = generate_proj_pair(GaussianStream(1), 7, 5, 3)
        assert np.max(np.abs(pair.u.T @ pair.u - np.eye(3))) < 1e-12
        assert np.max(np.abs(pair.v.T @ pair.v - np.eye(3))) < 1e-12

    def test_rank_and_shape_properties(self):
        pair = generate_proj_pair(GaussianStream(2), 6, 4, 2)
        assert pair.rank == 2
        assert pair.shape == LayerShape(6, 4)

    def test_deterministic_in_seed(self):
        a = generate_proj_pair(GaussianStream(9), 5, 4, 2)
        b = generate_proj_pair(GaussianStream(9), 5, 4, 2)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)

    def test_rank_bounds_enforced(self):
        with pytest.raises(ShapeError):
            generate_proj_pair(GaussianStream(0), 4, 3, 4)
        with pytest.raises(ShapeError):
            generate_proj_pair(GaussianStream(0), 4, 3, 0)

    def test_mismatched_factor_ranks_rejected(self):
        with pytest.raises(ShapeError):
            ProjectionPair(u=np.zeros((4, 2)), v=np.zeros((3, 1)))

    @pytest.mark.parametrize("build,match", [
        (lambda: LayerShape(0, 3), "must be positive"),
        (lambda: LayerShape(4, -1), "must be positive"),
        (lambda: ProjectionPair(u=np.zeros(4), v=np.zeros((3, 1))), "must be matrices"),
        (lambda: ProjectionPair(u=np.zeros((4, 1)), v=np.zeros((1, 3, 1))),
         "must be matrices"),
    ])
    def test_misshaped_geometry_rejected(self, build, match):
        with pytest.raises(ShapeError, match=match):
            build()


class TestLowRankPerturbation:
    """A matrix layer's perturbation is ``U Z V^T`` with the seed's core."""

    def test_matches_einsum_oracle(self):
        pair = generate_proj_pair(GaussianStream(3), 5, 4, 2)
        (got,) = iter_perturbation_layers([np.zeros((5, 4))], [pair], seed=4)
        z = gaussian_matrix(GaussianStream(4), 2, 2)
        oracle = np.einsum("ir,rs,js->ij", pair.u, z, pair.v)
        assert np.max(np.abs(got - oracle)) < 1e-13

    def test_frobenius_norm_equals_core_norm(self):
        # orthonormal factors preserve the Frobenius norm of the core
        pair = generate_proj_pair(GaussianStream(5), 6, 5, 3)
        (got,) = iter_perturbation_layers([np.zeros((6, 5))], [pair], seed=6)
        z = gaussian_matrix(GaussianStream(6), 3, 3)
        assert np.linalg.norm(got) == pytest.approx(np.linalg.norm(z), rel=1e-12)


def brute_force_near_square(m, n):
    total = m * n
    best = (total, 1)
    for b in range(1, int(math.isqrt(total)) + 1):
        if total % b == 0:
            a = total // b
            if a / b < best[0] / best[1]:
                best = (a, b)
    return best


class TestReshapeNearSquare:
    @pytest.mark.parametrize("m,n,expected", [
        (2048, 8, (128, 128)),
        (3, 2, (3, 2)),
        (12, 3, (6, 6)),
        (9, 4, (6, 6)),
        (7, 1, (7, 1)),       # prime count cannot improve
        (6, 6, (6, 6)),
        (100, 1, (10, 10)),
        (5, 3, (5, 3)),
    ])
    def test_cases(self, m, n, expected):
        geom = reshape_near_square(m, n)
        assert (geom.rows, geom.cols) == expected

    def test_matches_brute_force_oracle(self):
        for m, n in [(17, 4), (30, 14), (128, 3), (44, 44), (13, 13)]:
            geom = reshape_near_square(m, n)
            assert (geom.rows, geom.cols) == brute_force_near_square(m, n)

    def test_result_divides_product(self):
        geom = reshape_near_square(360, 7)
        assert geom.rows * geom.cols == 360 * 7
        assert geom.rows >= geom.cols

    def test_rejects_nonpositive(self):
        with pytest.raises(ShapeError):
            reshape_near_square(0, 5)

    @staticmethod
    def upward_search(total):
        """The earlier search: the smallest divisor at or above sqrt(total),
        tried upward one by one, so O(total) on a prime."""
        start = math.isqrt(total)
        if start * start < total:
            start += 1
        for a in range(start, total + 1):
            if total % a == 0:
                return a, total // a

    @pytest.mark.parametrize("totals", [range(1, 3001), [1_000_003, 999_983 * 2]])
    def test_matches_the_upward_search(self, totals):
        for total in totals:
            geom = reshape_near_square(total, 1)
            assert (geom.rows, geom.cols) == self.upward_search(total), total


class TestReshapedView:
    def test_shares_memory(self):
        w = np.zeros((2048, 8))
        view = reshaped_view(w, LayerShape(128, 128))
        assert np.shares_memory(w, view)
        view[0, 0] = 7.0
        assert w[0, 0] == 7.0

    def test_row_major_correspondence(self):
        w = np.arange(12.0).reshape(3, 4)
        view = reshaped_view(w, LayerShape(6, 2))
        assert np.array_equal(view.ravel(), w.ravel())

    def test_size_mismatch_raises(self):
        with pytest.raises(ShapeError):
            reshaped_view(np.zeros((3, 4)), LayerShape(5, 2))

    def test_non_contiguous_raises(self):
        w = np.zeros((6, 6))[:, ::2]
        with pytest.raises(ShapeError):
            reshaped_view(w, LayerShape(9, 2))


class TestPlanLayers:
    def test_vector_layers_get_full_fallback(self):
        plans = plan_layers(two_layer_params(), rank=2)
        assert plans[0] == LayerPlan(shape=LayerShape(4, 3), rank=2)
        assert plans[1] == LayerPlan(shape=None, rank=5)

    def test_never_clamps_rank(self):
        plans = plan_layers([np.zeros((5, 2))], rank=4, reshape="never")
        assert plans[0] == LayerPlan(shape=LayerShape(5, 2), rank=2)

    def test_auto_reshapes_only_when_rank_does_not_fit(self):
        plans = plan_layers([np.zeros((2048, 8)), np.zeros((6, 6))], rank=32)
        assert plans[0].shape == LayerShape(128, 128)
        assert plans[0].rank == 32
        assert plans[1].shape == LayerShape(6, 6)  # fits natively, untouched
        fits = plan_layers([np.zeros((2048, 8))], rank=4)
        assert fits[0].shape == LayerShape(2048, 8)

    def test_bad_inputs(self):
        with pytest.raises(ShapeError):
            plan_layers([np.zeros((2, 2))], rank=0)
        with pytest.raises(ValueError):
            plan_layers([np.zeros((2, 2))], rank=1, reshape="sometimes")
        with pytest.raises(ShapeError):
            plan_layers([np.zeros((2, 2, 2))], rank=1)


    @pytest.mark.parametrize("policy", RESHAPE_POLICIES)
    def test_config_and_planner_accept_every_listed_policy(self, policy):
        assert OptimizerConfig(reshape=policy).reshape == policy
        plan_layers([np.zeros((8, 2))], rank=3, reshape=policy)

    def test_config_and_planner_reject_an_unlisted_policy(self):
        assert "always" not in RESHAPE_POLICIES
        with pytest.raises(ConfigError):
            OptimizerConfig(reshape="always")
        with pytest.raises(ValueError):
            plan_layers([np.zeros((8, 2))], rank=3, reshape="always")


class TestBuildPairs:
    def test_one_pair_per_matrix_layer(self):
        params = two_layer_params()
        pairs = build_pairs(GaussianStream(0), params, 2)
        assert pairs[0] is not None and pairs[0].rank == 2
        assert pairs[1] is None

    def test_pairs_follow_plan_geometry(self):
        pairs = build_pairs(GaussianStream(0), [np.zeros((2048, 8))], 32)
        assert pairs[0].shape == LayerShape(128, 128)
        assert pairs[0].rank == 32

    def test_stream_order_is_layer_order(self):
        params = [np.zeros((4, 3)), np.zeros((3, 2))]
        s = GaussianStream(5)
        pairs = pairs_from_plan(s, plan_layers(params, 1))
        expected_first = generate_proj_pair(GaussianStream(5), 4, 3, 1)
        assert np.array_equal(pairs[0].u, expected_first.u)
        assert s.index == (4 + 3) * 1 + (3 + 2) * 1


class TestSubspaceDimension:
    def test_counts_cores_and_vectors(self):
        params = two_layer_params()
        pairs = build_pairs(GaussianStream(0), params, 2)
        assert subspace_dimension(params, pairs) == 2 * 2 + 5

    def test_full_fallback_equals_total_dimension(self):
        params = two_layer_params()
        assert subspace_dimension(params, [None, None]) == 12 + 5


class TestIterPerturbationLayers:
    def test_replay_is_bit_identical(self):
        params = two_layer_params()
        pairs = build_pairs(GaussianStream(0), params, 2)
        first = list(iter_perturbation_layers(params, pairs, seed=11))
        second = list(iter_perturbation_layers(params, pairs, seed=11))
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_matches_manual_construction(self):
        params = two_layer_params()
        pairs = build_pairs(GaussianStream(0), params, 2)
        deltas = list(iter_perturbation_layers(params, pairs, seed=13))
        s = GaussianStream(13)
        z = gaussian_matrix(s, 2, 2)
        manual0 = pairs[0].u @ z @ pairs[0].v.T
        manual1 = s.normals(5)
        assert np.max(np.abs(deltas[0] - manual0)) < 1e-15
        assert np.array_equal(deltas[1], manual1)

    def test_native_shapes(self):
        params = two_layer_params()
        pairs = build_pairs(GaussianStream(0), params, 2)
        deltas = list(iter_perturbation_layers(params, pairs, seed=1))
        assert deltas[0].shape == (4, 3)
        assert deltas[1].shape == (5,)

    def test_reshaped_pair_yields_native_shape(self):
        params = [np.zeros((2048, 8))]
        pairs = build_pairs(GaussianStream(2), params, 32)
        (delta,) = iter_perturbation_layers(params, pairs, seed=3)
        assert delta.shape == (2048, 8)
        # row-major relayout: flattening commutes with the geometry change
        s = GaussianStream(3)
        z = gaussian_matrix(s, 32, 32)
        square = pairs[0].u @ (z @ pairs[0].v.T)
        assert np.array_equal(delta.ravel(), square.ravel())

    @pytest.mark.parametrize("shape, rank", [
        ((3, 2), 1), ((6, 6), 2), ((40, 30), 4), ((64, 64), 16),
        ((65, 64), 16), ((512, 8), 16), ((96, 96), 3)],
        ids=lambda x: "x".join(map(str, x)) if isinstance(x, tuple) else f"r{x}")
    def test_core_product_equals_matmul_bit_for_bit(self, shape, rank):
        # small layers take ndarray.dot, large ones @; both must give the
        # bytes of u @ (z @ v.T)
        params = [np.zeros(shape)]
        (pair,) = build_pairs(GaussianStream(4), params, rank)
        (delta,) = iter_perturbation_layers(params, [pair], seed=9)
        r = pair.rank
        z = gaussian_matrix(GaussianStream(9), r, r)
        expected = (pair.u @ (z @ pair.v.T)).reshape(shape)
        assert delta.tobytes() == expected.tobytes()

    def test_low_rank_in_reshaped_geometry(self):
        params = [np.zeros((2048, 8))]
        pairs = build_pairs(GaussianStream(2), params, 32)
        (delta,) = iter_perturbation_layers(params, pairs, seed=3)
        sv = np.linalg.svd(delta.reshape(128, 128), compute_uv=False)
        assert sv[32] < 1e-12 * sv[0]

    def test_geometry_size_mismatch_raises(self):
        pair = generate_proj_pair(GaussianStream(0), 4, 3, 2)
        with pytest.raises(ShapeError):
            list(iter_perturbation_layers([np.zeros((5, 2))], [pair], seed=0))

    def test_layer_count_mismatch_raises(self):
        with pytest.raises(ShapeError):
            list(iter_perturbation_layers(two_layer_params(), [None], seed=0))

    def test_z_scales_multiply_exactly(self):
        # an aligned direction scales the 4x3 layer at rank 2 by sqrt(12) / 2
        params = two_layer_params()
        pairs = build_pairs(GaussianStream(0), params, 2)
        plain = list(iter_perturbation_layers(params, pairs, seed=4))
        scaled = list(iter_perturbation_layers(
            params, pairs, draw_direction(params, pairs, 4, aligned=True)))
        scale = math.sqrt(12) / 2
        assert np.max(np.abs(scaled[0] - scale * plain[0])) < 1e-15
        assert np.array_equal(scaled[1], plain[1])


class TestDrawnDirection:
    # native 4x3, a vector between matrix layers, a relayout of 8x2 to 4x4,
    # a native 128x64 past the ndarray.dot cut-over, and a trailing vector
    SHAPES = ((4, 3), (7,), (8, 2), (128, 64), (5,))

    def layers(self):
        s = GaussianStream(8)
        params = [s.normals(math.prod(shape)).reshape(shape) for shape in self.SHAPES]
        plans = plan_layers(params, rank=3)
        pairs = pairs_from_plan(GaussianStream(1), plans)
        return params, pairs

    @staticmethod
    def walk_the_stream(params, pairs, seed, aligned):
        # the definition: one stream walked in layer order, r**2 core values
        # per matrix layer and size values per vector layer, each core
        # scaled by sqrt(m * n) / r as drawn when aligned
        s = GaussianStream(seed)
        out = []
        for w, pair in zip(params, pairs):
            if pair is None:
                delta = s.normals(w.size).reshape(w.shape)
            else:
                z = gaussian_matrix(s, pair.rank, pair.rank)
                if aligned:
                    z = alignment_scale(pair) * z
                delta = (pair.u @ (z @ pair.v.T)).reshape(w.shape)
            out.append(delta)
        return out

    @pytest.mark.parametrize("aligned", [False, True], ids=["plain", "scale_z"])
    def test_drawn_direction_replays_the_seed_bit_for_bit(self, aligned):
        params, pairs = self.layers()
        direction = draw_direction(params, pairs, 17, aligned)
        assert direction.seed == 17 and len(direction.layers) == len(params)
        expected = self.walk_the_stream(params, pairs, 17, aligned)
        # an int seed is drawn plain, so only the aligned direction replays
        for seed in (direction,) if aligned else (17, direction):
            got = list(iter_perturbation_layers(params, pairs, seed))
            assert [d.tobytes() for d in got] == [d.tobytes() for d in expected]
        moved = []
        # a pass scales nothing, so an aligned int seed is drawn first
        for seed in (draw_direction(params, pairs, 17, aligned) if aligned else 17,
                     direction):
            work = [w.copy() for w in params]
            axpy_perturbation(work, pairs, seed, -0.3)
            moved.append(b"".join(w.tobytes() for w in work))
        assert moved[0] == moved[1]

    def test_a_drawn_direction_is_passed_through(self):
        params, pairs = self.layers()
        direction = draw_direction(params, pairs, 3)
        assert draw_direction(params, pairs, direction) is direction
        assert isinstance(direction, Direction)

    def test_draw_checks_alignment(self):
        params, pairs = self.layers()
        with pytest.raises(ShapeError):
            draw_direction(params, pairs[:-1], 3)

    def test_z_scales_multiply_each_matrix_core_as_drawn(self, monkeypatch):
        params, pairs = self.layers()
        # the native 4x3 and the 8x2 relaid to 4x4 are scaled, not just 1.0
        assert pairs[2].shape == LayerShape(4, 4) and params[2].shape == (8, 2)
        scales = [alignment_scale(pair) for pair in pairs if pair is not None]
        assert scales[0] != 1.0 and scales[1] != 1.0
        assert_cores_scaled(monkeypatch, params, pairs, scales)

    @pytest.mark.parametrize("shapes, pinned_rank, scale", [
        (((4, 3), (5,)), None, math.sqrt(12) / 3),
        (((8, 2), (5,)), None, 4 / 3),
        (((6, 6), (5,)), 1, 6.0),
        (((6, 6), (5,)), None, 2.0),
    ], ids=["native", "relayout", "pinned_rank1", "plan_rank3"])
    def test_aligned_cores_carry_sqrt_mn_over_r_of_their_pair(self, shapes, pinned_rank,
                                                                scale, monkeypatch):
        # under a rank-3 plan, and for a rank-1 pair pinned on a 6x6 layer,
        # whose scale comes from the pair and not from the plan
        s = GaussianStream(8)
        params = [s.normals(math.prod(shape)).reshape(shape) for shape in shapes]
        if pinned_rank is None:
            pairs = pairs_from_plan(GaussianStream(1), plan_layers(params, rank=3))
        else:
            pairs = [generate_proj_pair(GaussianStream(1), 6, 6, pinned_rank), None]
        relaid = pairs[0].shape != LayerShape(*params[0].shape)
        assert relaid == (shapes[0] == (8, 2))
        assert_cores_scaled(monkeypatch, params, pairs, [scale])

    @pytest.mark.parametrize("call", [draw_direction], ids=["draw_direction"])
    def test_a_drawn_direction_is_not_scaled_again(self, call):
        params, pairs = self.layers()
        direction = draw_direction(params, pairs, 17, aligned=True)
        values = layout_bytes(direction)
        with pytest.raises(ValueError):
            call(params, pairs, direction, True)
        assert layout_bytes(direction) == values

    def test_vectors_are_kept_when_they_fit_the_largest_matrix_layer(self):
        params, pairs = self.layers()
        direction = draw_direction(params, pairs, 17)
        # the vector layers' 7 + 5 values, at their stream offsets
        s = GaussianStream(17)
        expected = [s.normal_at(j) for j in range(9, 16)]
        expected += [s.normal_at(j) for j in range(34, 39)]
        kept = [layer for layer, pair in zip(direction.layers, pairs) if pair is None]
        assert [type(layer) for layer in kept] == [np.ndarray, np.ndarray]
        assert b"".join(layer.tobytes() for layer in kept) == np.array(expected).tobytes()

    def test_vectors_beyond_the_largest_matrix_layer_are_not_drawn(self):
        # 7 values beyond a 3x2 layer are replayed; 6, its size, are kept
        for size, kind in ((7, "replayed"), (6, "kept")):
            params = [np.zeros((3, 2)), np.zeros(size)]
            pairs = build_pairs(GaussianStream(1), params, 1)
            direction = draw_direction(params, pairs, 17)
            assert layer_kinds(params, pairs, direction) == ["formed", kind]
        full_space = draw_direction(params, [None, None], 17)
        assert full_space.layers == [0, 6]

    @pytest.mark.parametrize("shapes, rank, calls", [
        (((512, 512), (512,), (512, 8), (8,)), 16, [(0, 512 + 520)]),
        (((3, 2), (3, 2)), 1, [(0, 2)]),
        (((64, 64), (64,), (64, 16), (16,)), None, []),
    ], ids=["train_mlp_wide", "mc_identity", "train_mlp_fullspace"])
    def test_one_stream_call_per_run_of_drawn_layers(self, shapes, rank, calls):
        # the benchmark's models: the wide MLP's cores (q = 512) and its
        # bias values (520) are one run, and so are the identity cell's two
        # 1x1 cores; the full-space MLP replays every layer and draws none
        params = [np.zeros(shape) for shape in shapes]
        pairs = (build_pairs(GaussianStream(1), params, rank) if rank
                 else [None] * len(params))
        assert stream_calls(draw_direction, params, pairs, 5) == calls

    def test_a_replayed_vector_layer_ends_a_run(self, monkeypatch):
        # 40 bias values exceed the largest matrix layer (20 entries), so
        # they are replayed: the two cores before them are one call, their
        # range is skipped, and the core after them is a second call; each
        # value is the one a draw per layer gives
        s = GaussianStream(8)
        shapes = ((4, 3), (5, 4), (40,), (3, 3))
        params = [s.normals(math.prod(shape)).reshape(shape) for shape in shapes]
        pairs = build_pairs(GaussianStream(1), params, 3)
        assert stream_calls(draw_direction, params, pairs, 17) == [(0, 18), (58, 9)]
        for aligned in (False, True):
            direction = draw_direction(params, pairs, 17, aligned)
            assert direction.layers[2] == 18
            got = iter_perturbation_layers(params, pairs, direction)
            expected = self.walk_the_stream(params, pairs, 17, aligned)
            assert [d.tobytes() for d in got] == [d.tobytes() for d in expected]
        monkeypatch.setattr(perturbation, "_KEPT_BYTES", 0)
        layers = draw_direction(params, pairs, 17).layers
        s = GaussianStream(17)
        for start, layer in zip((0, 9, 58), layers[:2] + layers[3:]):
            s.reset(start)
            assert layer[1].tobytes() == s.normals(9).reshape(3, 3).tobytes()

    def test_a_direction_for_fewer_layers_raises(self):
        # a direction drawn for the first two layers writes none of three
        params, pairs = self.layers()
        direction = draw_direction(params[:2], pairs[:2], 17)
        work = [w.copy() for w in params]
        with pytest.raises(ShapeError):
            axpy_perturbation(work, pairs, direction, 0.5)
        assert [w.tobytes() for w in work] == [w.tobytes() for w in params]

    def test_a_kept_layer_of_another_shape_raises(self):
        # a kept (4,) bias applied to a (2, 4) layer is not broadcast into
        # it, and the add of the 4x3 layer before it is taken back
        s = GaussianStream(8)
        params = [s.normals(12).reshape(4, 3), s.normals(4)]
        pairs = build_pairs(GaussianStream(1), params, 2)
        direction = draw_direction(params, pairs, 17)
        assert layer_kinds(params, pairs, direction) == ["formed", "kept"]
        work = [params[0].copy(), np.zeros((2, 4))]
        with pytest.raises(ShapeError):
            axpy_perturbation(work, pairs, direction, 0.5)
        assert np.max(np.abs(work[0] - params[0])) <= 1e-12
        assert not work[1].any()


def restore_cells(n):
    """Acceptance test_07's cells: one to three layers, each a vector with
    probability 1/4, ranks 1 to 3, as ``(params, pairs, seed, epsilon)``."""
    rng = np.random.default_rng(20260823)
    for _ in range(n):
        shapes = []
        for _ in range(int(rng.integers(1, 4))):
            if rng.random() < 0.25:
                shapes.append((int(rng.integers(2, 9)),))
            else:
                shapes.append((int(rng.integers(2, 8)), int(rng.integers(2, 8))))
        params = [rng.standard_normal(s) for s in shapes]
        rank = int(rng.integers(1, 4))
        pairs = build_pairs(GaussianStream(int(rng.integers(0, 2 ** 62))), params, rank)
        seed = int(rng.integers(0, 2 ** 62))
        yield params, pairs, seed, float(10.0 ** rng.uniform(-6.0, -2.0))


def layer_kinds(params, pairs, direction):
    """What a direction keeps of each layer: ``formed`` (a small matrix
    layer's delta), ``kept`` (vector values), ``replayed`` (a vector layer
    drawn in each pass) or ``factors`` (a matrix layer formed in each pass)."""
    kinds = []
    for w, pair, layer in zip(params, pairs, direction.layers):
        if type(layer) is np.ndarray:
            kinds.append("kept" if pair is None else "formed")
        else:
            kinds.append("replayed" if pair is None else "factors")
    return kinds


class TestKeptLayers:
    """A drawn direction forms each small matrix layer once, within
    ``_KEPT_BYTES``, and every pass reads the kept, read-only values."""

    def test_kept_layers_replay_the_formed_each_pass_path_bit_for_bit(self, monkeypatch):
        # probe, estimate, update and a pass that fails at its last add and
        # rolls back, once with the direction's small layers formed at the
        # draw and once with none kept (each pass forms them, as before)
        seen = set()
        budgets = (perturbation._KEPT_BYTES, 0)
        for params, pairs, seed, epsilon in restore_cells(1000):
            problem = QuarticProblem(layer_shapes=[w.shape for w in params],
                                     x0=stack_params(params))
            runs = []
            for budget in budgets:
                monkeypatch.setattr(perturbation, "_KEPT_BYTES", budget)
                direction = draw_direction(params, pairs, seed)
                kinds = layer_kinds(params, pairs, direction)
                assert ("factors" in kinds) == (budget == 0 and any(pairs))
                seen.update(kinds)
                seen.update("relaid " + kind for kind, w, pair in zip(kinds, params, pairs)
                            if pair is not None and pair.shape != LayerShape(*w.shape))
                work = [w.copy() for w in params]
                ld, est = estimators.subzero_estimate(problem, work, pairs,
                                                      full_batch(problem), epsilon,
                                                      direction)
                axpy_perturbation(work, pairs, direction, -0.1 * ld.rho)
                before = [w.copy() for w in work]
                with pytest.raises(Injected):
                    axpy_perturbation(failing_views(work, len(work)), pairs,
                                      direction, 0.3)
                for w, b in zip(work, before):
                    assert np.max(np.abs(w - b)) <= 1e-12
                runs.append((ld.loss_plus, ld.loss_minus,
                             [d.tobytes() for d in est.layers],
                             [w.tobytes() for w in work]))
            assert runs[0] == runs[1]
        assert seen == {"formed", "kept", "replayed", "factors",
                        "relaid formed", "relaid factors"}

    def test_kept_storage_cannot_be_corrupted(self):
        # a native 4x3, a bias, an 8x2 relaid to 4x4, a native 128x64 above
        # the cut-over and a bias
        params, pairs = TestDrawnDirection().layers()
        direction = draw_direction(params, pairs, 17, aligned=True)
        kinds = layer_kinds(params, pairs, direction)
        assert kinds == ["formed", "kept", "formed", "factors", "kept"]
        kept = [layer.tobytes() for layer in direction.layers
                if type(layer) is np.ndarray]

        def fresh():
            return draw_direction(params, pairs, 17, aligned=True)

        for delta, kind in zip(iter_perturbation_layers(params, pairs, direction), kinds):
            # a delta formed for this pass alone is the caller's to scale
            assert delta.flags.writeable == (kind == "factors")
            if kind != "factors":
                with pytest.raises(ValueError):
                    delta *= 2.0
                with pytest.raises(ValueError):
                    delta[...] = 0.0
        # the next pass, a rolled-back pass and an estimate read the values
        # as drawn, and scale none of them in place
        work, expected = [w.copy() for w in params], [w.copy() for w in params]
        axpy_perturbation(work, pairs, direction, 0.5)
        axpy_perturbation(expected, pairs, fresh(), 0.5)
        assert [w.tobytes() for w in work] == [w.tobytes() for w in expected]
        with pytest.raises(Injected):
            axpy_perturbation(failing_views(work, 3), pairs, direction, -0.5)
        for w, b in zip(work, expected):
            assert np.max(np.abs(w - b)) <= 1e-12
        problem = QuarticProblem(layer_shapes=[w.shape for w in params],
                                 x0=stack_params(params))
        got = estimators.subzero_estimate(problem, [w.copy() for w in params], pairs,
                                          full_batch(problem), 1e-3, direction)
        want = estimators.subzero_estimate(problem, [w.copy() for w in params], pairs,
                                           full_batch(problem), 1e-3, fresh())
        assert got[0] == want[0]
        assert [d.tobytes() for d in got[1].layers] == \
            [d.tobytes() for d in want[1].layers]
        assert [layer.tobytes() for layer in direction.layers
                if type(layer) is np.ndarray] == kept
        assert all(d.flags.writeable for d in got[1].layers)    # the caller's

    def test_small_layers_are_kept_in_layer_order_within_the_budget(self):
        # 1600 entries fit 2048, 600 more do not and are formed in each
        # pass, then 6 more fit; the bias is kept by the vector rule
        params = [np.zeros((40, 40)), np.zeros((30, 20)), np.zeros(9), np.zeros((3, 2))]
        pairs = build_pairs(GaussianStream(1), params, 2)
        direction = draw_direction(params, pairs, 5)
        assert layer_kinds(params, pairs, direction) == [
            "formed", "factors", "kept", "formed"]
        formed = [layer for layer, pair in zip(direction.layers, pairs)
                  if pair is not None and type(layer) is np.ndarray]
        assert sum(layer.nbytes for layer in formed) <= perturbation._KEPT_BYTES
        assert not direction.kept
        assert [d.tobytes() for d in iter_perturbation_layers(params, pairs, 5)] == \
            [d.tobytes() for d in iter_perturbation_layers(params, pairs, direction)]

    def test_train_mlp_wide_keeps_no_4096_entry_delta(self):
        # the benchmark's 512-512-8 MLP at rank 16: W2 (512x8) is relaid to
        # 64x64, 4096 entries, more than the budget; both biases (520
        # values) stay kept
        params = [np.zeros(s) for s in ((512, 512), (512,), (512, 8), (8,))]
        pairs = build_pairs(GaussianStream(1), params, 16)
        assert pairs[2].shape == LayerShape(64, 64)
        direction = draw_direction(params, pairs, 5)
        assert layer_kinds(params, pairs, direction) == [
            "factors", "kept", "factors", "kept"]
        assert direction.layers[1].size + direction.layers[3].size == 520

    def test_spsa_full_forms_nothing_and_replays_every_layer(self):
        # train_mlp_fullspace's 64-64-16 MLP with every pair None: no core,
        # no kept value, each layer drawn from the stream in each pass
        params = [np.zeros(s) for s in ((64, 64), (64,), (64, 16), (16,))]
        direction = draw_direction(params, [None] * 4, 5)
        assert direction.layers == [0, 4096, 4160, 5184]
        s = GaussianStream(5)
        got = iter_perturbation_layers(params, [None] * 4, direction)
        assert [d.tobytes() for d in got] == [s.normals(w.size).tobytes() for w in params]


def whole_delta_pass(params, pairs, direction, coeff, skip=()):
    """What a pass added before replayed layers were streamed: each layer's
    whole delta from the plain walk, scaled in a copy and added, on copies
    of ``params``."""
    work = [w.copy() for w in params]
    for i, (w, delta) in enumerate(zip(work, iter_perturbation_layers(params, pairs,
                                                                      direction))):
        if i not in skip:
            w += np.multiply(delta, coeff)
    return work


def streamed_layouts(n):
    """Random ``spsa_full``-style layouts as ``(params, pairs, skip)``: two
    to five layers drawn from vectors of 1, 2047, 2048, 2049 and 5000
    values, 64x64 matrices with no pair, and a 6x5 matrix at rank 2 whose
    core, drawn between the replayed layers, breaks a run.  A quarter of
    them skip one layer."""
    rng = np.random.default_rng(20261021)
    kinds = [(1,), (2047,), (2048,), (2049,), (5000,), (64, 64), (6, 5)]
    for _ in range(n):
        shapes = [kinds[k] for k in rng.integers(0, len(kinds), int(rng.integers(2, 6)))]
        params = [rng.standard_normal(s) for s in shapes]
        pairs = [generate_proj_pair(GaussianStream(int(rng.integers(0, 2 ** 62))), 6, 5, 2)
                 if s == (6, 5) else None for s in shapes]
        skip = {int(rng.integers(0, len(shapes)))} if rng.random() < 0.25 else set()
        yield params, pairs, skip


class TestStreamedReplay:
    """A pass adds the vector layers a direction replays from chunks of at
    most ``_CHUNK_VALUES`` stream values, one run of adjacent layers at a
    time, and adds what the whole-delta replay adds, bit for bit."""

    def test_streamed_passes_equal_the_whole_delta_replay_bit_for_bit(self):
        rng = np.random.default_rng(7)
        runs = set()
        for params, pairs, skip in streamed_layouts(60):
            direction = draw_direction(params, pairs, int(rng.integers(0, 2 ** 62)))
            replayed = [i for i, layer in enumerate(direction.layers)
                        if type(layer) is int and i not in skip]
            runs.add(len(replayed))
            coeff = float(rng.uniform(-2.0, 2.0))
            work = [w.copy() for w in params]
            axpy_perturbation(work, pairs, direction, coeff, skip)
            expected = whole_delta_pass(params, pairs, direction, coeff, skip)
            assert [w.tobytes() for w in work] == [w.tobytes() for w in expected]
            # the rollback replays a prefix of the direction, streamed too
            for k in range(1, len(params)):
                prefix = Direction(direction.seed, direction.layers[:k])
                work = [w.copy() for w in params[:k]]
                axpy_perturbation(work, pairs[:k], prefix, -coeff, skip)
                expected = whole_delta_pass(params[:k], pairs[:k], prefix, -coeff, skip)
                assert [w.tobytes() for w in work] == [w.tobytes() for w in expected]
        assert {0, 1, 2, 3} <= runs

    def test_a_pass_of_the_fullspace_layout_draws_one_call_per_chunk(self):
        # train_mlp_fullspace's 64-64-16 MLP under spsa_full: one run of 5200
        # values in chunks of 2048, 2048 and 1104, where each layer was one
        # call of its own size
        params = [np.zeros(s) for s in ((64, 64), (64,), (64, 16), (16,))]
        direction = draw_direction(params, [None] * 4, 5)
        calls = stream_calls(axpy_perturbation, params, [None] * 4, direction, 0.5)
        assert calls == [(0, 2048), (2048, 2048), (4096, 1104)]
        assert perturbation._CHUNK_VALUES == perturbation._KEPT_BYTES // 8 == 2048

    def test_a_chunk_does_not_continue_across_a_gap(self):
        # two replayed layers whose counters do not follow one another, and
        # a skipped layer inside a run: each starts a chunk of its own
        params = [np.zeros(2000), np.zeros(1000)]
        direction = Direction(3, [0, 3000])
        work = [w.copy() for w in params]
        calls = stream_calls(axpy_perturbation, work, [None] * 2, direction, 0.5)
        assert calls == [(0, 2000), (3000, 1000)]
        expected = whole_delta_pass(params, [None] * 2, direction, 0.5)
        assert [w.tobytes() for w in work] == [w.tobytes() for w in expected]
        params = [np.zeros(100), np.zeros(50), np.zeros(30)]
        direction = draw_direction(params, [None] * 3, 4)
        work = [w.copy() for w in params]
        calls = stream_calls(axpy_perturbation, work, [None] * 3, direction, 0.5, {1})
        assert calls == [(0, 100), (150, 30)]
        expected = whole_delta_pass(params, [None] * 3, direction, 0.5, {1})
        assert [w.tobytes() for w in work] == [w.tobytes() for w in expected]

    def test_a_fortran_ordered_replayed_matrix_takes_the_whole_delta_path(self):
        s = GaussianStream(9)
        params = [s.normals(300), np.asfortranarray(s.normals(4096).reshape(64, 64)),
                  s.normals(50)]
        direction = draw_direction(params, [None] * 3, 11)
        walked = list(iter_perturbation_layers(params, [None] * 3, direction, True))
        assert [type(d) for d in walked] == [int, np.ndarray, int]
        work = [w.copy(order="K") for w in params]
        calls = stream_calls(axpy_perturbation, work, [None] * 3, direction, -0.3)
        assert calls == [(0, 300), (300, 4096), (4396, 50)]
        expected = whole_delta_pass(params, [None] * 3, direction, -0.3)
        assert work[1].flags.f_contiguous
        assert [w.tobytes() for w in work] == [w.tobytes() for w in expected]

    @pytest.mark.parametrize("fail_at", range(1, 6))
    def test_a_failed_chunk_add_takes_back_what_its_layer_added(self, fail_at):
        # one run of 2049 + 5000 values in chunks of 2048: the adds are
        # layer 0's two and then layer 1's three, so a failure in layer 1
        # takes back its own adds before layer 0 is rolled back
        s = GaussianStream(2)
        params = [s.normals(2049), s.normals(5000)]
        direction = draw_direction(params, [None] * 2, 6)
        work = [w.copy() for w in params]
        with pytest.raises(Injected):
            axpy_perturbation(failing_views(work, fail_at), [None] * 2, direction, 0.7)
        for w, b in zip(work, params):
            assert np.max(np.abs(w - b)) <= 1e-12

    @pytest.mark.parametrize("fail_at", range(4))
    def test_a_failed_chunk_draw_takes_back_what_was_added(self, fail_at, monkeypatch):
        s = GaussianStream(2)
        params = [s.normals(2049), s.normals(5000)]
        direction = draw_direction(params, [None] * 2, 6)
        work = [w.copy() for w in params]
        normals, calls = GaussianStream.normals, []

        def failing_normals(self, n):
            calls.append(n)
            if len(calls) == fail_at + 1:
                raise Injected("injected")
            return normals(self, n)

        monkeypatch.setattr(GaussianStream, "normals", failing_normals)
        with pytest.raises(Injected):
            axpy_perturbation(work, [None] * 2, direction, 0.7)
        for w, b in zip(work, params):
            assert np.max(np.abs(w - b)) <= 1e-12


class TestRowBlockPass:
    """A matrix layer above ``_DOT_MAX_ENTRIES`` is added in row blocks."""

    # a native 300x200 layer (163-row blocks at 256 kB, 7-row blocks at 1400
    # entries) and 2048x8 relaid to 128x128 (one block, or 10-row blocks);
    # neither row count is a multiple of its block.  Each has a bias.
    CASES = {"native": ((300, 200), 5), "relayout": ((2048, 8), 32)}

    def layers(self, kind):
        shape, rank = self.CASES[kind]
        s = GaussianStream(12)
        params = [s.normals(math.prod(shape)).reshape(shape), s.normals(9)]
        plans = plan_layers(params, rank)
        pairs = pairs_from_plan(GaussianStream(4), plans)
        assert params[0].size > perturbation._DOT_MAX_ENTRIES
        assert (pairs[0].shape == LayerShape(128, 128)) == (kind == "relayout")
        return params, pairs

    @pytest.mark.parametrize("block_entries", [None, 1400], ids=["256kB", "1400"])
    @pytest.mark.parametrize("aligned", [False, True], ids=["plain", "scale_z"])
    @pytest.mark.parametrize("kind", ["native", "relayout"])
    def test_pass_adds_coeff_times_each_layer(self, kind, aligned, block_entries,
                                              monkeypatch):
        if block_entries is not None:
            monkeypatch.setattr(perturbation, "_BLOCK_ENTRIES", block_entries)
        params, pairs = self.layers(kind)
        rows = perturbation._BLOCK_ENTRIES // pairs[0].shape.cols
        assert pairs[0].shape.rows % rows != 0 or rows > pairs[0].shape.rows
        deltas = list(iter_perturbation_layers(
            params, pairs, draw_direction(params, pairs, 21, aligned)))
        work = [w.copy() for w in params]
        axpy_perturbation(work, pairs, draw_direction(params, pairs, 21, aligned),
                          -0.7)
        for w, before, delta in zip(work, params, deltas):
            expected = before + -0.7 * delta
            assert np.max(np.abs(w - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("kind", ["native", "relayout"])
    def test_column_major_layers_are_added_too(self, kind):
        # a relayout has no view of a column-major layer, so that layer is
        # formed whole; a native one is added in row blocks of strided rows
        params, pairs = self.layers(kind)
        direction = draw_direction(params, pairs, 21, aligned=True)
        deltas = list(iter_perturbation_layers(params, pairs, direction))
        work = [np.array(w, order="F") for w in params]
        axpy_perturbation(work, pairs, direction, 0.3)
        for w, before, delta in zip(work, params, deltas):
            expected = before + 0.3 * delta
            assert np.max(np.abs(w - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("kind", ["native", "relayout"])
    def test_int_seeds_and_drawn_directions_still_yield_arrays(self, kind):
        params, pairs = self.layers(kind)
        for seed in (21, draw_direction(params, pairs, 21)):
            deltas = list(iter_perturbation_layers(params, pairs, seed))
            assert [type(d) for d in deltas] == [np.ndarray, np.ndarray]
            assert [d.shape for d in deltas] == [w.shape for w in params]

    def test_each_pass_walks_the_generator_once(self, monkeypatch):
        # a traced run wraps the module's generator, under every name, with
        # these four positional parameters, and counts one pass per call; a
        # pass switches the factored walk on through the fourth, and the
        # estimate's gradient walk leaves it out
        params, pairs = self.layers("native")
        calls = []
        walk = perturbation.iter_perturbation_layers

        def counting(params, pairs, seed, z_scales=None):
            calls.append((seed, z_scales))
            return walk(params, pairs, seed, z_scales)

        class SumOfSquares:
            def loss(self, params, batch):
                return sum(float(np.sum(w * w)) for w in params)

        direction = draw_direction(params, pairs, 21, aligned=True)
        monkeypatch.setattr(perturbation, "iter_perturbation_layers", counting)
        monkeypatch.setattr(estimators, "iter_perturbation_layers", counting)
        axpy_perturbation(params, pairs, direction, 0.5)
        assert calls == [(direction, True)]
        estimators.subzero_estimate(SumOfSquares(), params, pairs, None, 1e-3,
                                    direction)
        assert calls[1:] == [(direction, True)] * 3 + [(direction, None)]


    def test_held_out_factors_are_the_native_layers_a_pass_factors(self):
        # native 300x200, 2048x8 relaid to 128x128, a native 64x60 just
        # below the cut-over and a column-major native 300x200, each before
        # a bias
        s = GaussianStream(12)
        shapes = [(300, 200), (2048, 8), (64, 60), (300, 200)]
        params = []
        for shape in shapes:
            params += [s.normals(math.prod(shape)).reshape(shape), s.normals(3)]
        params[6] = np.asfortranarray(params[6])
        plans = plan_layers(params, 16)
        pairs = pairs_from_plan(GaussianStream(4), plans)
        direction = draw_direction(params, pairs, 21, aligned=True)
        yielded = list(iter_perturbation_layers(params, pairs, direction, True))
        native = [i for i, d in enumerate(yielded) if type(d) is tuple
                  and params[i].shape == (pairs[i].u.shape[0], pairs[i].v.shape[0])]
        assert native == [0, 6] and type(yielded[2]) is tuple
        held = perturbation.held_out_factors(params, direction)
        assert sorted(held) == native
        plain = perturbation.held_out_factors(params, draw_direction(params, pairs, 21))
        for i in native:
            u, z, v = yielded[i]
            held_u, held_z, held_v = held[i]
            assert held_u is u and held_v is v
            assert np.array_equal(held_z, z)
            assert np.array_equal(held_z, alignment_scale(pairs[i]) * plain[i][1])
        assert perturbation.held_out_factors(
            params[4:6], draw_direction(params[4:6], pairs[4:6], 21)) == {}


class TestPerturbRestore:
    def test_three_pass_sequence_restores(self):
        params = two_layer_params(3)
        before = [w.copy() for w in params]
        pairs = build_pairs(GaussianStream(1), params, 2)
        for direction in (+1, -2, +1):
            spec = PerturbSpec(epsilon=1e-3, seed=21, direction=direction)
            perturb_params_inplace(params, pairs, spec)
        for w, b in zip(params, before):
            assert np.max(np.abs(w - b)) <= 1e-12

    @pytest.mark.parametrize("apply, coeff, scale", [
        (lambda p, pairs: perturb_params_inplace(
            p, pairs, PerturbSpec(epsilon=0.5, seed=8, direction=1)), 0.5, None),
        (lambda p, pairs: axpy_perturbation(p, pairs, 8, -0.3), -0.3, None),
        (lambda p, pairs: axpy_perturbation(
            p, pairs, draw_direction(p, pairs, 8, aligned=True), 0.5), 0.5,
         math.sqrt(12) / 2),
    ], ids=["perturb_spec", "axpy_negative", "axpy_z_scales"])
    def test_plus_pass_lands_where_expected(self, apply, coeff, scale):
        params = two_layer_params(3)
        before = [w.copy() for w in params]
        pairs = build_pairs(GaussianStream(1), params, 2)
        # u (s Z V^T), with s the 4x3 layer's alignment scale at rank 2, then
        # the bias's values
        s = GaussianStream(8)
        z = gaussian_matrix(s, 2, 2)
        if scale is not None:
            z = scale * z
        deltas = [pairs[0].u @ (z @ pairs[0].v.T), s.normals(5)]
        apply(params, pairs)
        for w, b, d in zip(params, before, deltas):
            assert np.array_equal(w, b + coeff * d)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PerturbSpec(epsilon=0.0, seed=1, direction=1)
        with pytest.raises(ValueError):
            PerturbSpec(epsilon=1e-3, seed=1, direction=0)
        with pytest.raises(ValueError):
            PerturbSpec(epsilon=1e-3, seed=-1, direction=1)


class TestAlignment:
    def test_factor_formula(self, monkeypatch):
        # sqrt(m * n) / r, with the rank the plan clamped to min(m, n)
        params = [np.zeros((8, 2)), np.zeros((6, 6))]
        assert_cores_scaled(monkeypatch, params, pairs_from_plan(
            GaussianStream(1), plan_layers(params, 2, "never")), [2.0, 3.0])
        params = [np.zeros((4, 3))]
        assert_cores_scaled(monkeypatch, params, pairs_from_plan(
            GaussianStream(1), plan_layers(params, 5, "never")), [math.sqrt(12) / 3])

    def test_scale_z_matches_factor_per_layer(self, monkeypatch):
        # the vector layer is a full Gaussian already and keeps its values
        params = two_layer_params()
        pairs = build_pairs(GaussianStream(1), params, 2)
        assert pairs[1] is None
        assert_cores_scaled(monkeypatch, params, pairs, [math.sqrt(12) / 2])

    def test_aligned_norm_matches_full_gaussian_in_expectation(self):
        # E||mu * U Z V^T||_F^2 = mu^2 r^2 = m n = E||full draw||_F^2
        params = [np.zeros((6, 4))]
        pairs = build_pairs(GaussianStream(3), params, 2)
        acc = 0.0
        n = 4000
        for k in range(n):
            (delta,) = iter_perturbation_layers(
                params, pairs, draw_direction(params, pairs, k, aligned=True))
            acc += float(np.sum(delta * delta))
        assert acc / n == pytest.approx(24.0, rel=0.1)
