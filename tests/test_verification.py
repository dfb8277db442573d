"""Tests for the statistical verification layer.

The projector assembly and the four identity checks are exercised against
hand-built references: explicit Kronecker blocks, a closed-form curvature
bias for the full-space fallback on a quartic, and exact per-sample
identities at rank one.  The convergence machinery runs at reduced scale
and is judged on doubling ratios, plus one pinned set of hitting times, the
loss evaluations after which the runs stop, and the per-run trainer loop as
the reference for its block of runs.
"""

import math
import tracemalloc

import numpy as np
import pytest

from subzero import (
    ConvergenceConfig,
    DiagnosticsRow,
    GaussianStream,
    LogisticProblem,
    MlpProblem,
    MonteCarloReport,
    OptimizerConfig,
    QuadraticProblem,
    QuarticProblem,
    build_pairs,
    check_bias_bound,
    check_cosine_identity,
    check_expectation_identity,
    check_second_moment,
    convergence_battery,
    dense_subspace_probe,
    derive_seed,
    estimator_diagnostics,
    fit_loglog_slope,
    full_batch,
    iter_perturbation_layers,
    materialize_projector,
    measure_bias,
    run_default_battery,
    stack_params,
    subspace_dimension,
    subzero_estimate,
    theoretical_step_size,
    train,
)
from subzero import verification
from oracles import loop_estimates, loop_hitting_times, loop_states
from subzero.errors import (
    BlockMismatch,
    BudgetExceeded,
    ConfigError,
    DegenerateGradient,
    ScaleRefused,
    ShapeError,
    SubzeroError,
)
from subzero.numcore import derive_seeds, gaussian_matrix
from subzero.perturbation import Direction, generate_proj_pair
from subzero.verification import (
    BATTERY_SHAPES,
    BIAS_EPSILONS,
    COSINE_CELLS,
    PROJECTOR_DIM_CAP,
    ConvergenceCell,
    _report,
    _slope_report,
    battery_cell,
    convergence_hitting_times,
    projected_gradient_sq_norm,
    subspace_start,
)


def quadratic_cell(seed, shapes, rank):
    problem = QuadraticProblem.generate(seed, list(shapes))
    params = problem.initial_params()
    pairs = build_pairs(GaussianStream(derive_seed(seed, 0x64, 0)), params,
                        rank, reshape="never")
    return problem, params, pairs


class TestReportRule:
    def test_pass_inside_abs_tol(self):
        rep = _report("x", 10, 1.05, 1.0, 0.05, 0.001, 0.1)
        assert rep.passed and rep.rel_deviation == pytest.approx(0.05)

    def test_pass_inside_four_stderr(self):
        rep = _report("x", 10, 1.05, 1.0, 0.05, 0.02, 0.0)
        assert rep.passed

    def test_fail_outside_both(self):
        rep = _report("x", 10, 1.5, 1.0, 0.5, 0.02, 0.1)
        assert not rep.passed

    def test_boundary_is_inclusive(self):
        assert _report("x", 10, 1.1, 1.0, 0.1, 0.0, 0.1).passed

    def test_zero_target_relative_nan(self):
        rep = _report("x", 10, 0.0, 0.0, 0.0, 0.0, 0.1)
        assert math.isnan(rep.rel_deviation) and rep.passed


ZERO_SAMPLE_CHECKS = {
    "expectation_identity": lambda problem, pairs, params:
        check_expectation_identity(problem, pairs, params, 0),
    "second_moment": lambda problem, pairs, params:
        check_second_moment(problem, pairs, params, 0),
    "cosine_identity": lambda problem, pairs, params:
        check_cosine_identity(problem, pairs, params, 0),
    "measure_bias": lambda problem, pairs, params:
        measure_bias(problem, pairs, params, 1e-3, 0),
    "bias_bound": lambda problem, pairs, params:
        check_bias_bound(problem, pairs, params, 1e-3, 0, hessian_lipschitz=1.0),
    "diagnostics": lambda problem, pairs, params:
        estimator_diagnostics(problem, params, "subzero", 0, pairs=pairs),
}


@pytest.mark.parametrize("name", sorted(ZERO_SAMPLE_CHECKS))
def test_zero_samples_are_a_value_error(name):
    problem, params, pairs = quadratic_cell(28, [(4, 4)], 2)
    with pytest.raises(ValueError, match="n_mc must be at least 1"):
        ZERO_SAMPLE_CHECKS[name](problem, pairs, params)


class TestMaterializeProjector:
    def test_single_rank_one_block_is_kron(self):
        pair = generate_proj_pair(GaussianStream(3), 3, 2, 1)
        proj = materialize_projector([pair])
        assert proj.matrix.shape == (6, 1)
        assert proj.q == 1
        np.testing.assert_allclose(proj.matrix, np.kron(pair.v, pair.u))
        assert np.linalg.norm(proj.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_vector_layer_is_identity_block(self):
        pair = generate_proj_pair(GaussianStream(4), 3, 3, 1)
        proj = materialize_projector([pair, None], vector_sizes=[9, 4])
        assert proj.matrix.shape == (9 + 4, 1 + 4)
        np.testing.assert_array_equal(proj.matrix[9:, 1:], np.eye(4))
        # off-diagonal blocks stay zero
        assert np.all(proj.matrix[:9, 1:] == 0.0)
        assert np.all(proj.matrix[9:, :1] == 0.0)

    def test_vector_layer_without_sizes_raises(self):
        with pytest.raises(ShapeError):
            materialize_projector([None])

    @pytest.mark.parametrize("vector_sizes", [[6], [6, 6, 6]], ids=["short", "long"])
    def test_vector_sizes_need_one_entry_per_layer(self, vector_sizes):
        pair = generate_proj_pair(GaussianStream(5), 3, 2, 1)
        with pytest.raises(ShapeError, match=f"{len(vector_sizes)} vector_sizes for 2 layers"):
            materialize_projector([pair, None], vector_sizes=vector_sizes)

    def test_matrix_entries_of_vector_sizes_ignored(self):
        pair = generate_proj_pair(GaussianStream(5), 4, 2, 2)
        a = materialize_projector([pair, None], vector_sizes=[None, 3])
        b = materialize_projector([pair, None], vector_sizes=[999, 3])
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_refuses_beyond_row_cap(self):
        assert PROJECTOR_DIM_CAP == 200
        pair = generate_proj_pair(GaussianStream(6), 15, 15, 1)  # 225 rows
        with pytest.raises(ScaleRefused):
            materialize_projector([pair])
        with pytest.raises(ScaleRefused):
            materialize_projector([None], vector_sizes=[PROJECTOR_DIM_CAP + 1])

    def test_refuses_before_allocating(self):
        # a 300x300 rank-2 block would take 2.9 MB, and an identity block of
        # 10**7 rows far more than memory holds; neither is ever built
        pair = generate_proj_pair(GaussianStream(6), 300, 300, 2)
        tracemalloc.start()
        try:
            with pytest.raises(ScaleRefused):
                materialize_projector([pair])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64_000
        with pytest.raises(ScaleRefused):
            materialize_projector([None], vector_sizes=[10 ** 7])

    def test_columns_orthonormal_multilayer(self):
        stream = GaussianStream(7)
        pairs = [generate_proj_pair(stream, 5, 3, 2), None,
                 generate_proj_pair(stream, 4, 4, 3)]
        proj = materialize_projector(pairs, vector_sizes=[None, 6, None])
        gram = proj.matrix.T @ proj.matrix
        np.testing.assert_allclose(gram, np.eye(proj.q), atol=1e-12)

    def test_block_maps_core_to_stacked_perturbation(self):
        # P @ vec(Z) must equal the stacked layer perturbation, which ties
        # the materialization to the package's column-major flattening
        stream = GaussianStream(8)
        pairs = [generate_proj_pair(stream, 4, 3, 2), None]
        params = [np.zeros((4, 3)), np.zeros(5)]
        proj = materialize_projector(pairs, vector_sizes=[12, 5])
        seed = derive_seed(21, 0x51, 4)
        deltas = list(iter_perturbation_layers(params, pairs, seed))
        replay = GaussianStream(seed)
        z_mat = replay.normals(4).reshape(2, 2)
        z_vec = replay.normals(5)
        z = np.concatenate([z_mat.ravel(order="F"), z_vec])
        np.testing.assert_allclose(stack_params(deltas), proj.matrix @ z,
                                   atol=1e-13)


class TestProjectedGradientNorm:
    def test_matches_materialized_projector(self):
        problem, params, pairs = quadratic_cell(9, [(5, 4), (3, 3)], 2)
        grads = problem.exact_gradient(params, full_batch(problem))
        direct = projected_gradient_sq_norm(grads, pairs)
        proj = materialize_projector(pairs, vector_sizes=[w.size for w in params])
        stacked = float(np.sum((proj.matrix.T @ stack_params(grads)) ** 2))
        assert direct == pytest.approx(stacked, rel=1e-12)

    def test_vector_layer_contributes_full_norm(self):
        g = [np.array([1.0, 2.0, 2.0])]
        assert projected_gradient_sq_norm(g, [None]) == pytest.approx(9.0)

    def test_reshaped_pair_uses_its_own_geometry(self):
        # a (12, 2) layer carried by a (6, 4) pair: the projection must read
        # the gradient through the same row-major relayout the perturbation
        # uses, not the native shape
        pair = generate_proj_pair(GaussianStream(10), 6, 4, 2)
        g = GaussianStream(11).normals(24).reshape(12, 2)
        core = pair.u.T @ g.reshape(6, 4) @ pair.v
        assert projected_gradient_sq_norm([g], [pair]) == pytest.approx(
            float(np.sum(core * core)), rel=1e-12)


def random_native_layering(seed):
    """One to three layers, each a vector of 1 to 6 entries or a matrix of
    1 to 6 rows and columns under a native pair of rank 1 to 3, and a
    gradient for them."""
    rng = np.random.default_rng(seed)
    stream = GaussianStream(derive_seed(seed, 0x64, 0))
    grads, pairs = [], []
    for _ in range(rng.integers(1, 4)):
        if rng.integers(3) == 0:
            grads.append(stream.normals(int(rng.integers(1, 7))))
            pairs.append(None)
        else:
            m, n = (int(x) for x in rng.integers(1, 7, size=2))
            r = int(rng.integers(1, min(m, n, 3) + 1))
            grads.append(gaussian_matrix(stream, m, n))
            pairs.append(generate_proj_pair(stream, m, n, r))
    return grads, pairs


class TestProjectedGradient:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_the_materialized_projector(self, seed):
        grads, pairs = random_native_layering(seed)
        g = stack_params(grads)
        p = materialize_projector(pairs, vector_sizes=[w.size for w in grads]).matrix
        want = p @ (p.T @ g)
        projected = verification._projected_gradient(grads, pairs)
        assert [w.shape for w in projected] == [w.shape for w in grads]
        assert np.max(np.abs(stack_params(projected) - want)) <= 1e-12


class TestExpectationIdentity:
    def test_passes_on_low_rank_quadratic(self):
        problem, params, pairs = quadratic_cell(12, [(4, 3), (3, 3)], 2)
        rep = check_expectation_identity(problem, pairs, params, 4000, seed=2)
        assert isinstance(rep, MonteCarloReport)
        assert rep.check == "expectation_identity"
        assert rep.passed, rep
        assert rep.n_mc == 4000

    def test_target_is_projected_gradient_norm(self):
        problem, params, pairs = quadratic_cell(13, [(4, 4)], 2)
        rep = check_expectation_identity(problem, pairs, params, 10, seed=0)
        grads = problem.exact_gradient(params, full_batch(problem))
        proj = materialize_projector(pairs, vector_sizes=[16])
        want = float(np.linalg.norm(
            proj.matrix @ (proj.matrix.T @ stack_params(grads))))
        assert rep.target == pytest.approx(want, rel=1e-12)

    def test_full_fallback_targets_raw_gradient(self):
        # all-None pairs make P the identity, so the same check doubles as
        # the unbiasedness check of the full-space estimator
        problem = QuadraticProblem.generate(14, [(3,), (4,)])
        params = problem.initial_params()
        rep = check_expectation_identity(problem, [None, None], params, 3000,
                                         seed=5)
        g = stack_params(problem.exact_gradient(params, full_batch(problem)))
        assert rep.target == pytest.approx(float(np.linalg.norm(g)), rel=1e-12)
        assert rep.passed, rep

    def test_zero_gradient_point_passes_via_stderr(self):
        # at the minimum both the target and the estimates collapse to
        # rounding noise; the pass rule must not divide by the zero target
        base = QuadraticProblem.generate(15, [(3, 3)])
        xstar = np.linalg.solve(2.0 * base.h, -np.ones(9))
        problem = QuadraticProblem(h=base.h, layer_shapes=[(3, 3)],
                                   b=np.ones(9), x0=xstar)
        params = problem.initial_params()
        pairs = build_pairs(GaussianStream(1), params, 2)
        rep = check_expectation_identity(problem, pairs, params, 200, seed=3)
        assert rep.target == pytest.approx(0.0, abs=1e-10)
        assert rep.passed, rep

    @pytest.mark.parametrize("rank", [3, 4])
    def test_passes_on_relayout_pairs(self, rank):
        # the (8, 2) layer is relaid to 4x4; its target reads the gradient
        # row-major in that geometry, as the perturbation is formed.  At
        # rank 4 the subspace is the whole layer, at rank 3 it is not
        problem = QuadraticProblem.generate(16, [(8, 2)])
        params = problem.initial_params()
        pairs = build_pairs(GaussianStream(2), params, rank)  # auto relayout
        assert pairs[0].shape.rows == 4 and pairs[0].shape.cols == 4
        rep = check_expectation_identity(problem, pairs, params, 20000, seed=3)
        assert rep.passed, rep


class TestSecondMoment:
    def test_subzero_passes_and_targets_q_plus_two(self):
        problem, params, pairs = quadratic_cell(17, [(4, 3), (5,)], 2)
        rep = check_second_moment(problem, pairs, params, 4000, seed=1)
        assert rep.check == "second_moment_subzero"
        q = subspace_dimension(params, pairs)
        grads = problem.exact_gradient(params, full_batch(problem))
        want = (q + 2) * projected_gradient_sq_norm(grads, pairs)
        assert rep.target == pytest.approx(want, rel=1e-12)
        assert rep.passed, rep

    def test_full_family_targets_d_plus_two(self):
        problem, params, pairs = quadratic_cell(18, [(3, 3)], 1)
        rep = check_second_moment(problem, pairs, params, 4000, seed=1,
                                  family="spsa_full")
        assert rep.check == "second_moment_spsa_full"
        g = stack_params(problem.exact_gradient(params, full_batch(problem)))
        assert rep.target == pytest.approx(11.0 * float(g @ g), rel=1e-12)
        assert rep.passed, rep

    def test_unknown_family_raises(self):
        problem, params, pairs = quadratic_cell(19, [(3, 3)], 1)
        with pytest.raises(ValueError):
            check_second_moment(problem, pairs, params, 10, family="sgd")


class TestCosineIdentity:
    def test_rank_one_single_layer_is_exact_per_sample(self):
        # with q = 1 the estimate is always parallel to the one basis
        # direction, so the squared cosine is 1 sample by sample, not just
        # in expectation
        problem, params, pairs = quadratic_cell(20, [(4, 4)], 1)
        batch = full_batch(problem)
        grads = problem.exact_gradient(params, batch)
        proj_sq = projected_gradient_sq_norm(grads, pairs)
        for k in range(25):
            _, est = subzero_estimate(problem, params, pairs, batch, 1e-3,
                                      derive_seed(77, 0x61, k))
            inner = sum(float(np.sum(g * e))
                        for g, e in zip(grads, est.layers))
            est_sq = sum(float(np.sum(e * e)) for e in est.layers)
            assert abs(inner * inner / (proj_sq * est_sq) - 1.0) < 1e-12

    def test_rank_one_check_estimate_is_one(self):
        problem, params, pairs = quadratic_cell(20, [(4, 4)], 1)
        rep = check_cosine_identity(problem, pairs, params, 50, seed=4)
        assert rep.target == 1.0
        assert abs(rep.estimate - 1.0) < 1e-12
        # the moment-form variance of all-but-constant samples bottoms out
        # at the square root of the cancellation residual
        assert rep.stderr < 1e-7
        assert rep.passed

    def test_passes_at_moderate_subspace_dimension(self):
        problem, params, pairs = quadratic_cell(21, [(5, 5)], 2)
        rep = check_cosine_identity(problem, pairs, params, 3000, seed=4)
        assert rep.target == pytest.approx(0.25)
        assert rep.passed, rep

    def test_degenerate_gradient_raises(self):
        problem = QuadraticProblem.generate(22, [(3, 3)])
        zero = [np.zeros((3, 3))]
        pairs = build_pairs(GaussianStream(3), zero, 1)
        with pytest.raises(DegenerateGradient):
            check_cosine_identity(problem, pairs, zero, 10)


class TestBiasMeasurement:
    def test_quadratic_bias_is_rounding_noise(self):
        # the control variate subtracts the entire sample on a quadratic,
        # whose probe difference is exactly linear in the perturbation
        problem, params, pairs = quadratic_cell(23, [(4, 4)], 2)
        bias, stderr = measure_bias(problem, pairs, params, 1e-3, 400, seed=6)
        assert bias < 1e-9
        assert stderr < 1e-9

    def test_full_fallback_quartic_matches_closed_form(self):
        # for f = sum(x_i^4) and a full Gaussian probe, the curvature term
        # has mean 12 eps^2 x exactly (odd moments vanish, E[delta^4] = 3)
        problem = QuarticProblem.generate(24, [(6,)])
        params = problem.initial_params()
        epsilon = 0.05
        bias, stderr = measure_bias(problem, [None], params, epsilon, 8000,
                                    seed=7)
        want = 12.0 * epsilon ** 2 * float(
            np.linalg.norm(stack_params(params)))
        assert abs(bias - want) <= max(4.0 * stderr, 0.03 * want), \
            (bias, want, stderr)

    def test_bound_formula_and_one_sided_pass(self):
        problem = QuarticProblem.generate(25, [(3, 3)])
        params = problem.initial_params()
        pairs = build_pairs(GaussianStream(derive_seed(25, 0x64, 0)), params,
                            1, reshape="never")
        epsilon = 1e-2
        rep = check_bias_bound(problem, pairs, params, epsilon, 2000, seed=8)
        assert rep.check == "bias_bound"
        q = subspace_dimension(params, pairs)
        radius = epsilon * (math.sqrt(q) + 8.0)
        want = (epsilon ** 2 / 6.0) * problem.hessian_lipschitz(params, radius) \
            * (q + 4) ** 2
        assert rep.target == pytest.approx(want, rel=1e-12)
        assert rep.passed, rep
        # one-sided: an estimate below the bound deviates by zero
        assert rep.abs_deviation == 0.0

    def test_explicit_lipschitz_constant_is_used(self):
        problem = QuarticProblem.generate(25, [(3, 3)])
        params = problem.initial_params()
        pairs = build_pairs(GaussianStream(derive_seed(25, 0x64, 0)), params,
                            1, reshape="never")
        rep = check_bias_bound(problem, pairs, params, 1e-2, 50, seed=8,
                               hessian_lipschitz=600.0)
        assert rep.target == pytest.approx((1e-4 / 6.0) * 600.0 * 25.0)

    def test_undersized_bound_fails_one_sided(self):
        problem = QuarticProblem.generate(26, [(3, 3)])
        params = problem.initial_params()
        pairs = build_pairs(GaussianStream(derive_seed(26, 0x64, 0)), params,
                            1, reshape="never")
        rep = check_bias_bound(problem, pairs, params, 1e-1, 2000, seed=9,
                               hessian_lipschitz=1e-8)
        assert not rep.passed


class TestSlopeFit:
    def test_exact_power_law(self):
        assert fit_loglog_slope([1.0, 2.0, 4.0], [3.0, 12.0, 48.0]) == \
            pytest.approx(2.0, abs=1e-12)

    def test_two_points_reduce_to_log_ratio(self):
        got = fit_loglog_slope([2.0, 16.0], [5.0, 40.0])
        assert got == pytest.approx(math.log(8.0) / math.log(8.0))

    def test_single_distinct_x_raises(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([3.0, 3.0], [1.0, 2.0])

    def test_bias_slope_is_quadratic_in_epsilon(self):
        problem = QuarticProblem.generate(27, [(3, 3)])
        params = problem.initial_params()
        pairs = build_pairs(GaussianStream(derive_seed(27, 0x64, 0)), params,
                            1, reshape="never")
        epsilons = [1e-1, 1e-2, 1e-3]
        biases = [measure_bias(problem, pairs, params, eps, 2000,
                               seed=derive_seed(10, 0x61, 10 ** 6 + i))[0]
                  for i, eps in enumerate(epsilons)]
        assert all(b > 0.0 for b in biases)
        slope = fit_loglog_slope(epsilons, biases)
        assert abs(slope - 2.0) < 0.15, (slope, biases)


class TestDiagnostics:
    def test_subzero_without_pairs_raises(self):
        problem, params, _ = quadratic_cell(28, [(4, 4)], 2)
        with pytest.raises(ShapeError):
            estimator_diagnostics(problem, params, "subzero", 10)

    def test_dense_without_dimension_raises(self):
        problem, params, _ = quadratic_cell(28, [(4, 4)], 2)
        with pytest.raises(ShapeError):
            estimator_diagnostics(problem, params, "spsa_dense_subspace", 10)

    def test_unknown_family_raises(self):
        problem, params, _ = quadratic_cell(28, [(4, 4)], 2)
        with pytest.raises(ValueError):
            estimator_diagnostics(problem, params, "newton", 10)

    def test_nonpositive_sample_count_raises(self):
        problem, params, pairs = quadratic_cell(28, [(4, 4)], 2)
        with pytest.raises(ValueError):
            estimator_diagnostics(problem, params, "subzero", 0, pairs=pairs)

    def test_single_sample_has_nan_variance(self):
        problem, params, pairs = quadratic_cell(29, [(4, 4)], 2)
        row = estimator_diagnostics(problem, params, "subzero", 1, pairs=pairs)
        assert isinstance(row, DiagnosticsRow)
        assert math.isnan(row.rel_variance)
        # a single-sample mean gives a noisy but well-defined direction
        assert -1.0 <= row.cosine <= 1.0 and math.isfinite(row.cosine)

    def test_q_or_d_per_family(self):
        problem, params, pairs = quadratic_cell(30, [(5, 5)], 2)
        sub = estimator_diagnostics(problem, params, "subzero", 2, pairs=pairs)
        full = estimator_diagnostics(problem, params, "spsa_full", 2)
        dense = estimator_diagnostics(problem, params, "spsa_dense_subspace", 2,
                                 dense_q=7)
        assert sub.q_or_d == 4
        assert full.q_or_d == 25
        assert dense.q_or_d == 7

    def test_low_rank_beats_full_space_on_both_axes(self):
        # same point, same budget: the low-rank estimator must align better
        # with its mean and fluctuate less, relative to that mean
        problem, params, pairs = quadratic_cell(31, [(10, 10)], 2)
        sub = estimator_diagnostics(problem, params, "subzero", 1500, pairs=pairs,
                               seed=11)
        full = estimator_diagnostics(problem, params, "spsa_full", 1500, seed=11)
        assert sub.cosine > full.cosine
        assert sub.rel_variance < full.rel_variance


class TestSampleSeeds:
    """Every check asks for sample k's seed ``derive_seed(seed, 0x61, k)``,
    k = 0, 1, ... in order; the diagnostics' second phase goes on from
    ``k = n_mc``."""

    CHECKS = {
        "expectation_identity": lambda problem, pairs, params, n, seed:
            check_expectation_identity(problem, pairs, params, n, seed=seed),
        "second_moment": lambda problem, pairs, params, n, seed:
            check_second_moment(problem, pairs, params, n, seed=seed),
        "second_moment_spsa_full": lambda problem, pairs, params, n, seed:
            check_second_moment(problem, pairs, params, n, seed=seed,
                                family="spsa_full"),
        "cosine_identity": lambda problem, pairs, params, n, seed:
            check_cosine_identity(problem, pairs, params, n, seed=seed),
        "measure_bias": lambda problem, pairs, params, n, seed:
            measure_bias(problem, pairs, params, 1e-2, n, seed=seed),
        "bias_bound": lambda problem, pairs, params, n, seed:
            check_bias_bound(problem, pairs, params, 1e-2, n, seed=seed,
                             hessian_lipschitz=1.0),
    }

    @pytest.fixture
    def asked(self, monkeypatch):
        seeds = []
        estimate = verification.subzero_estimate
        dense = verification.dense_subspace_probe

        def recording_estimate(problem, params, pairs, batch, epsilon, seed):
            seeds.append(seed)
            return estimate(problem, params, pairs, batch, epsilon, seed)

        def recording_dense(problem, params, batch, epsilon, q, seed):
            seeds.append(seed)
            return dense(problem, params, batch, epsilon, q, seed)

        monkeypatch.setattr(verification, "subzero_estimate", recording_estimate)
        monkeypatch.setattr(verification, "dense_subspace_probe", recording_dense)
        return seeds

    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_checks_ask_in_order(self, asked, name):
        problem, params, pairs = quadratic_cell(28, [(4, 4), (3,)], 2)
        self.CHECKS[name](problem, pairs, params, 6, 5)
        assert asked == [derive_seed(5, 0x61, k) for k in range(6)]

    @pytest.mark.parametrize("family",
                             ["subzero", "spsa_full", "spsa_dense_subspace"])
    def test_diagnostics_ask_both_phases_in_order(self, asked, family):
        problem, params, pairs = quadratic_cell(28, [(4, 4), (3,)], 2)
        estimator_diagnostics(problem, params, family, 6, pairs=pairs,
                              dense_q=3, seed=5)
        assert asked == [derive_seed(5, 0x61, k) for k in range(12)]


def mixed_cell(reshape="auto"):
    # a native rank-3 pair, a vector layer and a (2, 8) layer, which "auto"
    # relayouts to 4x4 for its rank-3 pair and "never" keeps at rank 2
    problem = QuadraticProblem.generate(29, [(4, 4), (3,), (2, 8)])
    params = problem.initial_params()
    pairs = build_pairs(GaussianStream(derive_seed(29, 0x64, 0)), params, 3,
                        reshape=reshape)
    return problem, params, pairs


def quartic_cell():
    problem = QuarticProblem.generate(31, [(3, 3), (4,)])
    params = problem.initial_params()
    pairs = build_pairs(GaussianStream(derive_seed(31, 0x64, 0)), params, 2,
                        reshape="never")
    return problem, params, pairs


def mlp_cell():
    # 6 -> 8 -> 4: two native matrix layers and two bias vectors, d = 92
    problem = MlpProblem.generate(37, dataset_size=64)
    params = problem.initial_params()
    pairs = build_pairs(GaussianStream(derive_seed(37, 0x64, 0)), params, 2,
                        reshape="never")
    return problem, params, pairs


def logistic_cell():
    problem = LogisticProblem.generate(38, (4, 5), dataset_size=64)
    params = problem.initial_params()
    pairs = build_pairs(GaussianStream(derive_seed(38, 0x64, 0)), params, 2,
                        reshape="never")
    return problem, params, pairs


# a problem with a row-wise ``losses`` and two without one
SEED_ORDER_CELLS = {"quadratic": mixed_cell, "mlp": mlp_cell}


def seed_order_cases(families):
    # the quadratic cases keep their family-only ids
    return [pytest.param(cell, family,
                         id=family if cell == "quadratic" else f"{cell}-{family}")
            for cell in SEED_ORDER_CELLS for family in families]


def assert_row_is_the_estimate(problem, params, pairs, rho, delta, seed,
                               dense_q=None):
    """A block row ``(rho, delta)`` is the estimator's own sample for
    ``seed`` at the given parameters: rho within the guard's allowance of
    the probe's rounding floor, the estimate within 1e-12 of its size."""
    work = [w.copy() for w in params]
    batch = full_batch(problem)
    if dense_q is None:
        ld, est = subzero_estimate(problem, work, pairs, batch, 1e-3, seed)
    else:
        ld, est = dense_subspace_probe(problem, work, batch, 1e-3, dense_q, seed)
    floor = 2.0 ** -53 * (abs(ld.loss_plus) + abs(ld.loss_minus)) / 1e-3
    assert abs(rho - ld.rho) <= verification._GUARD_RHO_UNITS * floor
    want = est.stacked()
    assert np.max(np.abs(want - ld.rho * delta)) <= 1e-12 * np.max(np.abs(want))


@pytest.fixture
def sampled(monkeypatch):
    """Every sampler call's ``(first, rho, delta)``, blocks concatenated."""
    calls = []
    sampler = verification._estimates

    def recording(*args, **kwargs):
        blocks = list(sampler(*args, **kwargs))
        calls.append((kwargs.get("first", 0), np.concatenate([b[0] for b in blocks]),
                      np.concatenate([b[1] for b in blocks])))
        yield from blocks

    monkeypatch.setattr(verification, "_estimates", recording)
    return calls


class TestBlockSeedOrder:
    """Past the guard's first 64 samples, block row ``k`` is still the
    estimate seeded by ``derive_seed(seed, 0x61, k)``."""

    @pytest.mark.parametrize("cell, family", seed_order_cases(["subzero", "spsa_full"]))
    def test_rows_past_the_guard_are_the_seeded_estimates(self, sampled, cell, family):
        problem, params, pairs = SEED_ORDER_CELLS[cell]()
        check_second_moment(problem, pairs, params, 200, family=family, seed=5)
        [(first, rho, delta)] = sampled
        assert first == 0 and rho.shape == (200,)
        used = pairs if family == "subzero" else [None] * len(params)
        for k in (64, 65, 199):
            assert_row_is_the_estimate(problem, params, used, rho[k], delta[k],
                                       derive_seed(5, 0x61, k))

    @pytest.mark.parametrize("cell, family", seed_order_cases(
        ["subzero", "spsa_full", "spsa_dense_subspace"]))
    def test_diagnostics_second_phase_starts_at_n_mc(self, sampled, cell, family):
        problem, params, pairs = SEED_ORDER_CELLS[cell]()
        estimator_diagnostics(problem, params, family, 200, pairs=pairs,
                              dense_q=5, seed=5)
        assert [call[0] for call in sampled] == [0, 200]
        _, rho, delta = sampled[1]
        used = pairs if family == "subzero" else [None] * len(params)
        dense_q = 5 if family == "spsa_dense_subspace" else None
        for i in (64, 65, 199):
            assert_row_is_the_estimate(problem, params, used, rho[i], delta[i],
                                       derive_seed(5, 0x61, 200 + i), dense_q)

    def test_blocks_split_at_the_float_cap(self, sampled, monkeypatch):
        # 35 floats per sample under a 100-float cap: blocks of two rows, so
        # the guard's 64 samples span 32 blocks
        problem, params, pairs = mixed_cell()
        whole = check_second_moment(problem, pairs, params, 101, seed=5)
        monkeypatch.setattr(verification, "_BLOCK_FLOATS", 100)
        split = check_second_moment(problem, pairs, params, 101, seed=5)
        assert split.estimate == pytest.approx(whole.estimate, rel=1e-12)
        (_, rho, delta), (_, rho_split, delta_split) = sampled
        assert np.array_equal(delta, delta_split)
        np.testing.assert_allclose(rho_split, rho, rtol=1e-9)


CORRUPTIONS = ["seed_off_by_one", "flipped_sign", "swapped_layers", "loss_plus_off"]


class TestBlockGuard:
    """The guard re-runs a check's first samples through the estimator and
    raises a package error when a block row disagrees."""

    @pytest.mark.parametrize("cell, family, corruption", [
        pytest.param(cell, family, corruption,
                     id=corruption if (cell, family) == ("quadratic", "subzero")
                     else f"{cell}-{family}-{corruption}")
        for cell, family in [("quadratic", "subzero"), ("mlp", "subzero"),
                             ("quadratic", "spsa_dense_subspace"),
                             ("mlp", "spsa_dense_subspace")]
        for corruption in CORRUPTIONS])
    def test_one_corrupt_row_fires(self, monkeypatch, cell, family, corruption):
        if cell == "quadratic":
            problem, params, pairs = battery_cell(((3, 2), (3, 2)), 1, 11)
        else:
            problem, params, pairs = mlp_cell()
        bad_seed = derive_seed(0, 0x61, 5)
        rows = verification._delta_rows
        dense = verification._dense_direction

        def corrupted_rows(params, pairs, seeds):
            out = rows(params, pairs, seeds)
            if corruption == "seed_off_by_one":
                out[5] = rows(params, pairs, seeds[6:7])[0]
            elif corruption == "flipped_sign":
                out[5] *= -1.0
            else:
                out[5] = np.roll(out[5], params[0].size)
            return out

        def corrupted_dense(params, q, s):
            if s != bad_seed:
                return dense(params, q, s)
            if corruption == "seed_off_by_one":
                return dense(params, q, derive_seed(0, 0x61, 6))
            # the stored P z, corrupted, split row-major into read-only layers
            out = dense(params, q, s)
            values = np.concatenate([layer.ravel() for layer in out.layers])
            if corruption == "flipped_sign":
                values = -values
            else:
                values = np.roll(values, params[0].size)
            layers = []
            for w in params:
                layers.append(values[:w.size].reshape(w.shape))
                values = values[w.size:]
            return Direction(out.seed, layers)

        row_losses = verification._row_losses
        evaluated = []

        def loss_plus_off(problem, params, xs):
            values = row_losses(problem, params, xs)
            if not evaluated:
                values[5] += 1e-9 * abs(values[5])
            evaluated.append(xs)
            return values

        if corruption == "loss_plus_off":
            monkeypatch.setattr(verification, "_row_losses", loss_plus_off)
        elif family == "subzero":
            monkeypatch.setattr(verification, "_delta_rows", corrupted_rows)
        else:
            monkeypatch.setattr(verification, "_dense_direction", corrupted_dense)
        with pytest.raises(BlockMismatch, match=str(bad_seed)):
            if family == "subzero":
                check_second_moment(problem, pairs, params, 100, seed=0)
            else:
                estimator_diagnostics(problem, params, family, 100, dense_q=4,
                                      seed=0)
        # a package error, which ``python -O`` does not strip like ``assert``
        assert issubclass(BlockMismatch, SubzeroError)

    def test_guard_covers_only_the_first_64_samples(self, monkeypatch):
        # the estimator re-runs 64 samples per sampler call, not all of them
        problem, params, pairs = battery_cell(((3, 2), (3, 2)), 1, 11)
        rows = verification._delta_rows

        def flipped_late(params, pairs, seeds):
            out = rows(params, pairs, seeds)
            out[100] *= -1.0
            return out

        monkeypatch.setattr(verification, "_delta_rows", flipped_late)
        check_second_moment(problem, pairs, params, 200, seed=0)

    @pytest.mark.parametrize("scales, cap, fired", [
        ({5: -2.0, 9: -2.0}, None, 5),
        ({63: -2.0}, None, 63),
        ({41: -2.0}, 24, 41),
        ({3: 0.9e-12, 20: 1.2e-12}, None, 20),
        ({7: 1.05e-12, 30: 0.95e-12, 50: 4e-12}, None, 7),
        ({10: 0.5e-12, 63: 0.99e-12, 64: 1e-6}, None, None),
    ], ids=["rows-5-and-9-flipped", "last-guarded-row-flipped", "flipped-in-a-later-block",
            "below-then-above", "just-above-first", "below-or-unguarded"])
    def test_the_guard_fails_the_rows_the_per_row_loop_fails(
            self, monkeypatch, scales, cap, fired):
        # block row k of a 100-sample check is scaled by 1 + scales[k]: -2
        # flips it, and c near 1e-12 leaves a perturbation gap of about c of
        # the estimate's largest entry, against the guard's allowance of
        # 1e-12.  Under a 24-float cap the 12-float samples make blocks of
        # two rows, so the guard's 64 samples span 32 blocks.
        if cap is not None:
            monkeypatch.setattr(verification, "_BLOCK_FLOATS", cap)
        problem, params, pairs = battery_cell(((3, 2), (3, 2)), 1, 11)
        sample = {derive_seed(0, 0x61, k): k for k in range(100)}
        rows = verification._delta_rows
        central = verification._central_difference
        blocks = []

        def scaled_rows(params, pairs, seeds):
            out = rows(params, pairs, seeds)
            for row, s in zip(out, seeds.tolist()):
                row *= 1.0 + scales.get(sample[s], 0.0)
            return out

        def recording(problem, params, xs, delta, epsilon):
            blocks.append((central(problem, params, xs, delta, epsilon), delta))
            return blocks[-1][0]

        monkeypatch.setattr(verification, "_delta_rows", scaled_rows)
        monkeypatch.setattr(verification, "_central_difference", recording)
        try:
            check_second_moment(problem, pairs, params, 100, seed=0)
            message = None
        except BlockMismatch as exc:
            message = str(exc)
        assert message == per_row_guard(problem, params, pairs,
                                        np.concatenate([b[0] for b in blocks]),
                                        np.concatenate([b[1] for b in blocks]))
        if fired is None:
            assert message is None
        else:
            assert message.startswith(
                f"seed {derive_seed(0, 0x61, fired)}: block rho np.float64(")
        if cap is not None:
            assert len(blocks) == fired // 2 + 1


def per_row_guard(problem, params, pairs, rho, delta, epsilon=1e-3, seed=0):
    """The guard as it compared one row at a time, the reference for its
    comparison of a block's rows at once: the message for the first of the
    first 64 rows (``rho[i]``, ``delta[i]``) that disagrees with the
    estimator, or ``None``."""
    batch = full_batch(problem)
    for i in range(min(64, len(rho))):
        s = derive_seed(seed, 0x61, i)
        ld, est = subzero_estimate(problem, [w.copy() for w in params], pairs, batch,
                                   epsilon, s)
        want = est.stacked()
        delta_gap = float(np.max(np.abs(want - ld.rho * delta[i])))
        floor = 2.0 ** -53 * (abs(ld.loss_plus) + abs(ld.loss_minus)) / epsilon
        if (delta_gap > 1e-12 * float(np.max(np.abs(want)))
                or abs(rho[i] - ld.rho) > 16.0 * floor):
            return (f"seed {s}: block rho {rho[i]!r} against {ld.rho!r} "
                    f"(floor {floor:.3g}), perturbation gap {delta_gap:.3g}")
    return None


ENTRY_POINTS = {
    "expectation_identity": lambda problem, pairs, params:
        check_expectation_identity(problem, pairs, params, 300, seed=3),
    "second_moment": lambda problem, pairs, params:
        check_second_moment(problem, pairs, params, 300, seed=3),
    "second_moment_spsa_full": lambda problem, pairs, params:
        check_second_moment(problem, pairs, params, 300, seed=3, family="spsa_full"),
    "cosine_identity": lambda problem, pairs, params:
        check_cosine_identity(problem, pairs, params, 300, seed=3),
    "measure_bias": lambda problem, pairs, params:
        measure_bias(problem, pairs, params, 1e-1, 300, seed=3),
    "diagnostics_subzero": lambda problem, pairs, params:
        estimator_diagnostics(problem, params, "subzero", 300, pairs=pairs, seed=3),
    "diagnostics_spsa_full": lambda problem, pairs, params:
        estimator_diagnostics(problem, params, "spsa_full", 300, seed=3),
    "diagnostics_spsa_dense_subspace": lambda problem, pairs, params:
        estimator_diagnostics(problem, params, "spsa_dense_subspace", 300,
                              dense_q=5, seed=3),
}


ENTRY_POINT_CELLS = {"quadratic": mixed_cell, "quartic": quartic_cell,
                     "mlp": mlp_cell, "logistic": logistic_cell}


def _numbers(result) -> dict:
    if isinstance(result, tuple):
        return dict(enumerate(result))
    return {k: v for k, v in vars(result).items() if not isinstance(v, str)}


def assert_same_numbers(got: dict, want: dict):
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-9, abs=1e-12, nan_ok=True), key


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("cell", ["quadratic", "quartic", "mlp", "logistic"])
def test_checks_leave_the_parameters_bytes_unchanged(name, cell):
    problem, params, pairs = ENTRY_POINT_CELLS[cell]()
    before = [w.tobytes() for w in params]
    ENTRY_POINTS[name](problem, pairs, params)
    assert [w.tobytes() for w in params] == before


# the entry points that read the pairs they are given
PAIRED_ENTRY_POINTS = sorted(name for name in ENTRY_POINTS if "spsa" not in name)


@pytest.mark.parametrize("cut", ["short", "long", "misfit"])
@pytest.mark.parametrize("name", PAIRED_ENTRY_POINTS)
def test_pairs_not_one_per_layer_are_a_shape_error(name, cut):
    if cut == "misfit":   # one pair, but in a 3x3 geometry for a (4, 4) layer
        problem = QuadraticProblem.generate(29, [(4, 4)])
        params = problem.initial_params()
        pairs = build_pairs(GaussianStream(29), [np.zeros((3, 3))], 2)
        match = r"pair geometry .*rows=3, cols=3.* does not cover \(4, 4\)"
    else:
        problem, params, pairs = mixed_cell()
        pairs = pairs[:1] if cut == "short" else pairs + [None]
        match = f"{len(pairs)} pairs for 3 layers"
    with pytest.raises(ShapeError, match=match):
        ENTRY_POINTS[name](problem, pairs, params)


@pytest.mark.parametrize("family", ["subzero", "spsa_full", "spsa_dense_subspace"])
def test_no_parameters_are_a_shape_error(family):
    problem, _, _ = mixed_cell()
    with pytest.raises(ShapeError, match="0 pairs for 0 layers of 0 entries"):
        estimator_diagnostics(problem, [], family, 10, pairs=[], dense_q=2)


class TestLoopAgainstBlock:
    """The per-sample reference sampler, put in place of the block sampler,
    gives every report field to 1e-9 relative (1e-12 absolute, for the
    quadratic's bias, which is rounding noise)."""

    @staticmethod
    def run(name, cell):
        problem, params, pairs = ENTRY_POINT_CELLS[cell]()
        return _numbers(ENTRY_POINTS[name](problem, pairs, params))

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("cell", ["quadratic", "quartic", "mlp", "logistic"])
    def test_reports_match(self, monkeypatch, name, cell):
        block = self.run(name, cell)
        monkeypatch.setattr(verification, "_estimates", loop_estimates)
        assert_same_numbers(block, self.run(name, cell))

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_row_losses_without_losses_match(self, monkeypatch, name):
        # a problem without ``losses`` is probed one ``loss`` call per row
        vectorized = self.run(name, "quadratic")
        monkeypatch.delattr(QuadraticProblem, "losses")
        assert_same_numbers(self.run(name, "quadratic"), vectorized)


class TestCentralDifference:
    """Both sides of the block central difference are formed in one buffer,
    bit for bit as ``xs + epsilon * delta`` and ``xs - epsilon * delta``."""

    def cell(self):
        problem, params, pairs = battery_cell(((3, 2), (3, 2)), 1, 11)
        seeds = derive_seeds(7, 0x61, last=np.arange(2000))
        return problem, params, verification._delta_rows(params, pairs, seeds)

    def formula(self, problem, params, xs, delta, eps):
        step = eps * delta
        return (verification._row_losses(problem, params, xs + step)
                - verification._row_losses(problem, params, xs - step)) / (2.0 * eps)

    @pytest.mark.parametrize("rows", [False, True], ids=["one_point", "one_per_row"])
    @pytest.mark.parametrize("vectorized", [True, False], ids=["losses", "loss"])
    def test_matches_the_formula_bit_for_bit(self, monkeypatch, rows, vectorized):
        problem, params, delta = self.cell()
        delta = delta[:300]
        xs = stack_params(params)
        if rows:
            xs = xs + 1e-2 * np.sin(np.arange(delta.size)).reshape(delta.shape)
        if not vectorized:
            monkeypatch.delattr(QuadraticProblem, "losses")
        got = verification._central_difference(problem, params, xs, delta, 1e-3)
        want = self.formula(problem, params, xs, delta, 1e-3)
        assert got.tobytes() == want.tobytes()

    def test_peak_is_two_blocks(self):
        # the buffer and the quadratic's ``xs @ h``; the formula holds three
        problem, params, delta = self.cell()
        xs = stack_params(params)
        tracemalloc.start()
        try:
            verification._central_difference(problem, params, xs, delta, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * delta.nbytes


class TestSubspaceStart:
    def test_start_has_prescribed_loss(self):
        problem, params, pairs = quadratic_cell(32, [(6, 6)], 2)
        start = subspace_start(problem, pairs, seed=5, value=0.5)
        got = problem.loss(start, full_batch(problem))
        assert got == pytest.approx(0.5, rel=1e-12)

    def test_start_lies_in_span(self):
        problem, params, pairs = quadratic_cell(32, [(6, 6)], 2)
        start = subspace_start(problem, pairs, seed=5, value=0.5)
        for w, pair in zip(start, pairs):
            back = pair.u @ (pair.u.T @ w @ pair.v) @ pair.v.T
            np.testing.assert_allclose(back, w, atol=1e-12)

    def test_vector_layer_rejected(self):
        problem = QuadraticProblem.generate(33, [(4, 4), (3,)])
        params = problem.initial_params()
        pairs = build_pairs(GaussianStream(6), params, 2)
        assert pairs[1] is None
        with pytest.raises(ShapeError):
            subspace_start(problem, pairs, seed=5, value=0.5)


SMALL_CFG = ConvergenceConfig(rank=2, runs=6, epsilon=1e-3, batch_size=1,
                              step_cap=30_000, chunk=128, master_seed=3,
                              start_value=0.5)


class TestConvergence:
    def test_hitting_times_double_per_halved_target(self):
        problem = QuadraticProblem.generate(34, [(6, 6)])
        pairs = build_pairs(GaussianStream(derive_seed(3, 0x64, 0)),
                            problem.initial_params(), 2, reshape="never")
        cells = convergence_hitting_times(problem, pairs,
                                          [0.1, 0.05, 0.025], SMALL_CFG)
        assert [c.target for c in cells] == [0.025, 0.05, 0.1]
        assert all(c.q == 4 for c in cells)
        eta = theoretical_step_size(4, problem.smoothness)
        assert all(c.eta == pytest.approx(eta) for c in cells)
        hits = [c.hit for c in reversed(cells)]  # loosest target first
        assert hits[0] < hits[1] < hits[2]
        # running-average decay ~ 1/N: halving the target should roughly
        # double the hitting time
        for wide, tight in zip(hits, hits[1:]):
            assert 1.4 <= tight / wide <= 3.0, hits

    def test_a_pair_that_does_not_fit_its_layer_is_a_shape_error(self):
        problem = QuadraticProblem.generate(29, [(4, 4)])
        pairs = build_pairs(GaussianStream(29), [np.zeros((3, 3))], 2)
        with pytest.raises(ShapeError, match=r"does not cover \(4, 4\)"):
            convergence_hitting_times(problem, pairs, [0.1], SMALL_CFG)

    def test_runs_stop_at_the_tightest_hit(self, monkeypatch):
        problem = QuadraticProblem.generate(34, [(6, 6)])
        pairs = build_pairs(GaussianStream(derive_seed(3, 0x64, 0)),
                            problem.initial_params(), 2, reshape="never")
        calls = 0
        real_losses = problem.losses

        def counting_losses(xs):
            nonlocal calls
            calls += 1
            return real_losses(xs)

        monkeypatch.setattr(problem, "losses", counting_losses)
        cells = convergence_hitting_times(problem, pairs,
                                          [0.1, 0.05, 0.025], SMALL_CFG)
        assert [c.target for c in cells] == [0.025, 0.05, 0.1]
        assert [c.hit for c in cells] == [681, 340, 167]
        # the start's loss, then two probes and one loss per step; the runs
        # stop right after the step that hits the tightest target
        assert calls == 1 + 3 * 681

    def test_hits_match_the_per_run_loop(self):
        problem = QuadraticProblem.generate(34, [(6, 6)])
        pairs = build_pairs(GaussianStream(derive_seed(3, 0x64, 0)),
                            problem.initial_params(), 2, reshape="never")
        targets = [0.1, 0.05, 0.025]
        cells = convergence_hitting_times(problem, pairs, targets, SMALL_CFG)
        assert [c.hit for c in cells] == loop_hitting_times(problem, pairs,
                                                            targets, SMALL_CFG)

    @pytest.mark.parametrize("seed, shapes", [(34, [(6, 6)]), (36, [(6, 6), (5, 4)])])
    def test_block_positions_follow_the_trainer(self, seed, shapes):
        problem = QuadraticProblem.generate(seed, shapes)
        pairs = build_pairs(GaussianStream(derive_seed(3, 0x64, 0)),
                            problem.initial_params(), 2, reshape="never")
        eta = theoretical_step_size(subspace_dimension(problem.initial_params(), pairs),
                                    problem.smoothness)
        x0 = subspace_start(problem, pairs, seed=5, value=0.5)
        block = verification._run_positions(problem, pairs, x0, eta, SMALL_CFG)
        loop = loop_states(problem, pairs, x0, eta, SMALL_CFG)
        for _, xs, states in zip(range(51), block, loop):
            assert xs.shape == (SMALL_CFG.runs, sum(w.size for w in x0))
            np.testing.assert_allclose(
                xs, [stack_params(s.params) for s in states], rtol=1e-9)
        assert states[0].step == 50

    @pytest.mark.parametrize("epsilon", [0.0, -1e-3, math.nan])
    def test_epsilon_not_positive_is_config_error(self, epsilon):
        problem = QuadraticProblem.generate(34, [(6, 6)])
        pairs = build_pairs(GaussianStream(derive_seed(3, 0x64, 0)),
                            problem.initial_params(), 2, reshape="never")
        cfg = ConvergenceConfig(rank=2, runs=2, epsilon=epsilon, step_cap=128)
        with pytest.raises(ConfigError):
            convergence_hitting_times(problem, pairs, [0.1], cfg)

    def test_budget_exhaustion_raises(self):
        problem = QuadraticProblem.generate(34, [(6, 6)])
        pairs = build_pairs(GaussianStream(derive_seed(3, 0x64, 0)),
                            problem.initial_params(), 2, reshape="never")
        tiny = ConvergenceConfig(rank=2, runs=2, step_cap=128, chunk=64,
                                 master_seed=3)
        with pytest.raises(BudgetExceeded):
            convergence_hitting_times(problem, pairs, [1e-9], tiny)

    @pytest.mark.parametrize("targets, runs", [([], 2), ([0.1], 0)])
    def test_no_targets_or_runs_rejected(self, targets, runs):
        problem = QuadraticProblem.generate(34, [(6, 6)])
        pairs = build_pairs(GaussianStream(derive_seed(3, 0x64, 0)),
                            problem.initial_params(), 2, reshape="never")
        cfg = ConvergenceConfig(rank=2, runs=runs, step_cap=128)
        with pytest.raises(ValueError):
            convergence_hitting_times(problem, pairs, targets, cfg)

    def test_single_problem_rate_in_band(self):
        problem = QuadraticProblem.generate(35, [(6, 6)])
        report = convergence_battery([problem], SMALL_CFG, [0.1, 0.025])
        assert report.passed, report
        assert 0.7 <= report.slope <= 1.3
        assert len(report.cells) == 2

    def test_slope_report_requires_all_cells_usable(self):
        cells = [ConvergenceCell(q=4, target=0.1, hit=100, eta=0.01),
                 ConvergenceCell(q=4, target=0.05, hit=200, eta=0.01),
                 ConvergenceCell(q=4, target=0.025, hit=None, eta=0.01)]
        report = _slope_report(cells, (0.7, 1.3))
        assert not report.passed
        assert report.slope == pytest.approx(1.0)

    def test_slope_report_degenerate_is_nan(self):
        cells = [ConvergenceCell(q=4, target=0.1, hit=None, eta=0.01)]
        report = _slope_report(cells, (0.7, 1.3))
        assert math.isnan(report.slope) and not report.passed


class TestBattery:
    def test_row_names_and_structure(self):
        reports = run_default_battery(n_mc=300, n_mc_bias=300, seed=1)
        names = [r.check for r in reports]
        want = (
            [f"expectation_identity[{n}]" for n, _, _ in BATTERY_SHAPES]
            + [f"second_moment[{n}]" for n, _, _ in BATTERY_SHAPES]
            + [f"cosine_identity[q={q}]" for q, _, _ in COSINE_CELLS]
            + [f"bias_bound[eps={e:g}]" for e in BIAS_EPSILONS]
            + ["bias_slope", "projector_structure", "variance_ordering"]
        )
        assert names == want
        assert len(names) == len(set(names)) == 15
        assert all(isinstance(r, MonteCarloReport) for r in reports)

    def test_deterministic_rows_pass_even_at_tiny_samples(self):
        reports = {r.check: r for r in
                   run_default_battery(n_mc=300, n_mc_bias=300, seed=1)}
        assert reports["projector_structure"].passed
        assert reports["projector_structure"].estimate < 1e-10
        assert reports["bias_slope"].target == 2.0
        assert reports["bias_slope"].abs_tol == 0.2
        assert reports["variance_ordering"].passed

    def test_battery_cell_uses_pinned_generator(self):
        p1, params1, pairs1 = battery_cell(((3, 2), (3, 2)), 1, 11)
        p2, params2, pairs2 = battery_cell(((3, 2), (3, 2)), 1, 11)
        pinned = build_pairs(GaussianStream(derive_seed(11, 0x64, 0)), params1, 1,
                             reshape="never")
        for a, b in zip(params1, params2):
            np.testing.assert_array_equal(a, b)
        for a, b, c in zip(pairs1, pairs2, pinned):
            np.testing.assert_array_equal(a.u, b.u)
            np.testing.assert_array_equal(a.v, b.v)
            assert a.u.tobytes() == c.u.tobytes() and a.v.tobytes() == c.v.tobytes()


class TestOrderingAnchor:
    def test_exact_gradients_still_win(self):
        # forward-only estimation pays a dimension price; with the same
        # budget a first-order run must end lower, or something is wrong
        # with the baselines
        problem = QuadraticProblem.generate(36, [(6, 6)])
        batch = full_batch(problem)
        base = dict(steps=300, batch_size=8, schedule="constant",
                    master_seed=9, eval_interval=300)
        sub_cfg = OptimizerConfig(
            family="subzero", rank=2, refresh_period=25, epsilon=1e-3,
            learning_rate=theoretical_step_size(4, problem.smoothness), **base)
        sgd_cfg = OptimizerConfig(
            family="exact_sgd",
            learning_rate=1.0 / (2.0 * problem.smoothness), **base)
        sub = train(problem, sub_cfg)
        sgd = train(problem, sgd_cfg)
        sub_final = problem.loss(sub.final_params, batch)
        sgd_final = problem.loss(sgd.final_params, batch)
        assert sgd_final < sub_final
        start = problem.loss(problem.initial_params(), batch)
        assert sub_final < start
