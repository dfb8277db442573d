"""Training loop: determinism, refresh cadence, update geometry, failures."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from subzero import optimizer
from subzero.errors import ConfigError, ShapeError, StepFailure
from subzero.estimators import (dense_subspace_probe, subzero_estimate,
                                 two_sided_loss_diff)
from subzero.numcore import GaussianStream, derive_seed, stack_params
from subzero.optimizer import (OptimizerConfig, TrainerState, init_state, step,
                               theoretical_step_size, train, _TAG_STEP)
from subzero.perturbation import (build_pairs, draw_direction,
                                  iter_perturbation_layers)
from subzero.problems import (Minibatch, MlpProblem, QuadraticProblem,
                              QuarticProblem, full_batch, sample_minibatch)


def make_problem(seed=2, shapes=((4, 3), (5,))):
    return QuadraticProblem.generate(seed, list(shapes), dataset_size=64)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        OptimizerConfig()

    @pytest.mark.parametrize("overrides", [
        {"family": "newton"},
        {"schedule": "cosine"},
        {"alignment": "rescale"},
        {"reshape": "sometimes"},
        {"steps": -1},
        {"batch_size": 0},
        {"learning_rate": 0.0},
        {"epsilon": -1e-3},
        {"rank": 0},
        {"refresh_period": 0},
        {"dense_q": 0},
        {"eval_interval": 0},
        {"master_seed": -1},
        {"family": "spsa_full", "alignment": "scale_z"},
        {"alignment": "scale_hyper"},
        {"reshape": "always"},
        {"refresh_period": 1.5},
        {"rank": 2.5},
        {"steps": 2.5},
        {"batch_size": 4.5},
        {"dense_q": 2.5},
        {"rank": True},
        {"master_seed": 1.0},
        {"eval_interval": 10.0},
        {"steps": "5"},
    ])
    def test_rejections(self, overrides):
        with pytest.raises(ConfigError):
            OptimizerConfig(**overrides)

    def test_numpy_integer_counts_pass(self):
        counts = dict(steps=3, batch_size=4, rank=2, refresh_period=5,
                      dense_q=8, master_seed=7, eval_interval=9)
        config = OptimizerConfig(**{k: np.int64(v) for k, v in counts.items()})
        assert config == OptimizerConfig(**counts)

    def test_learning_rate_schedules(self):
        const = OptimizerConfig(learning_rate=0.2, schedule="constant", steps=10)
        assert const.learning_rate_at(7) == 0.2
        lin = OptimizerConfig(learning_rate=0.2, schedule="linear", steps=10)
        assert lin.learning_rate_at(0) == pytest.approx(0.2)
        assert lin.learning_rate_at(5) == pytest.approx(0.1)
        # decays to 0 at ``steps`` and stays there, never negative
        assert [lin.learning_rate_at(t) for t in (10, 11, 12)] == [0.0] * 3


class TestTheoreticalStepSize:
    def test_known_values(self):
        assert theoretical_step_size(1, 1.0) == pytest.approx(0.05)
        assert theoretical_step_size(4, 0.5) == pytest.approx(1.0 / 16.0)

    def test_uses_problem_smoothness(self):
        prob = make_problem()
        eta = theoretical_step_size(9, prob.smoothness)
        assert eta == pytest.approx(1.0 / (4.0 * 13.0 * prob.smoothness))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            theoretical_step_size(0, 1.0)
        with pytest.raises(ValueError):
            theoretical_step_size(2, 0.0)


class TestDeterminism:
    def test_identical_runs_bit_for_bit(self):
        prob = make_problem()
        cfg = OptimizerConfig(family="subzero", steps=25, batch_size=8,
                              learning_rate=0.05, epsilon=1e-3, rank=2,
                              refresh_period=10, master_seed=17)
        a = train(prob, cfg)
        b = train(prob, cfg)
        for ra, rb in zip(a.steps, b.steps):
            assert ra.loss_plus == rb.loss_plus
            assert ra.loss_minus == rb.loss_minus
            assert ra.rho == rb.rho
            assert ra.lr == rb.lr
        for wa, wb in zip(a.final_params, b.final_params):
            assert np.array_equal(wa, wb)
        assert a.validation == b.validation

    def test_master_seed_changes_trajectory(self):
        prob = make_problem()
        base = dict(family="subzero", steps=10, batch_size=8, rank=2)
        a = train(prob, OptimizerConfig(master_seed=0, **base))
        b = train(prob, OptimizerConfig(master_seed=1, **base))
        assert a.steps[0].rho != b.steps[0].rho

    def test_all_families_deterministic(self):
        prob = make_problem()
        for fam in ("spsa_full", "spsa_dense_subspace", "exact_sgd"):
            cfg = OptimizerConfig(family=fam, steps=8, batch_size=8,
                                  learning_rate=0.02, dense_q=4, master_seed=3)
            a = train(prob, cfg)
            b = train(prob, cfg)
            for wa, wb in zip(a.final_params, b.final_params):
                assert np.array_equal(wa, wb), fam


class TestRefreshCadence:
    def run_states(self, prob, cfg, n):
        state = init_state(prob, cfg)
        snaps = []
        for _ in range(n):
            step(prob, state, cfg)
            snaps.append(state.pairs[0].u.copy())
        return snaps

    def test_pairs_refresh_on_schedule(self):
        prob = make_problem()
        cfg = OptimizerConfig(family="subzero", steps=10, batch_size=8,
                              rank=2, refresh_period=4, master_seed=5)
        snaps = self.run_states(prob, cfg, 10)
        # refreshes land before steps 0, 4 and 8; constant in between
        changes = [t for t in range(1, 10)
                   if not np.array_equal(snaps[t], snaps[t - 1])]
        assert changes == [4, 8]

    def test_refresh_draws_are_step_seeded(self):
        prob = make_problem()
        cfg = OptimizerConfig(family="subzero", steps=10, batch_size=8,
                              rank=2, refresh_period=4, master_seed=5)
        snaps = self.run_states(prob, cfg, 10)
        assert not np.array_equal(snaps[0], snaps[4])
        assert not np.array_equal(snaps[4], snaps[8])

    def test_pinned_pairs_never_refresh(self):
        prob = make_problem()
        params = prob.initial_params()
        pairs = build_pairs(GaussianStream(99), params, 2)
        cfg = OptimizerConfig(family="subzero", steps=10, batch_size=8,
                              rank=2, refresh_period=2, master_seed=5)
        state = init_state(prob, cfg, pairs=pairs)
        for _ in range(10):
            step(prob, state, cfg)
        assert state.pairs[0] is pairs[0]


class TestStepGeometry:
    def test_subzero_update_stays_in_pair_span(self):
        prob = make_problem()
        cfg = OptimizerConfig(family="subzero", steps=1, batch_size=8,
                              learning_rate=0.1, rank=2, master_seed=7)
        state = init_state(prob, cfg)
        before = [w.copy() for w in state.params]
        step(prob, state, cfg)
        pair = state.pairs[0]
        diff = state.params[0] - before[0]
        recon = pair.u @ (pair.u.T @ diff @ pair.v) @ pair.v.T
        assert np.max(np.abs(diff - recon)) < 1e-10
        assert np.max(np.abs(diff)) > 0

    def test_subzero_step_matches_manual_replay(self):
        prob = make_problem()
        cfg = OptimizerConfig(family="subzero", steps=1, batch_size=64,
                              learning_rate=0.1, epsilon=1e-3, rank=2,
                              master_seed=11)
        state = init_state(prob, cfg)
        before = [w.copy() for w in state.params]
        rec = step(prob, state, cfg)
        seed0 = derive_seed(11, _TAG_STEP, 0)
        deltas = list(iter_perturbation_layers(before, state.pairs, seed0))
        for w, b, d in zip(state.params, before, deltas):
            assert np.max(np.abs(w - (b - 0.1 * rec.rho * d))) < 1e-14

    def test_exact_sgd_matches_hand_update(self):
        prob = make_problem()
        cfg = OptimizerConfig(family="exact_sgd", steps=1, batch_size=16,
                              learning_rate=0.05, master_seed=3)
        state = init_state(prob, cfg)
        before = [w.copy() for w in state.params]
        rec = step(prob, state, cfg)
        batch = sample_minibatch(prob, 3, 0, 16)
        grads = prob.exact_gradient(before, batch)
        for w, b, g in zip(state.params, before, grads):
            assert np.array_equal(w, b - 0.05 * g)
        assert math.isnan(rec.rho)
        assert rec.loss_plus == rec.loss_minus
        assert rec.loss_plus == pytest.approx(prob.loss(before, batch))

    def test_step_records_wall_time_and_lr(self):
        prob = make_problem()
        cfg = OptimizerConfig(family="subzero", steps=1, batch_size=8,
                              learning_rate=0.2, rank=1, master_seed=0)
        state = init_state(prob, cfg)
        rec = step(prob, state, cfg)
        assert rec.step == 0
        assert rec.lr == 0.2
        assert rec.wall_ms >= 0.0
        assert state.step == 1


class _AlwaysInf:
    dataset_size = 16

    def initial_params(self):
        return [np.zeros((2, 2))]

    def loss(self, params, batch):
        return math.inf


class TestFailureHandling:
    def test_step_failure_carries_step_index(self):
        prob = _AlwaysInf()
        cfg = OptimizerConfig(family="subzero", steps=5, batch_size=4,
                              rank=1, master_seed=0)
        state = init_state(prob, cfg)
        state.step = 3
        with pytest.raises(StepFailure) as err:
            step(prob, state, cfg)
        assert err.value.step == 3
        assert "step 3" in str(err.value)

    def test_train_propagates_step_failure(self):
        cfg = OptimizerConfig(family="subzero", steps=5, batch_size=4,
                              rank=1, master_seed=0)
        with pytest.raises(StepFailure):
            train(_AlwaysInf(), cfg)


# native 4x3, relayout of 8x2 to 4x4 at rank 3, and a vector layer
_INJECT_LAYERS = ((4, 3), (8, 2), (5,))
_INJECT_MATRIX_LAYERS = 2
# passes per target: subzero's seeded probe and step, then the writes of a
# stored direction (the dense-subspace probe and step, the exact-SGD update)
_INJECT_PASSES = {"probe": 3, "step": 4, "dense_probe": 3, "dense_step": 4,
                  "sgd_step": 1}
_INJECT_EXCEPTIONS = (ShapeError, MemoryError, KeyboardInterrupt)
# layers above the dot cut-over, added in row blocks at rank 16: a native
# 300x200 layer in blocks of 163 and 137 rows, 8192x8 relaid to 256x256 in
# two blocks of 128 rows, and a bias; the in-place adds of one pass, in order
_INJECT_LARGE_LAYERS = ((300, 200), (8192, 8), (7,))
_INJECT_LARGE_ADDS = (("native", 0), ("native", 1), ("relayout", 0),
                      ("relayout", 1), ("bias", 0))


def _injection_cases():
    # every pass adds to each layer once, in layer order, so the k-th
    # in-place add is pass k // n, layer k % n
    n = len(_INJECT_LAYERS)
    for target, passes in _INJECT_PASSES.items():
        for k in range(passes * n):
            for exc in _INJECT_EXCEPTIONS:
                yield pytest.param(
                    target, k, exc,
                    id=f"{target}-pass{k // n}-layer{k % n}-{exc.__name__}")
    # the seeded targets draw their cores once, one normals() call per
    # matrix layer, before any pass
    for target in ("probe", "step"):
        for k in range(_INJECT_MATRIX_LAYERS):
            for exc in _INJECT_EXCEPTIONS:
                yield pytest.param(target + "_draw", k, exc,
                                   id=f"{target}-draw-layer{k}-{exc.__name__}")
    # the k-th row-block add of each probe and step pass on large layers
    n = len(_INJECT_LARGE_ADDS)
    for target in ("probe", "step"):
        for k in range(_INJECT_PASSES[target] * n):
            kind, block = _INJECT_LARGE_ADDS[k % n]
            for exc in _INJECT_EXCEPTIONS:
                yield pytest.param(
                    target + "_large", k, exc,
                    id=f"{target}-large-pass{k // n}-{kind}-block{block}-{exc.__name__}")


@functools.lru_cache(maxsize=None)
def _large_problem():
    return QuarticProblem.generate(6, list(_INJECT_LARGE_LAYERS), dataset_size=32)


@pytest.mark.parametrize("target, fail_at, exc", list(_injection_cases()))
def test_failed_pass_leaves_params_where_it_found_them(target, fail_at, exc,
                                                       monkeypatch):
    large = target.endswith("_large")
    target = target.removesuffix("_large")
    if large:
        prob, rank = _large_problem(), 16
    else:
        prob = QuadraticProblem.generate(6, list(_INJECT_LAYERS), dataset_size=32)
        rank = 3
    touches = 0

    def touch():
        nonlocal touches
        touches += 1
        if touches == fail_at + 1:
            raise exc("injected")

    class FailingAdd(np.ndarray):
        def __iadd__(self, other):
            touch()
            return super().__iadd__(other)

        def __isub__(self, other):
            touch()
            return super().__isub__(other)

    in_draw = target.endswith("_draw")
    target = target.removesuffix("_draw")
    if target in ("probe", "step"):
        cfg = OptimizerConfig(family="subzero", steps=1, batch_size=8, rank=rank,
                              alignment="scale_z", master_seed=2)
        pairs = build_pairs(GaussianStream(1), prob.initial_params(), rank)
        state = init_state(prob, cfg, pairs=pairs)
    else:
        family = "exact_sgd" if target == "sgd_step" else "spsa_dense_subspace"
        cfg = OptimizerConfig(family=family, steps=1, batch_size=8, dense_q=8,
                              master_seed=2)
        state = init_state(prob, cfg)
    if in_draw:
        normals = GaussianStream.normals

        def failing_normals(self, n):
            touch()
            return normals(self, n)

        monkeypatch.setattr(GaussianStream, "normals", failing_normals)
    else:
        state.params = [w.view(FailingAdd) for w in state.params]
    before = [np.array(w) for w in state.params]
    batch = sample_minibatch(prob, 2, 0, 8)
    with pytest.raises((exc, StepFailure)):
        if target == "probe":
            two_sided_loss_diff(prob, state.params, pairs, batch, cfg.epsilon,
                                seed=draw_direction(state.params, pairs, 5,
                                                    aligned=True))
        elif target == "dense_probe":
            dense_subspace_probe(prob, state.params, batch, cfg.epsilon,
                                 cfg.dense_q, seed=5)
        else:
            step(prob, state, cfg)
    assert state.step == 0
    for w, b in zip(state.params, before):
        if in_draw:     # the draw precedes every write
            assert np.array_equal(w, b)
        assert np.max(np.abs(w - b)) <= 1e-12


def _values_drawn(layers, call, monkeypatch):
    """Stream values one ``step`` or ``subzero_estimate`` draws on a
    quadratic cell at rank 3, with q and the vector layers' total."""
    prob = QuadraticProblem.generate(6, list(layers), dataset_size=32)
    cfg = OptimizerConfig(family="subzero", steps=1, batch_size=8, rank=3,
                          master_seed=2)
    pairs = build_pairs(GaussianStream(1), prob.initial_params(), 3)
    state = init_state(prob, cfg, pairs=pairs)
    q = sum(pair.rank ** 2 for pair in pairs if pair is not None)
    vectors = sum(w.size for w, pair in zip(state.params, pairs) if pair is None)
    drawn = 0
    normals = GaussianStream.normals

    def counting_normals(self, n):
        nonlocal drawn
        drawn += n
        return normals(self, n)

    monkeypatch.setattr(GaussianStream, "normals", counting_normals)
    if call == "step":
        step(prob, state, cfg)
    else:
        subzero_estimate(prob, state.params, pairs, full_batch(prob), 1e-3, seed=5)
    return drawn, q, vectors


@pytest.mark.parametrize("call", ["step", "estimate"])
def test_cores_are_drawn_once_and_vectors_once_per_pass(call, monkeypatch):
    # the 5 vector values fit the largest matrix layer (16 entries), so the
    # direction keeps them and none of the four passes replays them
    drawn, q, vectors = _values_drawn(_INJECT_LAYERS, call, monkeypatch)
    assert (q, vectors) == (18, 5)
    assert drawn == q + vectors


@pytest.mark.parametrize("call", ["step", "estimate"])
def test_vectors_beyond_the_largest_matrix_layer_replay_every_pass(call, monkeypatch):
    # 13 vector values exceed the largest matrix layer (12 entries): each of
    # the four passes (+eps, -2 eps, +eps, then the update or the estimate)
    # replays them from the seed
    drawn, q, vectors = _values_drawn(((4, 3), (6,), (7,)), call, monkeypatch)
    assert (q, vectors) == (9, 13)
    assert drawn == q + 4 * vectors


def test_step_on_a_512x512_layer_peaks_below_one_layer_buffer():
    # the large layer's passes add in row blocks of at most 256 kB, so no
    # 512x512 delta (2 MiB) is ever formed
    prob = MlpProblem.generate(4, n_features=512, hidden=(512,), n_outputs=8,
                               dataset_size=64)
    cfg = OptimizerConfig(family="subzero", steps=3, batch_size=32, rank=16,
                          master_seed=1)
    state = init_state(prob, cfg)
    assert state.params[0].shape == (512, 512)
    step(prob, state, cfg)      # draws the pairs; warms caches and imports
    tracemalloc.start()
    try:
        step(prob, state, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 512 * 8, peak


@pytest.mark.parametrize("hidden, held_out", [((96,), [0]), ((16,), [])],
                         ids=["held-out", "in-place"])
def test_a_step_makes_four_passes_and_two_loss_calls(hidden, held_out, monkeypatch):
    # the benchmark counts one pass per iter_perturbation_layers call, which
    # it wraps with these four positional parameters, and expects two per
    # loss evaluation; every pass switches the factored walk on through the
    # fourth.  A held-out layer (64x96 here, above the dot cut-over) changes
    # what the passes add, not how many there are
    import subzero.perturbation as perturbation
    prob = MlpProblem.generate(4, n_features=64, hidden=hidden, n_outputs=8,
                               dataset_size=64)
    cfg = OptimizerConfig(family="subzero", steps=2, batch_size=16, rank=16,
                          master_seed=1)
    state = init_state(prob, cfg)
    step(prob, state, cfg)      # draws the pairs
    passes = []
    layers = perturbation.iter_perturbation_layers

    def counting_layers(params, pairs, seed, z_scales=None):
        passes.append(z_scales)
        return layers(params, pairs, seed, z_scales)

    loss_calls = []
    loss = prob.loss

    def counting_loss(params, batch, **kwargs):
        loss_calls.append(sorted(kwargs.get("low_rank") or ()))
        return loss(params, batch, **kwargs)

    monkeypatch.setattr(perturbation, "iter_perturbation_layers", counting_layers)
    monkeypatch.setattr(prob, "loss", counting_loss)
    step(prob, state, cfg)
    assert passes == [True] * 4
    assert loss_calls == [held_out, held_out]


class TestAlignmentModes:
    def uniform_problem(self):
        return QuadraticProblem.generate(4, [(6, 6), (6, 6)], dataset_size=32)

    def test_scale_z_changes_the_run(self):
        prob = self.uniform_problem()
        base = dict(family="subzero", steps=5, batch_size=8, rank=2,
                    learning_rate=0.01, master_seed=9)
        plain = train(prob, OptimizerConfig(alignment="none", **base))
        scaled = train(prob, OptimizerConfig(alignment="scale_z", **base))
        assert plain.steps[0].rho != scaled.steps[0].rho

    def test_scale_z_follows_pinned_pairs_not_the_plan(self, monkeypatch):
        # a rank-1 pair pinned on a 6x6 layer under a rank-3 config scales
        # by sqrt(36) / 1, not by the plan's sqrt(36) / 3
        prob = QuadraticProblem.generate(4, [(6, 6), (5,)], dataset_size=32)
        pair = build_pairs(GaussianStream(3), prob.initial_params()[:1], 1)[0]
        cfg = OptimizerConfig(family="subzero", steps=1, batch_size=8, rank=3,
                              alignment="scale_z")
        drawn = []
        draw = optimizer.draw_direction

        def recording(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        monkeypatch.setattr(optimizer, "draw_direction", recording)
        for pinned, rank, scale in (([pair, None], 1, 6.0), (None, 3, 2.0)):
            state = init_state(prob, cfg, pairs=pinned)
            step(prob, state, cfg)
            aligned = drawn.pop()
            plain = draw(state.params, state.pairs, aligned.seed)
            assert state.pairs[0].rank == rank
            assert aligned.cores.tobytes() == (scale * plain.cores).tobytes()
            assert aligned.vectors.tobytes() == plain.vectors.tobytes()


class TestTrainBookkeeping:
    def test_validation_cadence(self):
        prob = make_problem()
        cfg = OptimizerConfig(family="subzero", steps=7, batch_size=8, rank=1,
                              eval_interval=3, master_seed=1)
        rec = train(prob, cfg)
        assert [t for t, _ in rec.validation] == [0, 3, 6, 7]
        val_loss = prob.loss(prob.initial_params(), full_batch(prob))
        assert rec.validation[0][1] == pytest.approx(val_loss)

    def test_zero_steps(self):
        prob = make_problem()
        cfg = OptimizerConfig(family="subzero", steps=0, batch_size=8, rank=1)
        rec = train(prob, cfg)
        assert rec.steps == []
        assert [t for t, _ in rec.validation] == [0]

    def test_caller_params_not_mutated(self):
        prob = make_problem()
        params = prob.initial_params()
        before = [w.copy() for w in params]
        cfg = OptimizerConfig(family="subzero", steps=5, batch_size=8, rank=1,
                              learning_rate=0.1)
        train(prob, cfg, params=params)
        for w, b in zip(params, before):
            assert np.array_equal(w, b)

    def test_run_reduces_quadratic_loss(self):
        prob = make_problem()
        cfg = OptimizerConfig(family="subzero", steps=300, batch_size=64,
                              learning_rate=0.05, epsilon=1e-4, rank=2,
                              master_seed=2)
        rec = train(prob, cfg)
        assert rec.validation[-1][1] < 0.25 * rec.validation[0][1]

    def test_rejects_bad_pinned_pairs(self):
        prob = make_problem()
        cfg = OptimizerConfig(family="subzero", steps=1, batch_size=8, rank=1)
        with pytest.raises(ShapeError):
            init_state(prob, cfg, pairs=[None])
