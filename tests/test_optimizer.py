"""Training loop: determinism, refresh cadence, update geometry, failures."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from subzero import optimizer, perturbation
from subzero.errors import ConfigError, NonFiniteLoss, ShapeError, StepFailure
from subzero.estimators import (dense_subspace_probe, subzero_estimate,
                                 two_sided_loss_diff)
from subzero.numcore import GaussianStream, derive_seed, stack_params
from subzero.optimizer import (OptimizerConfig, TrainerState, init_state, step,
                               theoretical_step_size, train, _TAG_STEP)
from subzero.perturbation import (LayerShape, build_pairs, draw_direction,
                                  iter_perturbation_layers)
from subzero.problems import (Minibatch, MlpProblem, QuadraticProblem,
                              QuarticProblem, full_batch, sample_minibatch)
from oracles import Injected, failing_views, stream_calls


def make_problem(seed=2, shapes=((4, 3), (5,))):
    return QuadraticProblem.generate(seed, list(shapes), dataset_size=64)


def _held_mlp():
    """A 64-96-8 MLP: at rank 16 the probe holds W1 (64x96, native, above
    the dot cut-over) out of its passes, and W2 (96x8) is relaid to 32x24."""
    return MlpProblem.generate(4, n_features=64, hidden=(96,), n_outputs=8,
                               dataset_size=64)


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
        {"learning_rate": math.inf},
        {"epsilon": math.inf},
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
        {"steps": [5]},
        {"rank": (2,)},
        {"batch_size": ()},
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

    @pytest.mark.parametrize("reshape", ["auto", "never"])
    def test_a_refresh_draws_the_pairs_of_the_params_shapes(self, reshape):
        # no plan is stored: each refresh plans from the params, including
        # the relayout of a layer too narrow for the rank
        prob = QuadraticProblem.generate(3, [(16, 2), (3,), (4, 4)], dataset_size=16)
        cfg = OptimizerConfig(family="subzero", steps=6, batch_size=4, rank=3,
                              refresh_period=3, master_seed=8, reshape=reshape)
        state = init_state(prob, cfg)
        for t in range(6):
            step(prob, state, cfg)
            if t == 3:
                seed = derive_seed(cfg.master_seed, optimizer._TAG_PAIRS, 3)
                want = build_pairs(GaussianStream(seed), state.params, 3, reshape)
                for got, pair in zip(state.pairs, want):
                    assert (got is None) == (pair is None)
                    if pair is not None:
                        np.testing.assert_array_equal(got.u, pair.u)
                        np.testing.assert_array_equal(got.v, pair.v)
        assert state.pairs[0].shape == (LayerShape(8, 4) if reshape == "auto"
                                        else LayerShape(16, 2))


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
# a native 4x3 at rank 3 and two vector layers whose 13 values exceed its 12
# entries, so every pass replays them: the kept 4x3 is added, then one chunk
# of 13 values is drawn and added to each vector layer in turn
_INJECT_STREAMED_LAYERS = ((4, 3), (6,), (7,))
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
# a 64-96-8 MLP at rank 16 with W1's core pending: W1 (64x96) is held, so
# each pass of a step adds b1, W2 (relaid to 32x24, formed whole) and b2
_INJECT_HELD_LAYERS = 3


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
    # the seeded targets draw their direction once, before any pass, in as
    # many normals() calls as the draw makes
    params = [np.zeros(shape) for shape in _INJECT_LAYERS]
    calls = stream_calls(draw_direction, params,
                         build_pairs(GaussianStream(1), params, 3), 5, True)
    for target in ("probe", "step"):
        for k in range(len(calls)):
            for exc in _INJECT_EXCEPTIONS:
                yield pytest.param(target + "_draw", k, exc,
                                   id=f"{target}-draw-call{k}-{exc.__name__}")
    # the streamed layout: each add of every probe and step pass, and each
    # stream call, the direction's draw and then one chunk per pass
    n = len(_INJECT_STREAMED_LAYERS)
    for target in ("probe", "step"):
        for k in range(_INJECT_PASSES[target] * n):
            for exc in _INJECT_EXCEPTIONS:
                yield pytest.param(
                    target + "_streamed", k, exc,
                    id=f"{target}-streamed-pass{k // n}-layer{k % n}-{exc.__name__}")
        for k in range(1 + _INJECT_PASSES[target]):
            for exc in _INJECT_EXCEPTIONS:
                yield pytest.param(target + "_streamed_draw", k, exc,
                                   id=f"{target}-streamed-draw-call{k}-{exc.__name__}")
    # the k-th row-block add of each probe and step pass on large layers
    n = len(_INJECT_LARGE_ADDS)
    for target in ("probe", "step"):
        for k in range(_INJECT_PASSES[target] * n):
            kind, block = _INJECT_LARGE_ADDS[k % n]
            for exc in _INJECT_EXCEPTIONS:
                yield pytest.param(
                    target + "_large", k, exc,
                    id=f"{target}-large-pass{k // n}-{kind}-block{block}-{exc.__name__}")
    # a held-layer step: each add of its three probe passes and its update,
    # each probe loss made non-finite, and the merge of W1's pending core
    # when the pairs refresh
    n = _INJECT_HELD_LAYERS
    for k in range(_INJECT_PASSES["step"] * n):
        for exc in _INJECT_EXCEPTIONS:
            yield pytest.param("held", k, exc,
                               id=f"held-pass{k // n}-layer{k % n + 1}-{exc.__name__}")
    for k in range(2):
        yield pytest.param("held_loss", k, NonFiniteLoss, id=f"held-loss{k}")
    for exc in _INJECT_EXCEPTIONS:
        yield pytest.param("held_merge", 0, exc, id=f"held-merge-{exc.__name__}")


@functools.lru_cache(maxsize=None)
def _large_problem():
    return QuarticProblem.generate(6, list(_INJECT_LARGE_LAYERS), dataset_size=32)


@pytest.mark.parametrize("target, fail_at, exc", list(_injection_cases()))
def test_failed_pass_leaves_params_where_it_found_them(target, fail_at, exc,
                                                       monkeypatch):
    large = target.endswith("_large")
    streamed = "_streamed" in target
    target = target.removesuffix("_large").replace("_streamed", "")
    if target.startswith("held"):
        prob = _held_mlp()
    elif large:
        prob, rank = _large_problem(), 16
    else:
        layers = _INJECT_STREAMED_LAYERS if streamed else _INJECT_LAYERS
        prob = QuadraticProblem.generate(6, list(layers), dataset_size=32)
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
    if target.startswith("held"):
        # steps 0 and 1 leave W1's core pending; step 2 updates it, and step
        # 3 merges it before its refresh replaces the pairs
        cfg = OptimizerConfig(family="subzero", batch_size=8, rank=16,
                              refresh_period=3, master_seed=2)
        state = init_state(prob, cfg)
        for _ in range(3 if target == "held_merge" else 2):
            step(prob, state, cfg)
        assert list(state.pending) == [0]
    elif target in ("probe", "step"):
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
    elif target == "held_loss":
        loss = prob.loss
        calls = iter(range(2))

        def nonfinite_loss(params, batch, **kwargs):
            value = loss(params, batch, **kwargs)
            return math.inf if next(calls) == fail_at else value

        monkeypatch.setattr(prob, "loss", nonfinite_loss)
    else:
        state.layers = [w.view(FailingAdd) for w in state.layers]
    t0, pairs0 = state.step, list(state.pairs)
    before = [np.array(w) for w in state.layers]
    cores = {i: a.copy() for i, a in state.pending.items()}
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
    assert state.step == t0
    for w, b in zip(state.layers, before):
        # the direction's draw precedes every write (a streamed pass's chunk
        # draws follow them), and the merge fails at its first block
        if (in_draw and not (streamed and fail_at)) or target == "held_merge":
            assert np.array_equal(w, b)
        assert np.max(np.abs(w - b)) <= 1e-12
    assert state.pending.keys() == cores.keys()
    for i, a in cores.items():
        assert np.array_equal(state.pending[i], a)
    assert all(p is q for p, q in zip(state.pairs, pairs0))


def test_the_streamed_injection_layout_draws_one_chunk_per_pass():
    # the injection cases above count on this: the direction's draw of the
    # 4x3 core, then one 13-value chunk for the vector layers in each pass
    prob = QuadraticProblem.generate(6, list(_INJECT_STREAMED_LAYERS), dataset_size=32)
    cfg = OptimizerConfig(family="subzero", steps=1, batch_size=8, rank=3,
                          alignment="scale_z", master_seed=2)
    pairs = build_pairs(GaussianStream(1), prob.initial_params(), 3)
    state = init_state(prob, cfg, pairs=pairs)
    direction = draw_direction(state.params, pairs, 5, aligned=True)
    assert [type(layer) for layer in direction.layers] == [np.ndarray, int, int]
    assert stream_calls(step, prob, state, cfg) == [(0, 9)] + [(9, 13)] * 4


@pytest.mark.parametrize("family, held", [
    ("subzero", []), ("spsa_full", []), ("spsa_dense_subspace", []),
    ("exact_sgd", []), ("subzero", [0])],
    ids=["subzero", "spsa_full", "spsa_dense_subspace", "exact_sgd", "subzero-held"])
def test_a_step_is_one_probe_then_one_update_pass(family, held, monkeypatch):
    # every zeroth-order family probes in three passes, then updates in one
    # pass with coefficient -lr * rho; exact SGD skips the probe and updates
    # along its stored gradient with coefficient -lr.  The update pass skips
    # a held layer (W1 of a 64-96-8 MLP at rank 16), whose update goes into
    # its pending core instead
    if held:
        prob, rank = _held_mlp(), 16
    else:
        prob, rank = make_problem(), 2
    cfg = OptimizerConfig(family=family, steps=1, batch_size=8, rank=rank, dense_q=4)
    state = init_state(prob, cfg)
    w0 = state.layers[0].copy()
    if family == "exact_sgd":
        assert state.pairs == [None] * len(state.params)
    events = []
    probe = optimizer.two_sided_loss_diff
    axpy = optimizer.axpy_perturbation
    layers = perturbation.iter_perturbation_layers

    def recording_probe(*args):
        events.append("probe")
        ld = probe(*args)
        events.append("probed")
        return ld

    def recording_axpy(params, pairs, direction, coeff, skip):
        events.append(("update", coeff, sorted(skip)))
        axpy(params, pairs, direction, coeff, skip)

    def recording_layers(*args):
        events.append("pass")
        return layers(*args)

    monkeypatch.setattr(optimizer, "two_sided_loss_diff", recording_probe)
    monkeypatch.setattr(optimizer, "axpy_perturbation", recording_axpy)
    monkeypatch.setattr(perturbation, "iter_perturbation_layers", recording_layers)
    rec = step(prob, state, cfg)
    if family == "exact_sgd":
        assert events == [("update", -rec.lr, []), "pass"]
    else:
        assert events == ["probe", "pass", "pass", "pass", "probed",
                          ("update", -(rec.lr * rec.rho), held), "pass"]
    assert list(state.pending) == held
    assert np.array_equal(state.layers[0], w0) == bool(held)


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


def test_spsa_full_step_holds_no_layer_sized_replay():
    # the benchmark's train_mlp_fullspace workload at seed 1 (a 64-64-16 MLP,
    # d = 5200, batch 32), measured as acceptance test 8 measures a step.
    # A pass streams the 4096-value W1 replay in 16 kB chunks and each bias
    # is added in blocks of rows, so the loss sets the peak: 43.6 kB, where
    # a whole W1 delta and a broadcast bias buffer made it 55.6 kB
    from subzero.cli import ProblemSpec, build_problem
    prob = build_problem(ProblemSpec(family="mlp", n_features=64, hidden=(64,),
                                     n_outputs=16, dataset_size=256,
                                     seed=derive_seed(1, 1)))
    cfg = OptimizerConfig(family="spsa_full", batch_size=32, learning_rate=3e-3,
                          epsilon=1e-3, master_seed=derive_seed(1, 2))
    state = init_state(prob, cfg)
    step(prob, state, cfg)      # warm-up: caches, lazy imports
    tracemalloc.start()
    try:
        step(prob, state, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 45_000, peak


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


class TestExactSgdDirection:
    """Exact SGD's direction keeps the minibatch gradient arrays themselves,
    read-only, so its update pass neither copies nor scales them."""

    @staticmethod
    def recorded_step(prob, cfg, monkeypatch, fail_at=None):
        """One exact-SGD step on a fresh state; returns the state, the
        gradient arrays and the direction of its update pass, which adds
        through ``failing_views`` when ``fail_at`` is set."""
        state = init_state(prob, cfg)
        grads, directions = [], []
        gradient = prob.exact_gradient
        axpy = optimizer.axpy_perturbation

        def recording_gradient(params, batch):
            grads.append(gradient(params, batch))
            return grads[-1]

        def recording_axpy(params, pairs, direction, coeff, skip):
            directions.append(direction)
            if fail_at is not None:
                params = failing_views(params, fail_at)
            axpy(params, pairs, direction, coeff, skip)

        monkeypatch.setattr(prob, "exact_gradient", recording_gradient)
        monkeypatch.setattr(optimizer, "axpy_perturbation", recording_axpy)
        if fail_at is None:
            step(prob, state, cfg)
        else:
            with pytest.raises(Injected):
                step(prob, state, cfg)
        (g,), (direction,) = grads, directions
        return state, g, direction

    @pytest.mark.parametrize("prob", [make_problem(), _held_mlp()],
                             ids=["quadratic", "mlp"])
    def test_the_direction_is_the_gradient_arrays_read_only(self, prob, monkeypatch):
        cfg = OptimizerConfig(family="exact_sgd", steps=1, batch_size=16,
                              learning_rate=0.05, master_seed=3)
        _, grads, direction = self.recorded_step(prob, cfg, monkeypatch)
        assert direction.kept and len(direction.layers) == len(grads)
        assert all(layer is g for layer, g in zip(direction.layers, grads))
        assert not any(g.flags.writeable for g in grads)

    @pytest.mark.parametrize("fail_at", [2, 3, 4])
    def test_a_failed_update_rolls_back(self, fail_at, monkeypatch):
        # the 64-96-8 MLP's four layers: the update fails at the add of
        # b1, W2 or b2 and takes back the layers it added; a gradient scaled
        # in place would be replayed scaled, off by far more than rounding
        prob = _held_mlp()
        cfg = OptimizerConfig(family="exact_sgd", steps=1, batch_size=16,
                              learning_rate=0.5, master_seed=3)
        before = [w.copy() for w in init_state(prob, cfg).params]
        state, _, _ = self.recorded_step(prob, cfg, monkeypatch, fail_at)
        assert state.step == 0
        for w, b in zip(state.params, before):
            assert np.max(np.abs(w - b)) <= 1e-12

    def test_a_step_on_the_512_512_8_mlp_copies_no_gradient(self):
        # d = 266 760; the gradient arrays (8 d bytes) are the direction, so
        # a step holds no second d-sized copy of them
        prob = MlpProblem.generate(4, n_features=512, hidden=(512,), n_outputs=8,
                                   dataset_size=64)
        cfg = OptimizerConfig(family="exact_sgd", steps=2, batch_size=32,
                              master_seed=1)
        state = init_state(prob, cfg)
        d = sum(w.size for w in state.params)
        assert d == 266_760
        step(prob, state, cfg)      # warms caches and imports
        tracemalloc.start()
        try:
            step(prob, state, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * d, peak / (8 * d)


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


class _NoHook:
    """A problem's loss without its ``probe_batch`` hook: no layer is held,
    so every step writes every layer in place."""

    def __init__(self, inner):
        self.inner = inner
        self.dataset_size = inner.dataset_size
        self.initial_params = inner.initial_params

    def loss(self, params, batch):
        return self.inner.loss(params, batch)


class TestHeldLayerUpdates:
    """A held layer's updates wait in an r x r core until its pairs refresh
    or ``state.params`` is read, and agree with per-step writes to
    rounding."""

    def run(self, prob, cfg, steps, read=False, pairs=None):
        state = init_state(prob, cfg, pairs=pairs)
        rhos = []
        for _ in range(steps):
            rhos.append(step(prob, state, cfg).rho)
            if read:
                state.params
                assert not state.pending
        return rhos, state

    def config(self, refresh_period=50):
        return OptimizerConfig(family="subzero", batch_size=16, rank=16,
                               learning_rate=5e-3, refresh_period=refresh_period,
                               master_seed=3)

    def test_a_read_after_every_step_moves_the_run_by_rounding_only(self):
        prob, cfg = _held_mlp(), self.config()
        _, never = self.run(prob, cfg, 120)
        _, every = self.run(prob, cfg, 120, read=True)
        _, again = self.run(prob, cfg, 120, read=True)
        assert never.pending      # steps 100 to 119 are still pending
        for a, b, c in zip(never.params, every.params, again.params):
            assert np.max(np.abs(a - b)) <= 1e-12
            assert np.array_equal(b, c)
        # assigning params replaces the layers a pending core was summed for
        step(prob, never, cfg)
        never.params = prob.initial_params()
        assert not never.pending

    def test_mid_run_validation_merges_nothing(self):
        # train_mlp_wide's model and optimizer: validation every 7 steps
        # reads the held W1's pending core unmerged, so the run's values are
        # those of a run validated only at its ends
        prob = MlpProblem.generate(1, n_features=512, hidden=(512,), n_outputs=8,
                                   dataset_size=256)
        often, rarely = (train(prob, OptimizerConfig(
            family="subzero", steps=120, batch_size=32, rank=16, learning_rate=5e-3,
            refresh_period=50, epsilon=1e-3, eval_interval=interval))
            for interval in (7, 500))
        assert len(often.validation) == 19 and len(rarely.validation) == 2
        for a, b in zip(often.final_params, rarely.final_params):
            assert np.array_equal(a, b)
        assert often.validation[-1] == rarely.validation[-1]
        assert [s.rho for s in often.steps] == [s.rho for s in rarely.steps]

    @pytest.mark.parametrize("pinned", [False, True], ids=["refreshed", "pinned"])
    def test_lazy_updates_match_per_step_writes(self, pinned):
        prob, cfg = _held_mlp(), self.config()
        pairs = (build_pairs(GaussianStream(7), prob.initial_params(), 16)
                 if pinned else None)
        rhos, lazy = self.run(prob, cfg, 120, pairs=pairs)
        ref_rhos, ref = self.run(_NoHook(prob), cfg, 120, pairs=pairs)
        assert list(lazy.pending) == [0] and not ref.pending
        if pinned:      # nothing is merged until the read
            assert np.array_equal(lazy.layers[0], prob.initial_params()[0])
        assert rhos == pytest.approx(ref_rhos, rel=1e-9)
        for a, b in zip(lazy.params, ref.params):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_each_refresh_merges_under_the_outgoing_pairs(self):
        prob, cfg = _held_mlp(), self.config(refresh_period=5)
        state = init_state(prob, cfg)
        step(prob, state, cfg)      # step 0 draws the first pairs
        for refresh in (5, 10):
            w0 = state.layers[0].copy()
            while state.step < refresh:
                step(prob, state, cfg)
                assert np.array_equal(state.layers[0], w0)
            old, core = state.pairs[0], state.pending[0].copy()
            step(prob, state, cfg)
            new = state.pairs[0]
            assert not np.array_equal(new.u, old.u)
            merged = state.layers[0]
            assert np.max(np.abs(merged - (w0 + old.u @ core @ old.v.T))) <= 1e-15
            assert np.max(np.abs(merged - (w0 + new.u @ core @ new.v.T))) > 1e-6
            # the refresh step's own update waits under the new pairs
            assert list(state.pending) == [0]
            assert not np.array_equal(state.pending[0], core)


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
        # no layer formed, so the 6x6 layer's core is the Z of its (u, Z, v)
        monkeypatch.setattr(perturbation, "_KEPT_BYTES", 0)
        for pinned, rank, scale in (([pair, None], 1, 6.0), (None, 3, 2.0)):
            state = init_state(prob, cfg, pairs=pinned)
            step(prob, state, cfg)
            aligned = drawn.pop()
            plain = draw(state.params, state.pairs, aligned.seed)
            assert state.pairs[0].rank == rank
            assert aligned.layers[0][1].tobytes() == (scale * plain.layers[0][1]).tobytes()
            assert aligned.layers[1].tobytes() == plain.layers[1].tobytes()


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

    @pytest.mark.parametrize("family", ["subzero", "exact_sgd"])
    @pytest.mark.parametrize("shape", [(2, 2, 3), ()])
    def test_init_state_rejects_params_neither_vector_nor_matrix(self, family, shape):
        prob = make_problem()
        cfg = OptimizerConfig(family=family, steps=1, batch_size=8, rank=1)
        with pytest.raises(ShapeError, match="1-D or 2-D"):
            init_state(prob, cfg, params=[np.zeros(shape), np.zeros(5)])

    def test_init_state_rejects_params_of_another_shape(self):
        # a 2x3 start for a 3x2 layer would be read column-major as that
        # layer and come back 2x3
        prob = QuadraticProblem.generate(2, [(3, 2)])
        cfg = OptimizerConfig(steps=3, rank=1, batch_size=4)
        with pytest.raises(ShapeError, match=r"parameters \[\(2, 3\)\] for layers"):
            train(prob, cfg, params=[np.ones((2, 3))])

    def test_init_state_rejects_transposed_mlp_weights(self):
        # numpy's matmul error would not be a SubzeroError
        prob = MlpProblem.generate(5, dataset_size=16)
        cfg = OptimizerConfig(steps=1, rank=1, batch_size=4)
        params = [w.T for w in prob.initial_params()]
        with pytest.raises(ShapeError, match="for layers"):
            train(prob, cfg, params=params)

    @pytest.mark.parametrize("family", ["subzero", "spsa_full",
                                        "spsa_dense_subspace", "exact_sgd"])
    def test_rejects_bad_pinned_pairs(self, family):
        prob = make_problem()
        cfg = OptimizerConfig(family=family, steps=1, batch_size=8, rank=1)
        if family == "subzero":
            with pytest.raises(ShapeError):
                init_state(prob, cfg, pairs=[None])
            return
        # aligned pairs, which only subzero reads, are refused, not dropped
        pairs = build_pairs(GaussianStream(1), prob.initial_params(), 1)
        with pytest.raises(ConfigError, match="pinned pairs"):
            init_state(prob, cfg, pairs=pairs)
        with pytest.raises(ConfigError, match="pinned pairs"):
            train(prob, cfg, pairs=pairs)
