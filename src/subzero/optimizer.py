"""Training loop around the two-point estimators.

A step of every zeroth-order family never forms a gradient object.  It
draws its direction once from the step seed (the q matrix-layer core
values, each multiplied under ``scale_z`` by the norm-alignment scale
``sqrt(m * n) / r`` read from its pair, and the vector layers' values when
they fit the largest matrix layer; for ``spsa_dense_subspace`` the stored
``P z``) and probes the loss twice along it in three passes.  Exact SGD,
the backpropagation reference, takes its minibatch gradient arrays as the
direction instead, every layer kept and none copied, and does not probe.
Every family then ends its step with one ``axpy_perturbation`` pass along
its direction, with coefficient ``-lr * rho``, or ``-lr`` for exact SGD.

The layers the problem's loss takes in factored form (large native MLP
layers, *held* layers; see
:func:`~subzero.estimators.two_sided_loss_diff`) are skipped by every pass
of a step.  Their pairs are fixed for a refresh period, so the period's
updates to such a layer sum to ``U A V^T`` with ``A = sum_t -lr_t rho_t
Z_t`` of shape ``(r, r)``: the update adds ``-lr * rho * Z`` to ``A``, and
the probe passes ``A`` to the loss with its own perturbation.  The merge
``W += U A V^T``, one pass of row blocks, is the only write to a held
layer; it runs when the pairs refresh, under the outgoing pairs, and
whenever :attr:`TrainerState.params` is read.  Peak transient memory of a
layer-wise step is therefore the drawn direction plus one buffer of at
most a small layer, a 256 kB row block of a large one or a 16 kB chunk of
replayed vector values, or the loss evaluation's activations if they are
larger, however many layers the model has.  The loss adds each bias in
blocks of rows, so it holds no broadcast buffer beyond 4 kB.  On
``train_mlp_wide`` the probe's loss evaluations set the peak, and a merge
step adds one row block; on ``spsa_full``'s ``train_mlp_fullspace`` no
replayed layer exists whole, and the loss evaluations set it too.  A failed step leaves the parameters and
the pending cores where it found them.

Seed lineage: everything a run consumes is derived from ``master_seed``
through tagged hashes, with the step index mixed in.  Per-step perturbation
seeds, subspace refresh seeds and minibatch draws are independent streams,
so two runs with the same config replay identically (wall-clock timings
aside) and runs with different seeds are unrelated.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (ConfigError, ShapeError, StepFailure, SubzeroError,
                     check_counts)
from .numcore import GaussianStream, derive_seed
from .perturbation import (RESHAPE_POLICIES, Direction, ProjectionPair,
                           _add_rows, axpy_perturbation, build_pairs,
                           draw_direction)
from .estimators import _dense_direction, _held_out, two_sided_loss_diff
from .problems import full_batch, sample_minibatch

_TAG_STEP = 0x51
_TAG_PAIRS = 0x52

FAMILIES = ("subzero", "spsa_full", "spsa_dense_subspace", "exact_sgd")
SCHEDULES = ("constant", "linear")
ALIGNMENTS = ("none", "scale_z")


@dataclass(frozen=True)
class OptimizerConfig:
    """Everything a training run depends on besides the problem itself."""

    family: str = "subzero"
    steps: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-2
    schedule: str = "constant"
    epsilon: float = 1e-3
    rank: int = 1
    refresh_period: int = 50
    dense_q: int = 16
    master_seed: int = 0
    alignment: str = "none"
    reshape: str = "auto"
    eval_interval: int = 500

    def __post_init__(self):
        check_counts(self, {"steps": 0, "batch_size": 1, "rank": 1, "refresh_period": 1,
                            "dense_q": 1, "master_seed": 0, "eval_interval": 1})
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown estimator family {self.family!r}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        if self.alignment not in ALIGNMENTS:
            raise ConfigError(f"unknown alignment mode {self.alignment!r}")
        if self.reshape not in RESHAPE_POLICIES:
            raise ConfigError(f"unknown reshape policy {self.reshape!r}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError("learning rate must be positive and finite")
        if not 0.0 < self.epsilon < math.inf:
            raise ConfigError("epsilon must be positive and finite")
        if self.alignment != "none" and self.family != "subzero":
            raise ConfigError("norm alignment only applies to the subzero family")

    def learning_rate_at(self, t: int) -> float:
        if self.schedule == "constant":
            return self.learning_rate
        return max(0.0, self.learning_rate * (1.0 - t / max(self.steps, 1)))


class TrainerState:
    """Mutable state of a run: the parameters, the current projection
    pairs, the step counter, and the pending cores of the held layers.
    Each refresh plans the pairs afresh from the parameters' shapes, which
    never change during a run, so no plan is stored.  ``pinned_pairs``
    marks externally supplied pairs that refreshes must not replace
    (fixed-subspace analysis mode).  The constructor takes the parameters
    alone; :func:`init_state` sets the pairs and pins them.

    ``layers`` are the stored parameters and ``pending`` maps a held
    layer's index to the ``(r, r)`` sum ``A`` of its updates since it was
    last merged, so that layer's value is ``layers[i] + U A V^T`` under its
    current pair.  Reading :attr:`params` merges every pending core into
    its layer first, so readers see merged values; a read mid-period
    merges early, which moves the later values by rounding only.  A core
    costs ``8 r**2`` bytes for as long as it is pending (2 kB at rank 16).
    Assigning :attr:`params` replaces the layers and drops any pending
    core."""

    def __init__(self, params: list[np.ndarray]):
        self.layers = params
        self.step = 0
        self.pairs: Optional[list[Optional[ProjectionPair]]] = None
        self.pinned_pairs = False
        self.pending: dict[int, np.ndarray] = {}

    @property
    def params(self) -> list[np.ndarray]:
        """The parameters, with every pending core merged in (``W += U A
        V^T``, one row-block pass per core that undoes itself if it
        raises; a core is dropped once its layer holds it).  Outside
        readers see merged values; :func:`train`'s mid-run validation
        reads ``layers`` with the pending cores instead, and merges
        nothing."""
        for i, core in list(self.pending.items()):
            pair = self.pairs[i]
            _add_rows(self.layers[i], pair.u, core, pair.v, 1.0)
            del self.pending[i]
        return self.layers

    @params.setter
    def params(self, layers: list[np.ndarray]) -> None:
        self.layers = layers
        self.pending = {}


@dataclass(frozen=True)
class StepRecord:
    """One row of a run record.  The zeroth-order families log both probe
    losses; exact SGD logs its minibatch loss in both slots and NaN for rho
    since no probe happened."""

    step: int
    loss_plus: float
    loss_minus: float
    rho: float
    lr: float
    wall_ms: float


@dataclass
class RunRecord:
    """Everything a finished run reports: per-step records, periodic
    validation losses as ``(step, loss)`` pairs, and the final parameters."""

    steps: list[StepRecord] = field(default_factory=list)
    validation: list[tuple[int, float]] = field(default_factory=list)
    final_params: Optional[list[np.ndarray]] = None


def theoretical_step_size(q: int, smoothness: float) -> float:
    """The constant step size ``1 / (4 (q + 4) L1)`` that the convergence
    guarantee of the fixed-subspace analysis assumes."""
    if q < 1:
        raise ValueError(f"subspace dimension must be positive, got {q}")
    if not smoothness > 0.0:
        raise ValueError(f"smoothness must be positive, got {smoothness}")
    return 1.0 / (4.0 * (q + 4) * smoothness)


def init_state(problem, config: OptimizerConfig,
               params: Optional[Sequence[np.ndarray]] = None,
               pairs: Optional[list[Optional[ProjectionPair]]] = None) -> TrainerState:
    """Set up a run: copy the starting point and pin the given pairs, if
    any (``subzero`` only; other families refuse them).  Given ``params``
    must have the problem's ``layer_shapes``, else ``ShapeError``."""
    if pairs is not None and config.family != "subzero":
        raise ConfigError(f"only subzero takes pinned pairs, not {config.family!r}")
    if params is None:
        work = problem.initial_params()
    else:
        work = [np.array(w, dtype=np.float64) for w in params]
    for w in work:
        if w.ndim not in (1, 2):
            raise ShapeError(f"parameters must be 1-D or 2-D, got ndim={w.ndim}")
    if params is not None and [w.shape for w in work] != list(problem.layer_shapes):
        raise ShapeError(f"parameters {[w.shape for w in work]} for layers {problem.layer_shapes}")
    state = TrainerState(params=work)
    if pairs is not None:
        if len(pairs) != len(work):
            raise ShapeError("pinned pairs must align with the parameters")
        state.pairs = list(pairs)
        state.pinned_pairs = True
    elif config.family != "subzero":
        state.pairs = [None] * len(work)
    return state


def _refresh_pairs(state: TrainerState, config: OptimizerConfig) -> None:
    if state.pinned_pairs or (state.pairs is not None
                              and state.step % config.refresh_period):
        return
    stream = GaussianStream(derive_seed(config.master_seed, _TAG_PAIRS, state.step))
    # reading params merges the pending cores under the outgoing pairs
    state.pairs = build_pairs(stream, state.params, config.rank, config.reshape)


def step(problem, state: TrainerState, config: OptimizerConfig) -> StepRecord:
    """Advance the run by one step, updating the stored layers in place and
    the held layers' pending cores (see :class:`TrainerState`)."""
    t = state.step
    begin = time.perf_counter()
    lr = config.learning_rate_at(t)
    batch = sample_minibatch(problem, config.master_seed, t, config.batch_size)
    seed_t = derive_seed(config.master_seed, _TAG_STEP, t)
    try:
        if config.family == "exact_sgd":
            params, held = state.params, {}
            loss_plus = loss_minus = problem.loss(params, batch)
            direction = Direction(seed_t, problem.exact_gradient(params, batch))
            rho = math.nan
            coeff = -lr
        else:
            if config.family == "subzero":
                _refresh_pairs(state, config)
            params = state.layers
            if config.family == "spsa_dense_subspace":
                direction = _dense_direction(params, config.dense_q, seed_t)
            else:
                direction = draw_direction(params, state.pairs, seed_t,
                                           config.alignment == "scale_z")
            ld = two_sided_loss_diff(problem, params, state.pairs, batch,
                                     config.epsilon, direction, state.pending)
            loss_plus, loss_minus, rho = ld.loss_plus, ld.loss_minus, ld.rho
            coeff = -(lr * rho)
            held = _held_out(problem, params, direction)
        axpy_perturbation(params, state.pairs, direction, coeff, held)
    except SubzeroError as exc:
        raise StepFailure(t, str(exc)) from exc
    for i, (_, z, _) in held.items():
        if i in state.pending:
            state.pending[i] += coeff * z
        else:
            state.pending[i] = coeff * z
    state.step = t + 1
    wall_ms = (time.perf_counter() - begin) * 1e3
    return StepRecord(step=t, loss_plus=loss_plus, loss_minus=loss_minus,
                      rho=rho, lr=lr, wall_ms=wall_ms)


def _validation_loss(problem, state: TrainerState, batch) -> float:
    """The loss of the run's current parameters, a held layer's pending
    core passed to the loss as ``low_rank={i: (u, A, v)}``, unmerged."""
    if not state.pending:
        return problem.loss(state.layers, batch)
    return problem.loss(state.layers, batch, low_rank={
        i: (state.pairs[i].u, core, state.pairs[i].v) for i, core in state.pending.items()})


def train(problem, config: OptimizerConfig,
          params: Optional[Sequence[np.ndarray]] = None,
          pairs: Optional[list[Optional[ProjectionPair]]] = None) -> RunRecord:
    """Run the configured number of steps and collect the full record.

    Validation (full-dataset loss in canonical order) is evaluated before
    step 0, every ``eval_interval`` steps, and after the final step.  A
    mid-run evaluation merges no pending core, so the interval moves no
    parameter: the run's values are the same bit for bit at every
    ``eval_interval``.
    """
    state = init_state(problem, config, params=params, pairs=pairs)
    record = RunRecord()
    val_batch = full_batch(problem)
    for t in range(config.steps):
        if t % config.eval_interval == 0:
            record.validation.append((t, _validation_loss(problem, state, val_batch)))
        record.steps.append(step(problem, state, config))
    record.validation.append((config.steps, problem.loss(state.params, val_batch)))
    record.final_params = state.params
    return record
