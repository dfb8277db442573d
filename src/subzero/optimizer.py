"""Training loop around the two-point estimators.

A step of the layer-wise family never forms a gradient object.  It draws
its direction once from the step seed (the q matrix-layer core values, each
multiplied under ``scale_z`` by the norm-alignment scale ``sqrt(m * n) / r``
read from its pair, and the vector layers' values when they fit the largest
matrix layer), probes the loss twice along that direction, then replays it
in one more ``axpy_perturbation`` pass with coefficient ``-lr * rho``.  The
probe's three passes skip the layers the problem's loss takes in factored
form (large native MLP layers; see
:func:`~subzero.estimators.two_sided_loss_diff`), so the update is the only
pass that writes them.  Peak transient memory is therefore the drawn
direction plus one buffer of at most a small layer or a 256 kB row block of
a large one, or the loss evaluation's activations if they are larger,
however many layers the model has, and a failed step leaves the parameters
where it found them.

Seed lineage: everything a run consumes is derived from ``master_seed``
through tagged hashes, with the step index mixed in.  Per-step perturbation
seeds, subspace refresh seeds and minibatch draws are independent streams,
so two runs with the same config replay identically (wall-clock timings
aside) and runs with different seeds are unrelated.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, ShapeError, StepFailure, SubzeroError
from .numcore import GaussianStream, derive_seed
from .perturbation import (RESHAPE_POLICIES, LayerPlan, ProjectionPair,
                           _axpy_stored, axpy_perturbation, draw_direction,
                           pairs_from_plan, plan_layers)
from .estimators import dense_subspace_probe, two_sided_loss_diff
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
        for name in ("steps", "batch_size", "rank", "refresh_period", "dense_q",
                     "master_seed", "eval_interval"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown estimator family {self.family!r}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        if self.alignment not in ALIGNMENTS:
            raise ConfigError(f"unknown alignment mode {self.alignment!r}")
        if self.reshape not in RESHAPE_POLICIES:
            raise ConfigError(f"unknown reshape policy {self.reshape!r}")
        if self.steps < 0:
            raise ConfigError("steps must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch size must be at least 1")
        if not self.learning_rate > 0.0:
            raise ConfigError("learning rate must be positive")
        if not self.epsilon > 0.0:
            raise ConfigError("epsilon must be positive")
        if self.rank < 1:
            raise ConfigError("rank must be at least 1")
        if self.refresh_period < 1:
            raise ConfigError("refresh period must be at least 1")
        if self.dense_q < 1:
            raise ConfigError("dense subspace dimension must be at least 1")
        if self.eval_interval < 1:
            raise ConfigError("eval interval must be at least 1")
        if self.master_seed < 0:
            raise ConfigError("master seed must be non-negative")
        if self.alignment != "none" and self.family != "subzero":
            raise ConfigError("norm alignment only applies to the subzero family")

    def learning_rate_at(self, t: int) -> float:
        if self.schedule == "constant":
            return self.learning_rate
        return max(0.0, self.learning_rate * (1.0 - t / max(self.steps, 1)))


@dataclass
class TrainerState:
    """Mutable state of a run: the parameters, the current projection
    pairs, and the step counter.  ``pinned_pairs`` marks externally supplied
    pairs that refreshes must not replace (fixed-subspace analysis mode)."""

    params: list[np.ndarray]
    step: int = 0
    pairs: Optional[list[Optional[ProjectionPair]]] = None
    plans: Optional[list[LayerPlan]] = None
    pinned_pairs: bool = False


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
    """Set up a run: copy the starting point, plan the layer routing, and
    pin the given pairs, if any."""
    if params is None:
        work = problem.initial_params()
    else:
        work = [np.array(w, dtype=np.float64) for w in params]
    for w in work:
        if w.ndim not in (1, 2):
            raise ShapeError(f"parameters must be 1-D or 2-D, got ndim={w.ndim}")
    state = TrainerState(params=work)
    if config.family == "spsa_full":
        state.pairs = [None] * len(work)
    elif config.family == "subzero":
        state.plans = plan_layers(work, config.rank, config.reshape)
        if pairs is not None:
            if len(pairs) != len(work):
                raise ShapeError("pinned pairs must align with the parameters")
            state.pairs = list(pairs)
            state.pinned_pairs = True
    return state


def _refresh_pairs(state: TrainerState, config: OptimizerConfig) -> None:
    due = state.step % config.refresh_period == 0
    if state.pairs is None:
        due = True
    if state.pinned_pairs or not due:
        return
    stream = GaussianStream(derive_seed(config.master_seed, _TAG_PAIRS, state.step))
    state.pairs = pairs_from_plan(stream, state.plans)


def step(problem, state: TrainerState, config: OptimizerConfig) -> StepRecord:
    """Advance the run by one step, updating parameters in place."""
    t = state.step
    begin = time.perf_counter()
    lr = config.learning_rate_at(t)
    batch = sample_minibatch(problem, config.master_seed, t, config.batch_size)
    seed_t = derive_seed(config.master_seed, _TAG_STEP, t)
    try:
        if config.family in ("subzero", "spsa_full"):
            if config.family == "subzero":
                _refresh_pairs(state, config)
            direction = draw_direction(state.params, state.pairs, seed_t,
                                       config.alignment == "scale_z")
            ld = two_sided_loss_diff(problem, state.params, state.pairs, batch,
                                     config.epsilon, direction)
            axpy_perturbation(state.params, state.pairs, direction, -(lr * ld.rho))
            loss_plus, loss_minus, rho = ld.loss_plus, ld.loss_minus, ld.rho
        elif config.family == "spsa_dense_subspace":
            ld, est = dense_subspace_probe(problem, state.params, batch,
                                           config.epsilon, config.dense_q, seed_t)
            _axpy_stored(state.params, est.layers, -lr)
            loss_plus, loss_minus, rho = ld.loss_plus, ld.loss_minus, ld.rho
        elif config.family == "exact_sgd":
            loss_plus = loss_minus = problem.loss(state.params, batch)
            grads = problem.exact_gradient(state.params, batch)
            _axpy_stored(state.params, grads, -lr)
            rho = math.nan
        else:  # unreachable, config validated
            raise ConfigError(f"unknown estimator family {config.family!r}")
    except SubzeroError as exc:
        raise StepFailure(t, str(exc)) from exc
    state.step = t + 1
    wall_ms = (time.perf_counter() - begin) * 1e3
    return StepRecord(step=t, loss_plus=loss_plus, loss_minus=loss_minus,
                      rho=rho, lr=lr, wall_ms=wall_ms)


def train(problem, config: OptimizerConfig,
          params: Optional[Sequence[np.ndarray]] = None,
          pairs: Optional[list[Optional[ProjectionPair]]] = None) -> RunRecord:
    """Run the configured number of steps and collect the full record.

    Validation (full-dataset loss in canonical order) is evaluated before
    step 0, every ``eval_interval`` steps, and after the final step.
    """
    state = init_state(problem, config, params=params, pairs=pairs)
    record = RunRecord()
    val_batch = full_batch(problem)
    for t in range(config.steps):
        if t % config.eval_interval == 0:
            record.validation.append((t, problem.loss(state.params, val_batch)))
        record.steps.append(step(problem, state, config))
    record.validation.append((config.steps, problem.loss(state.params, val_batch)))
    record.final_params = state.params
    return record
