"""Executable checks of the estimator's statistical properties.

The layer-wise estimator is, in stacked form, a two-point estimator inside
the column space of a block-diagonal orthonormal projection

    P = bdiag(V_1 kron U_1, ..., V_l kron U_l),

so its mean, second moment and directional statistics have closed forms.
This module materializes the projector at toy scale and confirms each
closed form by Monte Carlo, with explicit standard errors: a check passes
only when the deviation is inside ``max(abs_tol, 4 * stderr)``, never
because the sample count was too small to resolve a discrepancy.

Also here: the curvature-bias measurement (via a control variate that
cancels the zero-bias part of each sample, so the tiny ``epsilon**2`` bias
is measurable at modest sample counts), the gradient-quality diagnostics,
and the fixed-subspace convergence battery with its hitting-time slope fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (BudgetExceeded, DegenerateGradient, ScaleRefused,
                     ShapeError)
from .numcore import GaussianStream, derive_seed, gaussian_matrix, stack_params
from .perturbation import (ProjectionPair, build_pairs,
                           iter_perturbation_layers, subspace_dimension)
from .estimators import GradEstimate, spsa_dense_subspace, spsa_full, subzero_estimate
from .optimizer import OptimizerConfig, init_state, step, theoretical_step_size
from .problems import Minibatch, QuadraticProblem, QuarticProblem, full_batch

_TAG_MC = 0x61
_TAG_START = 0x62
_TAG_RUN = 0x63
_TAG_PAIRS = 0x64

PROJECTOR_DIM_CAP = 200


# ---------------------------------------------------------------------------
# projector materialization

@dataclass(frozen=True)
class BlockDiagProjector:
    """The stacked projection, materialized as an explicit d-by-q matrix."""

    matrix: np.ndarray

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def q(self) -> int:
        return self.matrix.shape[1]


def materialize_projector(pairs: Sequence[Optional[ProjectionPair]],
                          vector_sizes: Optional[Sequence[int]] = None,
                          max_dim: int = PROJECTOR_DIM_CAP) -> BlockDiagProjector:
    """Assemble ``bdiag(V_i kron U_i)`` explicitly.

    A ``None`` entry stands for a vector layer, whose perturbation is a full
    Gaussian; its block is the identity of the layer's size, read from the
    matching position of ``vector_sizes`` (one entry per layer, aligned with
    ``pairs``; entries under matrix layers are ignored and may be anything).
    Column-major flattening per layer makes each
    Kronecker block map ``vec(Z_i)`` to ``vec(U_i Z_i V_i^T)``.  Refuses to
    materialize beyond ``max_dim`` rows; the point of the layer-wise
    estimator is that this matrix never exists at scale.
    """
    blocks = []
    for i, pair in enumerate(pairs):
        if pair is None:
            if vector_sizes is None or vector_sizes[i] is None:
                raise ShapeError(
                    "vector layers need vector_sizes to materialize their identity block")
            blocks.append(np.eye(int(vector_sizes[i])))
        else:
            blocks.append(np.kron(pair.v, pair.u))
    d = sum(b.shape[0] for b in blocks)
    q = sum(b.shape[1] for b in blocks)
    if d > max_dim:
        raise ScaleRefused(f"projector would be {d}x{q}; cap is {max_dim} rows")
    matrix = np.zeros((d, q))
    row = col = 0
    for b in blocks:
        matrix[row:row + b.shape[0], col:col + b.shape[1]] = b
        row += b.shape[0]
        col += b.shape[1]
    return BlockDiagProjector(matrix=matrix)


def projected_gradient_sq_norm(grads: Sequence[np.ndarray],
                               pairs: Sequence[Optional[ProjectionPair]]) -> float:
    """``||P^T grad||**2`` computed layer by layer, no materialization.

    For a matrix layer this is ``||U^T G V||_F**2`` with ``G`` viewed in the
    pair's geometry; a vector layer contributes its full squared norm.
    """
    total = 0.0
    for g, pair in zip(grads, pairs):
        if pair is None:
            total += float(np.sum(g * g))
        else:
            shape = pair.shape
            core = pair.u.T @ g.reshape(shape.rows, shape.cols) @ pair.v
            total += float(np.sum(core * core))
    return total


# ---------------------------------------------------------------------------
# Monte Carlo reports

@dataclass(frozen=True)
class MonteCarloReport:
    """Outcome of one statistical check.

    ``estimate`` and ``target`` are scalars; for vector-valued checks they
    are norms and ``abs_deviation`` is measured in the vector space, so it
    is not simply ``|estimate - target|`` there.  The pass rule is always
    ``abs_deviation <= max(abs_tol, 4 * stderr)``.
    """

    check: str
    n_mc: int
    estimate: float
    target: float
    abs_deviation: float
    rel_deviation: float
    stderr: float
    abs_tol: float
    passed: bool


def _report(check: str, n_mc: int, estimate: float, target: float,
            deviation: float, stderr: float, abs_tol: float) -> MonteCarloReport:
    rel = deviation / abs(target) if target != 0.0 else math.nan
    passed = deviation <= max(abs_tol, 4.0 * stderr)
    return MonteCarloReport(check=check, n_mc=n_mc, estimate=estimate,
                            target=target, abs_deviation=deviation,
                            rel_deviation=rel, stderr=stderr, abs_tol=abs_tol,
                            passed=bool(passed))


def _mc_mean(samples: Iterable):
    """``(mean, stderr)`` of scalar or array samples; for arrays the
    standard error sums the unbiased per-component variances, so it is the
    error of the mean in euclidean norm."""
    n = 0
    acc = acc_sq = 0.0
    for x in samples:
        acc = acc + x
        acc_sq = acc_sq + x * x
        n += 1
    mean = acc / n
    var = np.maximum(acc_sq / n - mean * mean, 0.0) * (n / max(n - 1, 1))
    return mean, math.sqrt(float(np.sum(var)) / n)


def check_expectation_identity(problem, pairs, params, n_mc: int, *,
                               epsilon: float = 1e-3, seed: int = 0,
                               rel_tol: float = 0.03,
                               batch=None) -> MonteCarloReport:
    """Mean of the estimator equals the projected gradient.

    Averages ``n_mc`` independent estimates and compares, entrywise through
    the materialized projector, with ``P P^T grad``.  The reported deviation
    is the euclidean norm of the difference of means; the standard error
    aggregates per-component variances.
    """
    batch = full_batch(problem) if batch is None else batch
    for w, pair in zip(params, pairs):
        # the stacked projector and the stacked gradient must flatten the
        # same geometry; relayouted pairs would silently compare different
        # orderings, so demand native-shape pairs here
        if pair is not None and (w.ndim != 2 or w.shape != (pair.u.shape[0],
                                                            pair.v.shape[0])):
            raise ShapeError(
                "expectation check needs pairs in each layer's native geometry; "
                f"got {pair.shape} against {w.shape}")
    grads = problem.exact_gradient(params, batch)
    g = stack_params(grads)
    proj = materialize_projector(pairs, vector_sizes=[w.size for w in params])
    target_vec = proj.matrix @ (proj.matrix.T @ g)
    mean, stderr = _mc_mean(
        subzero_estimate(problem, params, pairs, batch, epsilon,
                         derive_seed(seed, _TAG_MC, k))[1].stacked()
        for k in range(n_mc))
    deviation = float(np.linalg.norm(mean - target_vec))
    target_norm = float(np.linalg.norm(target_vec))
    return _report("expectation_identity", n_mc, float(np.linalg.norm(mean)),
                   target_norm, deviation, stderr, rel_tol * target_norm)


def check_second_moment(problem, pairs, params, n_mc: int, *,
                        family: str = "subzero", epsilon: float = 1e-3,
                        seed: int = 0, rel_tol: float = 0.02,
                        batch=None) -> MonteCarloReport:
    """Mean squared norm of the estimator equals ``(q+2) ||P^T grad||**2``.

    With ``family="spsa_full"`` the same check runs on the full-space
    estimator, whose target is ``(d+2) ||grad||**2``; comparing the two on
    one problem is the variance-reduction ordering at the point where it is
    exact.
    """
    batch = full_batch(problem) if batch is None else batch
    grads = problem.exact_gradient(params, batch)
    if family == "subzero":
        q = subspace_dimension(params, pairs)
        target = (q + 2) * projected_gradient_sq_norm(grads, pairs)
    elif family == "spsa_full":
        d = sum(w.size for w in params)
        g = stack_params(grads)
        target = (d + 2) * float(g @ g)
    else:
        raise ValueError(f"no second-moment target for family {family!r}")

    def sq_norm(k: int) -> float:
        est = _family_estimate(family, problem, params, batch, epsilon,
                               derive_seed(seed, _TAG_MC, k), pairs, None)
        return sum(float((layer * layer).sum()) for layer in est.layers)

    mean, stderr = _mc_mean(sq_norm(k) for k in range(n_mc))
    deviation = abs(mean - target)
    return _report(f"second_moment_{family}", n_mc, mean, target, deviation,
                   stderr, rel_tol * abs(target))


def check_cosine_identity(problem, pairs, params, n_mc: int, *,
                          epsilon: float = 1e-3, seed: int = 0,
                          rel_tol: float = 0.05, batch=None) -> MonteCarloReport:
    """Mean of ``<grad, est>**2 / (||P^T grad||**2 ||est||**2)`` equals 1/q."""
    batch = full_batch(problem) if batch is None else batch
    grads = problem.exact_gradient(params, batch)
    proj_sq = projected_gradient_sq_norm(grads, pairs)
    if proj_sq < 1e-24:
        raise DegenerateGradient("projected gradient is numerically zero")
    q = subspace_dimension(params, pairs)
    target = 1.0 / q

    def cos_sq(k: int) -> float:
        _, est = subzero_estimate(problem, params, pairs, batch, epsilon,
                                  derive_seed(seed, _TAG_MC, k))
        inner = sum(float(np.sum(g * e)) for g, e in zip(grads, est.layers))
        est_sq = sum(float(np.sum(e * e)) for e in est.layers)
        if est_sq == 0.0:
            raise DegenerateGradient(
                "zero-norm estimate; measure-zero event, aborting the check")
        return inner * inner / (proj_sq * est_sq)

    mean, stderr = _mc_mean(cos_sq(k) for k in range(n_mc))
    deviation = abs(mean - target)
    return _report("cosine_identity", n_mc, mean, target, deviation, stderr,
                   rel_tol * target)


# ---------------------------------------------------------------------------
# curvature bias

def measure_bias(problem, pairs, params, epsilon: float, n_mc: int, *,
                 seed: int = 0, batch=None) -> tuple[float, float]:
    """Norm of the estimator's mean deviation from the projected gradient,
    with a control variate.

    Each sample subtracts ``<grad, delta> * delta`` (the seed-replayed
    perturbation ``delta``), whose expectation is exactly the projected
    gradient.  What remains is the curvature term of order ``epsilon**2``,
    so the measurement resolves the bias instead of drowning it in the
    O(1) sampling noise of the raw estimator.  Returns ``(bias, stderr)``.
    """
    batch = full_batch(problem) if batch is None else batch
    g = stack_params(problem.exact_gradient(params, batch))

    def controlled(k: int) -> np.ndarray:
        s = derive_seed(seed, _TAG_MC, k)
        _, est = subzero_estimate(problem, params, pairs, batch, epsilon, s)
        delta = stack_params(list(iter_perturbation_layers(params, pairs, s)))
        return est.stacked() - (g @ delta) * delta

    mean, stderr = _mc_mean(controlled(k) for k in range(n_mc))
    return float(np.linalg.norm(mean)), stderr


def check_bias_bound(problem, pairs, params, epsilon: float, n_mc: int, *,
                     seed: int = 0, hessian_lipschitz: Optional[float] = None,
                     batch=None) -> MonteCarloReport:
    """Measured bias stays below ``(epsilon**2 / 6) L2 (q+4)**2``.

    ``L2`` bounds the Hessian's Lipschitz constant over the probe region;
    by default the problem supplies it for a radius covering perturbations
    up to eight standard deviations.  The check is one-sided: it fails only
    if the measured bias exceeds the bound by more than four standard
    errors.
    """
    q = subspace_dimension(params, pairs)
    if hessian_lipschitz is None:
        radius = epsilon * (math.sqrt(q) + 8.0)
        hessian_lipschitz = problem.hessian_lipschitz(params, radius)
    bias, stderr = measure_bias(problem, pairs, params, epsilon, n_mc,
                                seed=seed, batch=batch)
    bound = (epsilon ** 2 / 6.0) * hessian_lipschitz * (q + 4) ** 2
    deviation = max(0.0, bias - bound)
    return _report("bias_bound", n_mc, bias, bound, deviation, stderr, 0.0)


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``."""
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    lx = lx - lx.mean()
    denom = float(lx @ lx)
    if denom == 0.0:
        raise ValueError("slope undefined for a single distinct x")
    return float(lx @ (ly - ly.mean())) / denom


def bias_slope(problem, pairs, params, epsilons: Sequence[float], n_mc: int, *,
               seed: int = 0, batch=None) -> tuple[float, list[tuple[float, float, float]]]:
    """Log-log slope of measured bias against epsilon over a sweep.

    Second-order accuracy of the two-sided probe makes the bias scale as
    ``epsilon**2``, so the slope should sit at 2.  Returns the slope and the
    per-epsilon ``(epsilon, bias, stderr)`` triples.
    """
    points = []
    for i, eps in enumerate(epsilons):
        bias, stderr = measure_bias(problem, pairs, params, eps, n_mc,
                                    seed=derive_seed(seed, _TAG_MC, 10 ** 6 + i),
                                    batch=batch)
        points.append((float(eps), bias, stderr))
    slope = fit_loglog_slope([p[0] for p in points], [p[1] for p in points])
    return slope, points


# ---------------------------------------------------------------------------
# gradient-quality diagnostics

@dataclass(frozen=True)
class DiagnosticsRow:
    """Cosine-to-mean and relative variance for one estimator family."""

    family: str
    q_or_d: int
    cosine: float
    rel_variance: float
    n_mc: int


def _family_estimate(family: str, problem, params, batch, epsilon: float,
                     seed: int, pairs, dense_q: Optional[int]) -> GradEstimate:
    if family == "subzero":
        _, est = subzero_estimate(problem, params, pairs, batch, epsilon, seed)
        return est
    if family == "spsa_full":
        return spsa_full(problem, params, batch, epsilon, seed)
    if family == "spsa_dense_subspace":
        return spsa_dense_subspace(problem, params, batch, epsilon, dense_q, seed)
    raise ValueError(f"unknown estimator family {family!r}")


def estimator_diagnostics(problem, params, estimator_family: str, n_mc: int, *,
                     pairs=None, dense_q: Optional[int] = None,
                     epsilon: float = 1e-3, seed: int = 0,
                     batch=None) -> DiagnosticsRow:
    """Directional quality and noise of an estimator at one point.

    Phase one approximates the estimator's mean ``g`` over ``n_mc`` seeds.
    Phase two, on fresh seeds, reports the mean cosine between samples and
    ``g``, and ``Var[||est||] / ||g||**2``.  With ``n_mc = 1`` the variance
    is undefined and reported as NaN.
    """
    if estimator_family == "subzero" and pairs is None:
        raise ShapeError("subzero diagnostics need projection pairs")
    if estimator_family == "spsa_dense_subspace" and dense_q is None:
        raise ShapeError("dense-subspace diagnostics need a subspace dimension")
    if n_mc < 1:
        raise ValueError("n_mc must be at least 1")
    batch = full_batch(problem) if batch is None else batch
    mean, _ = _mc_mean(
        _family_estimate(estimator_family, problem, params, batch, epsilon,
                         derive_seed(seed, _TAG_MC, k), pairs, dense_q).stacked()
        for k in range(n_mc))
    g_norm = float(np.linalg.norm(mean))
    if g_norm < 1e-12:
        raise DegenerateGradient("estimated mean gradient is numerically zero")

    cos_acc = 0.0
    norm_acc = 0.0
    norm_sq_acc = 0.0
    for k in range(n_mc):
        est = _family_estimate(estimator_family, problem, params, batch, epsilon,
                               derive_seed(seed, _TAG_MC, n_mc + k), pairs, dense_q)
        x = est.stacked()
        norm = float(np.linalg.norm(x))
        if norm == 0.0:
            raise DegenerateGradient(
                "zero-norm estimate; measure-zero event, aborting diagnostics")
        cos_acc += float(x @ mean) / (norm * g_norm)
        norm_acc += norm
        norm_sq_acc += norm * norm
    cosine = cos_acc / n_mc
    if n_mc > 1:
        norm_mean = norm_acc / n_mc
        norm_var = max(norm_sq_acc / n_mc - norm_mean ** 2, 0.0) * (n_mc / (n_mc - 1))
        rel_variance = norm_var / (g_norm ** 2)
    else:
        rel_variance = math.nan
    return DiagnosticsRow(family=estimator_family, q_or_d=est.meta.q, cosine=cosine,
                          rel_variance=rel_variance, n_mc=n_mc)


# ---------------------------------------------------------------------------
# convergence battery

@dataclass(frozen=True)
class ConvergenceConfig:
    """Knobs of the fixed-subspace convergence measurement.  ``chunk`` is
    not read; it is kept so that callers which set it still work."""

    rank: int = 2
    runs: int = 32
    epsilon: float = 1e-3
    batch_size: int = 1
    step_cap: int = 200_000
    chunk: int = 512
    master_seed: int = 0
    start_value: float = 0.5
    slope_band: tuple[float, float] = (0.7, 1.3)


@dataclass(frozen=True)
class ConvergenceCell:
    """One hitting time: first N with running-average suboptimality below
    the target, for a subspace of dimension q."""

    q: int
    target: float
    hit: Optional[int]
    eta: float


@dataclass(frozen=True)
class ConvergenceReport:
    cells: tuple[ConvergenceCell, ...]
    slope: float
    passed: bool


def subspace_start(problem, pairs, seed: int, value: float) -> list[np.ndarray]:
    """A starting point inside the perturbation subspace with a prescribed
    loss value.

    Built as ``U_i C_i V_i^T`` per layer and rescaled, which requires the
    loss to be 2-homogeneous (a quadratic with no linear term).  Starting
    inside the subspace makes the subspace minimum coincide with the global
    one, so suboptimality is measured against the true optimum.
    """
    stream = GaussianStream(seed)
    params = []
    for w, pair in zip(problem.initial_params(), pairs):
        if pair is None:
            raise ShapeError("subspace starts need low-rank pairs on every layer")
        core = gaussian_matrix(stream, pair.rank, pair.rank)
        params.append((pair.u @ core @ pair.v.T).reshape(w.shape))
    value0 = problem.loss(params, full_batch(problem))
    if value0 <= 0.0:
        raise DegenerateGradient("degenerate start: loss not positive")
    scale = math.sqrt(value / value0)
    return [scale * w for w in params]


def convergence_hitting_times(problem, pairs, targets: Sequence[float],
                              cfg: ConvergenceConfig = ConvergenceConfig()) -> list[ConvergenceCell]:
    """Hitting times of the running-average suboptimality for each target.

    Advances ``cfg.runs`` independent trajectories from one subspace start
    in lockstep with the theory step size, and reports for each target the
    first N with ``mean_{k<=N}(loss_k - f*) <= target``, where ``loss_k`` is
    the probe loss after k steps averaged over the runs; ``f*`` is zero by
    construction (quadratic, no linear term, start in the subspace).  Stops
    at the first N that hits the tightest target (every looser one is hit
    by then) or at ``N = cfg.step_cap``; an unhit target reports ``None``,
    and :class:`BudgetExceeded` is raised if even the largest is unhit;
    ``ValueError`` if there is no target or no run.
    """
    targets = sorted(float(t) for t in targets)
    if not targets or cfg.runs < 1:
        raise ValueError("hitting times need at least one target and one run")
    q = subspace_dimension(problem.initial_params(), pairs)
    eta = theoretical_step_size(q, problem.smoothness)
    x0 = subspace_start(problem, pairs,
                        derive_seed(cfg.master_seed, _TAG_START, q), cfg.start_value)
    # pinned pairs never refresh, and a constant step size never reads steps
    base = OptimizerConfig(family="subzero", batch_size=cfg.batch_size,
                           learning_rate=eta, schedule="constant",
                           epsilon=cfg.epsilon, rank=cfg.rank)
    runs = [replace(base, master_seed=derive_seed(cfg.master_seed, _TAG_RUN, j))
            for j in range(cfg.runs)]
    states = [init_state(problem, run, params=x0, pairs=list(pairs)) for run in runs]
    probe = Minibatch(indices=np.zeros(1, dtype=np.int64))
    hits: dict[float, int] = {}
    total = 0.0
    for n in range(cfg.step_cap + 1):
        if n:
            for state, run in zip(states, runs):
                step(problem, state, run)
        # run order, then one division: the mean over runs, bit for bit
        loss = 0.0
        for state in states:
            loss += problem.loss(state.params, probe)
        total += loss / cfg.runs
        for t in targets:
            if t not in hits and total / (n + 1) <= t:
                hits[t] = n
        if targets[0] in hits:
            break
    if targets[-1] not in hits:
        raise BudgetExceeded(
            f"largest target {targets[-1]} unreached in {cfg.step_cap} steps")
    return [ConvergenceCell(q=q, target=t, hit=hits.get(t), eta=eta) for t in targets]


def convergence_battery(problems: Sequence, cfg: ConvergenceConfig,
                        eps_targets: Sequence[float]) -> ConvergenceReport:
    """Pooled fit of ``log N`` against ``log(q / eps)`` across problems with
    different subspace dimensions, each with pinned pairs; passes iff every
    cell is hit and the slope lies in the configured band."""
    cells: list[ConvergenceCell] = []
    for i, problem in enumerate(problems):
        template = problem.initial_params()
        pairs = build_pairs(
            GaussianStream(derive_seed(cfg.master_seed, _TAG_PAIRS, i)),
            template, cfg.rank, reshape="never")
        cells.extend(convergence_hitting_times(problem, pairs, eps_targets, cfg))
    return _slope_report(cells, cfg.slope_band)


def _slope_report(cells: Sequence[ConvergenceCell],
                  band: tuple[float, float]) -> ConvergenceReport:
    usable = [c for c in cells if c.hit is not None and c.hit > 0]
    if len(usable) < 2:
        return ConvergenceReport(cells=tuple(cells), slope=math.nan, passed=False)
    slope = fit_loglog_slope([c.q / c.target for c in usable],
                             [c.hit for c in usable])
    passed = band[0] <= slope <= band[1] and len(usable) == len(cells)
    return ConvergenceReport(cells=tuple(cells), slope=slope, passed=passed)


# ---------------------------------------------------------------------------
# the standard battery

# identity checks run on these layerings across several generator seeds
BATTERY_SHAPES: tuple[tuple[str, tuple[tuple[int, int], ...], int], ...] = (
    ("two_rect_r1", ((3, 2), (3, 2)), 1),
    ("one_square_r2", ((4, 4),), 2),
    ("three_square_r1", ((3, 3), (3, 3), (3, 3)), 1),
)
BATTERY_SEEDS: tuple[int, ...] = (11, 12, 13, 14, 15)

COSINE_CELLS: tuple[tuple[int, tuple[tuple[int, int], ...], int], ...] = (
    (1, ((3, 3),), 1),
    (4, ((4, 4),), 2),
    (16, ((6, 6),), 4),
)

BIAS_EPSILONS: tuple[float, ...] = (1e-1, 1e-2, 1e-3)


def battery_cell(shapes: tuple[tuple[int, int], ...], rank: int, seed: int):
    """A quadratic instance plus pinned pairs for one battery cell."""
    problem = QuadraticProblem.generate(seed, list(shapes))
    params = problem.initial_params()
    pairs = build_pairs(GaussianStream(derive_seed(seed, _TAG_PAIRS, 0)),
                        params, rank, reshape="never")
    return problem, params, pairs


def _structure_defect(seed: int, instances: int = 5) -> float:
    """Worst orthonormality / stacking defect over a few random layerings."""
    worst = 0.0
    for k in range(instances):
        shapes = [(3, 2), (4, 3), (2, 2)]
        problem = QuadraticProblem.generate(derive_seed(seed, _TAG_MC, k), shapes)
        params = problem.initial_params()
        pairs = build_pairs(GaussianStream(derive_seed(seed, _TAG_MC, 100 + k)),
                            params, 2, reshape="never")
        proj = materialize_projector(pairs, vector_sizes=[w.size for w in params])
        p = proj.matrix
        gram_defect = float(np.max(np.abs(p.T @ p - np.eye(proj.q))))
        pert_seed = derive_seed(seed, _TAG_MC, 200 + k)
        stacked = stack_params(list(iter_perturbation_layers(params, pairs, pert_seed)))
        cores = []
        stream = GaussianStream(pert_seed)
        for pair in pairs:
            cores.append(np.ravel(gaussian_matrix(stream, pair.rank, pair.rank),
                                  order="F"))
        z = np.concatenate(cores)
        stack_defect = float(np.max(np.abs(stacked - p @ z)))
        worst = max(worst, gram_defect, stack_defect)
    return worst


def run_default_battery(n_mc: int = 20000, n_mc_bias: int = 20000,
                        seed: int = 0) -> list[MonteCarloReport]:
    """The checks behind the ``verify`` command: one row per report.

    Identity checks on the three standard layerings, the cosine identity
    across subspace dimensions, the bias sweep with its slope fit, the
    projector structure defect, and the variance-reduction ordering against
    the full-space estimator.
    """
    reports: list[MonteCarloReport] = []
    base = BATTERY_SEEDS[0]
    for name, shapes, rank in BATTERY_SHAPES:
        problem, params, pairs = battery_cell(shapes, rank, base)
        rep = check_expectation_identity(problem, pairs, params, n_mc, seed=seed)
        reports.append(replace(rep, check=f"expectation_identity[{name}]"))
    for name, shapes, rank in BATTERY_SHAPES:
        problem, params, pairs = battery_cell(shapes, rank, base)
        rep = check_second_moment(problem, pairs, params, n_mc, seed=seed)
        reports.append(replace(rep, check=f"second_moment[{name}]"))
    for q, shapes, rank in COSINE_CELLS:
        problem, params, pairs = battery_cell(shapes, rank, base + 1)
        rep = check_cosine_identity(problem, pairs, params, n_mc, seed=seed)
        reports.append(replace(rep, check=f"cosine_identity[q={q}]"))

    quartic = QuarticProblem.generate(base + 2, [(3, 3)])
    q_params = quartic.initial_params()
    q_pairs = build_pairs(GaussianStream(derive_seed(base + 2, _TAG_PAIRS, 0)),
                          q_params, 1, reshape="never")
    biases = []
    for eps in BIAS_EPSILONS:
        rep = check_bias_bound(quartic, q_pairs, q_params, eps, n_mc_bias, seed=seed)
        biases.append(rep.estimate)
        reports.append(replace(rep, check=f"bias_bound[eps={eps:g}]"))
    slope = fit_loglog_slope(BIAS_EPSILONS, biases)
    reports.append(_report("bias_slope", n_mc_bias, slope, 2.0,
                           abs(slope - 2.0), 0.0, 0.2))

    defect = _structure_defect(base + 3)
    reports.append(_report("projector_structure", 5, defect, 0.0, defect, 0.0, 1e-10))

    ordering_problem, o_params, o_pairs = battery_cell(((10, 10),), 2, base + 4)
    sub = estimator_diagnostics(ordering_problem, o_params, "subzero", n_mc,
                           pairs=o_pairs, seed=seed)
    full = estimator_diagnostics(ordering_problem, o_params, "spsa_full", n_mc,
                            seed=seed)
    reports.append(_report("variance_ordering", n_mc, sub.rel_variance,
                           full.rel_variance,
                           max(0.0, sub.rel_variance - full.rel_variance),
                           0.0, 0.0))
    return reports
