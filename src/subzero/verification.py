"""Executable checks of the estimator's statistical properties.

The layer-wise estimator is, in stacked form, a two-point estimator inside
the column space of a block-diagonal orthonormal projection

    P = bdiag(V_1 kron U_1, ..., V_l kron U_l),

so its mean, second moment and directional statistics have closed forms.
This module materializes the projector at toy scale and confirms each
closed form by Monte Carlo, with explicit standard errors: a check passes
only when the deviation is inside ``max(abs_tol, 4 * stderr)``, never
because the sample count was too small to resolve a discrepancy.

Every check, the convergence battery included, runs on blocks and never
touches the parameters.  It forms many perturbations as stacked rows (the
seeded families' from ``uint64`` seeds and stream values, with one
``einsum`` per matrix layer; the dense family's from the estimator's own
direction) and probes every row out of place with one central difference,
on the full batch: by the problem's row-wise ``losses(xs)`` where it has
one, one ``loss`` call per row otherwise.  Seeds, stream values, and the
rows of vector layers and of the dense family are bit for bit the
estimator's; matrix-layer rows and rho agree with it to rounding.  The
first 64 samples of every Monte Carlo sampler call also run through the
family's own estimator, and :class:`~subzero.errors.BlockMismatch` is
raised if one disagrees with its block row.

Also here: the curvature-bias measurement (via a control variate that
cancels the zero-bias part of each sample, so the tiny ``epsilon**2`` bias
is measurable at modest sample counts), the gradient-quality diagnostics,
and the convergence battery's hitting-time slope fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (BlockMismatch, BudgetExceeded, ConfigError,
                     DegenerateGradient, ScaleRefused, ShapeError)
from .numcore import (GaussianStream, derive_seed, derive_seeds,
                      gaussian_matrix, normals_block, stack_params,
                      unstack_params)
from .perturbation import (ProjectionPair, build_pairs,
                           iter_perturbation_layers, subspace_dimension)
from .estimators import (_dense_direction, _split_rowmajor,
                         dense_subspace_probe, subzero_estimate)
from .optimizer import _TAG_STEP, theoretical_step_size
from .problems import QuadraticProblem, QuarticProblem, full_batch

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
    def q(self) -> int:
        return self.matrix.shape[1]


def materialize_projector(
        pairs: Sequence[Optional[ProjectionPair]],
        vector_sizes: Optional[Sequence[int]] = None) -> BlockDiagProjector:
    """Assemble ``bdiag(V_i kron U_i)`` explicitly.

    A ``None`` entry stands for a vector layer, whose perturbation is a full
    Gaussian; its block is the identity of the layer's size, read from the
    matching position of ``vector_sizes`` (one entry per layer, aligned with
    ``pairs``; entries under matrix layers are ignored and may be anything).
    Column-major flattening per layer makes each
    Kronecker block map ``vec(Z_i)`` to ``vec(U_i Z_i V_i^T)``.  Refuses,
    before allocating anything, to materialize beyond ``PROJECTOR_DIM_CAP``
    rows; the point of the layer-wise estimator is that this matrix never
    exists at scale.
    """
    sizes = []
    for i, pair in enumerate(pairs):
        if pair is None:
            if vector_sizes is None or vector_sizes[i] is None:
                raise ShapeError(
                    "vector layers need vector_sizes to materialize their identity block")
            n = int(vector_sizes[i])
            sizes.append((n, n))
        else:
            sizes.append((pair.shape.size, pair.rank ** 2))
    d = sum(rows for rows, _ in sizes)
    q = sum(cols for _, cols in sizes)
    if d > PROJECTOR_DIM_CAP:
        raise ScaleRefused(f"projector would be {d}x{q}; cap is {PROJECTOR_DIM_CAP} rows")
    matrix = np.zeros((d, q))
    row = col = 0
    for pair, (rows, cols) in zip(pairs, sizes):
        block = matrix[row:row + rows, col:col + cols]
        if pair is None:
            np.fill_diagonal(block, 1.0)
        else:
            block[...] = np.kron(pair.v, pair.u)
        row += rows
        col += cols
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


def _mc_mean(blocks: Iterable[np.ndarray]):
    """``(mean, stderr)`` over the rows of sample blocks, 1-D for scalar
    samples and 2-D for vector ones; for vectors the standard error sums the
    unbiased per-component variances, so it is the error of the mean in
    euclidean norm."""
    n = 0
    acc = acc_sq = 0.0
    for x in blocks:
        acc = acc + x.sum(axis=0)
        acc_sq = acc_sq + (x * x).sum(axis=0)
        n += len(x)
    if n == 0:
        raise ValueError("n_mc must be at least 1")
    mean = acc / n
    var = np.maximum(acc_sq / n - mean * mean, 0.0) * (n / max(n - 1, 1))
    return mean, math.sqrt(float(np.sum(var)) / n)


# a block holds at most this many perturbation floats (samples times d)
_BLOCK_FLOATS = 1 << 20
# the first samples of every sampler call that the estimator itself re-runs
_GUARD_SAMPLES = 64
# the guard's allowances: for rho, in units of the probe's rounding floor
# u (|L+| + |L-|) / epsilon; for the perturbation, relative to its largest entry
_GUARD_RHO_UNITS = 16.0
_GUARD_DELTA_RTOL = 1e-12
_UNIT_ROUNDOFF = 2.0 ** -53


def _estimates(problem, params, pairs, n_mc: int, epsilon: float, seed: int,
               dense_q: Optional[int] = None,
               first: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every check's samples, on the full batch, as blocks ``(rho, delta)``
    of at most ``_BLOCK_FLOATS`` perturbation floats.  Sample ``k``, for
    ``k`` in ``[first, first + n_mc)`` in order, is the estimate
    ``rho[i] * delta[i]`` seeded by ``(seed, _TAG_MC, k)``, with ``delta[i]``
    its stacked perturbation: :func:`subzero_estimate`'s under ``pairs``
    (all ``None`` for full-space SPSA), or :func:`dense_subspace_probe`'s
    when ``dense_q`` is given.  The parameters are not touched.

    The first ``_GUARD_SAMPLES`` samples also run through that estimator,
    each on a fresh copy of the parameters; :class:`BlockMismatch` is raised
    if its estimate differs from the block row by more than
    ``_GUARD_DELTA_RTOL`` of its largest entry, or its rho by more than
    ``_GUARD_RHO_UNITS`` of the probe's rounding floor.
    """
    batch = full_batch(problem)
    x0 = stack_params(params)
    size = max(1, _BLOCK_FLOATS // x0.size)
    stop = first + n_mc
    for start in range(first, stop, size):
        seeds = derive_seeds(seed, _TAG_MC, last=np.arange(start, min(start + size, stop)))
        if dense_q is None:
            delta = _delta_rows(params, pairs, seeds)
        else:   # the estimator splits its direction row-major per layer
            delta = np.array([stack_params(_split_rowmajor(
                _dense_direction(params, dense_q, s, None), params))
                for s in seeds.tolist()])
        rho = _central_difference(problem, params, x0, delta, epsilon)
        # all estimator calls first: interleaved with the comparisons, 3 % dearer
        guarded = []
        for s in seeds[:max(0, first + _GUARD_SAMPLES - start)].tolist():
            work = [w.copy() for w in params]
            if dense_q is None:
                guarded.append(subzero_estimate(problem, work, pairs, batch, epsilon, s))
            else:
                guarded.append(dense_subspace_probe(problem, work, batch, epsilon, dense_q, s))
        for i, (ld, est) in enumerate(guarded):
            want = est.stacked()
            delta_gap = float(np.max(np.abs(want - ld.rho * delta[i])))
            floor = _UNIT_ROUNDOFF * (abs(ld.loss_plus) + abs(ld.loss_minus)) / epsilon
            if (delta_gap > _GUARD_DELTA_RTOL * float(np.max(np.abs(want)))
                    or abs(rho[i] - ld.rho) > _GUARD_RHO_UNITS * floor):
                raise BlockMismatch(
                    f"seed {int(seeds[i])}: block rho {rho[i]!r} against {ld.rho!r} "
                    f"(floor {floor:.3g}), perturbation gap {delta_gap:.3g}")
        yield rho, delta


def _central_difference(problem, params, xs, delta, epsilon: float) -> np.ndarray:
    """Each row's ``(L(xs + epsilon delta) - L(xs - epsilon delta)) / (2
    epsilon)``, about one point or one row of ``xs`` per row, out of place."""
    step = epsilon * delta
    return (_row_losses(problem, params, xs + step)
            - _row_losses(problem, params, xs - step)) / (2.0 * epsilon)


def _row_losses(problem, params, xs: np.ndarray) -> np.ndarray:
    """The full-batch loss of each row of a ``(K, d)`` block of stacked
    parameter vectors: one ``losses`` call where the problem offers it,
    otherwise one ``loss`` call per row, unstacked to the layers' shapes."""
    if hasattr(problem, "losses"):
        return problem.losses(xs)
    shapes = [w.shape for w in params]
    batch = full_batch(problem)
    return np.array([problem.loss(unstack_params(x, shapes), batch) for x in xs])


def _delta_rows(params, pairs, seeds: np.ndarray) -> np.ndarray:
    """Stacked unit perturbations, one row per seed.  Each seed's first q
    stream values are cut into the layers in stream order; a matrix layer's
    ``r * r`` values are its core ``Z`` (row-major), formed as ``U Z V^T`` in
    the pair's geometry, read row-major into the layer's shape and flattened
    column-major, as :func:`iter_perturbation_layers` and
    :func:`stack_params` do one seed at a time."""
    k = seeds.size
    values = normals_block(seeds, subspace_dimension(params, pairs))
    rows = np.empty((k, sum(w.size for w in params)))
    at = col = 0
    for w, pair in zip(params, pairs):
        if pair is None:
            n = w.size
            layer = values[:, at:at + n]
        else:
            r = pair.rank
            n = r * r
            z = values[:, at:at + n].reshape(k, r, r)
            layer = np.einsum("ia,kab,jb->kij", pair.u, z, pair.v)
        at += n
        layer = layer.reshape(k, *w.shape)
        if w.ndim == 2:
            layer = layer.transpose(0, 2, 1)
        rows[:, col:col + w.size] = layer.reshape(k, w.size)
        col += w.size
    return rows


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    return np.einsum("kd,kd->k", rows, rows)


def check_expectation_identity(problem, pairs, params, n_mc: int, *,
                               epsilon: float = 1e-3, seed: int = 0,
                               rel_tol: float = 0.03) -> MonteCarloReport:
    """Mean of the estimator equals the projected gradient.

    Averages ``n_mc`` independent estimates and compares, entrywise through
    the materialized projector, with ``P P^T grad``.  The reported deviation
    is the euclidean norm of the difference of means; the standard error
    aggregates per-component variances.
    """
    for w, pair in zip(params, pairs):
        # the stacked projector and the stacked gradient must flatten the
        # same geometry; relayouted pairs would silently compare different
        # orderings, so demand native-shape pairs here
        if pair is not None and (w.ndim != 2 or w.shape != (pair.u.shape[0],
                                                            pair.v.shape[0])):
            raise ShapeError(
                "expectation check needs pairs in each layer's native geometry; "
                f"got {pair.shape} against {w.shape}")
    g = stack_params(problem.exact_gradient(params, full_batch(problem)))
    proj = materialize_projector(pairs, vector_sizes=[w.size for w in params])
    target_vec = proj.matrix @ (proj.matrix.T @ g)
    mean, stderr = _mc_mean(
        rho[:, None] * delta
        for rho, delta in _estimates(problem, params, pairs, n_mc, epsilon, seed))
    deviation = float(np.linalg.norm(mean - target_vec))
    target_norm = float(np.linalg.norm(target_vec))
    return _report("expectation_identity", n_mc, float(np.linalg.norm(mean)),
                   target_norm, deviation, stderr, rel_tol * target_norm)


def check_second_moment(problem, pairs, params, n_mc: int, *,
                        family: str = "subzero", epsilon: float = 1e-3,
                        seed: int = 0, rel_tol: float = 0.02) -> MonteCarloReport:
    """Mean squared norm of the estimator equals ``(q+2) ||P^T grad||**2``.

    With ``family="spsa_full"`` the same check runs on the full-space
    estimator, every pair ``None``, whose target is ``(d+2) ||grad||**2``;
    comparing the two on one problem is the variance-reduction ordering at
    the point where it is exact.
    """
    if family == "spsa_full":
        pairs = [None] * len(params)
    elif family != "subzero":
        raise ValueError(f"no second-moment target for family {family!r}")
    grads = problem.exact_gradient(params, full_batch(problem))
    q = subspace_dimension(params, pairs)
    target = (q + 2) * projected_gradient_sq_norm(grads, pairs)
    mean, stderr = _mc_mean(
        _sq_norms(rho[:, None] * delta)
        for rho, delta in _estimates(problem, params, pairs, n_mc, epsilon, seed))
    mean = float(mean)
    deviation = abs(mean - target)
    return _report(f"second_moment_{family}", n_mc, mean, target, deviation,
                   stderr, rel_tol * abs(target))


def check_cosine_identity(problem, pairs, params, n_mc: int, *,
                          epsilon: float = 1e-3, seed: int = 0,
                          rel_tol: float = 0.05) -> MonteCarloReport:
    """Mean of ``<grad, est>**2 / (||P^T grad||**2 ||est||**2)`` equals 1/q."""
    grads = problem.exact_gradient(params, full_batch(problem))
    proj_sq = projected_gradient_sq_norm(grads, pairs)
    if proj_sq < 1e-24:
        raise DegenerateGradient("projected gradient is numerically zero")
    q = subspace_dimension(params, pairs)
    target = 1.0 / q
    g = stack_params(grads)

    def cos_sq(rho: np.ndarray, delta: np.ndarray) -> np.ndarray:
        est = rho[:, None] * delta
        inner = est @ g
        est_sq = _sq_norms(est)
        if not est_sq.all():
            raise DegenerateGradient(
                "zero-norm estimate; measure-zero event, aborting the check")
        return inner * inner / (proj_sq * est_sq)

    mean, stderr = _mc_mean(
        cos_sq(*block) for block in _estimates(problem, params, pairs, n_mc, epsilon, seed))
    mean = float(mean)
    deviation = abs(mean - target)
    return _report("cosine_identity", n_mc, mean, target, deviation, stderr,
                   rel_tol * target)


# ---------------------------------------------------------------------------
# curvature bias

def measure_bias(problem, pairs, params, epsilon: float, n_mc: int, *,
                 seed: int = 0) -> tuple[float, float]:
    """Norm of the estimator's mean deviation from the projected gradient,
    with a control variate.

    Each sample subtracts ``<grad, delta> * delta`` (the seed-replayed
    perturbation ``delta``), whose expectation is exactly the projected
    gradient.  What remains is the curvature term of order ``epsilon**2``,
    so the measurement resolves the bias instead of drowning it in the
    O(1) sampling noise of the raw estimator.  Returns ``(bias, stderr)``.
    """
    g = stack_params(problem.exact_gradient(params, full_batch(problem)))
    mean, stderr = _mc_mean(
        rho[:, None] * delta - (delta @ g)[:, None] * delta
        for rho, delta in _estimates(problem, params, pairs, n_mc, epsilon, seed))
    return float(np.linalg.norm(mean)), stderr


def check_bias_bound(problem, pairs, params, epsilon: float, n_mc: int, *,
                     seed: int = 0,
                     hessian_lipschitz: Optional[float] = None) -> MonteCarloReport:
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
    bias, stderr = measure_bias(problem, pairs, params, epsilon, n_mc, seed=seed)
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


def estimator_diagnostics(problem, params, estimator_family: str, n_mc: int, *,
                     pairs=None, dense_q: Optional[int] = None,
                     epsilon: float = 1e-3, seed: int = 0) -> DiagnosticsRow:
    """Directional quality and noise of an estimator at one point.

    Phase one approximates the estimator's mean ``g`` over ``n_mc`` seeds.
    Phase two, on fresh seeds, reports the mean cosine between samples and
    ``g``, and ``Var[||est||] / ||g||**2``.  With ``n_mc = 1`` the variance
    is undefined and reported as NaN.  ``dense_q`` is read only by the
    dense family, ``pairs`` only by ``subzero``.
    """
    if estimator_family == "subzero":
        if pairs is None:
            raise ShapeError("subzero diagnostics need projection pairs")
        dense_q = None
    elif estimator_family == "spsa_full":
        pairs, dense_q = [None] * len(params), None
    elif estimator_family != "spsa_dense_subspace":
        raise ValueError(f"unknown estimator family {estimator_family!r}")
    elif dense_q is None:
        raise ShapeError("dense-subspace diagnostics need a subspace dimension")
    mean, _ = _mc_mean(
        rho[:, None] * delta
        for rho, delta in _estimates(problem, params, pairs, n_mc, epsilon, seed,
                                     dense_q))
    g_norm = float(np.linalg.norm(mean))
    if g_norm < 1e-12:
        raise DegenerateGradient("estimated mean gradient is numerically zero")

    cos_acc = 0.0
    norm_acc = 0.0
    norm_sq_acc = 0.0
    for rho, delta in _estimates(problem, params, pairs, n_mc, epsilon, seed,
                                 dense_q, first=n_mc):
        est = rho[:, None] * delta
        norms = np.sqrt(_sq_norms(est))
        if not norms.all():
            raise DegenerateGradient(
                "zero-norm estimate; measure-zero event, aborting diagnostics")
        cos_acc += float(np.sum(est @ mean / norms)) / g_norm
        norm_acc += float(norms.sum())
        norm_sq_acc += float(norms @ norms)
    cosine = cos_acc / n_mc
    if n_mc > 1:
        norm_mean = norm_acc / n_mc
        norm_var = max(norm_sq_acc / n_mc - norm_mean ** 2, 0.0) * (n_mc / (n_mc - 1))
        rel_variance = norm_var / (g_norm ** 2)
    else:
        rel_variance = math.nan
    q_or_d = subspace_dimension(params, pairs) if dense_q is None else dense_q
    return DiagnosticsRow(family=estimator_family, q_or_d=q_or_d, cosine=cosine,
                          rel_variance=rel_variance, n_mc=n_mc)


# ---------------------------------------------------------------------------
# convergence battery

@dataclass(frozen=True)
class ConvergenceConfig:
    """Knobs of the fixed-subspace convergence measurement.  ``batch_size``
    and ``chunk`` are not read (the runs advance as one block on the full
    batch); they are kept so that callers which set them still work."""

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

    Advances ``cfg.runs`` trajectories from one subspace start with the
    theory step size, as the rows of one block, and reports for each target
    the first N with ``mean_{k<=N}(loss_k - f*) <= target``, ``loss_k`` the
    full-batch loss after k steps averaged over the runs; ``f*`` is zero by
    construction (quadratic, no linear term, start in the subspace).  Stops
    at the first N that hits the tightest target or at ``N = cfg.step_cap``;
    an unhit target reports ``None``, and :class:`BudgetExceeded` is raised
    if even the largest is unhit; ``ValueError`` if there is no target or no
    run, ``ConfigError`` if ``cfg.epsilon`` is not positive.
    """
    targets = sorted(float(t) for t in targets)
    if not targets or cfg.runs < 1:
        raise ValueError("hitting times need at least one target and one run")
    if not cfg.epsilon > 0.0:
        raise ConfigError("epsilon must be positive")
    q = subspace_dimension(problem.initial_params(), pairs)
    eta = theoretical_step_size(q, problem.smoothness)
    x0 = subspace_start(problem, pairs,
                        derive_seed(cfg.master_seed, _TAG_START, q), cfg.start_value)
    hits: dict[float, int] = {}
    total = 0.0
    for n, xs in enumerate(_run_positions(problem, pairs, x0, eta, cfg)):
        # a plain sum in run order: np.sum, math.fsum and (3.12+) sum() round
        # otherwise, which could move a hit
        loss = 0.0
        for value in _row_losses(problem, x0, xs).tolist():
            loss += value
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


def _run_positions(problem, pairs, x0, eta: float, cfg) -> Iterator[np.ndarray]:
    """Every run's stacked position after 0, 1, ..., ``cfg.step_cap`` steps,
    as the rows of one ``(cfg.runs, d)`` block updated in place; run ``j``
    takes the trainer's pinned-pair ``subzero`` steps for the master seed
    ``derive_seed(cfg.master_seed, _TAG_RUN, j)``, probed out of place."""
    masters = derive_seeds(cfg.master_seed, _TAG_RUN, last=np.arange(cfg.runs))
    xs = np.tile(stack_params(x0), (cfg.runs, 1))
    yield xs
    for t in range(cfg.step_cap):
        delta = _delta_rows(x0, pairs, derive_seeds(masters, _TAG_STEP, last=t))
        xs -= (eta * _central_difference(problem, x0, xs, delta, cfg.epsilon))[:, None] * delta
        yield xs


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

# identity checks run on these layerings; the cells seed from BATTERY_SEED + 0..4
BATTERY_SHAPES: tuple[tuple[str, tuple[tuple[int, int], ...], int], ...] = (
    ("two_rect_r1", ((3, 2), (3, 2)), 1),
    ("one_square_r2", ((4, 4),), 2),
    ("three_square_r1", ((3, 3), (3, 3), (3, 3)), 1),
)
BATTERY_SEED = 11

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


def _structure_defect(cell_seed: int) -> float:
    """Worst orthonormality / stacking defect over five random layerings."""
    worst = 0.0
    for k in range(5):
        shapes = [(3, 2), (4, 3), (2, 2)]
        problem = QuadraticProblem.generate(derive_seed(cell_seed, _TAG_MC, k), shapes)
        params = problem.initial_params()
        pairs = build_pairs(GaussianStream(derive_seed(cell_seed, _TAG_MC, 100 + k)),
                            params, 2, reshape="never")
        proj = materialize_projector(pairs, vector_sizes=[w.size for w in params])
        p = proj.matrix
        gram_defect = float(np.max(np.abs(p.T @ p - np.eye(proj.q))))
        pert_seed = derive_seed(cell_seed, _TAG_MC, 200 + k)
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
    base = BATTERY_SEED
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
