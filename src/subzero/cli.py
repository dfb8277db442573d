"""Command-line front end: verify / bench / estimate.

``verify`` runs the standard statistical battery and writes one CSV row per
check.  ``bench`` expands a sweep grid into cells, trains each cell, and
writes one run CSV per cell plus a summary.  ``estimate`` evaluates the
gradient-quality diagnostics for a list of estimator families at a fixed
point.

Configs are JSON with four sections (problem, optimizer, sweep, and the
per-command settings); every omitted key takes its documented default, and
parse -> serialize -> parse is the identity.  Output file names are
functions of the config hash and cell index only, so re-running a config
overwrites its own artifacts and nothing else.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import numbers
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

from .errors import ConfigError
from .numcore import GaussianStream, derive_seed
from .perturbation import build_pairs, plan_layers
from .estimators import DENSE_ENTRY_CAP
from .optimizer import OptimizerConfig, train
from .problems import (LogisticProblem, MlpProblem, QuadraticProblem,
                       QuarticProblem)
from . import verification

SMOOTH_WINDOW = 50

RUN_COLUMNS = ("run_id", "step", "loss_plus", "loss_minus", "rho", "lr", "wall_ms")
SUMMARY_COLUMNS = ("run_id", "family", "rank", "refresh_period", "epsilon",
                   "learning_rate", "batch_size", "master_seed", "steps",
                   "final_smoothed", "best_smoothed", "status")
VERIFY_COLUMNS = ("check", "target", "estimate", "stderr", "pass")
DIAG_COLUMNS = ("family", "q_or_d", "cosine", "rel_variance", "n_mc")

SWEEPABLE = ("family", "rank", "refresh_period", "epsilon", "learning_rate",
             "batch_size", "master_seed", "dense_q", "alignment", "schedule")


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class ProblemSpec:
    """Which problem to build; unused fields are ignored by other families."""

    family: str = "quadratic"
    layer_shapes: tuple = ((10, 10),)
    kappa: float = 10.0
    lam_max: float = 1.0
    seed: int = 1
    dataset_size: int = 512
    l2: float = 1e-3
    flip_fraction: float = 0.05
    n_features: int = 6
    hidden: tuple = (8,)
    n_outputs: int = 4
    noise: float = 0.05

    def __post_init__(self):
        for shape in self.layer_shapes:
            if not (isinstance(shape, (tuple, list)) and 1 <= len(shape) <= 2
                    and all(type(n) is int and n >= 1 for n in shape)):
                raise ValueError(f"a layer shape must be one or two positive ints, "
                                 f"got {shape!r}")
        sizes = (self.dataset_size, self.n_features, self.n_outputs, *self.hidden)
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool)
                   and n >= 1 for n in sizes):
            raise ValueError(f"sizes and widths must be integers of at least 1, "
                             f"got {self}")
        if not (self.kappa >= 1.0 and self.lam_max > 0.0):
            raise ValueError(f"need kappa >= 1 and lam_max > 0, got {self}")
        if not (0.0 <= self.flip_fraction <= 1.0 and self.l2 >= 0.0
                and self.noise >= 0.0):
            raise ValueError(f"need flip_fraction in [0, 1], l2 >= 0 and "
                             f"noise >= 0, got {self}")


@dataclass(frozen=True)
class FamilySpec:
    """One estimator family to diagnose in the estimate command."""

    family: str = "subzero"
    rank: int = 2
    dense_q: int = 16


@dataclass(frozen=True)
class VerifySettings:
    n_mc: int = 20000
    n_mc_bias: int = 20000
    seed: int = 0

    def __post_init__(self):
        if min(self.n_mc, self.n_mc_bias) < 1:
            raise ValueError(f"n_mc and n_mc_bias must be at least 1, got {self}")


@dataclass(frozen=True)
class EstimateSettings:
    families: tuple = (FamilySpec(family="subzero", rank=2),
                       FamilySpec(family="spsa_full"))
    n_mc: int = 10000
    epsilon: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if not self.families or self.n_mc < 1 or not self.epsilon > 0.0:
            raise ValueError(f"need a family, n_mc >= 1 and epsilon > 0, got {self}")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec = ProblemSpec()
    optimizer: OptimizerConfig = OptimizerConfig()
    sweep: tuple = ()          # tuple of (field, tuple of values), sorted
    verify: VerifySettings = VerifySettings()
    estimate: EstimateSettings = EstimateSettings()
    out_dir: str = "results"


def _from_section(cls, section: dict, where: str):
    allowed = {f.name for f in fields(cls)}
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    coerced = {}
    for key, value in section.items():
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        coerced[key] = value
    try:
        return cls(**coerced)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where} section: {exc}") from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    known = {"problem", "optimizer", "sweep", "verify", "estimate", "out_dir"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    problem = _from_section(ProblemSpec, raw.get("problem", {}), "problem")
    optimizer = _from_section(OptimizerConfig, raw.get("optimizer", {}), "optimizer")
    sweep_raw = raw.get("sweep", {})
    if not isinstance(sweep_raw, dict):
        raise ConfigError("sweep section must be an object of key -> list")
    for key, values in sweep_raw.items():
        if key not in SWEEPABLE:
            raise ConfigError(f"cannot sweep over {key!r}; allowed: {SWEEPABLE}")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep axis {key!r} must be a non-empty list")
    sweep = tuple(sorted((k, tuple(v)) for k, v in sweep_raw.items()))
    verify = _from_section(VerifySettings, raw.get("verify", {}), "verify")
    est_raw = dict(raw.get("estimate", {}))
    if "families" in est_raw:
        fams = est_raw["families"]
        if not isinstance(fams, list):
            raise ConfigError("estimate.families must be a list")
        est_raw["families"] = tuple(
            _from_section(FamilySpec, f, "estimate.families") for f in fams)
    estimate = _from_section(EstimateSettings, est_raw, "estimate")
    out_dir = raw.get("out_dir", "results")
    if not isinstance(out_dir, str):
        raise ConfigError("out_dir must be a string")
    return ExperimentConfig(problem=problem, optimizer=optimizer, sweep=sweep,
                            verify=verify, estimate=estimate, out_dir=out_dir)


def _untuple(value):
    if isinstance(value, dict):
        return {k: _untuple(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_untuple(v) for v in value]
    return value


def config_to_dict(config: ExperimentConfig) -> dict:
    return _untuple({**asdict(config), "sweep": dict(config.sweep)})


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config_to_dict(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:8]


def build_problem(spec: ProblemSpec):
    shapes = [tuple(s) for s in spec.layer_shapes]
    if spec.family == "quadratic":
        return QuadraticProblem.generate(spec.seed, shapes, kappa=spec.kappa,
                                         lam_max=spec.lam_max,
                                         dataset_size=spec.dataset_size)
    if spec.family == "quartic":
        return QuarticProblem.generate(spec.seed, shapes,
                                       dataset_size=spec.dataset_size)
    if spec.family == "logistic":
        if len(shapes) != 1:
            raise ConfigError("logistic problems take exactly one layer shape")
        return LogisticProblem.generate(spec.seed, shapes[0],
                                        dataset_size=spec.dataset_size,
                                        flip_fraction=spec.flip_fraction,
                                        l2=spec.l2)
    if spec.family == "mlp":
        return MlpProblem.generate(spec.seed, n_features=spec.n_features,
                                   hidden=tuple(spec.hidden),
                                   n_outputs=spec.n_outputs,
                                   dataset_size=spec.dataset_size,
                                   noise=spec.noise)
    raise ConfigError(f"unknown problem family {spec.family!r}")


# ---------------------------------------------------------------------------
# sweep expansion and validation

def expand_cells(config: ExperimentConfig, seed_offset: int = 0) -> list[OptimizerConfig]:
    """All sweep cells in deterministic order, seed offset applied."""
    axes = list(config.sweep)
    cells = []
    if axes:
        keys = [k for k, _ in axes]
        for combo in itertools.product(*(values for _, values in axes)):
            try:
                cell = replace(config.optimizer, **dict(zip(keys, combo)))
            except (TypeError, ValueError, ConfigError) as exc:
                raise ConfigError(f"invalid sweep cell {dict(zip(keys, combo))}: {exc}")
            cells.append(cell)
    else:
        cells.append(config.optimizer)
    if seed_offset:
        cells = [replace(c, master_seed=c.master_seed + seed_offset) for c in cells]
    return cells


def _check_family(template, family: str, rank: int, dense_q: int,
                  reshape: str = "auto") -> None:
    """Reject a rank or dense subspace dimension that ``family`` reads and
    that is not positive, that some matrix layer cannot carry even in its
    best geometry under ``reshape``, or whose projection exceeds the cap."""
    if family == "subzero":
        if rank < 1:
            raise ConfigError(f"rank must be at least 1, got {rank}")
        for w, plan in zip(template, plan_layers(template, rank, reshape)):
            if plan.shape is not None and plan.rank < rank:
                raise ConfigError(
                    f"rank {rank} does not fit layer of shape {w.shape} "
                    f"(best geometry {plan.shape} supports rank {plan.rank})")
    elif family == "spsa_dense_subspace":
        if dense_q < 1:
            raise ConfigError(f"dense subspace dimension must be at least 1, got {dense_q}")
        d = sum(w.size for w in template)
        if d * dense_q > DENSE_ENTRY_CAP:
            raise ConfigError(
                f"dense projection of {d}x{dense_q} entries exceeds the "
                f"allocation cap {DENSE_ENTRY_CAP}")


def validate_cell(problem, cell: OptimizerConfig) -> None:
    """Reject a cell that would violate a module precondition at runtime."""
    if cell.batch_size > problem.dataset_size:
        raise ConfigError(
            f"batch size {cell.batch_size} exceeds dataset size {problem.dataset_size}")
    _check_family(problem.initial_params(), cell.family, cell.rank, cell.dense_q,
                  cell.reshape)


# ---------------------------------------------------------------------------
# CSV emission

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path: str, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _smoothed(values: list[float], window: int = SMOOTH_WINDOW) -> list[float]:
    out = []
    acc = 0.0
    for i, v in enumerate(values):
        acc += v
        if i >= window:
            acc -= values[i - window]
        out.append(acc / min(i + 1, window))
    return out


# ---------------------------------------------------------------------------
# subcommands

def cli_verify(config_path: str | None, out: str | None = None,
               seed_offset: int = 0) -> int:
    config = load_config(config_path)
    out_dir = out or config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    settings = config.verify
    reports = verification.run_default_battery(
        n_mc=settings.n_mc, n_mc_bias=settings.n_mc_bias,
        seed=settings.seed + seed_offset)
    rows = [(r.check, r.target, r.estimate, r.stderr, r.passed) for r in reports]
    path = os.path.join(out_dir, f"verification_{config_hash(config)}.csv")
    write_csv(path, VERIFY_COLUMNS, rows)
    failed = [r.check for r in reports if not r.passed]
    for name in failed:
        print(f"verify: FAILED {name}", file=sys.stderr)
    print(f"verify: {len(reports) - len(failed)}/{len(reports)} checks passed; "
          f"wrote {path}")
    return 1 if failed else 0


def _run_cell(payload: tuple) -> tuple:
    """Train one sweep cell; returns rows for the run CSV and the summary.

    Top level so worker processes can unpickle it; rebuilds the problem from
    its spec, which is cheaper to ship than the dataset.  Any exception but
    an interrupt or exit fails this cell alone: its traceback goes to stderr
    and its summary row reads ``failed: <type>: <message>``.
    """
    index, run_id, problem_spec, cell = payload
    try:
        record = train(build_problem(problem_spec), cell)
    except Exception as exc:    # contained to this cell; interrupts propagate
        print(f"bench: cell {run_id} failed", file=sys.stderr)
        traceback.print_exc()
        summary = (run_id, cell.family, cell.rank, cell.refresh_period,
                   cell.epsilon, cell.learning_rate, cell.batch_size,
                   cell.master_seed, cell.steps, math.nan, math.nan,
                   f"failed: {type(exc).__name__}: {exc}")
        return index, [], summary
    rows = [(run_id, s.step, s.loss_plus, s.loss_minus, s.rho, s.lr, s.wall_ms)
            for s in record.steps]
    probe_means = [0.5 * (s.loss_plus + s.loss_minus) for s in record.steps]
    smoothed = _smoothed(probe_means) if probe_means else [math.nan]
    summary = (run_id, cell.family, cell.rank, cell.refresh_period, cell.epsilon,
               cell.learning_rate, cell.batch_size, cell.master_seed, cell.steps,
               smoothed[-1], min(smoothed), "ok")
    return index, rows, summary


def cli_bench(config_path: str | None, out: str | None = None,
              workers: int = 1, seed_offset: int = 0) -> int:
    config = load_config(config_path)
    out_dir = out or config.out_dir
    cells = expand_cells(config, seed_offset)
    problem = build_problem(config.problem)
    for cell in cells:
        validate_cell(problem, cell)    # all cells vetted before any run
    os.makedirs(out_dir, exist_ok=True)
    tag = config_hash(config)
    payloads = [(i, f"{tag}_{i:03d}", config.problem, cell)
                for i, cell in enumerate(cells)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, payloads))
    else:
        results = [_run_cell(p) for p in payloads]
    results.sort(key=lambda r: r[0])
    summaries = []
    for index, rows, summary in results:
        if rows:
            write_csv(os.path.join(out_dir, f"run_{tag}_{index:03d}.csv"),
                      RUN_COLUMNS, rows)
        summaries.append(summary)
    write_csv(os.path.join(out_dir, f"summary_{tag}.csv"), SUMMARY_COLUMNS,
              summaries)
    n_failed = sum(1 for s in summaries if s[-1] != "ok")
    if n_failed:
        print(f"bench: {n_failed}/{len(summaries)} cells failed", file=sys.stderr)
    print(f"bench: wrote {len(summaries)} cell summaries to "
          f"{os.path.join(out_dir, f'summary_{tag}.csv')}")
    return 1 if n_failed else 0


def cli_estimate(config_path: str | None, out: str | None = None,
                 seed_offset: int = 0) -> int:
    config = load_config(config_path)
    out_dir = out or config.out_dir
    settings = config.estimate
    problem = build_problem(config.problem)
    params = problem.initial_params()
    for fam in settings.families:   # all families vetted before any sampling
        if fam.family not in ("subzero", "spsa_full", "spsa_dense_subspace"):
            raise ConfigError(f"unknown estimator family {fam.family!r}")
        _check_family(params, fam.family, fam.rank, fam.dense_q)
    seed = settings.seed + seed_offset
    rows = []
    for fam in settings.families:
        pairs = (build_pairs(GaussianStream(derive_seed(seed, 0x1F, 0)), params, fam.rank)
                 if fam.family == "subzero" else None)
        row = verification.estimator_diagnostics(
            problem, params, fam.family, settings.n_mc, pairs=pairs,
            dense_q=fam.dense_q, epsilon=settings.epsilon, seed=seed)
        rows.append((row.family, row.q_or_d, row.cosine, row.rel_variance,
                     row.n_mc))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"diagnostics_{config_hash(config)}.csv")
    write_csv(path, DIAG_COLUMNS, rows)
    print(f"estimate: wrote {len(rows)} rows to {path}")
    return 0


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="subzero",
        description="Layer-wise low-rank zeroth-order optimization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("verify", "run the statistical check battery"),
                            ("bench", "train the configured sweep cells"),
                            ("estimate", "gradient-quality diagnostics")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes for sweep cells")
        p.add_argument("--seed-offset", type=int, default=0,
                       help="added to every configured seed")
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cli_verify(args.config, args.out, args.seed_offset)
        if args.command == "bench":
            return cli_bench(args.config, args.out, args.workers, args.seed_offset)
        return cli_estimate(args.config, args.out, args.seed_offset)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
