"""The benchmark's three workloads: what each runs, how it is timed, what
it checks, and the metrics it reports.

Every workload is a closed loop in one process: one caller, and the next
step or estimate starts only after the previous one returned.  All inputs
(problem instance, master seed, pair seed, Monte Carlo seed) derive from
the workload seed, so the same seed gives the same inputs.  A "step" in the
metric names is one ``optimizer.step`` call on the training workloads and
one ``subzero_estimate`` (inside ``check_second_moment``) on ``mc_identity``.

Every call into the package goes through a module attribute
(``optimizer.step``, not a name bound at import), so a traced run sees the
wrappers that :mod:`tracing` installs.

The machine's speed is measured next to every step: a fixed reference
kernel, owned by the benchmark and never by the package, runs before each
step (and once after the last).  A step's *cost* is its time divided by
the mean time of the reference runs on either side of it, in units of
``ref``.  On a host whose speed swings with other tenants' load, costs stay
steady where raw times do not, and the package cannot change the kernel.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import subzero.cli as cli
import subzero.errors as errors
import subzero.estimators as estimators
import subzero.numcore as numcore
import subzero.optimizer as optimizer
import subzero.perturbation as perturbation
import subzero.problems as problems
import subzero.verification as verification

from tracing import Patches, Tracer, instrument

# a tail percentile must have at least this many samples ranked above it
TAIL_BEYOND = 10
# a traced run stops early once it holds this many spans (24 MB of arrays)
MAX_SPANS = 600_000

_TAG_PROBLEM, _TAG_MASTER, _TAG_PAIRS, _TAG_MC = 1, 2, 3, 4
_MASK64 = (1 << 64) - 1

# (name, unit); BENCHMARK.json lists the same names with their bounds
END_TO_END = (("setup_s", "s"), ("step_cost_mean", "ref"), ("step_cost_p50", "ref"),
              ("step_cost_tail", "ref"), ("peak_step_bytes", "B"))
PER_LAYER = (
    ("numcore.normals.values", "count"), ("numcore.normals.ms", "ms"),
    ("numcore.normals.mvals_per_s", "Mvalues/s"), ("numcore.qr.ms", "ms"),
    ("numcore.stack_params.ms", "ms"),
    ("perturbation.passes", "count"), ("perturbation.passes_per_loss_eval", "ratio"),
    ("perturbation.draw_ms.native", "ms"), ("perturbation.draw_ms.relayout", "ms"),
    ("perturbation.draw_ms.vector", "ms"),
    ("perturbation.core_ms.native", "ms"), ("perturbation.core_ms.relayout", "ms"),
    ("perturbation.core_ms.vector", "ms"),
    ("perturbation.add_ms.native", "ms"), ("perturbation.add_ms.relayout", "ms"),
    ("perturbation.add_ms.vector", "ms"),
    ("perturbation.refresh.calls", "count"), ("perturbation.refresh_ms", "ms"),
    ("estimators.probe.self_ms", "ms"), ("estimators.loss_evals", "count"),
    ("estimators.estimate.self_ms", "ms"),
    ("problems.loss.ms", "ms"), ("problems.minibatch.ms", "ms"),
    ("problems.generate_s", "s"),
    ("optimizer.step.self_ms", "ms"), ("optimizer.init_state_ms", "ms"),
    ("verification.check.self_ms", "ms"), ("cli.build_problem.self_ms", "ms"),
    ("trace.step_ms", "ms"), ("trace.unaccounted_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)
LAYER_KINDS = ("native", "relayout", "vector")


@dataclass(frozen=True)
class TrainWorkload:
    """An ``optimizer.step`` loop on an MLP built by ``cli.build_problem``."""

    problem: dict
    optimizer: dict
    val_steps: int      # validation loss is taken after this many steps
    min_steps: int      # timed steps per run, at least
    setup_reps: int
    memory_claim: bool  # whether the step must stay below 8 d bytes

    def configure(self, seed: int):
        spec = cli.ProblemSpec(seed=numcore.derive_seed(seed, _TAG_PROBLEM),
                               **self.problem)
        config = optimizer.OptimizerConfig(
            master_seed=numcore.derive_seed(seed, _TAG_MASTER), **self.optimizer)
        return spec, config


@dataclass(frozen=True)
class McWorkload:
    """Repeated ``verification.check_second_moment`` calls of ``n_mc``
    estimates each on a quadratic cell with pinned pairs."""

    shapes: tuple
    rank: int
    n_mc: int
    min_blocks: int     # check calls per run, at least
    setup_reps: int
    # a block lasts about 600 reference runs; one run samples the host's
    # speed too sparsely to stand for the whole block
    ref_runs: int


WORKLOADS = {
    "train_mlp_wide": TrainWorkload(
        problem=dict(family="mlp", n_features=512, hidden=(512,), n_outputs=8,
                     dataset_size=256),
        optimizer=dict(family="subzero", rank=16, refresh_period=50,
                       batch_size=32, learning_rate=5e-3, epsilon=1e-3),
        val_steps=500, min_steps=600, setup_reps=3, memory_claim=True),
    "mc_identity": McWorkload(shapes=((3, 2), (3, 2)), rank=1, n_mc=2000,
                              min_blocks=20, setup_reps=100, ref_runs=5),
    "train_mlp_fullspace": TrainWorkload(
        problem=dict(family="mlp", n_features=64, hidden=(64,), n_outputs=16,
                     dataset_size=256),
        optimizer=dict(family="spsa_full", batch_size=32, learning_rate=3e-3,
                       epsilon=1e-3),
        val_steps=100, min_steps=100, setup_reps=10, memory_claim=False),
}


@dataclass
class Outcome:
    """What one run reports.  ``checks`` are output checks, counted into
    ``failed``; ``claims`` are resource claims, reported beside them."""

    metrics: dict = field(default_factory=dict)     # name -> (value, unit)
    checks: dict = field(default_factory=dict)      # name -> passed
    claims: dict = field(default_factory=dict)      # name -> (passed, detail)
    operations: int = 0
    failed_operations: int = 0
    samples: dict = field(default_factory=dict)     # raw timings, for the file
    spans: dict = field(default_factory=dict)       # traced runs only

    @property
    def attempted(self) -> int:
        return self.operations + len(self.checks)

    @property
    def failed(self) -> int:
        return self.failed_operations + sum(not ok for ok in self.checks.values())


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples ranked above
    it, as ``(percentile, value)``; nearest-rank, so the value is a sample."""
    ordered = sorted(values)
    k = len(ordered) - beyond - 1
    if k < 0:
        raise ValueError(f"need more than {beyond} samples, got {len(ordered)}")
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def reference_work(n: int = 400) -> float:
    """The fixed reference kernel: ``n`` SplitMix64 hashes, each through a
    Box-Muller transform, in pure Python (about 0.4 ms on a 2.1 GHz Xeon)."""
    acc = 0.0
    for i in range(n):
        x = ((i + 1) * 0x9E3779B97F4A7C15) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
        u = ((x >> 11) + 0.5) * 2.0 ** -53
        acc += math.sqrt(-2.0 * math.log(u)) * math.cos(2.0 * math.pi * u)
    return acc


def reference_s(runs: int = 1) -> float:
    """Median time of ``runs`` back-to-back runs of the reference kernel."""
    times = []
    for _ in range(runs):
        begin = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - begin)
    return statistics.median(times)


def costs(unit_s, ref_s) -> list[float]:
    """Each step's time over the mean of the reference runs around it."""
    return [t / (0.5 * (a + b)) for t, a, b in zip(unit_s, ref_s, ref_s[1:])]


def _root(tracer, name):
    return nullcontext() if tracer is None else tracer.span(name)


class _SetUps:
    """Times repetitions of a workload's set-up, spread evenly over the run.

    The first repetition runs before the loop and its result is used; the
    loop calls :meth:`catch_up` before each step, which repeats the set-up
    whenever the run's clock has passed the next repetition's share of
    ``seconds``.  A host that is slow for a few seconds then touches one
    repetition, not all of them.
    """

    def __init__(self, set_up, reps: int, seconds: float, tracer):
        self.set_up, self.reps, self.seconds, self.tracer = set_up, reps, seconds, tracer
        self.times = []
        self.first = self.run()
        self.start = time.perf_counter()

    def run(self):
        with _root(self.tracer, "bench.setup"):
            begin = time.perf_counter()
            result = self.set_up()
            self.times.append(time.perf_counter() - begin)
        return result

    def catch_up(self, finished: bool = False) -> None:
        due = self.reps
        if not finished and self.seconds > 0:
            elapsed = time.perf_counter() - self.start
            due = min(due, 1 + int((self.reps - 1) * elapsed / self.seconds))
        while len(self.times) < due:
            self.run()


def _validation_loss(problem, params, batch) -> float:
    try:
        return problem.loss(params, batch)
    except errors.NonFiniteLoss:
        return math.inf


# ---------------------------------------------------------------------------
# the closed loops, shared by untraced and traced runs

@dataclass
class TrainRun:
    problem: object
    config: object
    setup_s: list
    step_s: list
    ref_s: list         # reference kernel times, one before each step and one after
    val_start: float
    val_final: float
    params_finite: bool
    failures: int


def run_train(wl: TrainWorkload, seed: int, seconds: float, setup_reps: int,
              min_steps: int, tracer: Tracer | None = None) -> TrainRun:
    spec, config = wl.configure(seed)

    def set_up():
        problem = cli.build_problem(spec)
        state = optimizer.init_state(problem, config)
        optimizer.step(problem, state, config)  # step 0 draws the first pairs
        return problem, state

    setups = _SetUps(set_up, setup_reps, seconds, tracer)
    problem, state = setups.first
    val_batch = problems.full_batch(problem)
    with _root(tracer, "bench.validate"):
        val_start = _validation_loss(problem, problem.initial_params(), val_batch)
    step_s = []
    ref_s = []
    val_final = math.nan
    failures = 0
    deadline = time.perf_counter() + seconds
    while (state.step < wl.val_steps or len(step_s) < min_steps
           or time.perf_counter() < deadline):
        if tracer is not None:
            if tracer.full and state.step > wl.val_steps:
                break
            tracer.unit = state.step
        setups.catch_up()
        ref_s.append(reference_s())
        with _root(tracer, "bench.step"):
            begin = time.perf_counter()
            try:
                optimizer.step(problem, state, config)
            except errors.SubzeroError:
                failures += 1
                break
            step_s.append(time.perf_counter() - begin)
        if state.step == wl.val_steps:
            with _root(tracer, "bench.validate"):
                val_final = _validation_loss(problem, state.params, val_batch)
    ref_s.append(reference_s())
    setups.catch_up(finished=True)
    finite = all(bool(np.all(np.isfinite(w))) for w in state.params)
    return TrainRun(problem, config, setups.times, step_s, ref_s, val_start, val_final,
                    finite, failures)


def peak_step_bytes(problem, config) -> int:
    """tracemalloc peak of one step after a warm-up step, measured the way
    acceptance test 8 measures it."""
    state = optimizer.init_state(problem, config)
    optimizer.step(problem, state, config)
    tracemalloc.start()
    try:
        optimizer.step(problem, state, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@dataclass
class McRun:
    problem: object
    params: list
    pairs: list
    setup_s: list
    block_s: list
    ref_s: list         # reference kernel times, one before each block and one after
    reports: list
    drift: float        # largest change a block left in its parameters
    failures: int


def run_mc(wl: McWorkload, seed: int, seconds: float, setup_reps: int,
           min_blocks: int, tracer: Tracer | None = None) -> McRun:
    spec = cli.ProblemSpec(family="quadratic", layer_shapes=wl.shapes,
                           seed=numcore.derive_seed(seed, _TAG_PROBLEM))
    pair_seed = numcore.derive_seed(seed, _TAG_PAIRS)
    mc_seed = numcore.derive_seed(seed, _TAG_MC)

    def set_up():
        problem = cli.build_problem(spec)
        params = problem.initial_params()
        pairs = perturbation.build_pairs(numcore.GaussianStream(pair_seed),
                                         params, wl.rank, reshape="never")
        return problem, params, pairs

    setups = _SetUps(set_up, setup_reps, seconds, tracer)
    problem, params, pairs = setups.first
    block_s = []
    ref_s = []
    reports = []
    drift = 0.0
    failures = 0
    deadline = time.perf_counter() + seconds
    while len(block_s) < min_blocks or time.perf_counter() < deadline:
        if tracer is not None and tracer.full and block_s:
            break
        # each block starts from the same point: probes restore the
        # parameters only to rounding, which would make repeats drift
        setups.catch_up()
        work = [w.copy() for w in params]
        ref_s.append(reference_s(wl.ref_runs))
        with _root(tracer, "bench.check"):
            begin = time.perf_counter()
            try:
                rep = verification.check_second_moment(problem, pairs, work,
                                                       wl.n_mc, seed=mc_seed)
            except errors.SubzeroError:
                failures += wl.n_mc
                break
            block_s.append(time.perf_counter() - begin)
        reports.append(rep)
        drift = max([drift] + [float(np.max(np.abs(a - b))) for a, b in zip(work, params)])
    ref_s.append(reference_s(wl.ref_runs))
    setups.catch_up(finished=True)
    return McRun(problem, params, pairs, setups.times, block_s, ref_s, reports, drift,
                 failures)


def peak_estimate_bytes(run: McRun, seed: int) -> int:
    """tracemalloc peak of one estimate after a warm-up estimate."""
    batch = problems.full_batch(run.problem)
    args = (run.problem, run.params, run.pairs, batch, 1e-3, seed)
    estimators.subzero_estimate(*args)
    tracemalloc.start()
    try:
        estimators.subzero_estimate(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics and output checks

def _timing_metrics(out: Outcome, setup_s, unit_s, ref_s, units: int,
                    total_s: float):
    unit_cost = costs(unit_s, ref_s)
    pct, tail_s = tail(unit_s)
    out.metrics.update({
        "setup_s": (statistics.median(setup_s), "s"),
        "step_cost_mean": (statistics.fmean(unit_cost), "ref"),
        "step_cost_p50": (statistics.median(unit_cost), "ref"),
        "step_cost_tail": (tail(unit_cost)[1], "ref"),
        "steps_per_s": (units / total_s, "1/s"),
        "step_ms_p50": (statistics.median(unit_s) * 1e3, "ms"),
        "step_ms_tail": (tail_s * 1e3, "ms"),
        "step_ms_tail_pct": (pct, "%"),
        "ref_ms_p50": (statistics.median(ref_s) * 1e3, "ms"),
    })
    out.samples.update(setup_s=setup_s, unit_s=unit_s, ref_s=ref_s)


def _train_checks(out: Outcome, *runs: TrainRun) -> None:
    out.operations += sum(len(run.step_s) + run.failures for run in runs)
    out.failed_operations += sum(run.failures for run in runs)
    out.checks["steps_ran"] = all(run.failures == 0 for run in runs)
    out.checks["params_finite"] = all(run.params_finite for run in runs)
    out.checks["val_loss_fell"] = all(run.val_final < run.val_start for run in runs)


def measure(wl, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    if isinstance(wl, TrainWorkload):
        run = run_train(wl, seed, seconds, wl.setup_reps, wl.min_steps)
        _timing_metrics(out, run.setup_s, run.step_s, run.ref_s, len(run.step_s),
                        sum(run.step_s))
        _train_checks(out, run)
        peak = peak_step_bytes(run.problem, run.config)
        d = sum(w.size for w in run.problem.initial_params())
        if wl.memory_claim:
            out.claims["peak_step_bytes_below_8d"] = (
                peak < 8 * d, f"peak {peak} B, 8*d = {8 * d} B")
        out.metrics.update({
            "peak_step_bytes": (float(peak), "B"),
            "val_loss_start": (run.val_start, "loss"),
            "val_loss_final": (run.val_final, "loss"),
        })
    else:
        run = run_mc(wl, seed, seconds, wl.setup_reps, wl.min_blocks)
        per_estimate = [s / wl.n_mc for s in run.block_s]
        units = wl.n_mc * len(run.block_s)
        _timing_metrics(out, run.setup_s, per_estimate, run.ref_s, units,
                        sum(run.block_s))
        out.operations += units + run.failures
        out.failed_operations += run.failures
        first = run.reports[0]
        out.checks["second_moment_gate"] = first.passed
        out.checks["repeats_bit_identical"] = all(r == first for r in run.reports)
        out.checks["params_restored_within_1e-12"] = run.drift <= 1e-12
        peak = peak_estimate_bytes(run, numcore.derive_seed(seed, _TAG_MC))
        out.metrics.update({
            "peak_step_bytes": (float(peak), "B"),
            "estimates_per_s": (out.metrics["steps_per_s"][0], "1/s"),
            "mc_estimate": (first.estimate, "moment"),
            "mc_target": (first.target, "moment"),
            "mc_dev_se": (first.abs_deviation / first.stderr, "ratio"),
        })
    out.metrics["failed_frac"] = (out.failed / out.attempted, "ratio")
    return out


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics

def trace(wl, seed: int, seconds: float) -> Outcome:
    """An untraced reference run, then the same workload traced.

    The reference gives the untraced step times for ``trace.overhead_frac``
    and the validation loss or Monte Carlo report that the traced run must
    reproduce bit for bit.
    """
    out = Outcome()
    tracer = Tracer(MAX_SPANS)
    if isinstance(wl, TrainWorkload):
        ref = run_train(wl, seed, 0.0, 1, wl.val_steps - 1)
        with Patches() as patches:
            instrument(tracer, patches)
            run = run_train(wl, seed, seconds, wl.setup_reps, wl.min_steps, tracer)
        _train_checks(out, ref, run)
        out.checks["val_loss_bit_identical_to_untraced"] = run.val_final == ref.val_final
        n = len(ref.step_s)
        overhead = (statistics.median(costs(run.step_s[:n], run.ref_s))
                    / statistics.median(costs(ref.step_s, ref.ref_s)) - 1)
        out.metrics["val_loss_final"] = (run.val_final, "loss")
        unit_root = "bench.step"
    else:
        ref = run_mc(wl, seed, 0.0, 1, 3)
        with Patches() as patches:
            instrument(tracer, patches)
            run = run_mc(wl, seed, seconds, wl.setup_reps, 1, tracer)
        out.operations += wl.n_mc * (len(ref.block_s) + len(run.block_s))
        out.failed_operations += ref.failures + run.failures
        out.checks["estimate_bit_identical_to_untraced"] = run.reports[0] == ref.reports[0]
        overhead = (statistics.median(costs(run.block_s, run.ref_s))
                    / statistics.median(costs(ref.block_s, ref.ref_s)) - 1)
        out.metrics["mc_estimate"] = (run.reports[0].estimate, "moment")
        unit_root = "bench.check"
    out.metrics.update(layer_metrics(tracer, unit_root))
    out.metrics["trace.overhead_frac"] = (overhead, "ratio")
    out.spans = {"names": list(tracer.names), **{k: np.asarray(v) for k, v in (
        ("name", tracer.name), ("parent", tracer.parent), ("unit", tracer.unit_of),
        ("start", tracer.start), ("end", tracer.end))}}
    return out


# self-time metrics that partition a step; what they leave is unaccounted
_SELF_PARTS = ("numcore.normals.ms", "numcore.qr.ms", "numcore.stack_params.ms",
               *(f"perturbation.{part}_ms.{kind}" for part in ("core", "add")
                 for kind in LAYER_KINDS),
               "estimators.probe.self_ms", "estimators.estimate.self_ms",
               "problems.loss.ms", "problems.minibatch.ms",
               "optimizer.step.self_ms", "verification.check.self_ms")


def layer_metrics(tracer: Tracer, unit_root: str) -> dict:
    """Per-layer metrics of the spans under ``unit_root`` roots, per step
    or estimate, plus set-up metrics as medians over the set-up roots.

    Also ``share.<module>``: each module's self time as a share of the
    traced step time (``share.bench`` is the loop's own time).
    """
    cols = tracer.arrays()
    name = cols["name"]

    def span_id(span):
        return tracer.names.index(span) if span in tracer.names else -2

    def is_span(span):
        return name == span_id(span)

    parent_name = np.where(cols["parent"] >= 0, name[cols["parent"]], -1)
    duration = cols["end"] - cols["start"]
    own = cols["self"]

    in_units = name[cols["root"]] == span_id(unit_root)
    units = int(np.count_nonzero(in_units & is_span("estimators.estimate"))) \
        if unit_root == "bench.check" else int(np.count_nonzero(is_span(unit_root)))

    def total(values, mask):
        return float(np.sum(values[in_units & mask]))

    def per_unit_ms(values, span):
        return total(values, is_span(span)) * 1e3 / units

    def number(mask):
        return int(np.count_nonzero(in_units & mask))

    def count(counter):
        return tracer.counts.get((unit_root, counter), 0)

    m = {}
    values = count("numcore.normals.values")
    draw_s = total(duration, is_span("numcore.normals"))
    m["numcore.normals.values"] = values / units
    m["numcore.normals.ms"] = draw_s * 1e3 / units
    m["numcore.normals.mvals_per_s"] = values / draw_s / 1e6 if draw_s else 0.0
    m["numcore.qr.ms"] = per_unit_ms(own, "numcore.qr")
    m["numcore.stack_params.ms"] = per_unit_ms(own, "numcore.stack_params")
    loss_evals = number(is_span("problems.loss"))
    passes = count("perturbation.passes")
    m["perturbation.passes"] = passes / units
    m["perturbation.passes_per_loss_eval"] = passes / loss_evals if loss_evals else 0.0
    for kind in LAYER_KINDS:
        layer = "perturbation.layer." + kind
        m[f"perturbation.draw_ms.{kind}"] = total(
            duration, is_span("numcore.normals") & (parent_name == span_id(layer))) * 1e3 / units
        m[f"perturbation.core_ms.{kind}"] = per_unit_ms(own, layer)
        m[f"perturbation.add_ms.{kind}"] = per_unit_ms(own, "perturbation.add." + kind)
    refreshes = number(is_span("perturbation.refresh"))
    m["perturbation.refresh.calls"] = refreshes / units
    m["perturbation.refresh_ms"] = (total(duration, is_span("perturbation.refresh"))
                                    * 1e3 / refreshes if refreshes else 0.0)
    m["estimators.probe.self_ms"] = per_unit_ms(own, "estimators.probe")
    m["estimators.loss_evals"] = loss_evals / units
    m["estimators.estimate.self_ms"] = per_unit_ms(own, "estimators.estimate")
    m["problems.loss.ms"] = per_unit_ms(own, "problems.loss")
    m["problems.minibatch.ms"] = per_unit_ms(own, "problems.minibatch")
    m["optimizer.step.self_ms"] = per_unit_ms(own, "optimizer.step")
    m["verification.check.self_ms"] = per_unit_ms(own, "verification.check")

    setups = np.flatnonzero(is_span("bench.setup"))

    def per_setup(values, span):
        """Median over set-ups of the span's total within one set-up."""
        mask = is_span(span)
        sums = np.bincount(cols["root"][mask], weights=values[mask], minlength=name.size)
        return float(np.median(sums[setups]))

    m["problems.generate_s"] = per_setup(duration, "problems.generate")
    m["optimizer.init_state_ms"] = per_setup(duration, "optimizer.init_state") * 1e3
    m["cli.build_problem.self_ms"] = per_setup(own, "cli.build_problem") * 1e3

    step_ms = total(duration, is_span(unit_root)) * 1e3 / units
    m["trace.step_ms"] = step_ms
    m["trace.unaccounted_ms"] = step_ms - sum(m[k] for k in _SELF_PARTS)

    metrics = {k: (v, unit) for k, unit in PER_LAYER if (v := m.get(k)) is not None}
    modules = [n.split(".")[0] for n in tracer.names]
    module_of = np.asarray([sorted(set(modules)).index(mod) for mod in modules])[name]
    for i, mod in enumerate(sorted(set(modules))):
        if number(module_of == i):
            metrics["share." + mod] = (total(own, module_of == i) * 1e3 / units / step_ms,
                                       "ratio")
    return metrics
