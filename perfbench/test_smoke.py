"""Fast smoke tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

TOY_TRAIN = workloads.TrainWorkload(
    # W1 6x8 stays native at rank 4; W2 8x2 is relaid to 4x4
    problem=dict(family="mlp", n_features=6, hidden=(8,), n_outputs=2,
                 dataset_size=64),
    optimizer=dict(family="subzero", rank=4, refresh_period=5, batch_size=8,
                   learning_rate=1e-2),
    val_steps=10, min_steps=12, setup_reps=2, memory_claim=True)
TOY_MC = workloads.McWorkload(shapes=((3, 2), (3, 2)), rank=1, n_mc=50,
                              min_blocks=12, setup_reps=2, ref_runs=2)


def _bindings():
    """Every attribute of the loaded subzero modules and their classes."""
    out = {}
    for module in tracing.subzero_modules():
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("subzero"):
                for attr, member in vars(value).items():
                    out[(module.__name__, name, attr)] = member
    return out


def test_self_time_is_duration_minus_child_coverage():
    #  0 [0, 10]  ->  1 [1, 3]  ->  3 [1.5, 2]
    #             ->  2 [4, 5]
    #  4 [10, 12] (a second root) -> 5 [9, 11], clipped to [10, 11]
    start = np.array([0.0, 1.0, 4.0, 1.5, 10.0, 9.0])
    end = np.array([10.0, 3.0, 5.0, 2.0, 12.0, 11.0])
    parent = np.array([-1, 0, 0, 1, -1, 4])
    np.testing.assert_allclose(tracing.self_times(start, end, parent),
                               [7.0, 1.5, 1.0, 0.5, 1.0, 2.0])
    np.testing.assert_array_equal(tracing.roots(parent), [0, 0, 0, 0, 4, 4])


def test_tracer_closes_spans_left_open_inside():
    tracer = tracing.Tracer(max_spans=10)
    outer = tracer.open("outer")
    tracer.open("inner")
    tracer.close(outer)
    tracer.close(outer)     # closing twice is harmless
    cols = tracer.arrays()
    assert np.all(np.isfinite(cols["end"]))
    assert cols["end"][1] == cols["end"][0]


@pytest.mark.parametrize("n", [11, 12, 37, 100, 999])
def test_tail_percentile_has_ten_samples_beyond(n):
    values = np.random.default_rng(n).random(n)
    pct, value = workloads.tail(values)
    ordered = np.sort(values)
    rank = int(np.searchsorted(ordered, value))
    assert n - rank - 1 >= workloads.TAIL_BEYOND
    assert n - rank - 1 == workloads.TAIL_BEYOND     # and no lower percentile
    assert pct == pytest.approx(100.0 * (rank + 1) / n)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        workloads.tail(range(workloads.TAIL_BEYOND))


@pytest.mark.parametrize("wl", [TOY_TRAIN, TOY_MC], ids=["train", "mc"])
def test_traced_run_accounts_for_time_and_restores_every_wrapper(wl, monkeypatch):
    before = _bindings()
    import subzero.estimators as estimators
    import subzero.optimizer as optimizer
    seen = {}
    install = tracing.instrument

    def spying_instrument(tracer, patches):
        install(tracer, patches)
        # a wrapper replaces the function under every name it is bound to
        seen["probe"] = optimizer.two_sided_loss_diff
        seen["layers"] = estimators.iter_perturbation_layers
        seen["patched"] = len(patches.saved)
    monkeypatch.setattr(workloads, "instrument", spying_instrument)

    out = workloads.trace(wl, seed=3, seconds=0.0)

    # the optimizer's binding of a function defined in estimators, and the
    # estimators' binding of one defined in perturbation, were both wrapped
    assert seen["probe"].__wrapped__ is estimators.two_sided_loss_diff
    assert seen["layers"].__wrapped__ is estimators.iter_perturbation_layers
    assert seen["patched"] > 20
    after = _bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert not changed
    assert out.failed_operations == 0
    bit_identity = [k for k in out.checks if "bit_identical" in k]
    assert bit_identity and all(out.checks[k] for k in bit_identity)

    metrics = {k: v for k, (v, _) in out.metrics.items()}
    assert set(name for name, _ in workloads.PER_LAYER) <= set(metrics)
    parts = sum(metrics[k] for k in workloads._SELF_PARTS)
    assert parts + metrics["trace.unaccounted_ms"] == pytest.approx(metrics["trace.step_ms"])
    assert 0.0 <= metrics["trace.unaccounted_ms"] < 0.2 * metrics["trace.step_ms"]
    shares = sum(v for k, v in metrics.items() if k.startswith("share."))
    assert shares == pytest.approx(1.0)
    assert metrics["perturbation.passes_per_loss_eval"] == 2.0
    if wl is TOY_TRAIN:
        assert metrics["perturbation.core_ms.relayout"] > 0.0
        assert metrics["perturbation.refresh.calls"] > 0.0


@pytest.mark.parametrize("wl", [TOY_TRAIN, TOY_MC], ids=["train", "mc"])
def test_untraced_run_reports_every_end_to_end_metric(wl):
    out = workloads.measure(wl, seed=4, seconds=0.0)
    for name, unit in workloads.END_TO_END:
        value, reported_unit = out.metrics[name]
        assert reported_unit == unit and value > 0.0
    assert out.failed_operations == 0
    assert out.attempted > 0


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(workloads.PER_LAYER)
