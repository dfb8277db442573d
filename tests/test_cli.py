"""Tests for the command-line layer: config parsing, sweep expansion,
artifact layout, and exit codes.

Everything runs against temp directories with deliberately small sample
counts; determinism of the artifacts (minus wall-clock columns) is part of
the contract and is asserted byte for byte.
"""

import csv
import json
import math
import os

import numpy as np
import pytest

from subzero import (LogisticProblem, MlpProblem, OptimizerConfig,
                     QuadraticProblem, QuarticProblem)
from subzero.errors import ConfigError
from subzero import cli
from subzero.cli import (DIAG_COLUMNS, EstimateSettings, ExperimentConfig,
                         FamilySpec, ProblemSpec, RUN_COLUMNS,
                         SUMMARY_COLUMNS, VERIFY_COLUMNS, VerifySettings,
                         build_problem, config_from_dict, config_hash,
                         config_to_dict, expand_cells, load_config, main,
                         validate_cell, write_csv, _fmt, _smoothed)


def write_config(path, raw):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


BENCH_RAW = {
    "problem": {"family": "quadratic", "layer_shapes": [[6, 6]], "seed": 2,
                "dataset_size": 64},
    "optimizer": {"steps": 40, "batch_size": 8, "rank": 2,
                  "refresh_period": 10, "learning_rate": 0.01,
                  "schedule": "constant", "eval_interval": 20},
    "sweep": {"family": ["subzero", "spsa_full"], "master_seed": [5, 6]},
    "verify": {"n_mc": 250, "n_mc_bias": 250, "seed": 0},
    "estimate": {"families": [{"family": "subzero", "rank": 2},
                              {"family": "spsa_full"},
                              {"family": "spsa_dense_subspace", "dense_q": 8}],
                 "n_mc": 40},
}


class TestConfigParsing:
    def test_empty_config_is_all_defaults(self):
        assert config_from_dict({}) == ExperimentConfig()
        assert load_config(None) == ExperimentConfig()

    def test_round_trip_is_identity(self):
        config = config_from_dict(BENCH_RAW)
        again = config_from_dict(config_to_dict(config))
        assert again == config

    def test_defaults_round_trip(self):
        config = ExperimentConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_nested_lists_become_tuples(self):
        config = config_from_dict({"problem": {"layer_shapes": [[3, 4], [5]]}})
        assert config.problem.layer_shapes == ((3, 4), (5,))

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="sections"):
            config_from_dict({"optimiser": {}})

    def test_unknown_problem_key_rejected(self):
        with pytest.raises(ConfigError, match="problem keys"):
            config_from_dict({"problem": {"curvature": 3}})

    def test_unknown_optimizer_key_rejected(self):
        with pytest.raises(ConfigError, match="optimizer keys"):
            config_from_dict({"optimizer": {"momentum": 0.9}})

    def test_non_object_root_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2])

    def test_invalid_optimizer_value_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"optimizer": {"rank": 0}})

    def test_sweep_must_map_to_lists(self):
        with pytest.raises(ConfigError):
            config_from_dict({"sweep": [1]})
        with pytest.raises(ConfigError, match="non-empty"):
            config_from_dict({"sweep": {"rank": []}})
        with pytest.raises(ConfigError, match="non-empty"):
            config_from_dict({"sweep": {"rank": 4}})

    def test_unsweepable_axis_rejected(self):
        with pytest.raises(ConfigError, match="cannot sweep"):
            config_from_dict({"sweep": {"steps": [10, 20]}})

    def test_estimate_families_must_be_list(self):
        with pytest.raises(ConfigError):
            config_from_dict({"estimate": {"families": {"family": "subzero"}}})

    def test_out_dir_must_be_string(self):
        with pytest.raises(ConfigError):
            config_from_dict({"out_dir": 3})

    def test_missing_file_reports_path(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.json"))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(str(path))


class TestConfigHash:
    def test_insensitive_to_key_order(self, tmp_path):
        a = write_config(tmp_path / "a.json", BENCH_RAW)
        shuffled = dict(reversed(list(BENCH_RAW.items())))
        b = write_config(tmp_path / "b.json", shuffled)
        assert config_hash(load_config(a)) == config_hash(load_config(b))

    def test_value_changes_move_the_hash(self):
        base = config_from_dict(BENCH_RAW)
        other = config_from_dict({**BENCH_RAW,
                                  "optimizer": {**BENCH_RAW["optimizer"],
                                               "steps": 41}})
        assert config_hash(base) != config_hash(other)

    def test_eight_hex_digits(self):
        tag = config_hash(ExperimentConfig())
        assert len(tag) == 8
        int(tag, 16)

    def test_hashes_are_pinned(self):
        # output file names derive from the hash, so a serializer change
        # must not move it; the second config sets every section
        assert config_hash(ExperimentConfig()) == "70e1969c"
        every_section = config_from_dict({**BENCH_RAW, "out_dir": "runs"})
        assert config_hash(every_section) == "1fa96344"


class TestBuildProblem:
    def test_family_dispatch(self):
        assert isinstance(build_problem(ProblemSpec()), QuadraticProblem)
        assert isinstance(build_problem(ProblemSpec(family="quartic")),
                          QuarticProblem)
        assert isinstance(
            build_problem(ProblemSpec(family="logistic", layer_shapes=((6, 3),))),
            LogisticProblem)
        assert isinstance(build_problem(ProblemSpec(family="mlp")), MlpProblem)

    def test_logistic_needs_single_layer(self):
        spec = ProblemSpec(family="logistic", layer_shapes=((6, 3), (4,)))
        with pytest.raises(ConfigError):
            build_problem(spec)

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            build_problem(ProblemSpec(family="rosenbrock"))

    def test_same_spec_same_data(self):
        a = build_problem(ProblemSpec(seed=7))
        b = build_problem(ProblemSpec(seed=7))
        np.testing.assert_array_equal(a.h, b.h)


class TestExpandCells:
    def test_no_sweep_yields_single_cell(self):
        config = ExperimentConfig()
        assert expand_cells(config) == [config.optimizer]

    def test_product_in_sorted_axis_order(self):
        config = config_from_dict(BENCH_RAW)
        cells = expand_cells(config)
        # axes iterate in sorted key order (family outer, master_seed inner)
        # but each axis keeps its configured value order
        assert [(c.family, c.master_seed) for c in cells] == [
            ("subzero", 5), ("subzero", 6),
            ("spsa_full", 5), ("spsa_full", 6)]

    def test_seed_offset_shifts_every_cell(self):
        config = config_from_dict(BENCH_RAW)
        shifted = expand_cells(config, seed_offset=100)
        assert [c.master_seed for c in shifted] == [105, 106, 105, 106]

    def test_invalid_combination_reported(self):
        config = config_from_dict({"sweep": {"rank": [2, 0]}})
        with pytest.raises(ConfigError, match="invalid sweep cell"):
            expand_cells(config)


class TestValidateCell:
    def test_batch_size_capped_by_dataset(self):
        problem = build_problem(ProblemSpec(dataset_size=16))
        with pytest.raises(ConfigError, match="batch size"):
            validate_cell(problem, OptimizerConfig(batch_size=17))

    def test_rank_must_fit_best_geometry(self):
        problem = build_problem(ProblemSpec(layer_shapes=((6, 6),)))
        with pytest.raises(ConfigError, match="rank"):
            validate_cell(problem, OptimizerConfig(family="subzero", rank=7))
        validate_cell(problem, OptimizerConfig(family="subzero", rank=6))

    def test_relayout_can_rescue_a_rank(self):
        # (16, 4) natively supports rank 4 but reshapes to (8, 8)
        problem = build_problem(ProblemSpec(layer_shapes=((16, 4),)))
        validate_cell(problem, OptimizerConfig(family="subzero", rank=8,
                                               reshape="auto"))
        with pytest.raises(ConfigError):
            validate_cell(problem, OptimizerConfig(family="subzero", rank=8,
                                                   reshape="never"))

    def test_dense_projection_cap(self, monkeypatch):
        problem = build_problem(ProblemSpec(layer_shapes=((10, 10),)))
        monkeypatch.setattr(cli, "DENSE_ENTRY_CAP", 500)
        with pytest.raises(ConfigError, match="allocation cap"):
            validate_cell(problem, OptimizerConfig(
                family="spsa_dense_subspace", dense_q=6))
        validate_cell(problem, OptimizerConfig(
            family="spsa_dense_subspace", dense_q=5))


class TestCsvHelpers:
    def test_fmt_booleans_and_ints(self):
        assert _fmt(True) == "true"
        assert _fmt(False) == "false"
        assert _fmt(42) == "42"

    def test_fmt_floats_round_trip(self):
        for x in (math.pi, 1e-17, -3.25, 2.0 / 3.0):
            assert float(_fmt(x)) == x
        assert _fmt(math.nan) == "nan"

    def test_write_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), ("a", "b"), [(1, 0.5), (2, True)])
        assert read_rows(path) == [["a", "b"], ["1", "0.5"], ["2", "true"]]

    def test_smoothing_window(self):
        assert _smoothed([1.0, 2.0, 3.0, 4.0], window=2) == \
            [1.0, 1.5, 2.5, 3.5]
        assert _smoothed([5.0], window=3) == [5.0]


class TestVerifyCommand:
    def test_artifact_and_exit_code(self, tmp_path):
        raw = {"verify": {"n_mc": 250, "n_mc_bias": 250, "seed": 0}}
        path = write_config(tmp_path / "cfg.json", raw)
        rc = main(["verify", "--config", path, "--out", str(tmp_path / "out")])
        config = load_config(path)
        rows = read_rows(tmp_path / "out" /
                         f"verification_{config_hash(config)}.csv")
        assert rows[0] == list(VERIFY_COLUMNS)
        assert len(rows) == 1 + 15
        passes = [r[4] for r in rows[1:]]
        assert set(passes) <= {"true", "false"}
        assert rc == (0 if all(p == "true" for p in passes) else 1)

    def test_nested_out_dir_created(self, tmp_path):
        raw = {"verify": {"n_mc": 120, "n_mc_bias": 120}}
        path = write_config(tmp_path / "cfg.json", raw)
        deep = tmp_path / "a" / "b" / "c"
        main(["verify", "--config", path, "--out", str(deep)])
        assert any(p.name.startswith("verification_") for p in deep.iterdir())


class TestBenchCommand:
    def run_bench(self, tmp_path, raw, name, extra=()):
        path = write_config(tmp_path / f"{name}.json", raw)
        out = tmp_path / name
        rc = main(["bench", "--config", path, "--out", str(out), *extra])
        return rc, out, config_hash(load_config(path))

    def test_sweep_artifacts(self, tmp_path):
        rc, out, tag = self.run_bench(tmp_path, BENCH_RAW, "sweep")
        assert rc == 0
        summary = read_rows(out / f"summary_{tag}.csv")
        assert summary[0] == list(SUMMARY_COLUMNS)
        assert len(summary) == 1 + 4
        assert all(r[-1] == "ok" for r in summary[1:])
        assert [r[0] for r in summary[1:]] == [f"{tag}_{i:03d}" for i in range(4)]
        for i in range(4):
            rows = read_rows(out / f"run_{tag}_{i:03d}.csv")
            assert rows[0] == list(RUN_COLUMNS)
            assert len(rows) == 1 + 40
            assert [r[1] for r in rows[1:]] == [str(s) for s in range(40)]

    def test_deterministic_up_to_wall_clock(self, tmp_path):
        _, out1, tag = self.run_bench(tmp_path, BENCH_RAW, "first")
        _, out2, _ = self.run_bench(tmp_path, BENCH_RAW, "second")
        wall = RUN_COLUMNS.index("wall_ms")
        for i in range(4):
            a = read_rows(out1 / f"run_{tag}_{i:03d}.csv")
            b = read_rows(out2 / f"run_{tag}_{i:03d}.csv")
            for ra, rb in zip(a, b):
                assert ra[:wall] == rb[:wall]
        assert (out1 / f"summary_{tag}.csv").read_bytes() == \
            (out2 / f"summary_{tag}.csv").read_bytes()

    def test_worker_pool_matches_serial(self, tmp_path):
        _, serial, tag = self.run_bench(tmp_path, BENCH_RAW, "serial")
        _, pooled, _ = self.run_bench(tmp_path, BENCH_RAW, "pooled",
                                      extra=("--workers", "2"))
        assert (serial / f"summary_{tag}.csv").read_bytes() == \
            (pooled / f"summary_{tag}.csv").read_bytes()

    def test_seed_offset_lands_in_summary(self, tmp_path):
        rc, out, tag = self.run_bench(tmp_path, BENCH_RAW, "offset",
                                      extra=("--seed-offset", "30"))
        assert rc == 0
        summary = read_rows(out / f"summary_{tag}.csv")
        seed_col = SUMMARY_COLUMNS.index("master_seed")
        assert sorted(r[seed_col] for r in summary[1:]) == \
            ["35", "35", "36", "36"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_cell_fails_without_run_csv(self, tmp_path):
        # the rate must overflow the loss on the first big step: anything
        # smaller freezes instead, because the probe difference (linear in
        # the iterate) cancels below the loss's float resolution
        raw = {
            "problem": {"family": "quadratic", "layer_shapes": [[6, 6]],
                        "dataset_size": 64},
            "optimizer": {"steps": 60, "batch_size": 8, "rank": 2,
                          "schedule": "constant"},
            "sweep": {"learning_rate": [0.01, 1e200]},
        }
        rc, out, tag = self.run_bench(tmp_path, raw, "diverge")
        assert rc == 1
        summary = read_rows(out / f"summary_{tag}.csv")
        assert len(summary) == 1 + 2
        statuses = [r[-1] for r in summary[1:]]
        assert statuses[0] == "ok"
        assert statuses[1].startswith("failed:")
        assert (out / f"run_{tag}_000.csv").exists()
        assert not (out / f"run_{tag}_001.csv").exists()
        nan_final = summary[2][SUMMARY_COLUMNS.index("final_smoothed")]
        assert nan_final == "nan"

    THREE_CELLS = {**BENCH_RAW, "sweep": {"master_seed": [5, 6, 7]}}

    def test_unexpected_error_fails_only_its_cell(self, tmp_path, monkeypatch):
        train = cli.train

        def failing_train(problem, cell):
            if cell.master_seed == 6:
                raise ValueError("injected")
            return train(problem, cell)

        monkeypatch.setattr(cli, "train", failing_train)
        rc, out, tag = self.run_bench(tmp_path, self.THREE_CELLS, "contained")
        assert rc == 1
        summary = read_rows(out / f"summary_{tag}.csv")
        assert [r[-1] for r in summary[1:]] == ["ok", "failed: ValueError: injected", "ok"]
        assert sorted(p.name for p in out.glob("run_*.csv")) == \
            [f"run_{tag}_000.csv", f"run_{tag}_002.csv"]

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_interrupt_stops_the_sweep(self, tmp_path, monkeypatch, exc):
        def interrupted(problem, cell):
            raise exc()

        monkeypatch.setattr(cli, "train", interrupted)
        with pytest.raises(exc):
            self.run_bench(tmp_path, self.THREE_CELLS, "interrupted")
        assert not list((tmp_path / "interrupted").glob("summary_*.csv"))

    def test_invalid_cell_blocks_the_whole_sweep(self, tmp_path):
        raw = {
            "problem": {"family": "quadratic", "layer_shapes": [[6, 6]]},
            "optimizer": {"steps": 10, "batch_size": 8},
            "sweep": {"rank": [2, 20]},
        }
        path = write_config(tmp_path / "cfg.json", raw)
        out = tmp_path / "never"
        rc = main(["bench", "--config", path, "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("where", ["optimizer", "sweep"])
    def test_a_fractional_refresh_period_is_a_config_error(self, tmp_path, capsys,
                                                          where):
        # step % 1.5 == 0 would refresh every third step; it must not run
        raw = {
            "problem": {"family": "quadratic", "layer_shapes": [[6, 6]]},
            "optimizer": {"steps": 4, "batch_size": 8, "rank": 2},
        }
        if where == "optimizer":
            raw["optimizer"]["refresh_period"] = 1.5
        else:
            raw["sweep"] = {"refresh_period": [2, 1.5]}
        path = write_config(tmp_path / "cfg.json", raw)
        out = tmp_path / "never"
        rc = main(["bench", "--config", path, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()


class TestEstimateCommand:
    def test_rows_per_family(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", BENCH_RAW)
        out = tmp_path / "diag"
        rc = main(["estimate", "--config", path, "--out", str(out)])
        assert rc == 0
        tag = config_hash(load_config(path))
        rows = read_rows(out / f"diagnostics_{tag}.csv")
        assert rows[0] == list(DIAG_COLUMNS)
        assert [r[0] for r in rows[1:]] == ["subzero", "spsa_full",
                                            "spsa_dense_subspace"]
        assert [r[1] for r in rows[1:]] == ["4", "36", "8"]
        assert all(r[4] == "40" for r in rows[1:])

    def test_empty_family_list_is_config_error(self, tmp_path):
        path = write_config(tmp_path / "cfg.json",
                            {"estimate": {"families": []}})
        rc = main(["estimate", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unknown_family_is_config_error(self, tmp_path):
        path = write_config(
            tmp_path / "cfg.json",
            {"estimate": {"families": [{"family": "adam"}], "n_mc": 5}})
        rc = main(["estimate", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("estimate", [
        {"families": [{"family": "subzero", "rank": 9}]},
        {"families": [{"family": "subzero", "rank": 0}]},
        {"families": [{"family": "spsa_dense_subspace", "dense_q": 0}]},
        {"n_mc": 0},
        {"epsilon": 0.0},
        {"epsilon": -1e-3},
        {"epsilon": float("nan")},
    ], ids=["rank_over_4x4", "rank_zero", "dense_q_zero", "n_mc_zero",
            "epsilon_zero", "epsilon_negative", "epsilon_nan"])
    def test_bad_family_settings_are_config_errors(self, tmp_path, capsys,
                                                   estimate):
        # vetted like bench cells: no clamped rank, no traceback, no output
        path = write_config(tmp_path / "cfg.json", {
            "problem": {"family": "quadratic", "layer_shapes": [[4, 4]],
                        "dataset_size": 16},
            "estimate": {"n_mc": 5, **estimate}})
        rc = main(["estimate", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verify", [
        {"n_mc": 0}, {"n_mc": -5}, {"n_mc_bias": 0}, {"n_mc_bias": -1},
    ], ids=["n_mc_zero", "n_mc_negative", "n_mc_bias_zero", "n_mc_bias_negative"])
    def test_bad_verify_settings_are_config_errors(self, tmp_path, capsys, verify):
        path = write_config(tmp_path / "cfg.json",
                            {"verify": {"n_mc": 5, "n_mc_bias": 5, **verify}})
        rc = main(["verify", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["bench", "estimate"])
@pytest.mark.parametrize("problem", [
    {"layer_shapes": [[0, 3]]},
    {"layer_shapes": [[3, 3, 3]]},
    {"dataset_size": 0},
    {"dataset_size": -5},
    {"family": "mlp", "hidden": [0]},
    {"family": "mlp", "n_features": 0},
    {"lam_max": 0},
    {"kappa": -1},
    {"flip_fraction": -0.1},
    {"flip_fraction": 1.5},
    {"l2": -1e-3},
    {"noise": -0.05},
    {"dataset_size": 16.5},
    {"family": "mlp", "n_features": 6.0},
    {"family": "mlp", "n_outputs": 4.5},
    {"family": "mlp", "hidden": [8.5]},
], ids=["shape_zero", "shape_three_dims", "dataset_size_zero",
        "dataset_size_negative", "hidden_zero", "n_features_zero",
        "lam_max_zero", "kappa_negative", "flip_fraction_negative",
        "flip_fraction_over_one", "l2_negative", "noise_negative",
        "dataset_size_float", "n_features_float", "n_outputs_float",
        "hidden_float"])
def test_bad_problem_sections_are_config_errors(tmp_path, capsys, command, problem):
    # refused when the config is read: exit 2, no traceback, nothing written
    path = write_config(tmp_path / "cfg.json", {
        "problem": {"family": "quadratic", "layer_shapes": [[4, 4]],
                    "dataset_size": 16, **problem},
        "optimizer": {"steps": 5, "batch_size": 4, "rank": 2},
        "estimate": {"n_mc": 5}})
    rc = main([command, "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: bad problem section")
    assert not (tmp_path / "o").exists()


class TestMainEntry:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["tune"])
        assert exc.value.code == 2

    def test_bad_config_path_is_exit_two(self, tmp_path):
        rc = main(["verify", "--config", str(tmp_path / "no.json"),
                   "--out", str(tmp_path)])
        assert rc == 2
