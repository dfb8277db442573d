"""Mutation checks: each entry breaks the program on purpose in a copy and
names the tests that must then fail.

An entry is a file (relative to the root of a checkout), an exact old text
that occurs once in it, its replacement, and the ids of the tests that must
fail.  For each entry the tool copies the checkout's ``src``, ``tests``,
``tools``, ``perfbench``, ``pyproject.toml`` and ``BENCHMARK.json`` into a
temporary directory, makes the replacement there and runs pytest on the
entry's tests alone.  The mutant is killed when every one of them fails.
The checkout itself is never written, and nothing is fetched.

Run from the root of a checkout:

    python3 tools/mutants.py [--full] [NAME ...]

Each NAME selects an entry (all of them by default).  It prints one line
per entry, ``killed`` or ``SURVIVED`` (with the tests that passed) and the
entry's run time, then the total run time; the exit status is 1 when a
mutant survives or its tests cannot run.  ``--full`` runs the whole suite
on each mutant instead and prints every test that fails, which is how an
entry's tests are chosen.
"""
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from shutil import copy2, copytree, ignore_patterns
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "perfbench", "pyproject.toml", "BENCHMARK.json")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    kills: tuple


_P = "src/subzero/perturbation.py"
_DRAWN = "tests/test_perturbation.py::TestDrawnDirection::"
_KEPT = "tests/test_perturbation.py::TestKeptLayers::"
_STREAMED = "tests/test_perturbation.py::TestStreamedReplay::"
_BIAS = "tests/test_problems.py::TestMlp::test_bias_blocks_add_what_a_broadcast_adds"
_INJECT = "tests/test_optimizer.py::test_failed_pass_leaves_params_where_it_found_them"
_DIGEST = ("tests/test_determinism.py::"
           "test_digest_tool_prints_six_sections_and_a_combined_hash")
_MISFIT = "tests/test_verification.py::test_pairs_not_one_per_layer_are_a_shape_error"
_V = "src/subzero/verification.py"
_GUARD = "tests/test_verification.py::TestBlockGuard::"
_PROJECTED = "tests/test_verification.py::TestProjectedGradient::"
_EXPECT = "tests/test_verification.py::TestExpectationIdentity::"
_NORM = "tests/test_verification.py::TestProjectedGradientNorm::"

MUTANTS = (
    # draw_direction's walk
    Mutant("run-not-broken-at-replayed-layer", _P,
           "while end < len(pairs) and not (replayed and pairs[end] is None):",
           "while end < len(pairs):",
           (_DRAWN + "test_a_replayed_vector_layer_ends_a_run",)),
    Mutant("aligned-scale-dropped", _P,
           "z *= math.sqrt(u.shape[0] * v.shape[0]) / r", "z *= 1.0",
           (_DRAWN + "test_z_scales_multiply_each_matrix_core_as_drawn",
            "tests/test_perturbation.py::TestAlignment::test_factor_formula")),
    Mutant("budget-read-as-entries", _P,
           "if formed + w.size > _KEPT_BYTES // 8:",
           "if formed + w.size > _KEPT_BYTES:",
           (_KEPT + "test_train_mlp_wide_keeps_no_4096_entry_delta",
            _KEPT + "test_small_layers_are_kept_in_layer_order_within_the_budget")),
    Mutant("vectors-kept-past-the-largest-matrix-layer", _P,
           "replayed = not 0 < vectors <= largest", "replayed = not 0 < vectors",
           (_DRAWN + "test_vectors_beyond_the_largest_matrix_layer_are_not_drawn",
            _KEPT + "test_spsa_full_forms_nothing_and_replays_every_layer")),
    Mutant("vectors-at-the-largest-matrix-layer-replayed", _P,
           "replayed = not 0 < vectors <= largest",
           "replayed = not 0 < vectors < largest",
           (_DRAWN + "test_vectors_beyond_the_largest_matrix_layer_are_not_drawn",)),
    Mutant("replayed-range-not-skipped", _P,
           "stream.skip(size)", "stream.skip(0)",
           (_DRAWN + "test_a_replayed_vector_layer_ends_a_run",
            _KEPT + "test_spsa_full_forms_nothing_and_replays_every_layer")),
    Mutant("kept-layer-formed-by-matmul", _P,
           "values = u.dot(z.dot(v.T))", "values = u @ z @ v.T",
           (_DIGEST,)),
    Mutant("pair-geometry-unchecked", _P,
           "if w.size != u.shape[0] * v.shape[0]:", "if False:",
           ("tests/test_perturbation.py::TestIterPerturbationLayers::"
            "test_geometry_size_mismatch_raises",)),
    # a direction applied to parameters it was not drawn for
    Mutant("direction-layer-count-unchecked", _P,
           "if len(seed.layers) != len(params):", "if False:",
           (_DRAWN + "test_a_direction_for_fewer_layers_raises",)),
    Mutant("kept-layer-shape-unchecked", _P,
           "elif delta.shape != w.shape:", "elif False:",
           (_DRAWN + "test_a_kept_layer_of_another_shape_raises",)),
    # the streamed replay of a pass's vector layers
    Mutant("replay-chunk-not-scaled", _P,
           "self.chunk *= self.coeff", "self.chunk *= 1.0",
           (_STREAMED + "test_streamed_passes_equal_the_whole_delta_replay_bit_for_bit",
            _DIGEST)),
    Mutant("replay-chunk-continued-across-a-gap", _P,
           "type(layers[i]) is int and layers[i] == end", "type(layers[i]) is int",
           (_STREAMED + "test_a_chunk_does_not_continue_across_a_gap",)),
    # the MLP forward's bias blocks
    Mutant("bias-last-partial-block-skipped", "src/subzero/problems.py",
           "range(0, len(h), rows)", "range(0, len(h) - rows + 1, rows)",
           (_BIAS + "[1x8]", _BIAS + "[37x24]")),
    # the passes and the step
    Mutant("kept-arrays-left-writeable", _P,
           "layer.setflags(write=False)", "pass",
           (_KEPT + "test_kept_storage_cannot_be_corrupted",
            "tests/test_optimizer.py::TestExactSgdDirection::"
            "test_the_direction_is_the_gradient_arrays_read_only[quadratic]")),
    Mutant("rollback-disabled", _P,
           "        if done:\n            prefix", "        if False:\n            prefix",
           (_INJECT + "[probe-pass0-layer1-ShapeError]",
            _INJECT + "[sgd_step-pass0-layer2-MemoryError]",
            _DRAWN + "test_a_kept_layer_of_another_shape_raises")),
    Mutant("update-coefficient-one-ulp", "src/subzero/optimizer.py",
           "coeff = -(lr * rho)", "coeff = math.nextafter(-(lr * rho), math.inf)",
           (_DIGEST,)),
    Mutant("held-layer-written-by-the-update", "src/subzero/optimizer.py",
           "axpy_perturbation(params, state.pairs, direction, coeff, held)",
           "axpy_perturbation(params, state.pairs, direction, coeff)",
           ("tests/test_optimizer.py::test_a_step_is_one_probe_then_one_update_pass"
            "[subzero-held]",)),
    # the stream and the verification battery
    Mutant("stream-counter-off-by-one", "src/subzero/numcore.py",
           "out = _draw(self._key, self._index, n)",
           "out = _draw(self._key, self._index + 1, n)",
           ("tests/test_determinism.py::test_stream_values_are_pinned[0]",)),
    Mutant("layers-stacked-row-major", "src/subzero/numcore.py",
           'parts.append(w.ravel(order="F"))', "parts.append(w.ravel())",
           ("tests/test_numcore.py::TestStacking::test_column_major_per_layer",)),
    Mutant("block-rows-stacked-row-major", "src/subzero/numcore.py",
           ".swapaxes(1, -1)", "",
           ("tests/test_numcore.py::TestStacking::"
            "test_rows_stack_as_stack_params_bit_for_bit[1-c_order]",
            _GUARD + "test_guard_covers_only_the_first_64_samples")),
    Mutant("block-guard-off", _V, "if failed.any():", "if False:",
           (_GUARD + "test_one_corrupt_row_fires[flipped_sign]",
            _GUARD + "test_the_guard_fails_the_rows_the_per_row_loop_fails"
            "[rows-5-and-9-flipped]")),
    Mutant("guard-compares-the-next-rows", _V,
           "np.multiply(delta[:k], est_rho[:, None])",
           "np.multiply(delta[1:k + 1], est_rho[:, None])",
           (_GUARD + "test_guard_covers_only_the_first_64_samples",
            _GUARD + "test_the_guard_fails_the_rows_the_per_row_loop_fails"
            "[below-or-unguarded]")),
    Mutant("guard-rho-allowance-dropped", _V,
           "> _GUARD_RHO_UNITS * floor", "> 0.0 * floor",
           (_GUARD + "test_guard_covers_only_the_first_64_samples",)),
    # the layer-wise targets (test_01's cores are 1x1, so it misses the first)
    Mutant("expectation-target-core-transposed", _V,
           "(p.u @ core @ p.v.T)", "(p.u @ core.T @ p.v.T)",
           (_PROJECTED + "test_matches_the_materialized_projector[10]",
            _EXPECT + "test_passes_on_low_rank_quadratic")),
    Mutant("projection-reads-the-layer-shape", _V,
           "g.reshape(p.shape.rows, p.shape.cols)", "g",
           (_EXPECT + "test_passes_on_relayout_pairs[3]",
            _NORM + "test_reshaped_pair_uses_its_own_geometry")),
    Mutant("projection-reads-column-major", _V,
           "g.reshape(p.shape.rows, p.shape.cols)",
           'g.reshape(p.shape.rows, p.shape.cols, order="F")',
           (_EXPECT + "test_passes_on_relayout_pairs[3]",
            _EXPECT + "test_passes_on_relayout_pairs[4]",
            _NORM + "test_reshaped_pair_uses_its_own_geometry")),
    Mutant("verification-pair-geometry-unchecked", _V,
           "if p is not None and w.size != p.shape.size:", "if False:",
           (_MISFIT + "[expectation_identity-misfit]",
            _MISFIT + "[diagnostics_subzero-misfit]")),
    Mutant("battery-pairs-seed-shifted", _V,
           "_TAG_PAIRS, i)", "_TAG_PAIRS, i + 1)",
           (_DIGEST, "tests/test_verification.py::TestBattery::"
            "test_battery_cell_uses_pinned_generator")),
    Mutant("battery-step-seed-shifted", _V,
           "derive_seeds(masters, _TAG_STEP, last=t)",
           "derive_seeds(masters, _TAG_STEP, last=t + 1)",
           ("tests/test_verification.py::TestConvergence::"
            "test_block_positions_follow_the_trainer[34-shapes0]",)),
    # the quadratic's H: formed without BLAS, so no digest section moves with
    # the BLAS thread count, and read as its symmetric part
    Mutant("quadratic-h-through-blas", "src/subzero/problems.py",
           'np.einsum("ik,jk->ij", q * lams, q)', "(q * lams) @ q.T",
           ("tests/test_determinism.py::test_blas_thread_count_moves_no_trajectory",
            _DIGEST)),
    Mutant("quadratic-h-not-symmetrized", "src/subzero/problems.py",
           "self.h = 0.5 * (self.h + self.h.T)", "pass",
           ("tests/test_problems.py::TestQuadratic::"
            "test_an_asymmetric_h_is_read_as_its_symmetric_part",)),
)


def copy_checkout(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            copytree(source, dest / name, ignore=ignore_patterns("__pycache__", "out"))
        else:
            copy2(source, dest / name)


def failing_tests(checkout: Path, ids: tuple) -> tuple[int, set[str], str]:
    """Run pytest on ``ids`` (the whole suite when empty) in ``checkout``:
    its exit status, the ids that failed or errored, and its output."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *ids],
        cwd=checkout, capture_output=True, text=True, timeout=900,
        env={**os.environ, "PYTHONPATH": str(checkout / "src"),
             "PYTHONDONTWRITEBYTECODE": "1"})
    failed = {line.split(" ", 1)[1].split(" - ")[0]
              for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return proc.returncode, failed, proc.stdout + proc.stderr


def check(mutant: Mutant, full: bool) -> bool:
    """Apply ``mutant`` in a temporary copy and report it; true when it
    is killed (or, with ``full``, when some test fails)."""
    begin = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp)
        copy_checkout(checkout)
        target = checkout / mutant.path
        source = target.read_text()
        if source.count(mutant.old) != 1:
            print(f"{mutant.name}: ERROR old text occurs {source.count(mutant.old)} times")
            return False
        target.write_text(source.replace(mutant.old, mutant.new))
        status, failed, output = failing_tests(checkout, () if full else mutant.kills)
    seconds = time.perf_counter() - begin
    if full:
        print(f"{mutant.name}: {len(failed)} fail ({seconds:.1f} s)")
        for test in sorted(failed):
            print(f"    {test}")
        return bool(failed)
    if status not in (0, 1):
        print(f"{mutant.name}: ERROR pytest exit status {status} ({seconds:.1f} s)")
        print(output[-2000:])
        return False
    passed = [test for test in mutant.kills if test not in failed]
    verdict = "SURVIVED, passing: " + " ".join(passed) if passed else "killed"
    print(f"{mutant.name}: {verdict} ({seconds:.1f} s)")
    return not passed


def main(argv: list[str]) -> int:
    full = "--full" in argv
    names = [arg for arg in argv if arg != "--full"]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    begin = time.perf_counter()
    results = [check(m, full) for m in MUTANTS if not names or m.name in names]
    print(f"{sum(results)} of {len(results)} killed in "
          f"{time.perf_counter() - begin:.0f} s")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
