"""The line counter and the mutation list in ``tools/``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_line_counter_counts_code_and_sums_its_modules(tmp_path):
    # the package's modules, then a sample of 4 code lines among a module
    # docstring, a function docstring, comments, blanks and a string that
    # is not a docstring
    sample = tmp_path / "sample.py"
    sample.write_text('"""Module\ndocstring."""\n\n# a comment\n'
                      'def f(x):  # counted\n    """Doc."""\n\n'
                      '    s = """two\nlines"""\n    return s\n')
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "loc.py"),
                           str(ROOT / "src" / "subzero"), str(sample)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *modules, total = proc.stdout.splitlines()
    counts = {line.split()[1]: int(line.split()[0]) for line in modules}
    assert len(counts) == len(list((ROOT / "src" / "subzero").glob("*.py"))) + 1
    assert counts[str(sample)] == 4
    assert total == f"total {sum(counts.values())}"


def test_each_mutant_still_applies_and_names_tests_that_exist():
    # tools/mutants.py cannot rot silently: each entry's old text occurs
    # once in its file, and each test it must fail is defined (the
    # mutants themselves are run by the tool, not here)
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS) >= 10
    for m in mutants.MUTANTS:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
        assert m.old != m.new and m.kills, m.name
        for test in m.kills:
            path, *names = test.split("::")
            assert f"def {names[-1].split('[')[0]}(" in (ROOT / path).read_text(), test
