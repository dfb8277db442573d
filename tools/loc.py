"""Count the code lines of Python modules: lines that hold a token other
than a comment or a docstring.  Blank lines, comment lines and the lines of
module, class and function docstrings are not counted; a line with code and
a trailing comment is.

Run from the root of a checkout:

    python3 tools/loc.py [PATH ...]

Each PATH is a module or a directory, whose ``*.py`` files are counted
(``src/subzero`` by default).  It prints one line per module, its code line
count and its path, then the total as ``total <n>`` on the last line.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docs)


def modules(paths: list[Path]) -> list[Path]:
    found = []
    for path in paths:
        found.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str]) -> None:
    paths = [Path(arg) for arg in argv] or [ROOT / "src" / "subzero"]
    total = 0
    for module in modules(paths):
        count = code_lines(module.read_text())
        total += count
        print(f"{count:6d} {module}")
    print(f"total {total}")


if __name__ == "__main__":
    main(sys.argv[1:])
