"""The package's public names: ``__all__`` and the star import agree, and
every name the acceptance suite imports is still there."""

import ast
import importlib
from pathlib import Path

import subzero

ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def _acceptance_imports():
    """``(module, name)`` for each name ``test_acceptance.py`` imports from
    the package."""
    tree = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "subzero"
            for alias in node.names]


def test_every_exported_name_resolves_once():
    assert len(subzero.__all__) == len(set(subzero.__all__))
    missing = [name for name in subzero.__all__ if not hasattr(subzero, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from subzero import *", namespace)
    assert set(subzero.__all__) <= set(namespace)


def test_acceptance_imports_from_the_package_are_exported():
    names = [name for module, name in _acceptance_imports() if module == "subzero"]
    assert names
    assert [name for name in names if name not in subzero.__all__] == []


def test_acceptance_imports_from_submodules_resolve():
    pairs = [(module, name) for module, name in _acceptance_imports()
             if module != "subzero"]
    assert pairs
    missing = [f"{module}.{name}" for module, name in pairs
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
