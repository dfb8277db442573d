"""The package's public names: ``__all__`` and the star import agree."""

import subzero


def test_every_exported_name_resolves_once():
    assert len(subzero.__all__) == len(set(subzero.__all__))
    missing = [name for name in subzero.__all__ if not hasattr(subzero, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from subzero import *", namespace)
    assert set(subzero.__all__) <= set(namespace)
