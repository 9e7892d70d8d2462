"""The package's public names: ``cotriad.__all__`` lists only what exists."""

import cotriad


def test_every_exported_name_resolves():
    assert [name for name in cotriad.__all__ if not hasattr(cotriad, name)] == []
    assert len(set(cotriad.__all__)) == len(cotriad.__all__)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from cotriad import *", namespace)
    assert set(cotriad.__all__) <= namespace.keys()
