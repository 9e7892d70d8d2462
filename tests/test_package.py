"""The package's public names: ``cotriad.__all__`` lists only what exists;
and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import cotriad


def test_every_exported_name_resolves():
    assert [name for name in cotriad.__all__ if not hasattr(cotriad, name)] == []
    assert len(set(cotriad.__all__)) == len(cotriad.__all__)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from cotriad import *", namespace)
    assert set(cotriad.__all__) <= namespace.keys()


def test_import_loads_no_scipy():
    src = str(Path(cotriad.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, cotriad; assert 'scipy' not in sys.modules, 'scipy imported'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
