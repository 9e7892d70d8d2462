"""The package's public names: ``cotriad.__all__`` lists only what exists;
what importing it loads; and that no run starts a thread."""

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


def test_no_run_starts_a_thread():
    # A fresh interpreter, so that no earlier test's imports or threads count.
    script = """
import sys, threading
before = threading.active_count()
import cotriad
assert "concurrent.futures" not in sys.modules, "concurrent.futures imported"
from cotriad.data import gen_synthetic_two_view, split_by_counts
ds = gen_synthetic_two_view(300, 3, 6, 5, view_noise=0.5, seed=4)
ds = split_by_counts(ds, n_labeled=30, n_validation=6, n_test=40, seed=4)
settings = dict(epochs=1, labeled_batch=8, unlabeled_ratio=3, hidden=8, mc_passes=3, seed=2)
runs = {
    "3-step": dict(perturb=cotriad.PerturbConfig(epsilon=0.2, steps=3, step_size=0.05)),
    "fgsm": dict(perturb=cotriad.PerturbConfig(epsilon=0.2, steps=1)),
    "supervised": dict(unsup_enabled=False, adv_enabled=False, teacher_enabled=False),
}
for name, changes in runs.items():
    cotriad.run_training(cotriad.TrainConfig(**settings, **changes), ds)
    assert threading.active_count() == before, (name, threading.enumerate())
"""
    src = str(Path(cotriad.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
