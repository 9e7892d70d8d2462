"""The views' generator blocks on the worker thread: fork safety, context,
errors, and which runs start the thread."""

import hashlib
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest

from cotriad import engine, parallel
from cotriad.cli import main
from cotriad.data import gen_synthetic_two_view, split_by_counts
from cotriad.engine import TrainConfig, run_training
from cotriad.generator import PerturbConfig

SRC = Path(__file__).resolve().parents[1] / "src"


def two_cpus():
    """Take the threaded path even where fewer CPUs are usable."""
    return mock.patch.object(parallel, "usable_cpus", lambda: 2)


def tiny_run(**changes):
    # Views of different widths tell the two students apart by d_in.
    ds = gen_synthetic_two_view(300, 3, 6, 5, view_noise=0.5, seed=4)
    ds = split_by_counts(ds, n_labeled=30, n_validation=6, n_test=40, seed=4)
    settings = dict(
        epochs=1, labeled_batch=8, unlabeled_ratio=3, hidden=8, mc_passes=3, seed=2,
        perturb=PerturbConfig(epsilon=0.2, steps=3, step_size=0.05),
    )
    return run_training(TrainConfig(**{**settings, **changes}), ds)


def digest(rep) -> str:
    h = hashlib.sha256()
    for p in rep.students:
        h.update(p.vector.tobytes())
    h.update(rep.teacher.z.tobytes())
    return h.hexdigest()


def test_forked_child_trains_with_its_own_worker():
    with two_cpus():
        expected = digest(tiny_run())  # starts the parent's worker
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: report the digest, or die on the alarm
            code = 1
            try:
                os.close(read_end)
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
                signal.alarm(20)
                os.write(write_end, digest(tiny_run()).encode())
                code = 0
            finally:
                os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        got = fh.read().decode()
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status), f"child killed by signal {os.WTERMSIG(status)}"
    assert os.WEXITSTATUS(status) == 0
    assert got == expected


# At eta 1e50 view 1's hidden layer and output layer overflow before the run
# stops on a non-finite loss; at 1e6 its block stays finite.
@pytest.mark.parametrize("eta", ["1e6", "1e50"])
def test_worker_keeps_the_cli_errstate(tmp_path, eta):
    from test_acceptance import TINY_CFG

    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--train.eta", eta, "--perturb.steps", "3"]
    with two_cpus(), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        main(argv)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


class ViewError(Exception):
    pass


@pytest.mark.parametrize("failing, raised", [({6, 5}, 6), ({5}, 5)])
def test_view_0_error_first_and_the_next_call_works(failing, raised):
    attack = engine.pgd_perturb_batch

    def fails(params, *args):
        if params.d_in in failing:
            raise ViewError(params.d_in)
        return attack(params, *args)

    with two_cpus():
        with mock.patch.object(engine, "pgd_perturb_batch", fails):
            with pytest.raises(ViewError) as err:
                tiny_run()
        assert err.value.args == (raised,)
        threaded = tiny_run()
    with mock.patch.object(parallel, "usable_cpus", lambda: 1):
        assert digest(threaded) == digest(tiny_run())


def test_single_step_and_supervised_runs_start_no_thread():
    # A fresh interpreter, so that no earlier test has started the worker.
    script = """
import threading
before = threading.active_count()
import cotriad
from cotriad import parallel
from test_parallel import tiny_run
parallel.usable_cpus = lambda: 2
tiny_run(perturb=cotriad.PerturbConfig(epsilon=0.2, steps=1))
tiny_run(unsup_enabled=False, adv_enabled=False, teacher_enabled=False)
assert threading.active_count() == before, threading.enumerate()
tiny_run()
assert threading.active_count() == before + 1, threading.enumerate()
"""
    path = os.pathsep.join([str(SRC), str(Path(__file__).parent)])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
