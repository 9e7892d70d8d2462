"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The desk-scale learning
criteria pin their task and seeds explicitly so every number here is
bit-reproducible.
"""

import itertools
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from cotriad.cli import main as cli_main
from cotriad.data import (
    UNLABELED,
    gen_synthetic_two_view,
    load_embedding_file,
    read_embeddings,
    read_labels,
    split_by_counts,
    write_embeddings,
    write_labels,
    write_labels_csv,
    write_matrix_csv,
)
from cotriad.engine import (
    TrainConfig,
    cost_summary,
    load_model,
    run_training,
    save_model,
)
from cotriad.game import (
    GameProfile,
    nash_residual,
    stackelberg_residual,
)
from cotriad.gradcheck import run_all
from cotriad.generator import PerturbConfig, fixed_point_residual, pgd_perturb_batch
from toy_game import alternating_best_response, toy_game
from cotriad.student import (
    StudentParams,
    init_student,
    input_entropy_grad,
    mc_forward_batch,
)
from cotriad.teacher import TeacherStrategy, should_stop, stability_score, teacher_step
from cotriad.uncertainty import batch_statistics, impurity, mi_filter

LN2 = 0.69314718055994530942


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


# ---------------------------------------------------------------------------
# Shared desk-scale learning runs (criterion 5 + criterion 6b reuse them).

LEARNING_SEEDS = (1, 2, 3, 4, 5)


def learning_task(seed):
    ds = gen_synthetic_two_view(2540, 4, 16, 16, view_noise=0.6, seed=100 + seed)
    return split_by_counts(ds, n_labeled=40, n_validation=4, n_test=500, seed=100 + seed)


def full_config(seed):
    """The desk-scale full configuration: every component active."""
    return TrainConfig(
        epochs=160,
        lr=0.1,
        dropout=0.3,
        seed=seed,
        filter_mode="mi_conf",
        filter_direction="below",
        tau_conf=0.9,
        perturb=PerturbConfig(epsilon=0.25, steps=1),
    )


def supervised_config(seed):
    return TrainConfig(
        epochs=160,
        lr=0.1,
        dropout=0.3,
        seed=seed,
        unsup_enabled=False,
        adv_enabled=False,
        teacher_enabled=False,
    )


def no_generator_config(seed):
    """The full configuration without the adversarial term (criterion 6)."""
    return TrainConfig(
        epochs=160, lr=0.1, dropout=0.3, seed=seed,
        filter_mode="mi_conf", filter_direction="below", tau_conf=0.9,
        perturb=PerturbConfig(epsilon=0.25, steps=1), adv_enabled=False,
    )


def converged_task():
    ds = gen_synthetic_two_view(1200, 4, 16, 16, view_noise=0.25, seed=21)
    return split_by_counts(ds, 200, 20, 200, seed=21)


def converged_config():
    """A long run on an easy task (criterion 7)."""
    return TrainConfig(
        epochs=600, lr=0.2, dropout=0.2, seed=3,
        filter_mode="mi_conf", filter_direction="below", tau_conf=0.9,
        perturb=PerturbConfig(epsilon=0.05, steps=1),
    )


# BLAS reads its thread count when numpy is imported, so this environment
# reaches the worker processes spawned under it and not this process.
ONE_BLAS_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


@pytest.fixture(scope="module")
def long_runs():
    """Every long training run of this module, submitted at once to two
    spawned worker processes; each value is the future of its report.
    Results are bit-identical to in-process runs (see TestGoldenDigest in
    test_engine.py on BLAS threads)."""
    jobs = {"converged": (converged_config(), converged_task())}  # the longest first
    for seed in LEARNING_SEEDS:
        ds = learning_task(seed)
        jobs[seed, "full"] = (full_config(seed), ds)
        jobs[seed, "supervised"] = (supervised_config(seed), ds)
    for seed in (1, 2, 3):
        jobs[seed, "no_generator"] = (no_generator_config(seed), learning_task(seed))
    pool = ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn"))
    try:
        with mock.patch.dict(os.environ, ONE_BLAS_THREAD):
            futures = {key: pool.submit(run_training, *job) for key, job in jobs.items()}
        yield futures
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


@pytest.fixture(scope="module")
def learning_runs(long_runs):
    started = time.time()
    runs = {}
    for seed in LEARNING_SEEDS:
        runs[seed] = {
            "ds": learning_task(seed),
            "full": long_runs[seed, "full"].result(),
            "supervised": long_runs[seed, "supervised"].result(),
        }
    runs["elapsed"] = time.time() - started
    return runs


class TestCriterion1Gradients:
    def test_gradient_suites(self):
        with criterion(1, "analytic gradients match finite differences"):
            started = time.time()
            results = run_all(100)
            elapsed = time.time() - started
            for res in results:
                assert res.instances >= 100
                assert res.passed, f"{res.name}: max normalized deviation {res.max_ratio}"
            assert {r.name: r.rtol for r in results} == {
                "student": 1e-5,
                "generator": 1e-5,
                "meta": 1e-4,
            }
            assert elapsed < 60.0, f"gradient suites took {elapsed:.1f}s"


class TestCriterion2MutualInformation:
    def test_mi_properties(self):
        with criterion(2, "mutual information identities and bounds"):
            # Zero dropout collapses the estimate to zero exactly.
            for seed in range(5):
                params = init_student(6, 8, 4, dropout_rate=0.0, seed=seed)
                probs = mc_forward_batch(
                    params, np.random.default_rng(seed).normal(size=(1, 6)), 5, seed=seed
                )
                assert batch_statistics(probs).mi[0] <= 1e-12
            # Bounds over ten thousand random sample sets.
            rng = np.random.default_rng(11)
            total = 0
            for c in (2, 3, 4, 5, 6):
                probs = rng.dirichlet(np.ones(c), size=(5, 2000))
                stats = batch_statistics(probs)
                assert np.all(stats.mi >= 0.0)
                assert np.all(stats.mi <= math.log(c) + 1e-9)
                total += 2000
            assert total == 10_000
            # Maximal two-sample disagreement gives ln 2 exactly.
            stats = batch_statistics(np.array([[[1.0, 0.0]], [[0.0, 1.0]]]))
            assert abs(stats.mi[0] - LN2) <= 1e-12


class TestCriterion3Perturbations:
    def test_perturbation_properties(self, learning_runs):
        with criterion(3, "attack budget, sign step, fixed point, robustness order"):
            rng = np.random.default_rng(4)
            attacks = 0
            for cfg, n in [
                (PerturbConfig(epsilon=1.0, steps=1), 4000),
                (PerturbConfig(epsilon=0.5, steps=5, step_size=0.1), 3000),
                (PerturbConfig(epsilon=0.25, steps=10, step_size=0.05, gamma=0.2, mi_passes=3), 3000),
            ]:
                params = init_student(6, 8, 3, dropout_rate=0.3, seed=attacks)
                x = rng.normal(size=(n, 6))
                delta = pgd_perturb_batch(params, x, cfg, lambda: np.random.default_rng(8))
                assert np.abs(delta).max() <= cfg.epsilon + 1e-12
                attacks += n
            assert attacks == 10_000
            # Single-step attack equals the sign move bit-exactly.
            params = init_student(6, 8, 3, dropout_rate=0.0, seed=3)
            x = rng.normal(size=(200, 6))
            _, grad = input_entropy_grad(params, x)
            assert np.all(grad != 0.0)
            delta = pgd_perturb_batch(params, x, PerturbConfig(epsilon=0.7, steps=1))
            np.testing.assert_array_equal(delta, 0.7 * np.sign(grad))
            # Fifty-step ascent reaches the fixed point on the toy model.
            toy_rng = np.random.default_rng(3)
            w1, w2 = toy_rng.normal(size=(4, 6)), toy_rng.normal(size=(6, 3))
            toy = StudentParams(
                np.concatenate((w1.ravel(), np.zeros(6), w2.ravel(), np.zeros(3))), (4, 6, 3), 0.0
            )
            x = np.random.default_rng(8).normal(size=(64, 4))
            attack = PerturbConfig(epsilon=0.02, steps=50, step_size=0.002)
            delta = pgd_perturb_batch(toy, x, attack)
            assert fixed_point_residual(toy, x, delta, attack).max() < 1e-3
            # Robust accuracy never exceeds clean accuracy on any evaluation.
            for seed in LEARNING_SEEDS:
                for arm in ("full", "supervised"):
                    ev = learning_runs[seed][arm].final_eval
                    assert ev["pgd_robust_accuracy"] <= ev["accuracy"]


class TestCriterion4TeacherConstraints:
    def test_constraints_and_stopping(self):
        with criterion(4, "strategy constraints, stability score, early stop"):
            rng = np.random.default_rng(9)
            violations = 0
            for _ in range(10_000):
                strategy = TeacherStrategy(z=rng.normal(scale=5.0, size=3))
                stepped = teacher_step(strategy, rng.normal(scale=100.0, size=3))
                tau, lam_u, lam_adv = stepped.mapped()
                ok = (
                    0.0 <= tau <= 1.0
                    and 0.0 <= lam_u <= 1.0
                    and 0.0 <= lam_adv <= 1.0
                    and lam_u + lam_adv <= 1.0 + 1e-12
                )
                violations += 0 if ok else 1
            assert violations == 0
            assert stability_score([(0.05, 0.5, 0.5)] * 10) == 0.0
            # Converging synthetic trace: the stop rule fires at the first
            # epoch whose trailing `patience` scores all qualify.
            scores = [0.1 * (0.2**k) for k in range(12)]
            first_below = next(i for i, v in enumerate(scores) if v < 1e-4)
            fired = [t for t in range(1, len(scores) + 1) if should_stop(scores[:t], 1e-4, 5)]
            assert fired and fired[0] == first_below + 5


class TestCriterion5LearningGain:
    def test_learning_gain(self, learning_runs):
        with criterion(5, "full configuration beats supervised-only by >= 5 points"):
            gains = []
            for seed in LEARNING_SEEDS:
                full = learning_runs[seed]["full"].final_eval["accuracy"]
                sup = learning_runs[seed]["supervised"].final_eval["accuracy"]
                gains.append(full - sup)
            mean_gain = float(np.mean(gains))
            print(
                f"  per-seed gains: {[f'{g:+.3f}' for g in gains]}, mean {mean_gain:+.4f}"
            )
            assert mean_gain >= 0.05
            assert learning_runs["elapsed"] < 600.0, (
                f"learning runs took {learning_runs['elapsed']:.0f}s"
            )


class TestCriterion6AblationDirections:
    def test_mi_filtering_beats_no_filtering_under_label_noise(self):
        with criterion(6, "MI filter impurity < no filter; generator aids robustness"):
            mi_means, none_means = [], []
            for seed in (1, 2, 3):
                ds = gen_synthetic_two_view(
                    2540, 4, 16, 16, view_noise=0.6, label_noise=0.2, seed=200 + seed
                )
                ds = split_by_counts(ds, 40, 4, 500, seed=200 + seed)
                cfg = TrainConfig(
                    epochs=40, lr=0.1, dropout=0.3, seed=seed,
                    unsup_enabled=False, adv_enabled=False, teacher_enabled=False,
                )
                rep = run_training(cfg, ds)
                rows = ds.indices(UNLABELED)
                x1, _ = ds.views(rows)
                y = ds.labels[rows]
                stats = batch_statistics(mc_forward_batch(rep.students[0], x1, 5, seed=777))
                # Matched mask rates: the threshold is the median MI, so the
                # filter keeps half; the no-filter baseline is the population.
                tau = float(np.median(stats.mi))
                accepted, mask_rate = mi_filter(stats, tau, "below")
                assert abs(mask_rate - 0.5) < 0.02
                mi_means.append(impurity(stats.pseudo_label, accepted, y))
                none_means.append(impurity(stats.pseudo_label, np.arange(rows.size), y))
            assert np.mean(mi_means) < np.mean(none_means)
            print(
                f"  impurity: MI {np.mean(mi_means):.3f} vs no filter {np.mean(none_means):.3f}"
            )

    def test_removing_generator_reduces_robustness(self, learning_runs, long_runs):
        robust_full, robust_nogen = [], []
        for seed in (1, 2, 3):
            robust_full.append(
                learning_runs[seed]["full"].final_eval["pgd_robust_accuracy"]
            )
            nogen = long_runs[seed, "no_generator"].result()
            robust_nogen.append(nogen.final_eval["pgd_robust_accuracy"])
        assert np.mean(robust_nogen) < np.mean(robust_full)
        print(
            f"  robustness: full {np.mean(robust_full):.3f} vs no generator {np.mean(robust_nogen):.3f}"
        )


class TestCriterion7Equilibrium:
    def test_toy_game_and_converged_run(self, long_runs):
        with criterion(7, "toy-game residuals exact, BR converges, run residuals < 1e-2"):
            game = toy_game()
            # Exhaustive enumeration oracle over all profiles.
            nash_set = []
            for t, s, g in itertools.product(
                game.teacher_points, game.student_points, game.generator_points
            ):
                ok_t = all(game.payoff_teacher(t2, s, g) <= game.payoff_teacher(t, s, g)
                           for t2 in game.teacher_points)
                ok_s = all(game.payoff_students(t, s2, g) >= game.payoff_students(t, s, g)
                           for s2 in game.student_points)
                ok_g = all(game.payoff_generator(t, s, g2) <= game.payoff_generator(t, s, g)
                           for g2 in game.generator_points)
                if ok_t and ok_s and ok_g:
                    nash_set.append((t, s, g))
                res = nash_residual(game, GameProfile(t, s, g))
                # Residual components equal the enumerated best improvements.
                assert res[0] == pytest.approx(
                    max(game.payoff_teacher(t2, s, g) for t2 in game.teacher_points)
                    - game.payoff_teacher(t, s, g)
                )
                assert res[1] == pytest.approx(
                    game.payoff_students(t, s, g)
                    - min(game.payoff_students(t, s2, g) for s2 in game.student_points)
                )
                assert (max(res) == 0.0) == ((t, s, g) in nash_set)
            assert nash_set == [("T2", "S1", "G1")]
            final, rounds, residuals = alternating_best_response(
                game, GameProfile("T1", "S2", "G1"), max_rounds=10, tol=0.0
            )
            assert rounds <= 10
            assert max(residuals) == 0.0
            # Converged training run: all three first-order residuals small.
            ds = converged_task()
            cfg = converged_config()
            rep = long_runs["converged"].result()
            assert rep.final_eval["accuracy"] >= 0.99
            res = stackelberg_residual(rep.students, rep.teacher, ds, cfg, probe_size=256)
            print(
                f"  stackelberg residuals: teacher {res.teacher:.2e}, "
                f"students {res.students:.2e}, generator {res.generator:.2e}"
            )
            assert res.teacher < 1e-2
            assert res.students < 1e-2
            assert res.generator < 1e-2


TINY_CFG = """
data.n = 420
data.classes = 3
data.d1 = 6
data.d2 = 6
data.view_noise = 0.4
data.n_labeled = 30
data.n_validation = 6
data.n_test = 60
data.seed = 5
train.epochs = 2
train.labeled_batch = 8
train.mu = 3
train.hidden = 8
train.mc_passes = 3
train.seeds = 1
perturb.epsilon = 0.2
"""


class TestCriterion8DeterminismAndFormats:
    def test_determinism_and_round_trips(self, tmp_path):
        with criterion(8, "bit-identical reports, exact container round-trips"):
            cfg_path = tmp_path / "tiny.cfg"
            cfg_path.write_text(TINY_CFG)
            out1, out2 = tmp_path / "a", tmp_path / "b"
            assert cli_main(["train", "--config", str(cfg_path), "--out", str(out1)]) == 0
            assert cli_main(["train", "--config", str(cfg_path), "--out", str(out2)]) == 0
            assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

            # Embedding and label containers round-trip bit-exactly.
            ds = gen_synthetic_two_view(40, 3, 5, 4, 0.7, seed=3)
            emb_path = tmp_path / "v.trco"
            write_embeddings(emb_path, ds.view1)
            np.testing.assert_array_equal(read_embeddings(emb_path), ds.view1)
            first_bytes = emb_path.read_bytes()
            write_embeddings(emb_path, read_embeddings(emb_path))
            assert emb_path.read_bytes() == first_bytes
            lab_path = tmp_path / "y.trcl"
            labels = ds.labels.copy()
            labels[::5] = -1
            write_labels(lab_path, labels)
            np.testing.assert_array_equal(read_labels(lab_path), labels)

            # Model container round-trips bit-exactly.
            students, teacher = load_model(out1 / "model_seed1.trcm")
            again = tmp_path / "again.trcm"
            save_model(again, students, teacher)
            assert again.read_bytes() == (out1 / "model_seed1.trcm").read_bytes()
            s2, t2 = load_model(again)
            for a, b in zip(students, s2):
                np.testing.assert_array_equal(a.vector, b.vector)
            np.testing.assert_array_equal(teacher.z, t2.z)

            # CSV and binary encodings load identically.
            csv_v = tmp_path / "v.csv"
            csv_y = tmp_path / "y.csv"
            write_matrix_csv(csv_v, ds.view1)
            write_labels_csv(csv_y, labels)
            a = load_embedding_file(emb_path, emb_path, lab_path)
            b = load_embedding_file(csv_v, csv_v, csv_y)
            np.testing.assert_array_equal(a.view1, b.view1)
            np.testing.assert_array_equal(a.labels, b.labels)


class TestCriterion9CostCounters:
    def test_counters_and_ratio(self):
        with criterion(9, "counter formula match and cost ratio band"):
            ds = learning_task(1)
            cfg = TrainConfig(epochs=1, seed=2)  # defaults otherwise
            rep = run_training(cfg, ds)
            # Independent per-step unlabeled batch sizes: 2000 rows in chunks
            # of mu * labeled_batch = 448, short remainder included.
            n_unl = ds.indices(UNLABELED).size
            batch = cfg.labeled_batch * cfg.unlabeled_ratio
            sizes = [
                min(batch, n_unl - i * batch)
                for i in range((n_unl + batch - 1) // batch)
            ]
            assert len(rep.step_reports) == len(sizes)
            for r, n_u in zip(rep.step_reports, sizes):
                c = r.counters
                assert c.student_train_passes == 2
                assert c.mi_passes_per_view == cfg.mc_passes * n_u
                assert c.perturb_passes_per_view == cfg.perturb.steps * n_u
                assert c.validation_passes == 1
            ratio = cost_summary(rep.step_reports, cfg)["ratio_vs_supervised"]
            print(f"  full/supervised cost ratio: {ratio:.2f}")
            assert 1.5 <= ratio <= 4.0
            sup_cfg = TrainConfig(
                epochs=1, seed=2, unsup_enabled=False, adv_enabled=False, teacher_enabled=False
            )
            sup_rep = run_training(sup_cfg, ds)
            assert cost_summary(sup_rep.step_reports, sup_cfg)[
                "ratio_vs_supervised"
            ] == pytest.approx(1.0)
