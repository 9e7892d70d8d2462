"""Training loop semantics: ordering, determinism, identities, counters."""

import dataclasses
import hashlib
import math
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotriad.data import (
    TEST,
    UNLABELED,
    VALIDATION,
    BatchIterator,
    gen_synthetic_two_view,
    split_by_counts,
)
from cotriad.engine import (
    StepCounters,
    TrainConfig,
    bin_error_histogram,
    converged,
    cost_summary,
    eval_attack_config,
    evaluate,
    load_model,
    run_training,
    save_model,
)
from cotriad import engine as engine_module
from cotriad import parallel
from cotriad import student as student_module
from cotriad.errors import FormatError, InvalidInputError, NonFiniteError
from cotriad.game import stackelberg_residual
from cotriad.generator import PerturbConfig
from cotriad.student import Gradients, StudentParams, init_student, loss_and_grads, sgd_step
from cotriad.teacher import TeacherStrategy, init_strategy, stability_score


def small_task(seed=3, n=400, labeled=24, val=4, test=80, classes=3, noise=0.4):
    ds = gen_synthetic_two_view(n, classes, 6, 6, noise, seed=seed)
    return split_by_counts(ds, labeled, val, test, seed=seed)


def small_cfg(**kw):
    base = dict(
        epochs=2,
        labeled_batch=8,
        unlabeled_ratio=3,
        lr=0.05,
        hidden=8,
        mc_passes=3,
        perturb=PerturbConfig(epsilon=0.2, steps=1),
        seed=11,
    )
    base.update(kw)
    return TrainConfig(**base)


def assert_reports_equal(a, b):
    """Field-by-field equality treating NaN as equal to NaN."""
    da, db = dataclasses.asdict(a), dataclasses.asdict(b)
    assert da.keys() == db.keys()
    for key in da:
        va, vb = da[key], db[key]
        if isinstance(va, tuple):
            for xa, xb in zip(va, vb):
                if isinstance(xa, float) and math.isnan(xa):
                    assert math.isnan(xb)
                else:
                    assert xa == xb, key
        elif isinstance(va, float) and math.isnan(va):
            assert math.isnan(vb), key
        else:
            assert va == vb, key


class TestTrainStepSemantics:
    def test_supervised_only_reduces_to_supervised(self):
        ds = small_task()
        cfg = small_cfg(unsup_enabled=False, adv_enabled=False, teacher_enabled=False)
        rep = run_training(cfg, ds)
        for r in rep.step_reports:
            assert r.loss_unsup == 0.0
            assert r.loss_adv == 0.0
            assert r.loss_total == r.loss_sup
            assert r.counters.mi_passes_per_view == 0
            assert r.counters.perturb_passes_per_view == 0

    def test_total_loss_identity(self):
        ds = small_task()
        rep = run_training(small_cfg(), ds)
        for r in rep.step_reports:
            expected = r.loss_sup + r.lambda_u * r.loss_unsup + r.lambda_adv * r.loss_adv
            assert r.loss_total == pytest.approx(expected, abs=1e-9)

    def test_identical_views_stay_identical(self):
        # Same data in both views, same init and, once every stream takes
        # view 0's key (the view is the last key entry of every training
        # stream), the same draws: the two students must remain bit-identical
        # through training. With their own streams they part.
        ds = small_task()
        ds = dataclasses.replace(ds, view2=ds.view1.copy())
        cfg = small_cfg(epochs=2)
        real = engine_module.stream
        with mock.patch.object(engine_module, "stream", lambda *key: real(*key[:-1], 0)):
            a, b = run_training(cfg, ds).students
        np.testing.assert_array_equal(a.vector, b.vector)
        a, b = run_training(cfg, ds).students
        assert not np.array_equal(a.vector, b.vector)

    def test_replay_is_bit_identical(self):
        ds = small_task()
        cfg = small_cfg()
        r1 = run_training(cfg, ds)
        r2 = run_training(cfg, ds)
        assert len(r1.step_reports) == len(r2.step_reports)
        for a, b in zip(r1.step_reports, r2.step_reports):
            assert_reports_equal(a, b)
        np.testing.assert_array_equal(
            r1.students[0].vector, r2.students[0].vector
        )
        np.testing.assert_array_equal(r1.teacher.z, r2.teacher.z)

    def test_students_update_before_teacher(self):
        # A step's student update must be independent of the teacher's rate:
        # the teacher moves after the students, so only later steps diverge.
        ds = small_task()
        slow = run_training(small_cfg(eta_teacher=0.0, epochs=1, steps_per_epoch=1), ds)
        fast = run_training(small_cfg(eta_teacher=5.0, epochs=1, steps_per_epoch=1), ds)
        np.testing.assert_array_equal(
            slow.students[0].vector, fast.students[0].vector
        )
        assert not np.array_equal(slow.teacher.z, fast.teacher.z)

    def test_cross_supervision_direction(self):
        # Corrupting view-2's private labels must not change anything (they
        # are never read); corrupting view-2's DATA changes the pseudo-labels
        # that supervise student 1.
        ds = small_task()
        cfg = small_cfg(epochs=1)
        base = run_training(cfg, ds)
        shuffled_labels = ds.labels.copy()
        unl = ds.indices(UNLABELED)
        shuffled_labels[unl] = np.roll(shuffled_labels[unl], 1)
        ds_priv = dataclasses.replace(ds, labels=shuffled_labels)
        rep = run_training(cfg, ds_priv)
        np.testing.assert_array_equal(
            base.students[0].vector, rep.students[0].vector
        )

    def test_zero_accepted_flag(self):
        ds = small_task()
        # Untrained students are nowhere near this confidence bar, so the
        # first step accepts nothing, flags it, and adds zero unsup loss.
        cfg = small_cfg(
            filter_mode="confidence",
            tau_conf=0.9999,
            teacher_enabled=False,
            epochs=1,
            steps_per_epoch=1,
        )
        rep = run_training(cfg, ds)
        r = rep.step_reports[0]
        assert r.zero_accepted == (True, True)
        assert r.loss_unsup == 0.0


    @pytest.mark.parametrize("direction", ["above", "below"])
    def test_dropout_zero_run_accepts_by_an_mi_of_zero(self, direction):
        # Without dropout every MC pass is the same pass, so every MI is 0:
        # no row lies above the threshold, and every row lies below it.
        ds = small_task()
        cfg = small_cfg(dropout=0.0, filter_direction=direction)
        rep = run_training(cfg, ds)
        assert rep.step_reports
        for r in rep.step_reports:
            if direction == "above":
                assert r.accepted == (0, 0) and r.zero_accepted == (True, True)
            else:
                assert r.mask_rate == (0.0, 0.0) and r.zero_accepted == (False, False)
        replay = run_training(cfg, ds)
        for a, b in zip(rep.step_reports, replay.step_reports, strict=True):
            assert_reports_equal(a, b)
        for a, b in zip(rep.students, replay.students):
            np.testing.assert_array_equal(a.vector, b.vector)
        np.testing.assert_array_equal(rep.teacher.z, replay.teacher.z)

    @pytest.mark.parametrize(
        "fields",
        [
            pytest.param({"teacher_update_every": 0}, id="teacher_update_every-0"),
            pytest.param({"steps_per_epoch": -1}, id="steps_per_epoch--1"),
            pytest.param({"filter_mode": "mi_conf", "mc_passes": 1}, id="mi_conf-one-pass"),
            pytest.param({"filter_mode": "confidence", "mc_passes": 0}, id="confidence-zero-passes"),
        ],
    )
    def test_config_rejects_degenerate_schedule(self, fields):
        with pytest.raises(InvalidInputError):
            small_cfg(**fields)


class TestGoldenDigest:
    # sha256 over both students' w1/b1/w2/b2 and the teacher z after the
    # runs below. GOLDEN was recorded before one-forward-per-step sharing was
    # introduced; VARIANTS before the shared hidden layer was introduced,
    # except pgd10_frozen, recorded before the entropy-ascent loop took its
    # all-accepted fast path.
    GOLDEN = "6f23cf4d78fe556a6639f2569dea37fb170d6e95b5e7382a8e141308ce5994e3"
    VARIANTS = {
        # gamma > 0: the attack's first objective goes through input_mi_grad.
        "gamma_mi_attack": (
            dict(
                perturb=PerturbConfig(
                    epsilon=0.25, gamma=0.5, steps=3, step_size=0.0625, mi_passes=3
                )
            ),
            "cd64fe5496576f8ff0ac7d161f469a9ef11451323c6085afb9f4a3e25f876d81",
        ),
        # gamma = 0 with 10 steps of epsilon / 4 and the teacher off: the
        # training attack is the multi-step loop of the pgd10-frozen
        # benchmark workload.
        "pgd10_frozen": (
            dict(
                perturb=PerturbConfig(epsilon=0.25, steps=10, step_size=0.0625),
                teacher_enabled=False,
            ),
            "a4c678012ef997abc61a71810264f0ad188ee9950b9dee37da072af556e6a1ae",
        ),
    }
    # The base run's final robust evaluation (the gamma = 0, 10-step attack
    # of eval_attack_config), recorded with pgd10_frozen, and its Stackelberg
    # residuals, whose generator term runs two 50-step ascents. The teacher
    # and students residuals were recorded when they began to filter with the
    # run's mi_conf filter like training does (0.0031849040414763086 and
    # 0.10558377587607312 when they filtered on MI alone).
    ROBUST_ACCURACY = 0.47
    STACKELBERG = {
        "teacher": 0.003211823978247303,
        "students": 0.09711507591753846,
        "generator": 0.002345807385885084,
    }
    # The residuals of the same run trained and diagnosed with filter.mode =
    # mi in each direction, where one MI filter served both before and after
    # the residual began to share the training step's assembly.
    STACKELBERG_MI = {
        "below": {
            "teacher": 0.003140134098654756,
            "students": 0.11301630727393085,
            "generator": 0.0022735852130226697,
        },
        "above": {
            "teacher": 0.005432032811238038,
            "students": 0.12515540904187955,
            "generator": 0.002271825810964529,
        },
    }

    @staticmethod
    def _task():
        ds = gen_synthetic_two_view(2540, 4, 16, 16, view_noise=0.6, seed=101)
        return split_by_counts(ds, n_labeled=40, n_validation=4, n_test=500, seed=101)

    @staticmethod
    def _cfg(**changes):
        cfg = TrainConfig(
            epochs=2,
            lr=0.1,
            dropout=0.3,
            seed=1,
            filter_mode="mi_conf",
            filter_direction="below",
            tau_conf=0.9,
            perturb=PerturbConfig(epsilon=0.25, steps=1),
        )
        return dataclasses.replace(cfg, **changes)

    @classmethod
    def _run(cls, **changes):
        ds, cfg = cls._task(), cls._cfg(**changes)
        rep = run_training(cfg, ds)
        assert rep.total_steps == 10
        return ds, cfg, rep

    @staticmethod
    def _digest(rep) -> str:
        h = hashlib.sha256()
        for p in rep.students:
            for a in (p.w1, p.b1, p.w2, p.b2):
                h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(rep.teacher.z, dtype=np.float64).tobytes())
        return h.hexdigest()

    @pytest.fixture(scope="class")
    def base_run(self):
        return self._run()

    def test_full_config_run_digest_is_unchanged(self, base_run):
        """Two epochs (10 steps) of the acceptance full configuration.

        Every speed-up must leave this digest alone; a change that moves
        rounding on purpose says so and records the new value. Recorded on
        x86-64 with NumPy 2.4.6 and SciPy 1.17.1 on scipy-openblas 0.3.31
        (Haswell kernels), with 1 and 2 BLAS threads alike; another BLAS
        build may round matmuls differently and fail this test without any
        change to the code.
        """
        assert self._digest(base_run[2]) == self.GOLDEN

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_variant_run_digest_is_unchanged(self, name):
        """The same run with one change; recorded as GOLDEN was."""
        changes, digest = self.VARIANTS[name]
        assert self._digest(self._run(**changes)[2]) == digest

    @pytest.mark.parametrize("name", ["gamma_mi_attack", "pgd10_frozen"])
    def test_threaded_generator_blocks_equal_the_sequential_ones(self, name):
        """A multi-step attack runs view 1's generator block on the worker
        thread; with one usable CPU both views run in the caller."""
        reports = []
        for cpus in (1, 2):
            with mock.patch.object(parallel, "usable_cpus", lambda: cpus):
                reports.append(self._run(**self.VARIANTS[name][0])[2])
        sequential, threaded = reports
        for a, b in zip(sequential.students, threaded.students):
            assert np.array_equal(a.vector, b.vector)
        assert np.array_equal(sequential.teacher.z, threaded.teacher.z)

    def test_base_run_robust_accuracy_is_unchanged(self, base_run):
        assert base_run[2].final_eval["pgd_robust_accuracy"] == self.ROBUST_ACCURACY

    def test_base_run_stackelberg_residuals_are_unchanged(self, base_run):
        ds, cfg, rep = base_run
        res = stackelberg_residual(rep.students, rep.teacher, ds, cfg)
        assert res.as_dict() == self.STACKELBERG

    @pytest.mark.parametrize("direction", sorted(STACKELBERG_MI))
    def test_mi_run_stackelberg_residuals_are_unchanged(self, direction):
        ds, cfg, rep = self._run(filter_mode="mi", filter_direction=direction)
        res = stackelberg_residual(rep.students, rep.teacher, ds, cfg)
        assert res.as_dict() == self.STACKELBERG_MI[direction]



def _layer_builds(ds, cfg) -> tuple[int, int]:
    """(HiddenLayer builds, distinct (params, input) pairs) of one train_step,
    the first of ``cfg``'s run on ``ds``; a pair is keyed on its values."""
    builds = []
    real_init = student_module.HiddenLayer.__init__

    def counting_init(self, params, x):
        real_init(self, params, x)
        builds.append((params.vector.tobytes(), self.x.shape, self.x.tobytes()))

    iterator = BatchIterator(ds, cfg.labeled_batch, cfg.labeled_batch * cfg.unlabeled_ratio,
                             cfg.seed)
    state = engine_module.init_state(cfg, ds, total_steps=10)
    with mock.patch.object(student_module.HiddenLayer, "__init__", counting_init):
        engine_module.train_step(state, cfg, ds, iterator.next_batch(), 0, 0)
    return len(builds), len(set(builds))


class TestOneHiddenLayerPerPair:
    """A training step builds the hidden layer of each (params, input) pair
    once, on the configurations of TestGoldenDigest."""

    @pytest.mark.parametrize(
        "changes",
        [
            {},
            dict(unsup_enabled=False, adv_enabled=False, teacher_enabled=False),
            TestGoldenDigest.VARIANTS["gamma_mi_attack"][0],
        ],
        ids=["full", "supervised", "gamma_mi_attack"],
    )
    def test_one_build_per_pair(self, changes):
        builds, pairs = _layer_builds(TestGoldenDigest._task(), TestGoldenDigest._cfg(**changes))
        assert builds == pairs

    def test_multi_step_attack_rebuilds_its_last_candidate(self):
        # The known exception, one build per view: the adversarial loss
        # rebuilds the layer of the ascent's last accepted candidate from
        # x + delta.
        cfg = TestGoldenDigest._cfg(**TestGoldenDigest.VARIANTS["pgd10_frozen"][0])
        assert _layer_builds(TestGoldenDigest._task(), cfg) == (27, 25)

class TestReportBytes:
    # sha256 of the report.json written below: both stop rules on, with a
    # stability window shorter than the run, and a weight-norm ball the
    # students reach. It pins the epoch rows, the stop epoch, the cost block
    # (including the float type of every counter total) and the final
    # evaluation. Recorded as TestGoldenDigest.GOLDEN was.
    REPORT_JSON = "c1ad9833d212b53f739ac8a49b12456fb6337534e9fc96a83a41b597b7e76564"

    def test_report_json_bytes_are_unchanged(self, tmp_path):
        ds = small_task()
        cfg = small_cfg(
            epochs=8,
            weight_norm_bound=3.0,
            stability_stop=True,
            stop_epsilon=1e-9,
            stop_patience=5,
            stability_window=3,
            ea_stop=True,
            ea_window=2,
            delta_entropy=0.06,
            delta_agreement=0.1,
        )
        rep = run_training(cfg, ds)
        assert (rep.stop_reason, len(rep.epoch_rows)) == ("entropy_agreement", 5)
        assert all(np.linalg.norm(p.vector) <= 3.0 for p in rep.students)
        path = tmp_path / "report.json"
        engine_module.dump_json(path, engine_module.report_payload(rep, ds))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.REPORT_JSON

    @pytest.mark.parametrize("off", ["unsup_enabled", "adv_enabled"])
    def test_final_strategy_gives_a_disabled_term_weight_zero(self, off):
        # As the epoch rows and strategy_trace.csv do.
        ds = small_task()
        rep = run_training(small_cfg(epochs=1, **{off: False}), ds)
        payload = engine_module.report_payload(rep, ds)
        final, last = payload["final_strategy"], payload["epochs"][-1]
        assert final == {key: last[key] for key in ("tau_mi", "lambda_u", "lambda_adv")}
        assert final["lambda_u" if off == "unsup_enabled" else "lambda_adv"] == 0.0


def _filter_and_gate_oracle(cfg, stats, tau):
    """The separate filter and soft-gate inputs that ``_apply_filter``
    replaced; the composed mode ran the confidence filter in each."""
    from cotriad.uncertainty import confidence_filter, mi_filter

    n = len(stats)
    if cfg.filter_mode == "mi":
        accepted, rate = mi_filter(stats, tau, cfg.filter_direction)
    else:
        if cfg.filter_mode == "confidence":
            accepted = confidence_filter(stats, cfg.tau_conf)
        elif cfg.filter_mode == "mi_conf":
            mi_acc, _ = mi_filter(stats, tau, cfg.filter_direction)
            accepted = np.intersect1d(mi_acc, confidence_filter(stats, cfg.tau_conf))
        else:
            accepted = np.arange(n)
        rate = (1.0 - accepted.size / n) if n else 0.0
    sign = 1.0 if cfg.filter_direction == "above" else -1.0
    if cfg.filter_mode == "mi":
        return accepted, rate, (stats.mi, sign)
    if cfg.filter_mode == "mi_conf":
        values = stats.mi.copy()
        conf_ok = np.zeros(n, dtype=bool)
        conf_ok[confidence_filter(stats, cfg.tau_conf)] = True
        values[~conf_ok] = -sign * 1e6
        return accepted, rate, (values, sign)
    synth = np.full(n, -1e6)
    synth[accepted] = 1e6
    return accepted, rate, (synth, 1.0)


class TestFilterAgainstOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        c=st.integers(2, 12),
        mode=st.sampled_from(["mi", "confidence", "mi_conf", "none"]),
        direction=st.sampled_from(["above", "below"]),
        tau_conf=st.sampled_from([0.3, 0.9, 1.0]),
    )
    def test_one_confidence_pass_gives_the_same_filter_and_gate(
        self, seed, n, c, mode, direction, tau_conf
    ):
        from cotriad.uncertainty import batch_statistics

        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=rng.choice([0.5, 5.0]), size=(3, n, c))
        probs = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        probs[:, rng.random(n) < 0.2] = np.eye(c)[0]  # confidence exactly 1
        stats = batch_statistics(probs)
        tau = float(np.quantile(stats.mi, 0.5))
        cfg = small_cfg(filter_mode=mode, filter_direction=direction, tau_conf=tau_conf)
        got = engine_module._apply_filter(cfg, stats, tau)
        want = _filter_and_gate_oracle(cfg, stats, tau)
        assert np.array_equal(got[0], want[0]) and got[0].dtype == want[0].dtype
        assert got[1] == want[1]
        assert np.array_equal(got[2][0], want[2][0]) and got[2][1] == want[2][1]


class TestNonFiniteGuard:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_first_non_finite_loss_names_epoch_and_step(self):
        ds = small_task()
        cfg = small_cfg(lr=1e200, teacher_enabled=False)
        with pytest.raises(NonFiniteError) as err:
            run_training(cfg, ds)
        # Step 0 runs at the initial weights; its update overflows step 1.
        assert (err.value.quantity, err.value.epoch, err.value.step) == ("loss_total", 0, 1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_meta_gradient_names_epoch_and_step(self):
        ds = small_task()
        with pytest.raises(NonFiniteError) as err:
            run_training(small_cfg(lr=1e200), ds)
        assert (err.value.quantity, err.value.epoch, err.value.step) == ("meta-gradient", 0, 0)

    def test_non_finite_parameters_after_the_last_step(self, monkeypatch):
        # No loss follows the last update, so the run checks its parameters.
        ds = small_task()
        cfg = small_cfg(epochs=2, steps_per_epoch=3, teacher_enabled=False)
        calls = []

        def last_update_breaks(*args):
            calls.append(None)
            new, velocity = sgd_step(*args)
            if len(calls) > 2 * 5:
                new = new.with_vector(np.full_like(new.vector, np.nan))
            return new, velocity

        monkeypatch.setattr(engine_module, "sgd_step", last_update_breaks)
        with pytest.raises(NonFiniteError) as err:
            run_training(cfg, ds)
        assert (err.value.quantity, err.value.epoch, err.value.step) == ("parameters", 1, 2)


class TestEarlyStopping:
    def test_constant_teacher_fires_stability_stop(self):
        ds = small_task()
        cfg = small_cfg(
            epochs=12,
            eta_teacher=0.0,
            stability_stop=True,
            stop_epsilon=1e-4,
            stop_patience=5,
            stability_window=10,
        )
        rep = run_training(cfg, ds)
        assert rep.stop_reason == "teacher_stability"
        # first score at epoch 2, patience 5 -> stop after epoch 6
        assert len(rep.epoch_rows) == 6

    def test_prefix_property_of_early_stop(self):
        ds = small_task()
        stopping = small_cfg(
            epochs=12, eta_teacher=0.0, stability_stop=True, stop_patience=5
        )
        free = dataclasses.replace(stopping, stability_stop=False)
        a = run_training(stopping, ds)
        b = run_training(free, ds)
        for ra, rb in zip(a.step_reports, b.step_reports):
            assert_reports_equal(ra, rb)
        assert len(b.step_reports) > len(a.step_reports)

    def test_zero_epochs(self):
        ds = small_task()
        rep = run_training(small_cfg(epochs=0), ds)
        assert rep.epoch_rows == []
        assert rep.stop_reason == "no_epochs"
        assert rep.total_steps == 0

    def test_entropy_agreement_stop_fires(self):
        ds = small_task()
        # Thresholds so loose that any window of real traces qualifies: the
        # stop fires at the first epoch with window+1 recorded values.
        cfg = small_cfg(
            epochs=10, ea_stop=True, delta_entropy=1e9, delta_agreement=1e9, ea_window=2
        )
        rep = run_training(cfg, ds)
        assert rep.stop_reason == "entropy_agreement"
        assert len(rep.epoch_rows) == 3

    def test_convergence_monitor_semantics(self):
        def rows(pairs):
            return [{"mean_entropy": h, "agreement": a} for h, a in pairs]

        trace = rows([(1.0, 0.5), (0.95, 0.52), (0.93, 0.53)])
        assert converged(trace, 0.1, 0.1, window=2)
        assert not converged(trace[:2], 0.1, 0.1, window=2)  # too few epochs
        # An entropy jump breaks the window; an agreement jump does too.
        assert not converged(trace + rows([(2.0, 0.5)]), 0.1, 0.1, window=2)
        assert not converged(trace + rows([(0.93, 0.9)]), 0.1, 0.1, window=2)
        # Only the last window + 1 epochs count.
        assert converged(rows([(5.0, 0.0)]) + trace, 0.1, 0.1, window=2)
        nan = float("nan")
        assert not converged(rows([(nan, nan)] * 4), 0.1, 0.1, window=2)

    @pytest.mark.parametrize("window", [2, 10])
    def test_stability_score_reads_the_last_window_epochs(self, window):
        # A large teacher rate moves the mapped triple every epoch, so a
        # window that dropped its slice would score a different trace.
        ds = small_task()
        cfg = small_cfg(epochs=12, steps_per_epoch=3, eta_teacher=200.0,
                        stability_window=window)
        rows = run_training(cfg, ds).epoch_rows
        trace = [(r["tau_mi"], r["lambda_u"], r["lambda_adv"]) for r in rows]
        assert math.isnan(rows[0]["stability_score"])
        sliced = [stability_score(trace[:e + 1][-window:]) for e in range(1, len(rows))]
        assert [r["stability_score"] for r in rows[1:]] == sliced
        unsliced = [stability_score(trace[:e + 1]) for e in range(1, len(rows))]
        assert unsliced != sliced


class TestEvaluate:
    def test_untrained_zero_weight_students_hit_chance(self):
        ds = small_task(n=3000, labeled=30, val=6, test=2000)
        zero = StudentParams(np.zeros(6 * 4 + 4 + 4 * 3 + 3), (6, 4, 3), 0.0)
        out = evaluate((zero, zero), ds, TEST)
        # argmax ties resolve to class 0, so accuracy is the class-0 share;
        # binomial 3-sigma band around 1/3.
        n = out["n"]
        assert abs(out["accuracy"] - 1 / 3) <= 3 * math.sqrt((1 / 3) * (2 / 3) / n)
        assert out["agreement"] == 1.0

    def test_robust_accuracy_never_exceeds_clean(self):
        ds = small_task()
        rep = run_training(small_cfg(), ds)
        out = evaluate(rep.students, ds, TEST, eval_attack_config(small_cfg()))
        assert out["pgd_robust_accuracy"] <= out["accuracy"]

    def test_empty_split_rejected(self):
        ds = small_task(test=0)
        rep = run_training(small_cfg(epochs=1), ds)
        with pytest.raises(InvalidInputError):
            evaluate(rep.students, ds, TEST)


class TestBinErrorHistogram:
    def test_partition_and_range(self):
        ds = small_task()
        rep = run_training(small_cfg(epochs=1), ds)
        hist = bin_error_histogram(rep.students, ds)
        assert len(hist) == 5
        assert sum(b["count"] for b in hist) == ds.indices(UNLABELED).size
        for b in hist:
            if b["mismatch_rate"] is not None:
                assert 0.0 <= b["mismatch_rate"] <= 1.0

    def test_perfect_predictor_zero_mismatch(self):
        ds = small_task(noise=0.0)
        # With zero view noise a nearest-mean classifier is perfect; train
        # long enough for the students to nail it.
        cfg = small_cfg(epochs=6, unsup_enabled=False, adv_enabled=False, teacher_enabled=False)
        rep = run_training(cfg, ds)
        hist = bin_error_histogram(rep.students, ds)
        for b in hist:
            if b["count"]:
                assert b["mismatch_rate"] == 0.0

    def test_empty_bin_reported_absent(self):
        ds = small_task(noise=0.0)
        cfg = small_cfg(epochs=6, unsup_enabled=False, adv_enabled=False, teacher_enabled=False)
        rep = run_training(cfg, ds)
        hist = bin_error_histogram(rep.students, ds)
        assert any(b["count"] == 0 and b["mismatch_rate"] is None for b in hist)


def _site_by_site_counters(cfg, ds, n_u, accepted, due) -> StepCounters:
    """Oracle: one step's counters with the FLOPs accumulated in float at
    three sites: the training passes per view, the meta-update's passes per
    view when it is due, and the supervised reference."""
    dims = (ds.view1.shape[1], ds.view2.shape[1])
    p_mac = [d * cfg.hidden + cfg.hidden * ds.n_classes for d in dims]
    n_l, n_v = cfg.labeled_batch, ds.indices(VALIDATION).size
    n_mc = cfg.mc_passes * n_u if cfg.unsup_enabled else 0
    n_attack = cfg.perturb.steps * n_u if cfg.adv_enabled else 0
    flops = 0.0
    for v in (0, 1):
        train_rows = n_l + accepted[1 - v] + (n_u if cfg.adv_enabled else 0)
        flops += p_mac[v] * (2 * n_mc + 6 * n_attack + 6 * train_rows)
    if due:
        for v in (0, 1):
            flops += 2 * 6 * p_mac[v] * n_u + 6 * p_mac[v] * n_v
    n_u_used = n_u if (cfg.unsup_enabled or cfg.adv_enabled) else 0
    baseline = sum(6 * p_mac[v] * (n_l + 2 * n_u_used) for v in (0, 1))
    return StepCounters(2, n_mc, n_attack, int(due), flops, baseline)


class TestCostCounters:
    def test_counters_match_formula(self):
        ds = small_task()
        cfg = small_cfg(epochs=1)
        rep = run_training(cfg, ds)
        # Expected per-step unlabeled batch sizes from the iterator math: full
        # batches then one short remainder, covering each row exactly once.
        n_unl = ds.indices(UNLABELED).size
        batch = cfg.labeled_batch * cfg.unlabeled_ratio
        sizes = [min(batch, n_unl - i * batch) for i in range((n_unl + batch - 1) // batch)]
        assert len(rep.step_reports) == len(sizes)
        for r, n_u in zip(rep.step_reports, sizes):
            assert r.counters.student_train_passes == 2
            assert r.counters.mi_passes_per_view == cfg.mc_passes * n_u
            assert r.counters.perturb_passes_per_view == cfg.perturb.steps * n_u
            assert r.counters.validation_passes == 1

    @pytest.mark.parametrize(
        "kw",
        [dict(teacher_update_every=3), dict(adv_enabled=False), dict(unsup_enabled=False)],
        ids=["update_every_3", "adv_off", "unsup_off"],
    )
    def test_counters_match_a_site_by_site_oracle(self, kw):
        ds = small_task()
        cfg = small_cfg(**kw)
        rep = run_training(cfg, ds)
        n_unl = ds.indices(UNLABELED).size
        batch = cfg.labeled_batch * cfg.unlabeled_ratio
        sizes = [min(batch, n_unl - i * batch) for i in range((n_unl + batch - 1) // batch)]
        sizes = sizes * cfg.epochs
        assert len(rep.step_reports) == len(sizes)
        expected = []
        for k, (r, n_u) in enumerate(zip(rep.step_reports, sizes)):
            due = cfg.teacher_enabled and cfg.unsup_enabled and k % cfg.teacher_update_every == 0
            expected.append(_site_by_site_counters(cfg, ds, n_u, r.accepted, due))
            assert r.counters == expected[-1], k
            assert type(r.counters.flops) is float
        if "teacher_update_every" in kw:
            assert {c.validation_passes for c in expected} == {0, 1}
        # Each total keeps the type of the oracle's total.
        totals = cost_summary(rep.step_reports, cfg)["totals"]
        for f in dataclasses.fields(StepCounters):
            want = sum((getattr(c, f.name) for c in expected), f.default)
            assert (totals[f.name], type(totals[f.name])) == (want, type(want)), f.name

    def test_supervised_only_ratio_is_one(self):
        ds = small_task()
        cfg = small_cfg(unsup_enabled=False, adv_enabled=False, teacher_enabled=False)
        rep = run_training(cfg, ds)
        assert cost_summary(rep.step_reports, cfg)["ratio_vs_supervised"] == pytest.approx(1.0)

    def test_full_ratio_in_band_on_defaults(self):
        ds = gen_synthetic_two_view(1200, 4, 16, 16, 0.6, seed=5)
        ds = split_by_counts(ds, 40, 4, 100, seed=5)
        cfg = TrainConfig(epochs=1, seed=2)
        rep = run_training(cfg, ds)
        ratio = cost_summary(rep.step_reports, cfg)["ratio_vs_supervised"]
        assert 1.5 <= ratio <= 4.0


class TestModelContainer:
    def test_round_trip(self, tmp_path):
        ds = small_task()
        rep = run_training(small_cfg(epochs=1), ds)
        p = tmp_path / "model.trcm"
        save_model(p, rep.students, rep.teacher)
        students, teacher = load_model(p)
        for a, b in zip(students, rep.students):
            np.testing.assert_array_equal(a.vector, b.vector)
            assert a.dropout_rate == b.dropout_rate
        np.testing.assert_array_equal(teacher.z, rep.teacher.z)
        assert teacher.lr_teacher == rep.teacher.lr_teacher

        payload = p.read_bytes()
        cut = tmp_path / "cut.trcm"
        cut.write_bytes(payload[:-30])
        with pytest.raises(FormatError, match="truncated"):
            load_model(cut)
        cut.write_bytes(payload[:100])  # inside the first student's weights
        with pytest.raises(FormatError, match="@ byte 100: truncated"):
            load_model(cut)
        cut.write_bytes(payload + b"\0")
        with pytest.raises(FormatError, match="trailing bytes"):
            load_model(cut)

    # sha256 of the file written below, recorded before the students moved
    # to one flat parameter vector; it pins the .trcm byte layout.
    GOLDEN_TRCM = "5c57b2accb3be68fd7ea2b7b04fb061e6b22678d4abdef002ffed80a57bf6b99"

    def test_golden_bytes(self, tmp_path):
        rng = np.random.default_rng(2024)
        students = []
        for view, d_in in enumerate((5, 4)):
            p = init_student(d_in, 6, 3, dropout_rate=0.25, seed=40 + view)
            x = rng.normal(size=(8, d_in))
            y = rng.integers(0, 3, size=8)
            _, g = loss_and_grads(p, x, y, "ce")
            p, _ = sgd_step(p, g, Gradients.zeros_like(p), 0.1, 0.9, 0.0)
            students.append(p)
        teacher = init_strategy(0.1, 0.3, 0.4, lr_teacher=0.02, gate_temperature=0.05)
        path = tmp_path / "m.trcm"
        save_model(path, tuple(students), teacher)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GOLDEN_TRCM

    @settings(max_examples=40, deadline=None)
    @given(
        d_in=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        d_h=st.integers(1, 9),
        classes=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_is_bit_exact(self, d_in, d_h, classes, seed):
        rng = np.random.default_rng(seed)
        students = tuple(
            StudentParams(rng.normal(size=d * d_h + d_h + d_h * classes + classes),
                          (d, d_h, classes), rng.random() * 0.9)
            for d in d_in
        )
        teacher = TeacherStrategy(z=rng.normal(size=3), lr_teacher=rng.random() + 0.1,
                                  gate_temperature=rng.random() + 0.01)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.trcm"
            save_model(path, students, teacher)
            loaded, t2 = load_model(path)
            for a, b in zip(loaded, students):
                assert a.dims == b.dims and a.dropout_rate == b.dropout_rate
                assert a.vector.tobytes() == b.vector.tobytes()
                for u, v in zip((a.w1, a.b1, a.w2, a.b2), (b.w1, b.b1, b.w2, b.b2)):
                    assert np.array_equal(u, v)
            assert t2.z.tobytes() == teacher.z.tobytes()
            assert (t2.lr_teacher, t2.gate_temperature) == (teacher.lr_teacher, teacher.gate_temperature)
            again = Path(tmp) / "again.trcm"
            save_model(again, loaded, t2)
            assert again.read_bytes() == path.read_bytes()

    def test_temperature_below_the_smallest_normal_is_rejected(self, tmp_path):
        students = tuple(init_student(3, 4, 2, dropout_rate=0.1, seed=v) for v in (0, 1))
        path = tmp_path / "m.trcm"
        save_model(path, students, init_strategy())
        payload = path.read_bytes()
        path.write_bytes(payload[:-8] + struct.pack("<d", 5e-324))
        with pytest.raises(FormatError, match="gate temperature must be >=") as err:
            load_model(path)
        assert err.value.offset == len(payload) - 8

    def test_magic_checked(self, tmp_path):
        p = tmp_path / "model.trcm"
        p.write_bytes(b"XXXX" + bytes(10))
        with pytest.raises(FormatError):
            load_model(p)
