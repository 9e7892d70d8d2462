"""Training loop semantics: ordering, determinism, identities, counters."""

import dataclasses
import hashlib
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotriad.data import (
    TEST,
    UNLABELED,
    VALIDATION,
    gen_synthetic_two_view,
    split_by_counts,
)
from cotriad.engine import (
    TrainConfig,
    bin_error_histogram,
    cost_summary,
    eval_attack_config,
    evaluate,
    load_model,
    run_training,
    save_model,
)
from cotriad import engine as engine_module
from cotriad.errors import FormatError, InvalidInputError, NonFiniteError
from cotriad.generator import PerturbConfig
from cotriad.student import StudentParams, fresh_optimizer, init_student, loss_and_grads, sgd_step
from cotriad.teacher import TeacherStrategy, init_strategy


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
        # Same data in both views, shared per-view rng, same init: the two
        # students must remain bit-identical through training.
        ds = small_task()
        ds = dataclasses.replace(ds, view2=ds.view1.copy())
        cfg = small_cfg(tie_view_rng=True, epochs=2)
        rep = run_training(cfg, ds)
        a, b = rep.students
        np.testing.assert_array_equal(a.vector, b.vector)

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

    def test_meta_after_step_flag_changes_gradient(self):
        ds = small_task()
        base = small_cfg(epochs=1)
        post = dataclasses.replace(base, meta_after_step=True)
        a = run_training(base, ds).step_reports[0].meta_grad_inf
        b = run_training(post, ds).step_reports[0].meta_grad_inf
        assert a != b

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
    # introduced; VARIANTS before the shared hidden layer was introduced.
    GOLDEN = "6f23cf4d78fe556a6639f2569dea37fb170d6e95b5e7382a8e141308ce5994e3"
    VARIANTS = {
        # Post-step students rebuild every layer and adversarial gradient.
        "meta_after_step": (
            dict(meta_after_step=True),
            "1c385726d87831cf9d7a78ba3fc795bb72548082ad3825a8dd32a27a5d4b2643",
        ),
        # gamma > 0: the attack's first objective goes through input_mi_grad.
        "gamma_mi_attack": (
            dict(
                perturb=PerturbConfig(
                    epsilon=0.25, gamma=0.5, steps=3, step_size=0.0625, mi_passes=3
                )
            ),
            "cd64fe5496576f8ff0ac7d161f469a9ef11451323c6085afb9f4a3e25f876d81",
        ),
    }

    @staticmethod
    def _digest(**changes) -> str:
        ds = gen_synthetic_two_view(2540, 4, 16, 16, view_noise=0.6, seed=101)
        ds = split_by_counts(ds, n_labeled=40, n_validation=4, n_test=500, seed=101)
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
        rep = run_training(dataclasses.replace(cfg, **changes), ds)
        assert rep.total_steps == 10
        h = hashlib.sha256()
        for p in rep.students:
            for a in (p.w1, p.b1, p.w2, p.b2):
                h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(rep.teacher.z, dtype=np.float64).tobytes())
        return h.hexdigest()

    def test_full_config_run_digest_is_unchanged(self):
        """Two epochs (10 steps) of the acceptance full configuration.

        Every speed-up must leave this digest alone; a change that moves
        rounding on purpose says so and records the new value. Recorded on
        x86-64 with NumPy 2.4.6 and SciPy 1.17.1 on scipy-openblas 0.3.31
        (Haswell kernels), with 1 and 2 BLAS threads alike; another BLAS
        build may round matmuls differently and fail this test without any
        change to the code.
        """
        assert self._digest() == self.GOLDEN

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_variant_run_digest_is_unchanged(self, name):
        """The same run with one change; recorded as GOLDEN was."""
        changes, digest = self.VARIANTS[name]
        assert self._digest(**changes) == digest


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

        def last_update_breaks(params, grads, opt):
            calls.append(None)
            new, opt = sgd_step(params, grads, opt)
            if len(calls) > 2 * 5:
                new = new.with_vector(np.full_like(new.vector, np.nan))
            return new, opt

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
        from cotriad.engine import ConvergenceMonitor

        mon = ConvergenceMonitor(delta_entropy=0.1, delta_agreement=0.1, window=2)
        for h, a in [(1.0, 0.5), (0.95, 0.52), (0.93, 0.53)]:
            mon.push(h, a)
        assert mon.converged()
        mon.push(2.0, 0.5)  # entropy jump breaks the window
        assert not mon.converged()
        nanny = ConvergenceMonitor(0.1, 0.1, 2)
        for _ in range(4):
            nanny.push(float("nan"), float("nan"))
        assert not nanny.converged()
        with pytest.raises(InvalidInputError):
            mon.push(1.0, 1.5)


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
        hist = bin_error_histogram(rep.students, ds, bins=5)
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
        hist = bin_error_histogram(rep.students, ds, bins=5)
        for b in hist:
            if b["count"]:
                assert b["mismatch_rate"] == 0.0

    def test_empty_bin_reported_absent(self):
        ds = small_task(noise=0.0)
        cfg = small_cfg(epochs=6, unsup_enabled=False, adv_enabled=False, teacher_enabled=False)
        rep = run_training(cfg, ds)
        hist = bin_error_histogram(rep.students, ds, bins=5)
        assert any(b["count"] == 0 and b["mismatch_rate"] is None for b in hist)

    def test_rejects_single_bin(self):
        ds = small_task()
        rep = run_training(small_cfg(epochs=1), ds)
        with pytest.raises(InvalidInputError):
            bin_error_histogram(rep.students, ds, bins=1)


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
            p, _ = sgd_step(p, g, fresh_optimizer(p, 0.1, 0.9, 10))
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

    def test_magic_checked(self, tmp_path):
        p = tmp_path / "model.trcm"
        p.write_bytes(b"XXXX" + bytes(10))
        with pytest.raises(FormatError):
            load_model(p)
