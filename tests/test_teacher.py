"""Teacher strategy: constraint mapping, soft gate, meta-gradient, stopping."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from cotriad.config import SCHEMA
from cotriad.errors import BoundError, InsufficientHistoryError, InvalidInputError
from cotriad.numerics import finite_diff_grad
from cotriad.student import (
    draw_keeps,
    hidden_layer,
    init_student,
    loss_and_grads,
    weighted_ce_grads,
)
from cotriad.teacher import (
    MIN_TEMPERATURE,
    MetaBatch,
    TeacherStrategy,
    init_strategy,
    map_strategy,
    map_strategy_jacobian,
    meta_grad,
    should_stop,
    sigmoid,
    soft_gate,
    soft_unsup_grads,
    stability_score,
    teacher_step,
    unrolled_validation_loss,
)
from same_bits import same_bits


def logit(p):
    return math.log(p / (1 - p))


def random_meta_setup(seed, n_unsup=8, n_val=8, with_adv=True, dropout=0.0):
    """Toy two-student meta-gradient instance with frozen stochastic inputs."""
    rng = np.random.default_rng(seed)
    students, batches = [], []
    for view in range(2):
        params = init_student(3, 4, 3, dropout_rate=dropout, seed=seed * 7 + view)
        x_unsup = rng.normal(size=(n_unsup, 3))
        keep_unsup = (
            draw_keeps(rng, (n_unsup, 4), dropout) if dropout > 0 else None
        )
        adv_grad = None
        if with_adv:
            x_adv = x_unsup + rng.normal(scale=0.2, size=x_unsup.shape)
            keep_adv = draw_keeps(rng, (n_unsup, 4), dropout) if dropout > 0 else None
            _, adv_grad = loss_and_grads(params, x_adv, None, "entropy", keep_adv)
        batches.append(
            MetaBatch(
                x_unsup=x_unsup,
                pseudo_from_other=rng.integers(0, 3, size=n_unsup),
                mi_from_other=rng.random(n_unsup) * 0.3,
                keep_unsup=keep_unsup,
                adv_grad=adv_grad,
                x_val=rng.normal(size=(n_val, 3)),
                y_val=rng.integers(0, 3, size=n_val),
            )
        )
        students.append(params)
    return tuple(students), tuple(batches)


def random_generic_z(rng, margin=1e-3):
    """Random raw vector kept away from the measure-zero rescale boundary."""
    while True:
        z = rng.normal(scale=1.5, size=3)
        s = sigmoid(z)
        if abs(s[1] + s[2] - 1.0) > margin:
            return z


class TestMapStrategy:
    def test_conservative_init_maps_exactly(self):
        z = np.array([logit(0.05), 0.0, 0.0])
        tau, lu, la = map_strategy(z)
        assert tau == pytest.approx(0.05, rel=1e-12)
        assert (lu, la) == (0.5, 0.5)

    def test_saturated_weights_rescale_to_half(self):
        tau, lu, la = map_strategy(np.array([0.0, 40.0, 40.0]))
        assert tau == pytest.approx(0.5)
        assert lu == pytest.approx(0.5, abs=1e-12)
        assert la == pytest.approx(0.5, abs=1e-12)

    def test_constraints_hold_over_random_sweep(self):
        rng = np.random.default_rng(0)
        z = rng.normal(scale=10.0, size=(10_000, 3))
        for row in z:
            tau, lu, la = map_strategy(row)
            assert 0.0 <= tau <= 1.0
            assert 0.0 <= lu <= 1.0 and 0.0 <= la <= 1.0
            assert lu + la <= 1.0 + 1e-12

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            z = random_generic_z(rng)
            jac = map_strategy_jacobian(z)
            for out in range(3):
                fd = finite_diff_grad(lambda v, o=out: map_strategy(v)[o], z, h=1e-6)
                np.testing.assert_allclose(jac[out], fd, rtol=1e-5, atol=1e-9)

    def test_rejects_bad_vectors(self):
        with pytest.raises(InvalidInputError):
            map_strategy(np.array([0.0, 0.0]))
        with pytest.raises(InvalidInputError):
            map_strategy(np.array([np.nan, 0.0, 0.0]))


def test_sigmoid_saturates_without_a_warning():
    v = np.array([1e3, -1e3, math.inf, -math.inf, math.nan, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = sigmoid(v)
    assert same_bits(s, np.array([1.0, 0.0, 1.0, 0.0, math.nan, 0.5]))


class TestSoftGate:
    def test_midpoint(self):
        assert soft_gate(0.05, 0.05, 0.01) == pytest.approx(0.5)

    def test_sharp_gate_value(self):
        assert soft_gate(0.1 + 0.05, 0.05, 0.01) == pytest.approx(
            1.0 / (1.0 + math.exp(-10.0)), rel=1e-12
        )
        assert soft_gate(0.15, 0.05, 0.01) == pytest.approx(0.9999546, rel=1e-4)

    def test_converges_to_hard_filter(self):
        rng = np.random.default_rng(2)
        mi = rng.random(500)
        tau = 0.4
        clear = np.abs(mi - tau) > 1e-3
        gate = soft_gate(mi, tau, 1e-4)
        hard = (mi > tau).astype(float)
        assert np.all(np.round(gate[clear]) == hard[clear])

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(InvalidInputError):
            soft_gate(0.1, 0.05, 0.0)

    @pytest.mark.parametrize("temperature", [5e-324, 0.0, -1.0, math.nan])
    def test_one_temperature_bound_for_gate_strategy_and_config(self, temperature):
        # The smallest normal float, the bound of teacher.temperature too;
        # below it the threshold derivative w(1 - w) / temperature overflows.
        assert MIN_TEMPERATURE == 2.2250738585072014e-308
        assert SCHEMA["teacher.temperature"].bound.startswith(f">= {MIN_TEMPERATURE!r} ")
        for reject in (
            lambda: soft_gate(0.1, 0.05, temperature),
            lambda: init_strategy(gate_temperature=temperature),
            lambda: TeacherStrategy(z=np.zeros(3), gate_temperature=temperature),
        ):
            with pytest.raises(InvalidInputError, match="gate temperature must be >="):
                reject()
        assert TeacherStrategy(z=np.zeros(3), gate_temperature=MIN_TEMPERATURE)
        assert soft_gate(0.1, 0.05, MIN_TEMPERATURE) == 1.0


    @pytest.mark.parametrize(
        "fields, name",
        [
            (dict(z=np.array([0.0, math.nan, 0.0])), "strategy vector"),
            (dict(z=np.array([0.0, 0.0, -math.inf])), "strategy vector"),
            (dict(z=np.zeros(2)), "strategy vector"),
            (dict(z=np.zeros(3), lr_teacher=-1e-300), "teacher learning rate"),
            (dict(z=np.zeros(3), lr_teacher=math.nan), "teacher learning rate"),
            (dict(z=np.zeros(3), gate_temperature=0.0), "gate temperature"),
        ],
    )
    def test_strategy_names_the_field_out_of_bounds(self, fields, name):
        with pytest.raises(BoundError) as err:
            TeacherStrategy(**fields)
        assert err.value.names == (name,)
        assert TeacherStrategy(z=np.zeros(3), lr_teacher=0.0)


class TestMetaGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            students, batches = random_meta_setup(trial, dropout=0.0)
            z = random_generic_z(rng)
            strategy = TeacherStrategy(z=z, gate_temperature=0.05)
            eta = 0.05
            analytic = meta_grad(strategy, students, batches, eta)

            def f(v):
                return unrolled_validation_loss(v, students, batches, eta, 0.05)

            fd = finite_diff_grad(f, z, h=1e-5)
            np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-8)

    def test_matches_finite_differences_with_dropout_masks(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            students, batches = random_meta_setup(100 + trial, dropout=0.3)
            z = random_generic_z(rng)
            strategy = TeacherStrategy(z=z, gate_temperature=0.05)
            analytic = meta_grad(strategy, students, batches, 0.05)
            fd = finite_diff_grad(
                lambda v: unrolled_validation_loss(v, students, batches, 0.05, 0.05),
                z,
                h=1e-5,
            )
            np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-8)

    def test_zero_when_inner_gradients_vanish(self):
        # Saturate nothing: a student with zero weights has uniform output and
        # zero entropy gradient; pseudo-label CE gradient is nonzero though,
        # so instead decouple by weighting: tiny unsup set with zero gate.
        students, batches = random_meta_setup(0, with_adv=False)
        frozen = []
        for b in batches:
            frozen.append(
                MetaBatch(
                    x_unsup=b.x_unsup,
                    pseudo_from_other=b.pseudo_from_other,
                    mi_from_other=np.full_like(b.mi_from_other, -100.0),
                    keep_unsup=None,
                    adv_grad=None,
                    x_val=b.x_val,
                    y_val=b.y_val,
                )
            )
        strategy = init_strategy(gate_temperature=0.01)
        g = meta_grad(strategy, students, tuple(frozen), 0.05)
        # Gate weights underflow to zero, so the virtual update is the
        # identity and every coupling term vanishes.
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    @pytest.mark.parametrize("gate_sign", [1.0, -1.0])
    def test_soft_unsup_one_forward_matches_two_weighted_calls(self, gate_sign):
        # Oracle: one forward pass per weighting, as two separate calls.
        students, batches = random_meta_setup(11, n_unsup=32, dropout=0.3)
        params = students[0]
        batch = dataclasses.replace(batches[0], gate_sign=gate_sign)
        tau, temperature = 0.12, 0.05
        grads_w, grads_a = soft_unsup_grads(params, batch, tau, temperature)
        n = batch.x_unsup.shape[0]
        w = soft_gate(gate_sign * batch.mi_from_other, gate_sign * tau, temperature)
        a = -gate_sign * w * (1.0 - w) / temperature
        args = (params, batch.x_unsup, batch.pseudo_from_other)
        (grads_w_ref,) = weighted_ce_grads(*args, (w / n)[None], batch.keep_unsup)
        (grads_a_ref,) = weighted_ce_grads(*args, (a / n)[None], batch.keep_unsup)
        assert np.array_equal(grads_w, grads_w_ref)
        assert np.array_equal(grads_a, grads_a_ref)

    def test_hidden_layer_as_unsup_input_is_bit_exact(self):
        # A layer built for the meta-gradient's own students is reused; one
        # built for other params objects is rebuilt. Both give the array
        # result.
        students, batches = random_meta_setup(14, dropout=0.3)
        strategy = TeacherStrategy(z=np.array([logit(0.1), 0.2, -0.4]), gate_temperature=0.05)
        expected = meta_grad(strategy, students, batches, 0.05)

        def with_layers(owners):
            return tuple(
                dataclasses.replace(b, x_unsup=hidden_layer(owner, b.x_unsup))
                for owner, b in zip(owners, batches)
            )

        others = [init_student(3, 4, 3, dropout_rate=0.3, seed=90 + v) for v in (0, 1)]
        for owners in (students, others):
            assert np.array_equal(meta_grad(strategy, students, with_layers(owners), 0.05), expected)

    def test_virtual_update_isolation(self):
        students, batches = random_meta_setup(5)
        before = [s.vector.copy() for s in students]
        strategy = init_strategy()
        meta_grad(strategy, students, batches, 0.05)
        for s, b in zip(students, before):
            np.testing.assert_array_equal(s.vector, b)

    def test_empty_validation_batch_raises(self):
        students, batches = random_meta_setup(6)
        bad = MetaBatch(
            x_unsup=batches[0].x_unsup,
            pseudo_from_other=batches[0].pseudo_from_other,
            mi_from_other=batches[0].mi_from_other,
            keep_unsup=None,
            adv_grad=None,
            x_val=np.zeros((0, 3)),
            y_val=np.zeros(0, dtype=int),
        )
        with pytest.raises(InvalidInputError):
            meta_grad(init_strategy(), students, (bad, batches[1]), 0.05)


class TestTeacherStep:
    def test_zero_gradient_is_identity(self):
        s = init_strategy()
        s2 = teacher_step(s, np.zeros(3))
        np.testing.assert_array_equal(s.z, s2.z)

    def test_constraints_after_any_update(self):
        s = init_strategy()
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = teacher_step(s, rng.normal(scale=50.0, size=3))
            tau, lu, la = s.mapped()
            assert 0.0 <= tau <= 1.0 and lu + la <= 1.0 + 1e-12

    def test_random_walk_never_violates(self):
        rng = np.random.default_rng(8)
        violations = 0
        for _ in range(10_000):
            s = TeacherStrategy(z=rng.normal(scale=5.0, size=3))
            s = teacher_step(s, rng.normal(scale=100.0, size=3))
            tau, lu, la = s.mapped()
            if not (0.0 <= tau <= 1.0 and 0.0 <= lu <= 1.0 and 0.0 <= la <= 1.0
                    and lu + la <= 1.0 + 1e-12):
                violations += 1
        assert violations == 0

    def test_uses_teacher_learning_rate(self):
        s = init_strategy(lr_teacher=0.1)
        s2 = teacher_step(s, np.array([1.0, 0.0, 0.0]))
        assert s2.z[0] == pytest.approx(s.z[0] - 0.1)


class TestStabilityAndStopping:
    def test_constant_history_scores_zero(self):
        assert stability_score([(0.05, 0.5, 0.5)] * 10) == 0.0

    def test_alternating_threshold_variance(self):
        trace = [(float(i % 2), 0.5, 0.3) for i in range(10)]
        assert stability_score(trace) == pytest.approx(0.25)

    def test_insufficient_history_raises(self):
        with pytest.raises(InsufficientHistoryError):
            stability_score([(0.1, 0.2, 0.3)])

    def test_should_stop_all_below(self):
        assert should_stop([0.0, 0.0, 0.0, 0.0, 0.0], 1e-4, 5)

    def test_one_spike_blocks(self):
        assert not should_stop([0.0, 0.0, 1.0, 0.0, 0.0], 1e-4, 5)

    def test_fires_at_first_qualifying_epoch(self):
        # Converging synthetic trace: scores decay geometrically below the
        # 1e-4 threshold; the rule fires exactly when the last 5 qualify.
        scores = [0.1 * (0.2**k) for k in range(12)]
        first_below = next(i for i, v in enumerate(scores) if v < 1e-4)
        fired_at = None
        for t in range(1, len(scores) + 1):
            if should_stop(scores[:t], 1e-4, 5) and fired_at is None:
                fired_at = t
        assert fired_at == first_below + 5

    def test_requires_enough_scores(self):
        assert not should_stop([0.0], 1e-4, 5)
        with pytest.raises(InvalidInputError):
            should_stop([0.0], 1e-4, 0)


class TestInitStrategy:
    def test_defaults_map_to_conservative_init(self):
        tau, lu, la = init_strategy().mapped()
        assert tau == pytest.approx(0.05, rel=1e-12)
        assert lu == pytest.approx(0.5)
        assert la == pytest.approx(0.5)

    def test_rejects_degenerate_targets(self):
        with pytest.raises(InvalidInputError):
            init_strategy(mi_threshold=0.0)
