"""Perturbation generator: projection, ascent, budget, fixed points."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotriad.errors import InvalidInputError
from cotriad.generator import (
    PerturbConfig,
    _objective_and_grad,
    fixed_point_residual,
    pgd_perturb_batch,
    project_linf,
)
from cotriad.numerics import entropy_rows, finite_diff_grad, softmax_rows
from cotriad.student import (
    StudentParams,
    draw_keeps,
    forward_batch,
    hidden_layer,
    init_student,
    input_entropy_grad,
    input_mi_grad,
)
from same_bits import same_bits

DIMS = (4, 6, 3)


def toy_params(seed=0, dropout=0.0):
    return init_student(*DIMS, dropout_rate=dropout, seed=seed)


def zero_params():
    return StudentParams(np.zeros(4 * 6 + 6 + 6 * 3 + 3), DIMS, 0.0)


def linear_softmax_params(seed=1):
    """No-hidden-nonlinearity surrogate: tiny weights keep entropy smooth."""
    rng = np.random.default_rng(seed)
    w1 = rng.normal(size=(4, 6)) * 0.5
    w2 = rng.normal(size=(6, 3)) * 0.5
    return StudentParams(np.concatenate((w1.ravel(), np.zeros(6), w2.ravel(), np.zeros(3))), DIMS, 0.0)


class TestProjection:
    def test_interior_point_unchanged(self):
        d = np.array([0.3, -0.7])
        np.testing.assert_array_equal(project_linf(d, 1.0), d)

    def test_clamp(self):
        np.testing.assert_array_equal(project_linf(np.array([2.0, -3.0]), 1.0), [1.0, -1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = rng.normal(scale=3.0, size=8)
            once = project_linf(d, 0.5)
            np.testing.assert_array_equal(project_linf(once, 0.5), once)

    def test_is_the_box_argmin(self):
        # Separable problem: each coordinate's nearest box point is the clamp.
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = rng.normal(scale=2.0, size=5)
            p = project_linf(d, 0.8)
            for j in range(5):
                grid = np.linspace(-0.8, 0.8, 4001)
                best = grid[np.argmin(np.abs(grid - d[j]))]
                assert abs(p[j] - best) <= 0.8 / 2000 + 1e-12

    def test_rejects_bad_epsilon(self):
        with pytest.raises(InvalidInputError):
            project_linf(np.zeros(2), 0.0)


class TestObjective:
    # pgd_perturb_batch returns delta only; these tests score the perturbed
    # point with input_entropy_grad, the objective of the gamma=0 ascent.

    def test_uniform_output_net_is_constant(self):
        cfg = PerturbConfig(epsilon=1.0, gamma=0.0)
        x = np.random.default_rng(0).normal(size=(10, 4))
        delta = pgd_perturb_batch(zero_params(), x, cfg)
        values, _ = input_entropy_grad(zero_params(), x + delta)
        np.testing.assert_allclose(values, math.log(3), rtol=0, atol=1e-12)

    def test_gamma_zero_equals_entropy_of_eval_forward(self):
        params = toy_params()
        x = np.array([[0.2, -0.4, 1.0, 0.3], [1.0, 0.5, -0.3, 0.0]])
        cfg = PerturbConfig(epsilon=0.3)
        delta = pgd_perturb_batch(params, x, cfg)
        assert np.abs(delta).max() > 0.0
        values, _ = input_entropy_grad(params, x + delta)
        logits, _ = forward_batch(params, x + delta)
        expected = entropy_rows(softmax_rows(logits))
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)

    def test_gamma_positive_reproducible_and_compositional(self):
        params = toy_params(dropout=0.3)
        x = np.array([[0.2, -0.4, 1.0, 0.3]])
        cfg = PerturbConfig(epsilon=1.0, gamma=0.5, mi_passes=5)
        d1 = pgd_perturb_batch(params, x, cfg, np.random.default_rng(7))
        d2 = pgd_perturb_batch(params, x, cfg, np.random.default_rng(7))
        np.testing.assert_array_equal(d1, d2)
        # Recompute from parts with the same frozen masks: a single step
        # draws one set and takes the sign of the composed gradient at x.
        keeps = np.random.default_rng(7).random((5, 1, params.d_h)) >= 0.3
        _, g_h = input_entropy_grad(params, x)
        _, g_mi = input_mi_grad(params, x, keeps)
        np.testing.assert_array_equal(d1, project_linf(np.sign(g_h + 0.5 * g_mi), 1.0))

    def test_gamma_requires_rng(self):
        with pytest.raises(InvalidInputError):
            pgd_perturb_batch(
                toy_params(dropout=0.2), np.zeros((1, 4)),
                PerturbConfig(epsilon=1.0, gamma=0.5),
            )


class TestPgd:
    def test_budget_invariant_over_many_attacks(self):
        rng = np.random.default_rng(3)
        for steps, eps in [(1, 1.0), (5, 0.5), (10, 0.25)]:
            params = toy_params(seed=steps)
            x = rng.normal(size=(200, 4))
            cfg = PerturbConfig(epsilon=eps, steps=steps, step_size=eps / 4)
            delta = pgd_perturb_batch(params, x, cfg)
            assert np.abs(delta).max() <= eps + 1e-12

    def test_fgsm_equals_sign_gradient_bit_exactly(self):
        params = toy_params(seed=5)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 4))
        _, grad = input_entropy_grad(params, x)
        assert np.all(grad != 0.0)
        cfg = PerturbConfig(epsilon=0.7, steps=1, step_size=0.7)
        delta = pgd_perturb_batch(params, x, cfg)
        np.testing.assert_array_equal(delta, 0.7 * np.sign(grad))

    def test_sign_of_zero_spends_no_budget(self):
        x = np.ones((1, 4))
        cfg = PerturbConfig(epsilon=1.0)
        delta = pgd_perturb_batch(zero_params(), x, cfg)
        np.testing.assert_array_equal(delta, 0.0)
        _, grad = input_entropy_grad(zero_params(), x + delta)
        assert np.all(grad == 0.0)
        assert fixed_point_residual(zero_params(), x, delta, cfg)[0] == 0.0

    def test_single_step_increases_entropy_on_smooth_model(self):
        # First-order ascent: a small epsilon FGSM step raises the entropy
        # whenever the gradient is nonzero.
        params = linear_softmax_params()
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 4)) * 2.0
        h0, grad = input_entropy_grad(params, x)
        cfg = PerturbConfig(epsilon=0.01, steps=1, step_size=0.01)
        delta = pgd_perturb_batch(params, x, cfg)
        h1, _ = input_entropy_grad(params, x + delta)
        moved = np.abs(grad).max(axis=1) > 1e-8
        assert np.all(h1[moved] > h0[moved])

    def test_multi_step_objective_nondecreasing_for_small_steps(self):
        params = linear_softmax_params(seed=2)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(20, 4))
        eps = 0.5
        cfg_base = dict(epsilon=eps, step_size=0.1 * eps, gamma=0.0)
        prev = None
        # Track the best objective after each prefix of 10 raw-gradient steps.
        for steps in range(2, 11):
            cfg = PerturbConfig(steps=steps, **cfg_base)
            delta = pgd_perturb_batch(params, x, cfg)
            values, _ = input_entropy_grad(params, x + delta)
            if prev is not None:
                assert np.all(values >= prev - 1e-9)
            prev = values

    def test_pgd50_fixed_point_residual_small(self):
        # Toy convergence regime: the box is small enough that strong
        # coordinates saturate at corners (projection absorbs the step) and
        # the nominal step bounds the residual of the remaining ones.
        params = linear_softmax_params(seed=3)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(64, 4))
        cfg = PerturbConfig(epsilon=0.02, steps=50, step_size=0.002)
        delta = pgd_perturb_batch(params, x, cfg)
        residuals = fixed_point_residual(params, x, delta, cfg)
        assert residuals.shape == (64,)
        assert residuals.max() < 1e-3

    def test_entropy_gradient_vs_finite_differences(self):
        params = toy_params(seed=9)
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.normal(size=4)
            _, grad = input_entropy_grad(params, x[None, :])

            def f(v):
                vals, _ = input_entropy_grad(params, v[None, :])
                return float(vals[0])

            fd = finite_diff_grad(f, x, h=1e-6)
            np.testing.assert_allclose(grad[0], fd, rtol=1e-5, atol=1e-8)

    def test_gamma_positive_attack_is_reproducible(self):
        params = toy_params(seed=10, dropout=0.3)
        x = np.random.default_rng(11).normal(size=(6, 4))
        cfg = PerturbConfig(epsilon=0.5, gamma=0.3, steps=3, step_size=0.1, mi_passes=4)
        d1 = pgd_perturb_batch(params, x, cfg, np.random.default_rng(5))
        d2 = pgd_perturb_batch(params, x, cfg, np.random.default_rng(5))
        np.testing.assert_array_equal(d1, d2)
        assert np.abs(d1).max() <= 0.5 + 1e-12


def _pgd_oracle(params, x, cfg, rng=None):
    """The ascent before its in-place clip and all-accepted fast path: every
    iteration selects with np.where. Returns delta and the number of
    iterations in which some row was rejected."""
    layer = hidden_layer(params, x)
    x = layer.x
    n = x.shape[0]

    def draw():
        if cfg.gamma <= 0.0:
            return None
        return draw_keeps(rng, (cfg.mi_passes, n, params.d_h), params.dropout_rate)

    keeps = draw()
    values, grad = _objective_and_grad(params, layer, cfg, keeps)
    if cfg.steps == 1:
        return project_linf(cfg.effective_step * np.sign(grad), cfg.epsilon), 0
    delta = np.zeros_like(x)
    steps = np.full(n, cfg.effective_step)
    armijo = 1e-4
    rejecting = 0
    for _ in range(cfg.steps):
        keeps = draw()
        cand = np.clip(delta + steps[:, None] * grad, -cfg.epsilon, cfg.epsilon)
        cand_values, cand_grad = _objective_and_grad(params, x + cand, cfg, keeps)
        gain = armijo * ((cand - delta) * grad).sum(axis=1)
        ok = cand_values >= values + gain
        rejecting += not ok.all()
        delta = np.where(ok[:, None], cand, delta)
        values = np.where(ok, cand_values, values)
        grad = np.where(ok[:, None], cand_grad, grad)
        steps = np.where(ok, np.minimum(2.0 * steps, cfg.effective_step), 0.5 * steps)
    return delta, rejecting


def _ascent_case(seed, n, d_in, sharpness, nan_row, dropout):
    rng = np.random.default_rng(seed)
    dims = (d_in, 6, 3)
    w1 = rng.normal(size=(d_in, 6)) * sharpness
    w2 = rng.normal(size=(6, 3)) * sharpness
    vector = np.concatenate((w1.ravel(), rng.normal(size=6), w2.ravel(), rng.normal(size=3)))
    x = rng.normal(size=(n, d_in))
    x[rng.random(n) < 0.2] = 0.0  # equal rows, and the zero gradients of a symmetric model
    if nan_row:
        x[rng.integers(0, n)] = np.nan
    return StudentParams(vector, dims, dropout), x


class TestPgdAgainstOracle:
    """The loop equals the np.where loop bit for bit, on rejections too."""

    @staticmethod
    def _check(params, x, cfg, seed):
        with np.errstate(over="ignore", invalid="ignore"):
            got = pgd_perturb_batch(params, x, cfg, np.random.default_rng(seed))
            want, rejecting = _pgd_oracle(params, x, cfg, np.random.default_rng(seed))
        assert same_bits(got, want)
        return rejecting

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 64),
        d_in=st.integers(1, 6),
        steps=st.integers(1, 12),
        epsilon=st.sampled_from([1e-3, 0.05, 0.25, 1.0]),
        step_ratio=st.sampled_from([0.01, 0.25, 1.0, 50.0]),
        gamma=st.sampled_from([0.0, 0.5]),
        sharpness=st.sampled_from([0.1, 1.0, 3.0, 30.0]),
        nan_row=st.booleans(),
    )
    def test_equals_the_where_loop(
        self, seed, n, d_in, steps, epsilon, step_ratio, gamma, sharpness, nan_row
    ):
        params, x = _ascent_case(seed, n, d_in, sharpness, nan_row, 0.3)
        cfg = PerturbConfig(
            epsilon=epsilon, gamma=gamma, steps=steps,
            step_size=step_ratio * epsilon, mi_passes=3,
        )
        self._check(params, x, cfg, seed)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("nan_row", [False, True])
    def test_forced_rejections_take_the_where_path(self, gamma, nan_row):
        # A step 50 times the budget on a sharp model jumps between box
        # corners, and a NaN row never passes the test, so some iterations
        # reject rows; both must still equal the oracle. (Much sharper
        # weights saturate the softmax and flatten the objective instead.)
        params, x = _ascent_case(3, 48, 4, 3.0, nan_row, 0.3)
        cfg = PerturbConfig(epsilon=0.25, gamma=gamma, steps=12, step_size=12.5, mi_passes=3)
        assert self._check(params, x, cfg, 4) > 0

    def test_all_accepted_case_takes_the_fast_path(self):
        # A small step on a smooth model passes the test on every row at
        # every iteration, the regime of the training attacks.
        params, x = _ascent_case(5, 64, 4, 0.1, False, 0.0)
        cfg = PerturbConfig(epsilon=0.25, steps=10, step_size=0.0625)
        assert self._check(params, x, cfg, 6) == 0


class TestFixedPointResidual:
    def test_outward_gradient_at_corner_is_absorbed(self):
        # At a box corner whose gradient points outward on every coordinate
        # the projection absorbs the whole ascent step: residual exactly 0.
        params = linear_softmax_params(seed=4)
        rng = np.random.default_rng(12)
        cfg = PerturbConfig(epsilon=0.01, steps=1, step_size=0.01)
        found = 0
        for _ in range(100):
            x = rng.normal(size=4)
            _, g0 = input_entropy_grad(params, x[None, :])
            corner = cfg.epsilon * np.sign(g0[0])
            _, g1 = input_entropy_grad(params, (x + corner)[None, :])
            if np.all(g0[0] != 0) and np.all(np.sign(g1[0]) == np.sign(corner)):
                assert fixed_point_residual(params, x[None, :], corner[None, :], cfg)[0] == 0.0
                found += 1
        assert found > 50

    def test_zero_gradient_model_interior_residual(self):
        params = zero_params()
        cfg = PerturbConfig(epsilon=1.0, step_size=0.5)
        for delta in [np.zeros((1, 4)), np.array([[0.3, -0.2, 0.0, 0.9]])]:
            assert fixed_point_residual(params, np.ones((1, 4)), delta, cfg)[0] == 0.0

    def test_budget_violation_raises(self):
        with pytest.raises(InvalidInputError):
            fixed_point_residual(
                toy_params(), np.zeros((1, 4)), np.full((1, 4), 2.0), PerturbConfig(epsilon=1.0)
            )

    def test_rejects_a_single_row_vector(self):
        with pytest.raises(InvalidInputError):
            fixed_point_residual(toy_params(), np.zeros(4), np.zeros(4), PerturbConfig(epsilon=1.0))

    def test_batch_equals_one_row_calls_and_the_clip_formula(self):
        # One value per row, each the L-infinity gap to one projected ascent
        # step of the gamma=0 map at the nominal step size.
        params = toy_params(seed=13)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(12, 4))
        cfg = PerturbConfig(epsilon=0.4, steps=5, step_size=0.1)
        delta = pgd_perturb_batch(params, x, cfg)
        residuals = fixed_point_residual(params, x, delta, cfg)
        _, grad = input_entropy_grad(params, x + delta)
        image = np.clip(delta + 0.1 * grad, -0.4, 0.4)
        np.testing.assert_array_equal(residuals, np.abs(delta - image).max(axis=1))
        for i in range(12):
            row = fixed_point_residual(params, x[i : i + 1], delta[i : i + 1], cfg)
            assert row.shape == (1,)
            assert row[0] == pytest.approx(residuals[i], rel=1e-12, abs=1e-15)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(InvalidInputError):
            PerturbConfig(epsilon=0.0)
        with pytest.raises(InvalidInputError):
            PerturbConfig(epsilon=1.0, steps=0)
        with pytest.raises(InvalidInputError):
            PerturbConfig(epsilon=1.0, gamma=-0.1)
        with pytest.raises(InvalidInputError):
            PerturbConfig(epsilon=1.0, gamma=0.5, mi_passes=1)

    def test_default_step_size_is_epsilon(self):
        assert PerturbConfig(epsilon=0.3).effective_step == pytest.approx(0.3)
