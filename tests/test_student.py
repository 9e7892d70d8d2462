"""Student MLP: forward semantics, analytic gradients, optimizer behavior."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import erf

from cotriad import student
from cotriad.errors import InvalidInputError
from cotriad.numerics import PROB_FLOOR, entropy_rows, finite_diff_grad, softmax_rows
from cotriad.student import (
    Gradients,
    StudentParams,
    cosine_lr,
    draw_keeps,
    forward_batch,
    gelu,
    gelu_prime,
    hidden_layer,
    init_student,
    input_entropy_grad,
    input_mi_grad,
    loss_and_grads,
    mc_forward_batch,
    project_weight_norm,
    sgd_step,
    weighted_ce_grads,
)
from same_bits import same_bits

TOY = dict(d_in=3, d_h=4, n_classes=3)
TOY_DIMS = (3, 4, 3)
TOY_SIZE = 3 * 4 + 4 + 4 * 3 + 3


def toy_params(seed=0, dropout=0.1):
    return init_student(**TOY, dropout_rate=dropout, seed=seed)


def zero_params(dropout=0.0):
    return StudentParams(np.zeros(TOY_SIZE), TOY_DIMS, dropout)


class TestForward:
    def test_zero_weights_give_uniform_softmax(self):
        logits, _ = forward_batch(zero_params(), np.array([[1.0, -2.0, 0.5]]))
        np.testing.assert_array_equal(logits, 0.0)
        np.testing.assert_allclose(softmax_rows(logits), 1 / 3)

    def test_zero_dropout_mask_equals_eval_mode(self):
        params = toy_params(dropout=0.0)
        x = np.array([[0.3, -1.0, 2.0]])
        keep = np.ones((1, TOY["d_h"]), dtype=bool)
        with_mask, _ = forward_batch(params, x, keep)
        without, _ = forward_batch(params, x, None)
        np.testing.assert_array_equal(with_mask, without)

    def test_fixed_seed_is_reproducible(self):
        params = toy_params(dropout=0.4)
        x = np.array([[0.3, -1.0, 2.0]])
        keep = draw_keeps(np.random.default_rng(1234), (1, TOY["d_h"]), 0.4)
        first, _ = forward_batch(params, x, keep)
        again_keep = draw_keeps(np.random.default_rng(1234), (1, TOY["d_h"]), 0.4)
        again, _ = forward_batch(params, x, again_keep)
        np.testing.assert_array_equal(keep, again_keep)
        np.testing.assert_array_equal(first, again)

    def test_eval_mode_is_pure(self):
        params = toy_params()
        x = np.array([[0.1, 0.2, 0.3]])
        a, _ = forward_batch(params, x)
        b, _ = forward_batch(params, x)
        np.testing.assert_array_equal(a, b)

    def test_shape_mismatch_raises(self):
        with pytest.raises(InvalidInputError):
            forward_batch(toy_params(), np.zeros((1, 5)))

    def test_gelu_sanity(self):
        # Exact Gaussian-CDF form: gelu(0) = 0, gelu(x) -> x for large x.
        assert gelu(np.array([0.0]))[0] == 0.0
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, abs=1e-12)

    def test_cached_erf_is_bit_identical(self):
        # The hidden layer takes the activation and its derivative from one
        # erf(pre / sqrt 2); sharing it must round exactly like recomputing.
        params = init_student(16, 32, 4, dropout_rate=0.3, seed=4)
        x = np.random.default_rng(4).normal(size=(64, 16))
        _, cache = forward_batch(params, x)
        pre = x @ params.w1 + params.b1
        assert np.array_equal(gelu(pre), cache.layer.act)
        assert np.array_equal(gelu_prime(pre), cache.layer.dact)


class TestMcForward:
    def test_zero_dropout_collapses(self):
        params = toy_params(dropout=0.0)
        probs = mc_forward_batch(params, np.array([[0.5, 0.5, -0.5]]), 5, seed=0)
        for p in probs[1:]:
            np.testing.assert_array_equal(p, probs[0])

    def test_seeded_rng_reproducible(self):
        params = toy_params(dropout=0.3)
        x = np.array([[0.5, 0.5, -0.5]])
        a = mc_forward_batch(params, x, 5, seed=99)
        b = mc_forward_batch(params, x, 5, seed=99)
        np.testing.assert_array_equal(a, b)

    def test_rejects_zero_passes(self):
        with pytest.raises(InvalidInputError):
            mc_forward_batch(toy_params(), np.zeros((1, 3)), 0, seed=0)

    def test_batch_equals_separate_forward_passes(self):
        # Oracle: one full forward pass per keep pattern, bit for bit.
        params = init_student(16, 32, 4, dropout_rate=0.3, seed=5)
        x = np.random.default_rng(5).normal(size=(64, 16))
        passes, seed = 5, 17
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        keeps = rng.random((passes, 64, 32)) >= 0.3
        expected = np.stack(
            [softmax_rows(forward_batch(params, x, keeps[k])[0]) for k in range(passes)]
        )
        assert np.array_equal(mc_forward_batch(params, x, passes, seed), expected)

    def test_batch_matches_probability_axioms(self):
        params = toy_params(dropout=0.2)
        probs = mc_forward_batch(params, np.random.default_rng(3).normal(size=(5, 3)), 6, seed=1)
        np.testing.assert_allclose(probs.sum(axis=2), 1.0, atol=1e-12)


def _layer_cases():
    """call(params, x) for each function that takes an array or a layer."""
    from cotriad.generator import PerturbConfig, pgd_perturb_batch

    keep = draw_keeps(np.random.default_rng(21), (24, 32), 0.3)
    keeps = draw_keeps(np.random.default_rng(22), (4, 24, 32), 0.3)
    y = np.random.default_rng(23).integers(0, 4, size=24)
    weights = np.random.default_rng(24).random((2, 24))
    cases = {
        "forward_batch": lambda p, x: forward_batch(p, x)[0],
        "forward_batch_keep": lambda p, x: forward_batch(p, x, keep)[0],
        "mc_forward_batch": lambda p, x: mc_forward_batch(p, x, 4, seed=3),
        "loss_and_grads_ce": lambda p, x: loss_and_grads(p, x, y, "ce", keep),
        "loss_and_grads_entropy": lambda p, x: loss_and_grads(p, x, None, "entropy"),
        "weighted_ce_grads": lambda p, x: weighted_ce_grads(p, x, y, weights, keep),
        "input_entropy_grad": input_entropy_grad,
        "input_mi_grad": lambda p, x: input_mi_grad(p, x, keeps),
        "pgd_fgsm": lambda p, x: pgd_perturb_batch(p, x, PerturbConfig(epsilon=0.3)),
        "pgd_multi": lambda p, x: pgd_perturb_batch(
            p, x, PerturbConfig(epsilon=0.3, steps=4, step_size=0.1)
        ),
        "pgd_gamma": lambda p, x: pgd_perturb_batch(
            p,
            x,
            PerturbConfig(epsilon=0.3, gamma=0.5, steps=2, step_size=0.1, mi_passes=3),
            np.random.default_rng(25),
        ),
    }
    return [pytest.param(call, id=name) for name, call in cases.items()]


def _assert_same(a, b):
    if isinstance(a, (tuple, list)):
        assert type(a) is type(b) and len(a) == len(b)
        for u, v in zip(a, b):
            _assert_same(u, v)
    elif isinstance(a, Gradients):
        assert np.array_equal(a.vector, b.vector)
    else:
        assert np.array_equal(a, b)


class TestHiddenLayer:
    PARAMS = dict(d_in=16, d_h=32, n_classes=4, dropout_rate=0.3)

    def _inputs(self):
        params = init_student(**self.PARAMS, seed=20)
        x = np.random.default_rng(20).normal(size=(24, 16))
        return params, x

    @pytest.mark.parametrize("call", _layer_cases())
    def test_layer_gives_the_array_result_bit_for_bit(self, call):
        params, x = self._inputs()
        _assert_same(call(params, hidden_layer(params, x)), call(params, x))

    @pytest.mark.parametrize("call", _layer_cases())
    def test_layer_of_other_params_is_rebuilt(self, call):
        # Another params object, even one with equal weights, never reuses
        # the layer; a stale layer would give the other student's result.
        params, x = self._inputs()
        other = init_student(**self.PARAMS, seed=21)
        twin = params.with_vector(params.vector.copy())
        _assert_same(call(params, hidden_layer(other, x)), call(params, x))
        _assert_same(call(params, hidden_layer(twin, x)), call(params, x))

    def test_reuse_is_by_params_identity(self):
        params, x = self._inputs()
        layer = hidden_layer(params, x)
        assert hidden_layer(params, layer) is layer
        rebuilt = hidden_layer(params.with_vector(params.vector.copy()), layer)
        assert rebuilt is not layer and rebuilt.x is layer.x
        assert np.array_equal(rebuilt.act, layer.act)

    def test_layer_holds_input_activation_and_derivative_only(self):
        params, x = self._inputs()
        layer = hidden_layer(params, x)
        pre = x @ params.w1 + params.b1
        assert np.array_equal(layer.x, x)
        assert np.array_equal(layer.act, gelu(pre))
        assert np.array_equal(layer.dact, gelu_prime(pre))
        assert not hasattr(layer, "pre") and not hasattr(layer, "erf_pre")

    def test_rejects_wrong_input_dim(self):
        with pytest.raises(InvalidInputError):
            hidden_layer(init_student(**self.PARAMS), np.zeros((2, 5)))


class TestDropoutUnbiasedness:
    def test_inverted_scaling_is_unbiased(self):
        # E_masks[act * keep / (1-p)] should match the no-dropout activations;
        # checked within 3 sigma of the Monte Carlo standard error.
        params = toy_params(dropout=0.35)
        x = np.array([[0.7, -0.4, 1.2]])
        _, cache = forward_batch(params, x, None)
        clean = cache.layer.act[0]
        rng = np.random.default_rng(1)
        n = 10_000
        keeps = draw_keeps(rng, (n, TOY["d_h"]), 0.35)
        sampled = clean[None, :] * keeps / (1 - 0.35)
        se = sampled.std(axis=0, ddof=1) / math.sqrt(n)
        diff = np.abs(sampled.mean(axis=0) - clean)
        assert np.all(diff <= 3.0 * se + 1e-12)


class TestGradients:
    def test_ce_grads_match_finite_differences(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            params = toy_params(seed=trial, dropout=0.0)
            x = rng.normal(size=(4, 3))
            y = rng.integers(0, 3, size=4)
            _, grads = loss_and_grads(params, x, y, "ce")

            def f(vec):
                loss, _ = loss_and_grads(params.with_vector(vec), x, y, "ce")
                return loss

            fd = finite_diff_grad(f, params.vector, h=1e-5)
            np.testing.assert_allclose(grads.vector, fd, rtol=1e-5, atol=1e-8)

    def test_entropy_grads_match_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            params = toy_params(seed=trial + 300, dropout=0.0)
            x = rng.normal(size=(4, 3))
            _, grads = loss_and_grads(params, x, None, "entropy")

            def f(vec):
                loss, _ = loss_and_grads(params.with_vector(vec), x, None, "entropy")
                return loss

            fd = finite_diff_grad(f, params.vector, h=1e-5)
            np.testing.assert_allclose(grads.vector, fd, rtol=1e-5, atol=1e-8)

    def test_grads_with_dropout_masks_match_finite_differences(self):
        rng = np.random.default_rng(13)
        params = toy_params(seed=5, dropout=0.4)
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 3, size=6)
        keep = draw_keeps(rng, (6, TOY["d_h"]), 0.4)
        _, grads = loss_and_grads(params, x, y, "ce", keep)

        def f(vec):
            loss, _ = loss_and_grads(params.with_vector(vec), x, y, "ce", keep)
            return loss

        fd = finite_diff_grad(f, params.vector, h=1e-5)
        np.testing.assert_allclose(grads.vector, fd, rtol=1e-5, atol=1e-8)

    def test_zero_net_uniform_output_ce_gradient_closed_form(self):
        # With uniform output, d loss / d b2[y] = 1/C - 1 per sample.
        params = zero_params()
        x = np.array([[0.5, -0.5, 1.0], [1.0, 2.0, -1.0]])
        y = np.array([1, 1])
        _, grads = loss_and_grads(params, x, y, "ce")
        assert grads.b2[1] == pytest.approx(1 / 3 - 1.0, abs=1e-12)

    def test_entropy_gradient_vanishes_at_saturation(self):
        params = toy_params(dropout=0.0)
        big = params.with_vector(
            np.concatenate((params.w1.ravel(), params.b1, (params.w2 * 200.0).ravel(), params.b2))
        )
        x = np.random.default_rng(1).normal(size=(4, 3))
        _, grads = loss_and_grads(big, x, None, "entropy")
        assert grads.inf_norm() < 1e-8

    def test_weighted_ce_matches_manual_sum(self):
        rng = np.random.default_rng(3)
        params = toy_params(seed=2, dropout=0.0)
        x = rng.normal(size=(5, 3))
        y = rng.integers(0, 3, size=5)
        w = rng.random(5)
        (grads,) = weighted_ce_grads(params, x, y, w[None, :])
        with pytest.raises(InvalidInputError):
            weighted_ce_grads(params, x, y, w)
        vec = np.zeros_like(params.vector)
        for i in range(5):
            _, gi = loss_and_grads(params, x[i : i + 1], y[i : i + 1], "ce")
            vec += w[i] * gi.vector
        np.testing.assert_allclose(grads.vector, vec, rtol=1e-10, atol=1e-12)

    def test_input_entropy_grad_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        params = toy_params(seed=9, dropout=0.0)
        x = rng.normal(size=(3, 3))
        _, dx = input_entropy_grad(params, x)
        for i in range(3):
            def f(v):
                h, _ = input_entropy_grad(params, v[None, :])
                return float(h[0])

            fd = finite_diff_grad(f, x[i], h=1e-6)
            np.testing.assert_allclose(dx[i], fd, rtol=1e-5, atol=1e-8)

    def test_input_mi_grad_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        params = toy_params(seed=10, dropout=0.4)
        x = rng.normal(size=(2, 3))
        keeps = rng.random((5, 2, TOY["d_h"])) >= 0.4
        mi, dx = input_mi_grad(params, x, keeps)
        assert np.all(mi >= -1e-12)
        for i in range(2):
            def f(v):
                x2 = x.copy()
                x2[i] = v
                vals, _ = input_mi_grad(params, x2, keeps)
                return float(vals[i])

            fd = finite_diff_grad(f, x[i], h=1e-6)
            np.testing.assert_allclose(dx[i], fd, rtol=1e-4, atol=1e-8)

    def test_empty_batch_raises(self):
        with pytest.raises(InvalidInputError):
            loss_and_grads(toy_params(), np.zeros((0, 3)), np.zeros(0, dtype=int), "ce")


# The kernels the entropy ascent used before they were rewritten in place.
# Each new kernel must equal its oracle bit for bit.


def _gelu_oracle(u, erf_u=None):
    if erf_u is None:
        erf_u = erf(u * (1.0 / math.sqrt(2.0)))
    return u * 0.5 * (1.0 + erf_u)


def _gelu_prime_oracle(u, erf_u=None):
    if erf_u is None:
        erf_u = erf(u * (1.0 / math.sqrt(2.0)))
    phi = np.exp(-0.5 * u * u) * (1.0 / math.sqrt(2.0 * math.pi))
    return 0.5 * (1.0 + erf_u) + u * phi


def _hidden_layer_oracle_init(self, params, x):
    pre = x @ params.w1 + params.b1
    erf_pre = erf(pre * (1.0 / math.sqrt(2.0)))
    self.params = params
    self.x = x
    self.act = _gelu_oracle(pre, erf_pre)
    self.dact = _gelu_prime_oracle(pre, erf_pre)


def _softmax_rows_oracle(z, out=None):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    e = e / e.sum(axis=-1, keepdims=True)
    if out is None:
        return e
    out[...] = e
    return out


def _entropy_dlogits_oracle(probs):
    """``entropy_rows`` and a dlogits with its own log."""
    h = entropy_rows(probs)
    logp = np.where(probs <= 0.0, 0.0, np.log(np.maximum(probs, PROB_FLOOR)))
    return h, np.where(probs <= 0.0, 0.0, -probs * (logp + h[:, None]))


def _backward_to_pre_oracle(params, cache, dlogits):
    dhidden = dlogits @ params.w2.T
    dact = dhidden if cache.scale is None else dhidden * cache.scale
    return dact * cache.layer.dact


def _input_entropy_grad_oracle(params, x):
    """The evaluation-mode objective written out, one temporary per step."""
    pre = x @ params.w1 + params.b1
    erf_pre = erf(pre * (1.0 / math.sqrt(2.0)))
    act = _gelu_oracle(pre, erf_pre)
    dact = _gelu_prime_oracle(pre, erf_pre)
    logits = act @ params.w2 + params.b2
    h, dlogits = _entropy_dlogits_oracle(_softmax_rows_oracle(logits))
    return h, ((dlogits @ params.w2.T) * dact) @ params.w1.T


def _hard_case(seed, n, d_in, d_h, c, nan_row):
    """Params and an (n, d_in) input whose softmax has tied, underflowing
    (exactly 0) and, with ``nan_row``, NaN rows."""
    rng = np.random.default_rng(seed)
    dims = (d_in, d_h, c)
    params = StudentParams(rng.normal(size=d_in * d_h + d_h + d_h * c + c), dims, 0.3)
    # A large second layer saturates the softmax, so probabilities underflow.
    scale = rng.choice([0.1, 1.0, 100.0])
    params = params.with_vector(
        np.concatenate((params.w1.ravel(), params.b1, scale * params.w2.ravel(), params.b2))
    )
    x = rng.normal(size=(n, d_in))
    x[rng.random(n) < 0.2] = 0.0  # equal rows
    if c > 2:
        # Equal output columns give tied logits.
        w2 = params.w2.copy()
        w2[:, 1] = w2[:, 0]
        b2 = params.b2.copy()
        b2[1] = b2[0]
        params = params.with_vector(
            np.concatenate((params.w1.ravel(), params.b1, w2.ravel(), b2))
        )
    if nan_row:
        x[rng.integers(0, n)] = np.nan
    keeps = draw_keeps(rng, (3, n, d_h), 0.3)
    return params, x, keeps


hard_cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, 500),
    st.integers(1, 8),
    st.integers(1, 16),
    st.integers(2, 12),
    st.booleans(),
)


class TestEntropyAscentKernelsAgainstOracles:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 500))
    def test_gelu_and_gelu_prime(self, seed, n):
        rng = np.random.default_rng(seed)
        u = rng.normal(scale=rng.choice([1e-3, 1.0, 10.0, 40.0]), size=n)
        u[rng.random(n) < 0.1] = 0.0
        u[rng.random(n) < 0.05] = 5e-324  # subnormal
        u[rng.random(n) < 0.05] = np.nan
        e = erf(u * (1.0 / math.sqrt(2.0)))
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(gelu(u), _gelu_oracle(u))
            assert same_bits(gelu(u, 1.0 + e), _gelu_oracle(u, e))
            assert same_bits(gelu_prime(u), _gelu_prime_oracle(u))
            assert same_bits(gelu_prime(u, 1.0 + e), _gelu_prime_oracle(u, e))

    @settings(max_examples=80, deadline=None)
    @given(case=hard_cases)
    def test_hidden_layer_and_entropy_dlogits(self, case):
        params, x, _ = _hard_case(*case)
        oracle = object.__new__(student.HiddenLayer)
        with np.errstate(over="ignore", invalid="ignore"):
            layer = hidden_layer(params, x)
            _hidden_layer_oracle_init(oracle, params, x)
            assert same_bits(layer.act, oracle.act)
            assert same_bits(layer.dact, oracle.dact)
            probs = softmax_rows(forward_batch(params, layer)[0])
            assert same_bits(probs, _softmax_rows_oracle(forward_batch(params, x)[0]))
            assert same_bits(student._entropy_dlogits(probs), _entropy_dlogits_oracle(probs))

    @settings(max_examples=60, deadline=None)
    @given(case=hard_cases)
    def test_entropy_ascent_equals_the_oracle_kernels(self, case):
        params, x, keeps = _hard_case(*case)
        calls = [
            lambda: input_entropy_grad(params, x),
            lambda: loss_and_grads(params, x, None, "entropy", keeps[0]),
            lambda: input_mi_grad(params, x, keeps),
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            got = [call() for call in calls]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(student.HiddenLayer, "__init__", _hidden_layer_oracle_init)
                mp.setattr(student, "softmax_rows", _softmax_rows_oracle)
                mp.setattr(student, "_entropy_dlogits", _entropy_dlogits_oracle)
                mp.setattr(student, "_backward_to_pre", _backward_to_pre_oracle)
                want = [call() for call in calls]
        for g, w in zip(got, want):
            assert same_bits(g, w)

    @settings(max_examples=60, deadline=None)
    @given(case=hard_cases)
    def test_array_input_objective_equals_the_written_out_oracle(self, case):
        params, x, _ = _hard_case(*case)
        with np.errstate(over="ignore", invalid="ignore"):
            got = input_entropy_grad(params, x)
            want = _input_entropy_grad_oracle(params, x)
        assert same_bits(got, want)

    def test_nan_row_reaches_the_entropy_input_and_the_loss(self):
        # The non-finite guard reads the loss: a NaN input row must make the
        # CE loss, the row's entropy and the entropy gradient NaN.
        params, x, _ = _hard_case(5, 40, 4, 8, 4, nan_row=True)
        bad = np.isnan(x).any(axis=1)
        with np.errstate(invalid="ignore"):
            probs = softmax_rows(forward_batch(params, x)[0])
            h, dx = input_entropy_grad(params, x)
            ce, _ = loss_and_grads(params, x, np.zeros(40, dtype=int), "ce")
            _, g_ent = loss_and_grads(params, x, None, "entropy")
        assert np.isnan(probs[bad]).all() and np.isfinite(probs[~bad]).all()
        assert math.isnan(ce)
        assert np.isnan(dx[bad]).all() and np.isfinite(dx[~bad]).all()
        assert np.isnan(h[bad]).all() and np.isfinite(h[~bad]).all()
        assert np.isnan(g_ent.vector).any()


class TestOptimizer:
    def test_no_momentum_zero_grads_is_identity(self):
        params = toy_params()
        zeros = Gradients.zeros_like(params)
        new, _ = sgd_step(params, zeros, zeros, 0.1, 0.0, 0.0)
        np.testing.assert_array_equal(new.w1, params.w1)
        np.testing.assert_array_equal(new.b2, params.b2)

    def test_cosine_endpoints(self):
        assert cosine_lr(0.03, 0, 100) == pytest.approx(0.03)
        assert cosine_lr(0.03, 100, 100) == pytest.approx(0.0, abs=1e-18)
        assert cosine_lr(0.03, 50, 100) == pytest.approx(0.015)

    def test_momentum_accumulates(self):
        params = zero_params()
        g = Gradients(np.ones(TOY_SIZE), TOY_DIMS)
        p1, vel = sgd_step(params, g, Gradients.zeros_like(params), 1.0, 0.9, 0.0)
        assert p1.w1[0, 0] == pytest.approx(-1.0)
        p2, vel = sgd_step(p1, g, vel, 1.0, 0.9, 0.0)
        # velocity = 0.9 * 1 + 1 = 1.9 at the second step.
        assert p2.w1[0, 0] == pytest.approx(-1.0 - 1.9, rel=1e-6)

    def test_weight_norm_projection(self):
        params = toy_params(seed=3)
        bounded = project_weight_norm(params, 0.5)
        assert np.linalg.norm(bounded.vector) == pytest.approx(0.5, rel=1e-12)
        loose = project_weight_norm(params, 1e6)
        np.testing.assert_array_equal(loose.w1, params.w1)


class TestParamVectorRoundTrip:
    def test_round_trip(self):
        params = toy_params(seed=11)
        back = params.with_vector(params.vector.copy())
        np.testing.assert_array_equal(back.w1, params.w1)
        np.testing.assert_array_equal(back.b1, params.b1)
        np.testing.assert_array_equal(back.w2, params.w2)
        np.testing.assert_array_equal(back.b2, params.b2)
        assert back.dims == params.dims and back.dropout_rate == params.dropout_rate

    def test_wrong_length_raises(self):
        with pytest.raises(InvalidInputError):
            StudentParams(np.zeros(TOY_SIZE + 1), TOY_DIMS)

    @pytest.mark.parametrize("dropout", [1.0, math.nan, -0.5, 2.0])
    def test_dropout_outside_zero_one_raises(self, dropout):
        # One check, in the constructor: init_student and load_model reach it.
        for build in (lambda: StudentParams(np.zeros(TOY_SIZE), TOY_DIMS, dropout),
                      lambda: toy_params(dropout=dropout)):
            with pytest.raises(InvalidInputError, match=r"dropout_rate must lie in \[0, 1\)"):
                build()

    @pytest.mark.parametrize("cls", [StudentParams, Gradients])
    def test_pickle_keeps_the_segments_views_of_the_vector(self, cls):
        # Reports come back from worker processes pickled; the segments must
        # stay views into the vector, as _Flat builds them.
        params = toy_params(seed=12)
        flat = params if cls is StudentParams else Gradients(params.vector.copy(), params.dims)
        back = pickle.loads(pickle.dumps(flat))
        assert type(back) is cls and back.dims == flat.dims
        np.testing.assert_array_equal(back.vector, flat.vector)
        for name in ("w1", "b1", "w2", "b2"):
            segment = getattr(back, name)
            np.testing.assert_array_equal(segment, getattr(flat, name))
            assert np.shares_memory(segment, back.vector)
        if cls is StudentParams:
            assert back.dropout_rate == flat.dropout_rate


dims_strategy = st.tuples(
    st.integers(1, 12), st.integers(1, 12), st.integers(2, 6)
)


def _random_flat(rng, dims, cls=Gradients):
    d_in, d_h, c = dims
    return cls(rng.normal(size=d_in * d_h + d_h + d_h * c + c), dims)


def _segments(flat):
    """Standalone copies of the four arrays, sharing no memory."""
    return [a.copy() for a in (flat.w1, flat.b1, flat.w2, flat.b2)]


class TestFlatLayoutProperties:
    @settings(max_examples=60, deadline=None)
    @given(dims=dims_strategy, seed=st.integers(0, 2**32 - 1))
    def test_views_share_the_one_buffer(self, dims, seed):
        d_in, d_h, c = dims
        params = _random_flat(np.random.default_rng(seed), dims, StudentParams)
        shapes = [(d_in, d_h), (d_h,), (d_h, c), (c,)]
        views = [params.w1, params.b1, params.w2, params.b2]
        for view, shape in zip(views, shapes):
            assert view.shape == shape
            assert view.flags.c_contiguous
            assert np.shares_memory(view, params.vector)
        flat = np.concatenate([v.ravel() for v in views])
        np.testing.assert_array_equal(flat, params.vector)

    @settings(max_examples=60, deadline=None)
    @given(
        dims=dims_strategy,
        seed=st.integers(0, 2**32 - 1),
        momentum=st.sampled_from([0.0, 0.5, 0.9]),
        bound=st.sampled_from([0.0, 0.5, 3.0, 1e6]),
        step=st.integers(0, 9),
    )
    def test_sgd_step_matches_per_array_oracle(self, dims, seed, momentum, bound, step):
        rng = np.random.default_rng(seed)
        params = _random_flat(rng, dims, StudentParams)
        velocity = _random_flat(rng, dims)
        grads = _random_flat(rng, dims)
        lr = cosine_lr(0.1, step, 10)
        new, new_velocity = sgd_step(params, grads, velocity, lr, momentum, bound)

        vel = [momentum * v + g for v, g in zip(_segments(velocity), _segments(grads))]
        expected = [p - lr * v for p, v in zip(_segments(params), vel)]
        if bound > 0:
            norm = math.sqrt(float(sum(np.sum(a**2) for a in expected)))
            if norm > bound:
                expected = [(bound / norm) * a for a in expected]
        for got, want in zip(_segments(new), expected):
            assert np.array_equal(got, want)
        for got, want in zip(_segments(new_velocity), vel):
            assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(dims=dims_strategy, seed=st.integers(0, 2**32 - 1))
    def test_dot_is_the_sum_of_segment_dots(self, dims, seed):
        rng = np.random.default_rng(seed)
        a, b = _random_flat(rng, dims), _random_flat(rng, dims)
        expected = sum(np.vdot(u, v) for u, v in zip(_segments(a), _segments(b)))
        assert a.dot(b) == float(expected)
