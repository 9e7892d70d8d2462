"""Probability kernels against frozen high-precision values and oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotriad.errors import InvalidInputError, OracleFailureError
from cotriad.numerics import PROB_FLOOR, entropy_rows, finite_diff_grad, row_max, softmax_rows
from cotriad.student import forward_batch, init_student, loss_and_grads
from same_bits import same_bits

# The single-row, validated forms of the row kernels: the oracles they are
# checked against. The tests below certify each oracle first.

PROB_SUM_TOL = 1e-9


def softmax(logits):
    """Numerically stabilized softmax of a single logit vector."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size < 2:
        raise InvalidInputError("softmax expects a vector of length >= 2")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("softmax input must be finite")
    e = np.exp(z - z.max())
    return e / e.sum()


def check_prob_vector(p):
    """Validate the distribution invariants and return p as float64."""
    q = np.asarray(p, dtype=np.float64)
    if q.ndim != 1 or q.size < 2:
        raise InvalidInputError("probability vector must have length >= 2")
    if not np.all(np.isfinite(q)):
        raise InvalidInputError("probability vector must be finite")
    if q.min() < 0.0 or q.max() > 1.0:
        raise InvalidInputError("probability entries must lie in [0, 1]")
    if abs(q.sum() - 1.0) > PROB_SUM_TOL:
        raise InvalidInputError("probability entries must sum to 1")
    return q


def entropy(p):
    """Shannon entropy -sum p log p in nats, with 0 log 0 = 0."""
    q = check_prob_vector(p)
    live = q[q > 0.0]
    return float(-np.sum(live * np.log(live)))


def cross_entropy(p, y):
    """Negative log-likelihood -log p[y] with the probability floor."""
    q = check_prob_vector(p)
    if not 0 <= int(y) < q.size:
        raise InvalidInputError(f"class index {y} out of range [0, {q.size})")
    return float(-np.log(max(q[int(y)], PROB_FLOOR)))

# softmax([1, 2, 3]) evaluated with mpmath at 50 significant digits.
SOFTMAX_123 = np.array(
    [
        0.090030573170380457998,
        0.24472847105479765247,
        0.66524095577482188953,
    ]
)
# -(0.7 ln 0.7 + 0.3 ln 0.3), same precision.
ENTROPY_07_03 = 0.61086430205489346303


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0, 0, 0, 0]), 0.25, atol=1e-15)

    def test_saturation_does_not_overflow(self):
        out = softmax([1000.0, 0.0])
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_matches_high_precision_reference(self):
        np.testing.assert_allclose(softmax([1.0, 2.0, 3.0]), SOFTMAX_123, rtol=1e-14)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            z = rng.normal(scale=5.0, size=rng.integers(2, 9))
            p = softmax(z)
            assert abs(p.sum() - 1.0) <= 1e-9
            np.testing.assert_allclose(p, softmax(z + 17.5), atol=1e-12)

    def test_argmax_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            z = rng.normal(scale=3.0, size=6)
            assert np.argmax(softmax(z)) == np.argmax(z)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            softmax([np.inf, 0.0])
        with pytest.raises(InvalidInputError):
            softmax([np.nan, 0.0])

    def test_rejects_short_vector(self):
        with pytest.raises(InvalidInputError):
            softmax([1.0])


def _softmax_rows_oracle(z):
    """The reduction-max softmax that ``softmax_rows`` replaced."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def hard_logits(seed, n, c, nan_row):
    """(n, c) logits: tied maxima, entries whose probability underflows to 0
    (finite and -inf) and, with ``nan_row``, one row with one NaN entry and
    one row that is all NaN."""
    rng = np.random.default_rng(seed)
    z = rng.normal(scale=rng.choice([0.01, 1.0, 30.0]), size=(n, c))
    kind = rng.integers(0, 5, size=n)
    top = z.argmax(axis=1)
    other = (top + 1) % c
    z[kind == 1, other[kind == 1]] = z[kind == 1, top[kind == 1]]
    z[kind == 2] = z[kind == 2, :1]
    z[kind == 3, other[kind == 3]] = z[kind == 3, top[kind == 3]] - 800.0
    z[kind == 4, other[kind == 4]] = -np.inf
    if nan_row:
        z[rng.integers(0, n), rng.integers(0, c)] = np.nan
        z[rng.integers(0, n)] = np.nan
    return z


logit_cases = st.tuples(
    st.integers(0, 2**32 - 1), st.integers(1, 500), st.integers(2, 12), st.booleans()
)


class TestRowKernelsAgainstOracles:
    @settings(max_examples=150, deadline=None)
    @given(case=logit_cases)
    def test_softmax_rows_equals_reduction_max_softmax(self, case):
        z = hard_logits(*case)
        with np.errstate(invalid="ignore"):
            got, want = softmax_rows(z), _softmax_rows_oracle(z)
            buffer = z.copy()
            in_place = softmax_rows(buffer, out=buffer)
        assert same_bits(row_max(z), z.max(axis=-1))
        assert same_bits(got, want)
        assert in_place is buffer and same_bits(in_place, want)

    def test_nan_row_reaches_the_probabilities(self):
        # A maximum that skipped NaN would hand finite probabilities to the
        # entropy and the loss, and the non-finite guard would see nothing.
        z = hard_logits(3, 50, 4, nan_row=True)
        bad = np.isnan(z).any(axis=1)
        with np.errstate(invalid="ignore"):
            p = softmax_rows(z)
        assert bad.sum() == 2
        assert np.isnan(row_max(z)[bad]).all()
        assert np.isnan(p[bad]).all() and np.isfinite(p[~bad]).all()

    def test_underflow_gives_exact_zero_and_ties_share_the_top(self):
        z = np.array([[0.0, -800.0, 1.0, 1.0], [2.0, 2.0, 2.0, -np.inf]])
        p = softmax_rows(z)
        assert p[0, 1] == 0.0 and p[0, 2] == p[0, 3]
        assert p[1, 3] == 0.0 and p[1, 0] == p[1, 1] == p[1, 2]


class TestEntropy:
    def test_uniform_is_maximal(self):
        assert entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-12)

    def test_one_hot_is_zero(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_matches_direct_formula(self):
        assert entropy([0.7, 0.3]) == pytest.approx(ENTROPY_07_03, abs=1e-14)

    def test_bounds_over_random_distributions(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            c = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(c))
            h = entropy(p)
            assert -1e-12 <= h <= math.log(c) + 1e-12

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(InvalidInputError):
            entropy([1.2, -0.2])


class TestCrossEntropy:
    def test_one_hot_at_target_is_zero(self):
        assert cross_entropy([1.0, 0.0], 0) == 0.0

    def test_clamp_floor(self):
        assert cross_entropy([1.0, 0.0], 1) == pytest.approx(
            27.631021115928548208, rel=1e-12
        )

    def test_uniform_case(self):
        for y in range(4):
            assert cross_entropy([0.25] * 4, y) == pytest.approx(math.log(4), abs=1e-12)

    def test_rejects_bad_index(self):
        with pytest.raises(InvalidInputError):
            cross_entropy([0.5, 0.5], 2)


class TestRowKernelsAgainstSingleRowOracles:
    def test_softmax_and_entropy_rows(self):
        rng = np.random.default_rng(12)
        for c in range(2, 13):
            z = rng.normal(scale=4.0, size=(40, c))
            z[0, 1] = z[0, 0] - 800.0  # an underflowed probability
            p = softmax_rows(z)
            h = entropy_rows(p)
            for i in range(40):
                np.testing.assert_array_equal(p[i], softmax(z[i]))
                assert h[i] == pytest.approx(entropy(p[i]), rel=1e-14, abs=1e-15)

    def test_cross_entropy_loss_is_the_mean_single_row_loss(self):
        params = init_student(5, 7, 3, dropout_rate=0.0, seed=13)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(30, 5)) * 4.0
        y = rng.integers(0, 3, size=30)
        p = softmax_rows(forward_batch(params, x)[0])
        loss, _ = loss_and_grads(params, x, y, "ce")
        want = np.mean([cross_entropy(p[i], y[i]) for i in range(30)])
        assert loss == pytest.approx(want, rel=1e-14)


class TestFiniteDiffGrad:
    def test_quadratic(self):
        g = finite_diff_grad(lambda v: float(v @ v), np.array([3.0]), h=1e-4)
        np.testing.assert_allclose(g, [6.0], atol=1e-6)

    def test_constant_function(self):
        g = finite_diff_grad(lambda v: 2.5, np.array([1.0, -2.0, 0.3]))
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_degree_two_polynomials_are_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            a = rng.normal(size=(n, n))
            a = a + a.T
            b = rng.normal(size=n)
            x = rng.normal(size=n)

            def f(v):
                return float(0.5 * v @ a @ v + b @ v)

            g = finite_diff_grad(f, x, h=1e-5)
            np.testing.assert_allclose(g, a @ x + b, rtol=1e-7, atol=1e-7)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(InvalidInputError):
            finite_diff_grad(lambda v: 0.0, np.zeros(2), h=0.0)

    def test_non_finite_evaluation_raises(self):
        with pytest.raises(OracleFailureError):
            finite_diff_grad(lambda v: float("nan"), np.zeros(2))

    def test_entropy_of_softmax_gradient(self):
        # dH(softmax(z))/dz_j = -p_j (log p_j + H); checked against the oracle.
        rng = np.random.default_rng(8)
        for _ in range(20):
            z = rng.normal(scale=2.0, size=5)
            p = softmax_rows(z[None, :])[0]
            h = -np.sum(p * np.log(p))
            analytic = -p * (np.log(p) + h)

            def f(v):
                q = softmax_rows(v[None, :])[0]
                return float(-np.sum(q * np.log(q)))

            fd = finite_diff_grad(f, z, h=1e-6)
            np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)
