"""MC-dropout statistics, MI bounds, and filter behavior."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotriad.engine import TrainConfig, _apply_filter
from cotriad.errors import InvalidInputError
from cotriad.student import init_student, mc_forward_batch
from cotriad.uncertainty import batch_statistics, confidence_filter, impurity, mi_filter

LN2 = 0.69314718055994530942


def hp_mutual_information(samples):
    """Independent oracle: the disagreement formula at 50 decimal digits."""
    mp.mp.dps = 50
    rows = [[mp.mpf(float(v)) for v in row] for row in samples]
    k = len(rows)
    mean = [sum(r[j] for r in rows) / k for j in range(len(rows[0]))]

    def h(dist):
        return -sum(p * mp.log(p) if p > 0 else mp.mpf(0) for p in dist)

    return float(h(mean) - sum(h(r) for r in rows) / k)


def one_sample(samples):
    """(K, 1, c) array: K passes over a single sample."""
    return np.asarray(samples, dtype=np.float64)[:, None, :]


class TestPredictiveMean:
    def test_identical_samples(self):
        p = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(batch_statistics(one_sample([p, p, p])).mean[0], p, rtol=1e-15)

    def test_symmetry(self):
        np.testing.assert_allclose(
            batch_statistics(one_sample([[1.0, 0.0], [0.0, 1.0]])).mean[0], [0.5, 0.5]
        )

    def test_matches_high_precision_mean(self):
        rng = np.random.default_rng(0)
        samples = rng.dirichlet(np.ones(4), size=5)
        mp.mp.dps = 50
        expected = [
            float(sum(mp.mpf(float(samples[k][j])) for k in range(5)) / 5)
            for j in range(4)
        ]
        mean = batch_statistics(one_sample(samples)).mean[0]
        np.testing.assert_allclose(mean, expected, rtol=1e-14)

    def test_empty_list_raises(self):
        with pytest.raises(InvalidInputError):
            batch_statistics(np.empty((0, 1, 3)))


class TestMutualInformation:
    def test_identical_distributions_give_zero(self):
        p = np.array([0.1, 0.6, 0.3])
        stats = batch_statistics(one_sample([p] * 7))
        assert abs(stats.mi[0]) <= 1e-12

    def test_maximal_disagreement(self):
        stats = batch_statistics(one_sample([[1.0, 0.0], [0.0, 1.0]]))
        assert stats.mi[0] == pytest.approx(LN2, abs=1e-12)
        assert stats.expected_entropy[0] == 0.0
        assert stats.predictive_entropy[0] == pytest.approx(LN2, abs=1e-12)

    def test_matches_high_precision_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            samples = rng.dirichlet(np.ones(4), size=5)
            mi = batch_statistics(one_sample(samples)).mi[0]
            assert mi == pytest.approx(hp_mutual_information(samples), abs=1e-12)

    def test_invariants_over_random_sets(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            c = int(rng.integers(2, 6))
            k = int(rng.integers(1, 8))
            samples = rng.dirichlet(np.ones(c), size=k)
            stats = batch_statistics(one_sample(samples))
            pe, ee, mi = stats.predictive_entropy[0], stats.expected_entropy[0], stats.mi[0]
            assert pe >= ee - 1e-9
            assert 0.0 <= mi <= math.log(c) + 1e-9
            assert mi <= pe + 1e-9

    def test_zero_dropout_mc_collapse(self):
        params = init_student(3, 4, 3, dropout_rate=0.0, seed=0)
        probs = mc_forward_batch(params, np.array([[0.4, -0.2, 1.0]]), 6, seed=1)
        assert batch_statistics(probs).mi[0] <= 1e-12

    def test_pseudo_label_tie_breaks_low(self):
        assert batch_statistics(one_sample([[0.5, 0.5]])).pseudo_label[0] == 0

    def test_inconsistent_lengths_raise(self):
        with pytest.raises(InvalidInputError):
            batch_statistics([[[0.5, 0.5]], [[0.3, 0.3, 0.4]]])


class TestBatchStatistics:
    def test_matches_per_sample_path(self):
        # Rows are independent: each sample's statistics equal those of a
        # batch holding that sample alone, and the MI the 50-digit oracle.
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(4), size=(5, 9))  # (passes, n, classes)
        stats = batch_statistics(probs)
        assert len(stats) == 9
        for i in range(9):
            alone = batch_statistics(probs[:, i : i + 1, :])
            assert stats.mi[i] == pytest.approx(alone.mi[0], abs=1e-14)
            assert stats.mi[i] == pytest.approx(hp_mutual_information(probs[:, i, :]), abs=1e-12)
            assert stats.pseudo_label[i] == alone.pseudo_label[0]


class TestFilters:
    def make_estimates(self, mi_values):
        probs = np.tile(np.array([[0.7, 0.3]]), (len(mi_values), 1))
        stats = batch_statistics(probs[None, :, :])
        # Craft estimates with prescribed MI values by patching the arrays.
        object.__setattr__(stats, "mi", np.asarray(mi_values, dtype=np.float64))
        return stats

    def test_zero_threshold_above_accepts_positive_mi(self):
        stats = self.make_estimates([0.0, 0.01, 0.2, 0.0])
        accepted, mask_rate = mi_filter(stats, 0.0, "above")
        np.testing.assert_array_equal(accepted, [1, 2])
        assert mask_rate == pytest.approx(0.5)

    def test_direction_below(self):
        stats = self.make_estimates([0.0, 0.01, 0.2, 0.05])
        accepted, _ = mi_filter(stats, 0.05, "below")
        np.testing.assert_array_equal(accepted, [0, 1])

    def test_ties_rejected_in_both_directions(self):
        stats = self.make_estimates([0.05])
        for direction in ("above", "below"):
            accepted, _ = mi_filter(stats, 0.05, direction)
            assert accepted.size == 0

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(12)
        mi = rng.random(50)
        stats = self.make_estimates(mi)
        accepted, _ = mi_filter(stats, 0.3, "above")
        expected = [i for i in range(50) if mi[i] > 0.3]
        np.testing.assert_array_equal(accepted, expected)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(13)
        stats = self.make_estimates(rng.random(100))
        prev = None
        for tau in np.linspace(0.0, 1.0, 11):
            acc, _ = mi_filter(stats, tau, "above")
            if prev is not None:
                assert set(acc).issubset(prev)
            prev = set(acc)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        taus=st.lists(st.floats(0.0, 1.2), min_size=2, max_size=2),
        tie=st.booleans(),
        direction=st.sampled_from(["above", "below"]),
        tau_conf=st.floats(0.34, 1.0),
    )
    def test_accepted_set_is_monotone_in_tau(self, seed, taus, tie, direction, tau_conf):
        # "below" accepts more rows as tau grows and "above" fewer; the
        # composed mi_conf set (MI gate and confidence gate) follows suit.
        probs = np.random.default_rng(seed).dirichlet(np.full(3, 0.7), size=(4, 40))
        stats = batch_statistics(probs)
        lo, hi = sorted(taus)
        if tie:  # a threshold exactly at one row's MI
            lo = min(float(stats.mi[seed % 40]), hi)
        cfg = TrainConfig(filter_mode="mi_conf", filter_direction=direction, tau_conf=tau_conf)
        for accept in (
            lambda tau: mi_filter(stats, tau, direction)[0],
            lambda tau: _apply_filter(cfg, stats, tau)[0],
        ):
            at_lo, at_hi = set(accept(lo)), set(accept(hi))
            assert at_lo <= at_hi if direction == "below" else at_hi <= at_lo

    def test_confidence_filter(self):
        probs = np.array([[[0.25, 0.25, 0.25, 0.25], [0.96, 0.02, 0.01, 0.01],
                           [1.0, 0.0, 0.0, 0.0]]])
        stats = batch_statistics(probs)
        np.testing.assert_array_equal(confidence_filter(stats, 0.95), [1, 2])
        # Uniform over 4 classes is rejected at 0.5; one-hot is always accepted.
        assert 0 not in confidence_filter(stats, 0.5)
        np.testing.assert_array_equal(confidence_filter(stats, 0.99), [2])

    def test_unknown_direction_raises(self):
        with pytest.raises(InvalidInputError):
            mi_filter(self.make_estimates([0.1]), 0.05, "sideways")


class TestImpurity:
    def test_counts_wrong_accepted(self):
        pseudo = np.array([0, 1, 2, 1])
        truth = np.array([0, 2, 2, 1])
        assert impurity(pseudo, np.array([0, 1, 2]), truth) == pytest.approx(1 / 3)

    def test_empty_accept_is_nan(self):
        assert math.isnan(impurity(np.array([0]), np.array([], dtype=int), np.array([0])))

    def test_unknown_labels_are_skipped(self):
        pseudo = np.array([0, 1])
        truth = np.array([-1, 1])
        assert impurity(pseudo, np.array([0, 1]), truth) == 0.0
