"""Tests for bias-corrected entropy estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.relation import Relation
from repro.entropy.estimators import (
    ESTIMATORS,
    EstimatedEntropyEngine,
    jackknife_entropy,
    miller_madow_entropy,
    mle_entropy,
)
from repro.reference import entropy_by_counting
from tests.conftest import random_relation


class TestMle:
    def test_uniform(self):
        counts = np.array([2, 2, 2, 2])
        assert mle_entropy(counts, 8) == pytest.approx(2.0)

    def test_degenerate(self):
        assert mle_entropy(np.array([5]), 5) == 0.0
        assert mle_entropy(np.array([]), 0) == 0.0

    def test_matches_counting(self):
        r = random_relation(3, 50, seed=4)
        for attrs in ({0}, {1, 2}, {0, 1, 2}):
            counts = r.group_sizes(attrs)
            assert mle_entropy(counts, r.n_rows) == pytest.approx(
                entropy_by_counting(r, attrs), abs=1e-10
            )


class TestMillerMadow:
    def test_correction_size(self):
        counts = np.array([3, 3, 2])
        n = 8
        expected = mle_entropy(counts, n) + (3 - 1) / (2 * n * math.log(2))
        assert miller_madow_entropy(counts, n) == pytest.approx(expected)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 20), min_size=1, max_size=15))
    def test_always_at_least_mle(self, raw):
        counts = np.array(raw)
        n = int(counts.sum())
        assert miller_madow_entropy(counts, n) >= mle_entropy(counts, n)

    def test_reduces_bias_on_samples(self):
        """Average MM estimate across samples sits closer to the true
        entropy than the average MLE estimate (the bias story of N1)."""
        rng = np.random.default_rng(0)
        true_p = np.array([0.25] * 4 + [0.05] * 10 + [0.005] * 100)
        true_p = true_p / true_p.sum()
        true_h = -np.dot(true_p, np.log2(true_p))
        mle_estimates, mm_estimates = [], []
        for __ in range(40):
            sample = rng.choice(len(true_p), size=80, p=true_p)
            counts = np.bincount(sample, minlength=len(true_p))
            mle_estimates.append(mle_entropy(counts, 80))
            mm_estimates.append(miller_madow_entropy(counts, 80))
        mle_bias = abs(np.mean(mle_estimates) - true_h)
        mm_bias = abs(np.mean(mm_estimates) - true_h)
        assert np.mean(mle_estimates) < true_h  # plug-in biased downward
        assert mm_bias < mle_bias


class TestJackknife:
    def test_degenerate(self):
        assert jackknife_entropy(np.array([1]), 1) == 0.0
        assert jackknife_entropy(np.array([]), 0) == 0.0

    def test_uniform_large_sample_close_to_mle(self):
        counts = np.array([50, 50, 50, 50])
        h_jk = jackknife_entropy(counts, 200)
        assert h_jk == pytest.approx(2.0, abs=0.05)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=2, max_size=12))
    def test_nonnegative_and_bias_direction(self, raw):
        counts = np.array(raw)
        n = int(counts.sum())
        h_jk = jackknife_entropy(counts, n)
        assert h_jk >= 0.0
        # Jackknife corrects the downward bias: >= MLE (standard property).
        assert h_jk >= mle_entropy(counts, n) - 1e-9


class TestEngine:
    def test_registry(self):
        assert set(ESTIMATORS) == {"mle", "miller_madow", "jackknife"}

    def test_unknown_estimator(self):
        r = random_relation(2, 10, seed=0)
        with pytest.raises(ValueError, match="unknown estimator"):
            EstimatedEntropyEngine(r, estimator="magic")

    def test_mle_engine_matches_counting(self):
        r = random_relation(3, 40, seed=8)
        est = EstimatedEntropyEngine(r, estimator="mle")
        for attrs in ({0}, {0, 2}, {0, 1, 2}):
            assert est.entropy_of(frozenset(attrs)) == pytest.approx(
                entropy_by_counting(r, attrs), abs=1e-10
            )

    def test_corrected_engine_increases_entropies(self):
        r = random_relation(4, 30, seed=12)
        mm = EstimatedEntropyEngine(r, estimator="miller_madow")
        attrs = frozenset({0, 1, 2, 3})
        assert mm.entropy_of(attrs) >= entropy_by_counting(r, attrs)

    def test_memoised(self):
        r = random_relation(2, 20, seed=3)
        eng = EstimatedEntropyEngine(r)
        assert eng.entropy_of(frozenset({0})) == eng.entropy_of(frozenset({0}))

    def test_empty(self):
        r = Relation(np.zeros((0, 2), dtype=np.int64), ["a", "b"])
        assert EstimatedEntropyEngine(r).entropy_of(frozenset({0})) == 0.0
