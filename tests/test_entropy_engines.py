"""The exact engine vs the counting reference, plus Shannon laws."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import SpecError
from repro.entropy.plicache import PLICacheEngine
from repro.entropy.oracle import make_oracle
from repro.reference import entropy_by_counting
from tests.conftest import random_relation


def all_subsets(n, max_size=None):
    max_size = n if max_size is None else max_size
    for r in range(max_size + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(n), r))


class TestEngineAgreesWithCounting:
    def test_pli_equals_counting_all_subsets(self):
        r = random_relation(5, 64, seed=3)
        pli = PLICacheEngine(r)
        for attrs in all_subsets(5):
            assert pli.entropy_of(attrs) == pytest.approx(
                entropy_by_counting(r, attrs), abs=1e-9
            ), f"mismatch on {sorted(attrs)}"

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000), rows=st.integers(1, 60))
    def test_pli_equals_counting_property(self, seed, rows):
        r = random_relation(4, rows, seed=seed)
        pli = PLICacheEngine(r)
        for attrs in all_subsets(4):
            assert pli.entropy_of(attrs) == pytest.approx(
                entropy_by_counting(r, attrs), abs=1e-9
            )


class TestEntropyLaws:
    """H must satisfy the Shannon inequalities the algorithms rely on."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_monotone_and_submodular(self, seed):
        r = random_relation(4, 40, seed=seed)
        eng = PLICacheEngine(r)
        h = {attrs: eng.entropy_of(attrs) for attrs in all_subsets(4)}
        subsets = list(all_subsets(4))
        for x in subsets:
            for y in subsets:
                # Monotonicity: H(X) <= H(X u Y).
                assert h[x] <= h[x | y] + 1e-9
                # Submodularity: H(X) + H(Y) >= H(X u Y) + H(X n Y).
                assert h[x] + h[y] >= h[x | y] + h[x & y] - 1e-9

    def test_full_set_entropy_log_n_when_rows_distinct(self):
        r = random_relation(5, 30, seed=8)
        distinct = r.distinct()
        eng = PLICacheEngine(distinct)
        assert eng.entropy_of(frozenset(range(5))) == pytest.approx(
            math.log2(distinct.n_rows)
        )

    def test_empty_set_entropy_zero(self):
        r = random_relation(3, 10, seed=0)
        assert PLICacheEngine(r).entropy_of(frozenset()) == 0.0

    def test_empty_relation(self):
        import numpy as np
        from repro.data.relation import Relation

        r = Relation(np.zeros((0, 2), dtype=np.int64), ["a", "b"])
        assert PLICacheEngine(r).entropy_of(frozenset({0})) == 0.0
        assert PLICacheEngine(r).entropy_of(frozenset({0, 1})) == 0.0


class TestCaching:
    def test_memo_hit_is_not_an_evaluation(self):
        r = random_relation(6, 100, seed=4)
        eng = PLICacheEngine(r)
        first = eng.entropy_of(frozenset({0, 1, 4}))
        assert eng.entropy_of(frozenset({0, 1, 4})) == first
        assert eng.fast_entropies == 1

    def test_reset_stats_clears_fast_and_kernel_counters(self):
        r = random_relation(3, 20, seed=6)
        eng = PLICacheEngine(r)
        eng.entropy_of(frozenset({0, 1, 2}))
        assert eng.fast_entropies == 1
        assert sum(eng.kernel_stats.values()) > 0
        eng.reset_stats()
        assert eng.fast_entropies == 0
        assert sum(eng.kernel_stats.values()) == 0

    def test_kernel_stats_are_per_engine(self):
        # The dispatch counters live on the shared relation-level
        # GroupCounter; each engine reports deltas against its own
        # baseline, so resetting one engine never clobbers another's
        # view — and never zeroes the shared counters themselves.
        r = random_relation(3, 30, seed=7)
        a = PLICacheEngine(r)
        b = PLICacheEngine(r)
        a.entropy_of(frozenset({0, 1}))
        shared_before = sum(r.kernels.snapshot().values())
        b_before = b.kernel_stats
        a.reset_stats()
        assert sum(a.kernel_stats.values()) == 0
        assert b.kernel_stats == b_before
        assert sum(r.kernels.snapshot().values()) == shared_before
        b.entropy_of(frozenset({1, 2}))
        assert sum(b.kernel_stats.values()) > sum(b_before.values())
        assert sum(a.kernel_stats.values()) > 0  # shared accrual is visible


class TestMakeOracle:
    def test_engine_selection(self, fig1):
        assert isinstance(make_oracle(fig1, engine="pli").engine, PLICacheEngine)

    @pytest.mark.parametrize("engine", ["duckdb", "naive", "sql", "estimated"])
    def test_unknown_engine(self, fig1, engine):
        with pytest.raises(SpecError, match="unknown engine") as err:
            make_oracle(fig1, engine=engine)
        assert err.value.field == "engine"


class TestOutOfRangeAttrs:
    """Invalid column indices must raise, never silently drop bits."""

    def test_pli_out_of_range_raises(self):
        r = random_relation(5, 20, seed=3)
        eng = PLICacheEngine(r)
        with pytest.raises(IndexError):
            eng.entropy_of(frozenset({0, 99}))
        with pytest.raises(IndexError):
            eng.entropy_of(frozenset({99}))
