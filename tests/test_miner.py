"""Tests for MVDMiner (phase 1)."""

import pytest

from repro.common import TOL
from repro.core.budget import SearchBudget
from repro.core.measures import j_measure
from repro.core.miner import MVDMiner, mine_mvds
from repro.reference import (
    all_standard_mvds,
    counting_oracle,
    full_mvds_with_key,
    minimal_separators,
)
from tests.conftest import random_relation

A, B, C, D, E, F = range(6)


class TestMinerOnFig1:
    def test_all_outputs_hold(self, fig1, fig1_oracle):
        result = mine_mvds(fig1, 0.0)
        for phi in result.mvds:
            assert j_measure(fig1_oracle, phi) <= TOL

    def test_paper_support_mvds_derivable(self, fig1):
        """The three support MVDs of Example 3.2 must be coarsenings of
        mined full MVDs with the same key (Theorem 5.7 in action)."""
        from repro.core.mvd import MVD

        result = mine_mvds(fig1, 0.0)
        paper = [
            MVD({B, D}, [{E}, {A, C, F}]),
            MVD({A, D}, [{C, F}, {B, E}]),
            MVD({A}, [{F}, {B, C, D, E}]),
        ]
        for psi in paper:
            assert any(
                phi.key == psi.key and phi.refines(psi) for phi in result.mvds
            ), psi.format("ABCDEF")

    def test_minsep_counts(self, fig1):
        result = mine_mvds(fig1, 0.0)
        assert result.n_min_seps > 0
        assert result.pairs_done == result.pairs_total == 15
        assert not result.timed_out
        assert result.entropy_queries > 0
        assert "done" in result.summary()

    def test_full_mvds_equal_minseps_at_zero(self, fig1):
        """Appendix 14: at eps=0, #full MVDs == #minimal separators."""
        result = mine_mvds(fig1, 0.0)
        assert result.n_mvds == result.n_min_seps


class TestMinerCorrectness:
    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_mined_equals_reference_union(self, eps):
        """M_eps == union over pairs/minimal separators of full MVDs."""
        r = random_relation(4, 14, seed=33)
        result = mine_mvds(r, eps)
        expected = set()
        for a in range(4):
            for b in range(a + 1, 4):
                for sep in minimal_separators(r, (a, b), eps):
                    expected |= set(full_mvds_with_key(r, sep, eps, pair=(a, b)))
        assert set(result.mvds) == expected

    def test_every_standard_mvd_implied(self, fig1, fig1_oracle):
        """Theorem 5.7: every exact standard MVD is derivable from M_0 —
        at eps=0 this reduces to: some mined MVD with key contained in the
        standard MVD's key refines/implies it.  We verify the weaker,
        checkable consequence: the miner finds MVDs for every separable
        pair that some exact standard MVD separates."""
        result = mine_mvds(fig1, 0.0)
        standard = all_standard_mvds(fig1, 0.0)
        separated_pairs = {
            (a, b)
            for phi in standard
            for a in range(6)
            for b in range(a + 1, 6)
            if phi.separates(a, b)
        }
        mined_pairs = {
            (a, b)
            for phi in result.mvds
            for a in range(6)
            for b in range(a + 1, 6)
            if phi.separates(a, b)
        }
        assert separated_pairs == mined_pairs


class TestMinerModes:
    def test_source_types(self, fig1, fig1_oracle):
        assert MVDMiner(fig1).mine(0.0).n_mvds == MVDMiner(fig1_oracle).mine(0.0).n_mvds
        with pytest.raises(TypeError):
            MVDMiner(42)

    def test_negative_eps_rejected(self, fig1):
        with pytest.raises(ValueError):
            MVDMiner(fig1).mine(-0.1)

    def test_restricted_pairs(self, fig1):
        result = MVDMiner(fig1).mine(0.0, pairs=[(A, F)])
        assert result.pairs_total == 1
        assert set(result.min_seps) == {(A, F)}

    def test_budget_timeout_flagged(self, fig1):
        budget = SearchBudget(max_steps=2).start()
        result = MVDMiner(fig1).mine(0.0, budget=budget)
        assert result.timed_out
        assert result.pairs_done < result.pairs_total
        assert "TIMEOUT" in result.summary()

    def test_unoptimized_agrees(self, fig1):
        opt = MVDMiner(fig1, optimized=True).mine(0.0)
        plain = MVDMiner(fig1, optimized=False).mine(0.0)
        assert set(opt.mvds) == set(plain.mvds)

    def test_counting_reference_agrees(self, fig1):
        pli = mine_mvds(fig1, 0.0, engine="pli")
        reference = MVDMiner(counting_oracle(fig1)).mine(0.0)
        assert set(pli.mvds) == set(reference.mvds)
