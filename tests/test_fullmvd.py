"""Tests for getFullMVDs against exhaustive enumeration."""

import time

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common import TOL
from repro.core.budget import SearchBudget
from repro.core.fullmvd import (
    get_full_mvds,
    key_separates,
    neighbors,
    pairwise_consistent,
)
from repro.core.measures import j_measure
from repro.core.mvd import MVD
from repro.data import datasets
from repro.entropy.oracle import make_oracle
from repro.reference import (
    full_mvds_with_key,
    search_full_mvds,
    separates as brute_separates,
)
from tests.conftest import random_relation


class TestNeighbors:
    def test_counts_without_pair(self):
        m = MVD({0}, [{1}, {2}, {3}])
        assert len(neighbors(m)) == 3

    def test_pair_excluded(self):
        m = MVD({0}, [{1}, {2}, {3}])
        nbrs = neighbors(m, pair=(1, 2))
        # Merging {1} with {2} is forbidden; the other two merges stand.
        assert len(nbrs) == 2
        assert all(n.separates(1, 2) for n in nbrs)

    def test_standard_mvd_has_no_neighbors(self):
        assert neighbors(MVD({0}, [{1}, {2}])) == []


class TestPairwiseConsistent:
    def test_consistent_input_returned_unchanged(self, fig1_oracle):
        m = MVD({0, 3}, [{1}, {2}, {4}, {5}])  # AD ->> B|C|E|F holds exactly
        out = pairwise_consistent(fig1_oracle, m, eps=0.0)
        assert out == m

    def test_forced_merges_applied(self, lemma54_oracle):
        # In the 2-tuple example every pair among A,B,C is fully correlated.
        m = MVD({0}, [{1}, {2}, {3}])
        out = pairwise_consistent(lemma54_oracle, m, eps=0.5)
        assert out is None  # all merges forced; collapses to one dependent

    def test_pair_collision_returns_none(self, lemma54_oracle):
        m = MVD({0}, [{1}, {2}, {3}])
        assert pairwise_consistent(lemma54_oracle, m, eps=0.5, pair=(1, 2)) is None

    def test_eps_one_keeps_bipartitions(self, lemma54_oracle):
        m = MVD({0}, [{1}, {2}, {3}])
        out = pairwise_consistent(lemma54_oracle, m, eps=1.0, pair=(1, 2))
        # I(.|X) = 1 <= eps for every pair, so nothing is forced.
        assert out == m


class TestGetFullMVDs:
    def test_lemma54_full_set(self, lemma54_oracle):
        """Section 5.2: FullMVD_1(R, X) = the three bipartitions."""
        out = get_full_mvds(lemma54_oracle, {0}, eps=1.0)
        assert set(out) == {
            MVD({0}, [{1, 2}, {3}]),
            MVD({0}, [{1, 3}, {2}]),
            MVD({0}, [{2, 3}, {1}]),
        }

    def test_lemma54_eps2_single_full(self, lemma54_oracle):
        out = get_full_mvds(lemma54_oracle, {0}, eps=2.0)
        assert out == [MVD({0}, [{1}, {2}, {3}])]

    def test_exact_case_at_most_one_full_mvd(self, fig1_oracle):
        """Beeri: FullMVD_0(R, X) has at most one element."""
        for key in ({0}, {0, 3}, {1, 3}, {2}):
            out = get_full_mvds(fig1_oracle, key, eps=0.0)
            assert len(out) <= 1

    def test_fig1_ad_key(self, fig1_oracle):
        out = get_full_mvds(fig1_oracle, {0, 3}, eps=0.0)
        # AD ->> B|C|E|F holds exactly (B,C,E,F mutually independent given AD).
        assert out == [MVD({0, 3}, [{1}, {2}, {4}, {5}])]

    def test_limit_k(self, lemma54_oracle):
        out = get_full_mvds(lemma54_oracle, {0}, eps=1.0, limit=1)
        assert len(out) == 1

    def test_pair_filtering(self, lemma54_oracle):
        out = get_full_mvds(lemma54_oracle, {0}, eps=1.0, pair=(1, 2))
        assert all(m.separates(1, 2) for m in out)
        assert set(out) == {
            MVD({0}, [{1, 3}, {2}]),
            MVD({0}, [{2, 3}, {1}]),
        }

    def test_key_containing_pair_member(self, fig1_oracle):
        assert get_full_mvds(fig1_oracle, {1}, eps=0.0, pair=(1, 4)) == []

    def test_too_few_free_attrs(self, fig1_oracle):
        assert get_full_mvds(fig1_oracle, set(range(5)), eps=1.0) == []

    def test_budget_truncates(self, fig1_oracle):
        budget = SearchBudget(max_steps=1).start()
        out = get_full_mvds(fig1_oracle, {2}, eps=0.0, budget=budget, optimized=False)
        assert len(out) <= 1

    @pytest.mark.parametrize("optimized", [True, False])
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.2, 0.6])
    def test_matches_reference_enumeration(self, optimized, eps):
        """Outputs ε-hold, are mutually refinement-free, and every reference
        full MVD is found."""
        r = random_relation(5, 20, seed=71)
        o = make_oracle(r)
        key = frozenset({0})
        got = get_full_mvds(o, key, eps, optimized=optimized)
        expected = full_mvds_with_key(r, key, eps)
        assert set(got) == set(expected)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2000), eps=st.sampled_from([0.0, 0.1, 0.4]))
    def test_property_vs_reference(self, seed, eps):
        r = random_relation(4, 15, seed=seed)
        o = make_oracle(r)
        key = frozenset({0})
        got = set(get_full_mvds(o, key, eps))
        expected = set(full_mvds_with_key(r, key, eps))
        assert got == expected

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2000), eps=st.sampled_from([0.0, 0.15, 0.5]))
    def test_outputs_hold_and_are_full(self, seed, eps):
        r = random_relation(5, 18, seed=seed)
        o = make_oracle(r)
        out = get_full_mvds(o, frozenset({1}), eps)
        for phi in out:
            assert j_measure(o, phi) <= eps + TOL
        for i, a in enumerate(out):
            for j, b in enumerate(out):
                if i != j:
                    assert not a.strictly_refines(b)


class ExhaustsAfter(SearchBudget):
    """A budget that runs out after ``limit`` ``exhausted`` checks
    (never, for ``None``), counting the checks made."""

    def __init__(self, limit=None):
        super().__init__()
        self.limit = limit
        self.checks = 0

    @property
    def exhausted(self) -> bool:
        self.checks += 1
        return self.limit is not None and self.checks > self.limit


class TestPruneBudget:
    """The prune of refined outputs is bounded by the search budget."""

    @pytest.mark.parametrize("pair", [None, (0, 1)])
    def test_budgeted_search_returns_within_a_second_of_budget(self, pair):
        # Key {5, 8} on the Echocardiogram surrogate: the search finds
        # about 1,700 outputs and the prune cuts them to 3.  A prune that
        # compared MVD objects pairwise, unchecked, took seconds after the
        # search had returned.
        relation = datasets.load("Echocardiogram")
        oracle = make_oracle(relation)
        start = time.perf_counter()
        get_full_mvds(oracle, {5, 8}, 0.05, pair=pair,
                      budget=SearchBudget(max_seconds=1.0))
        assert time.perf_counter() - start < 2.0

    # Inputs whose search finds outputs that other outputs refine.
    REFINED = pytest.mark.parametrize("seed,eps,rows", [
        (1, 0.3, 60), (11, 0.1, 60), (11, 0.5, 30), (16, 0.5, 60),
    ])

    @staticmethod
    def searched_nodes(r, eps):
        counter = ExhaustsAfter()
        found = get_full_mvds(make_oracle(r), {0}, eps, prune_refined=False,
                              budget=counter)
        return found, counter.checks  # one check per node the search pops

    @REFINED
    def test_completed_search_is_pruned_in_full(self, seed, eps, rows):
        r = random_relation(6, rows, seed=seed)
        found, nodes = self.searched_nodes(r, eps)
        full = get_full_mvds(make_oracle(r), {0}, eps)
        assert len(found) > len(full) >= 2
        # The step budget runs out on the search's last node, or the
        # clock lapses right after it: the answer is still complete.
        got = get_full_mvds(make_oracle(r), {0}, eps,
                            budget=SearchBudget(max_steps=nodes))
        assert got == full
        got = get_full_mvds(make_oracle(r), {0}, eps,
                            budget=ExhaustsAfter(nodes))
        assert got == full

    @REFINED
    def test_search_cut_short_keeps_finest_outputs(self, seed, eps, rows):
        r = random_relation(6, rows, seed=seed)
        _, nodes = self.searched_nodes(r, eps)
        for popped in range(nodes):
            # The budget runs out after ``popped`` nodes; the prune then
            # stops at its first comparison.
            raw = get_full_mvds(make_oracle(r), {0}, eps, prune_refined=False,
                                budget=ExhaustsAfter(popped))
            got = get_full_mvds(make_oracle(r), {0}, eps,
                                budget=ExhaustsAfter(popped))
            assert set(got) <= set(raw)
            if raw:
                most = max(len(phi.dependents) for phi in raw)
                assert got == sorted(phi for phi in raw
                                     if len(phi.dependents) == most)


class TestKeySeparates:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2000), eps=st.sampled_from([0.0, 0.2]))
    def test_matches_brute_force(self, seed, eps):
        r = random_relation(4, 15, seed=seed)
        o = make_oracle(r)
        pair = (2, 3)
        for key in (frozenset(), frozenset({0}), frozenset({0, 1})):
            assert key_separates(o, key, pair, eps) == brute_separates(
                r, key, pair, eps
            )

    def test_pair_in_key_never_separates(self, fig1_oracle):
        assert not key_separates(fig1_oracle, {0, 1}, (1, 4), 1.0)
        assert not key_separates(fig1_oracle, {0}, (0, 4), 1.0)
        assert not key_separates(fig1_oracle, {0}, (4, 4), 1.0)

    @pytest.mark.parametrize("optimized", [True, False])
    def test_pair_outside_relation_never_separates(self, optimized):
        o = make_oracle(random_relation(4, 15, seed=3))
        assert get_full_mvds(o, {0}, 1.0, pair=(1, 9), optimized=optimized) == []
        assert not key_separates(o, {0}, (1, 9), 1.0, optimized=optimized)


@st.composite
def search_calls(draw):
    """A relation (<= 7 attributes) and a few searches on it with one ε."""
    n_cols = draw(st.integers(2, 7))
    seed = draw(st.integers(0, 10_000))
    eps = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    attr = st.integers(0, n_cols - 1)
    call = st.fixed_dictionaries({
        # Small keys leave room for forced merges.  With a pair the
        # closure walk stops where the pair unites, so memo entries left
        # by one call are partial paths for the next.
        "key": st.frozensets(attr, max_size=2),
        "pair": st.tuples(attr, attr) | st.none(),
        "limit": st.none() | st.integers(1, 3),
        "optimized": st.booleans(),
        "prune_refined": st.booleans(),
    })
    return n_cols, seed, eps, draw(st.lists(call, min_size=1, max_size=4))


class TestMatchesReferenceSearch:
    """The bitmask search, with its consistency closure memoised across
    calls, returns what the MVD-object search of Figs. 6/16/17 returns,
    with the same engine evaluations and no more logical queries."""

    @pytest.mark.parametrize("engine", ["pli", "approx"])
    @settings(max_examples=60, deadline=None)
    @given(case=search_calls())
    # The first forced merge unites the pair, where Fig. 16 stops: a walk
    # that went on would evaluate sets Fig. 16 never asks for.  The second
    # call then continues the memoised partial path.
    @example(case=(4, 0, 0.0, [
        dict(key=frozenset(), pair=(0, 1), limit=1, optimized=True,
             prune_refined=False),
        dict(key=frozenset(), pair=None, limit=None, optimized=True,
             prune_refined=True),
    ]))
    def test_same_outputs_and_evals(self, engine, case):
        n_cols, seed, eps, calls = case
        r = random_relation(n_cols, 300, seed=seed, max_domain=2)

        def oracle():
            if engine == "pli":
                return make_oracle(r)
            # A sample of half the rows: some verdicts come from the
            # sample, saturated and straddling ones escalate.
            return make_oracle(r, engine="approx", sample_rows=150, sample_seed=seed)

        ref, new = oracle(), oracle()
        for kw in calls:
            expected = search_full_mvds(ref, eps=eps, **kw)
            assert get_full_mvds(new, eps=eps, **kw) == expected
            assert new.evals == ref.evals
            assert new.queries <= ref.queries
            if engine == "approx":
                assert new.escalations == ref.escalations
