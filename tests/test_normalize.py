"""Tests for the classical normalisation baselines (BCNF / 4NF)."""

import pytest

from repro.core.budget import SearchBudget
from repro.core.maimon import Maimon
from repro.core.normalize import fourNF_decompose
from repro.core.schema import Schema
from repro.data.generators import decomposable
from repro.data.relation import Relation
from repro.entropy.oracle import make_oracle
from repro.fd.normalize import bcnf_decompose, is_superkey
from repro.quality.spurious import spurious_tuple_count


@pytest.fixture
def pure_mvd_relation():
    """emp ->> skill | lang with no FDs (cross products per employee)."""
    rows = []
    for emp, skills, langs in [
        ("ann", ["sql", "ml"], ["en", "fr"]),
        ("bob", ["ops"], ["en", "de"]),
        ("eve", ["ml", "viz", "ops"], ["en"]),
    ]:
        for s in skills:
            for lang in langs:
                rows.append((emp, s, lang))
    return Relation.from_rows(rows, ["emp", "skill", "lang"])


class TestIsSuperkey:
    def test_key_column(self):
        r = Relation.from_rows([(i, i % 2) for i in range(6)], ["a", "b"])
        omega = frozenset({0, 1})
        assert is_superkey(r, frozenset({0}), omega)
        assert not is_superkey(r, frozenset({1}), omega)

    def test_fragment_reads_original_columns(self):
        # Column 2 is constant and column 3 a key, so within {1, 2, 3} the
        # set {2} is no superkey and {3} is one; column 0 lies outside.
        r = Relation.from_rows([(i % 2, i % 3, 0, i) for i in range(6)], list("abcd"))
        within = frozenset({1, 2, 3})
        assert not is_superkey(r, frozenset({2}), within)
        assert is_superkey(r, frozenset({3}), within)
        assert is_superkey(r, frozenset({0, 3}), within)


class TestBcnf:
    def test_fragment_without_last_column_index(self):
        # c -> b and d -> a: the first split leaves the fragment {a, c, d},
        # whose superkey check must read column d as column 3.
        rows = [(d % 2, c % 2, c, d) for c in range(4) for d in range(4)]
        r = Relation.from_rows(rows, list("abcd"))
        schema = bcnf_decompose(r)
        assert schema == Schema([frozenset({0, 3}), frozenset({1, 2}), frozenset({2, 3})])
        assert spurious_tuple_count(r, schema) == 0

    def test_fd_chain_decomposes(self):
        # a -> b -> c: classic transitive dependency; BCNF splits it.
        rows = [(i, i % 3, (i % 3) % 2) for i in range(12)]
        r = Relation.from_rows(rows, ["a", "b", "c"])
        schema = bcnf_decompose(r)
        assert schema.m >= 2
        assert schema.attributes == frozenset(range(3))
        # BCNF via FDs is lossless.
        assert spurious_tuple_count(r, schema) == 0

    def test_pure_mvd_not_decomposed(self, pure_mvd_relation):
        """No FDs -> BCNF leaves the relation whole; Maimon splits it."""
        schema = bcnf_decompose(pure_mvd_relation)
        assert schema.m == 1
        maimon = Maimon(pure_mvd_relation)
        assert any(ds.schema.m == 2 for ds in maimon.discover(0.0))

    def test_key_relation_already_bcnf(self):
        r = Relation.from_rows([(i, i * 7 % 13) for i in range(10)], ["a", "b"])
        # a is a key and a -> b, so the relation is already in BCNF.
        assert bcnf_decompose(r).m == 1


class TestFourNF:
    def test_pure_mvd_decomposed(self, pure_mvd_relation):
        schema = fourNF_decompose(pure_mvd_relation, eps=0.0)
        assert schema == Schema([frozenset({0, 1}), frozenset({0, 2})])
        assert spurious_tuple_count(pure_mvd_relation, schema) == 0

    def test_fig1_exact(self, fig1):
        schema = fourNF_decompose(fig1, eps=0.0)
        assert schema.m >= 2
        assert schema.is_acyclic()
        # Exact 4NF decomposition is lossless.
        assert spurious_tuple_count(fig1, schema) == 0

    def test_planted_chain(self):
        r = decomposable([["A", "B"], ["B", "C"], ["C", "D"]], 400, seed=3)
        schema = fourNF_decompose(r, eps=0.0)
        assert schema.m >= 3
        assert spurious_tuple_count(r, schema) == 0

    def test_result_among_asminer_outputs_or_finer(self, fig1):
        """4NF yields one decomposition; ASMiner enumerates many — the 4NF
        schema's J must be (near) zero like every exact schema."""
        o = make_oracle(fig1)
        schema = fourNF_decompose(fig1, eps=0.0, oracle=o)
        assert schema.j_measure(o) == pytest.approx(0.0, abs=1e-6)

    def test_budget_returns_partial(self, fig1):
        budget = SearchBudget(max_steps=1).start()
        budget.tick()
        schema = fourNF_decompose(fig1, eps=0.0, budget=budget)
        assert schema.m >= 1  # whole relation returned un-split

    def test_no_structure_no_split(self):
        # Two perfectly correlated columns cannot be separated.
        r = Relation.from_rows([(0, 0), (1, 1), (2, 2)], ["a", "b"])
        assert fourNF_decompose(r, eps=0.0).m == 1
