"""The Section 6.3 SQL-query engine as the fidelity reference.

``SQLEntropyEngine`` renders the paper's CNT/TID queries verbatim; the
counts-first engine every run uses must agree with it.
"""

import itertools

import pytest

from repro.core.miner import MVDMiner
from repro.entropy.oracle import EntropyOracle, make_oracle
from repro.entropy.plicache import PLICacheEngine
from repro.entropy.sqlengine import SQLEntropyEngine
from tests.conftest import random_relation


def all_subsets(n):
    for r in range(n + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(n), r))


class TestCountsEngineAgainstSQL:
    @pytest.mark.parametrize("seed", [7, 8])
    @pytest.mark.parametrize("block_size", [1, 2, 10])
    def test_all_subsets_agree(self, block_size, seed):
        r = random_relation(5, 60, seed=seed)
        counts = PLICacheEngine(r)
        sql = SQLEntropyEngine(r, block_size=block_size)
        for attrs in all_subsets(5):
            assert counts.entropy_of(attrs) == pytest.approx(
                sql.entropy_of(attrs), abs=1e-9
            ), f"mismatch on {sorted(attrs)}"

    def test_fig1_paper_values(self, fig1):
        sql = SQLEntropyEngine(fig1)
        assert sql.entropy_of(frozenset(range(6))) == pytest.approx(2.0)
        assert sql.entropy_of(frozenset({1, 3, 4})) == pytest.approx(1.5)

    def test_empty_attrs_and_rows(self):
        import numpy as np
        from repro.data.relation import Relation

        r = Relation(np.zeros((0, 2), dtype=np.int64), ["a", "b"])
        sql = SQLEntropyEngine(r)
        assert sql.entropy_of(frozenset()) == 0.0
        assert sql.entropy_of(frozenset({0})) == 0.0


class TestCaching:
    def test_within_block_tables_persist(self):
        r = random_relation(4, 30, seed=9)
        sql = SQLEntropyEngine(r, block_size=4)
        sql.entropy_of(frozenset({0, 1, 2}))
        runs = sql.queries_run
        sql._entropy_memo.clear()
        sql.entropy_of(frozenset({0, 1, 2}))
        assert sql.queries_run == runs  # tables reused, no new combines

    def test_cross_block_prefix_tables_reused(self):
        r = random_relation(6, 30, seed=11)
        sql = SQLEntropyEngine(r, block_size=2)
        sql.entropy_of(frozenset({0, 2, 4}))
        runs = sql.queries_run
        sql.entropy_of(frozenset({0, 2}))  # a running union of the above
        assert sql.queries_run == runs

    def test_block_size_validation(self):
        r = random_relation(2, 5, seed=0)
        with pytest.raises(ValueError):
            SQLEntropyEngine(r, block_size=0)

    def test_reset_stats(self):
        r = random_relation(3, 20, seed=2)
        sql = SQLEntropyEngine(r, block_size=1)
        sql.entropy_of(frozenset({0, 1}))
        assert sql.queries_run > 0
        sql.reset_stats()
        assert sql.queries_run == 0


class TestEndToEnd:
    def test_oracle_integration(self, fig1):
        oracle = EntropyOracle(fig1, SQLEntropyEngine(fig1))
        assert oracle.mutual_information({2, 5}, {1, 4}, {0, 3}) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_mining_agrees_with_pli(self, fig1):
        sql_result = MVDMiner(EntropyOracle(fig1, SQLEntropyEngine(fig1))).mine(0.0)
        pli_result = MVDMiner(make_oracle(fig1, engine="pli")).mine(0.0)
        assert set(sql_result.mvds) == set(pli_result.mvds)


class TestOutOfRange:
    def test_sql_out_of_range_raises(self):
        r = random_relation(4, 20, seed=5)
        sql = SQLEntropyEngine(r, block_size=2)
        with pytest.raises(IndexError):
            sql.entropy_of(frozenset({0, 9}))
