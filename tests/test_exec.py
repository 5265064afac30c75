"""Tests for the batched + parallel entropy execution subsystem."""

import itertools
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import TOL
from repro.core.minsep import mine_all_min_seps
from repro.entropy.oracle import EntropyOracle, make_oracle
from repro.entropy.plicache import PLICacheEngine
from repro.exec.batch import BatchEntropyOracle
from repro.exec.persist import PersistentEntropyCache, relation_fingerprint
from repro.exec.plan import (
    estimated_cost,
    mi_entropy_sets,
    plan_entropy_requests,
    shard,
)
from repro.exec.pool import ParallelEvaluator
from repro.fd.tane import mine_fds
from repro.reference import entropy_by_counting
from tests.conftest import random_relation


def all_subsets(n, max_size=None):
    max_size = n if max_size is None else max_size
    for r in range(max_size + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(n), r))


# --------------------------------------------------------------------- #
# Engine / oracle parity
# --------------------------------------------------------------------- #

class TestParity:
    """The exact engine and the batch oracle (serial and parallel) must
    agree with brute-force counting within TOL on random relations."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2000), rows=st.integers(2, 60))
    def test_engines_and_serial_batch_agree(self, seed, rows):
        r = random_relation(4, rows, seed=seed)
        pli = PLICacheEngine(r)
        batch = BatchEntropyOracle(r, workers=1)
        sets = list(all_subsets(4))
        hs = batch.entropies(sets)
        for attrs in sets:
            expected = entropy_by_counting(r, attrs)
            assert pli.entropy_of(attrs) == pytest.approx(expected, abs=TOL)
            assert hs[attrs] == pytest.approx(expected, abs=TOL)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_parallel_batch_agrees(self, seed):
        r = random_relation(5, 200, seed=seed)
        serial = make_oracle(r)
        parallel = BatchEntropyOracle(r, workers=2)
        sets = list(all_subsets(5))
        try:
            hs = parallel.entropies(sets)
        finally:
            parallel.close()
        for attrs in sets:
            assert hs[attrs] == pytest.approx(serial.entropy(attrs), abs=TOL)

    def test_mutual_informations_match_serial_formula(self):
        r = random_relation(5, 120, seed=3)
        serial = make_oracle(r)
        batch = BatchEntropyOracle(r, workers=1)
        triples = [
            ({0}, {1}, {2}),
            ({0, 3}, {1}, ()),
            ({4}, {2, 3}, {0, 1}),
        ]
        got = batch.mutual_informations(triples)
        want = [serial.mutual_information(*t) for t in triples]
        assert got == pytest.approx(want, abs=TOL)

    def test_mining_identical_serial_vs_parallel(self):
        r = random_relation(6, 150, seed=11)
        serial = make_oracle(r)
        parallel = make_oracle(r, workers=2)
        try:
            assert mine_all_min_seps(parallel, 0.05) == mine_all_min_seps(serial, 0.05)
        finally:
            parallel.close()

    def test_drop_in_for_miner(self):
        from repro.core.miner import MVDMiner

        r = random_relation(4, 60, seed=2)
        oracle = BatchEntropyOracle(r, workers=1)
        result = MVDMiner(oracle).mine(0.0)  # isinstance(EntropyOracle) path
        assert result.pairs_done == result.pairs_total


# --------------------------------------------------------------------- #
# Query accounting (queries = logical requests, evals = engine work)
# --------------------------------------------------------------------- #

class TestAccounting:
    def test_queries_count_duplicates_evals_do_not(self):
        r = random_relation(3, 30, seed=0)
        o = BatchEntropyOracle(r)
        o.entropies([{0}, {0}, {1}, {0, 1}, {1}])
        assert o.queries == 5   # logical requests, duplicates included
        assert o.evals == 3     # engine saw each distinct set once
        o.entropies([{0}, {2}])
        assert o.queries == 7
        assert o.evals == 4     # {0} memoised, only {2} evaluated

    def test_base_oracle_same_semantics(self):
        r = random_relation(3, 30, seed=0)
        o = EntropyOracle(r)
        o.entropy({0})
        o.entropy({0})
        o.mutual_information({0}, {1})
        assert o.queries == 6   # 1 + 1 + 4
        assert o.evals == 4     # {0} once, then {1}, {0,1}, {} once each
        o.reset_stats()
        assert (o.queries, o.evals) == (0, 0)

    def test_prefetch_counts_no_queries(self):
        r = random_relation(4, 50, seed=1)
        o = BatchEntropyOracle(r, workers=2)
        try:
            n = o.prefetch(all_subsets(4, 2))
            assert n > 0
            assert o.queries == 0
            assert o.evals == n
            # Prefetched sets now serve logical queries from the memo.
            o.entropy({0, 1})
            assert o.queries == 1
            assert o.evals == n
        finally:
            o.close()

    def test_serial_prefetch_is_noop(self):
        r = random_relation(3, 20, seed=2)
        o = BatchEntropyOracle(r, workers=1)
        assert o.prefetch([{0}, {1}]) == 0
        assert o.evals == 0
        assert not o.prefers_batches


# --------------------------------------------------------------------- #
# Planner
# --------------------------------------------------------------------- #

class TestPlan:
    def test_dedupe_and_containment_order(self):
        plan = plan_entropy_requests([{2, 1}, {0}, {1, 2}, {1}, {0, 1, 2}, {0}])
        assert plan.logical == 6
        assert plan.unique == (
            frozenset({0}),
            frozenset({1}),
            frozenset({1, 2}),
            frozenset({0, 1, 2}),
        )
        assert plan.dedup_savings == 2

    def test_shard_covers_in_order_and_balances(self):
        sets = [frozenset(range(k)) for k in range(1, 30)]
        shards = shard(sets, 4)
        assert [s for piece in shards for s in piece] == sets
        assert 1 <= len(shards) <= 4
        costs = [sum(estimated_cost(s) for s in piece) for piece in shards]
        assert max(costs) <= 2 * min(costs)

    def test_shard_degenerate(self):
        assert shard([], 4) == []
        assert shard([frozenset({1})], 4) == [[frozenset({1})]]

    def test_mi_entropy_sets(self):
        xy, xz, xyz, x = mi_entropy_sets({1}, {2}, {0})
        assert (xy, xz, xyz, x) == (
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({0, 1, 2}),
            frozenset({0}),
        )


# --------------------------------------------------------------------- #
# Process pool
# --------------------------------------------------------------------- #

class TestPool:
    def test_pool_entropies_match_serial(self):
        r = random_relation(5, 150, seed=4)
        sets = list(all_subsets(5, 3))
        with ParallelEvaluator(r, workers=2) as pool:
            got = pool.entropies(sets)
        for attrs in sets:
            assert got[attrs] == pytest.approx(
                entropy_by_counting(r, attrs), abs=TOL
            )

    def test_pool_g3_match_serial(self):
        from repro.fd.measures import g3_error

        r = random_relation(4, 80, seed=5)
        pairs = [((0,), 1), ((0, 2), 3), ((), 2)]
        with ParallelEvaluator(r, workers=2) as pool:
            got = pool.g3_errors(pairs)
        for lhs, rhs in pairs:
            assert got[(lhs, rhs)] == pytest.approx(
                g3_error(r, lhs, rhs), abs=1e-12
            )

    def test_tane_parallel_matches_serial(self):
        r = random_relation(5, 70, seed=6)
        assert mine_fds(r, workers=2) == mine_fds(r)

    def test_serial_evaluator_uses_no_pool(self):
        r = random_relation(3, 40, seed=7)
        pool = ParallelEvaluator(r, workers=1)
        pool.entropies([frozenset({0, 1})])
        assert pool._pool is None
        assert pool.serial_batches == 1


# --------------------------------------------------------------------- #
# Persistence
# --------------------------------------------------------------------- #

class TestPersist:
    def test_fingerprint_sensitivity(self):
        r1 = random_relation(3, 40, seed=8)
        r2 = random_relation(3, 40, seed=9)
        assert relation_fingerprint(r1) == relation_fingerprint(r1)
        assert relation_fingerprint(r1) != relation_fingerprint(r2)
        assert relation_fingerprint(r1) != relation_fingerprint(r1, params=("pli", 2))

    def test_cache_round_trip(self, tmp_path):
        r = random_relation(3, 40, seed=8)
        cache = PersistentEntropyCache(r, cache_dir=str(tmp_path))
        cache.put(frozenset({0, 1}), 1.25)
        cache.flush()
        reloaded = PersistentEntropyCache(r, cache_dir=str(tmp_path))
        assert reloaded.get(frozenset({0, 1})) == 1.25
        assert reloaded.get(frozenset({2})) is None

    def test_warm_oracle_skips_engine(self, tmp_path):
        r = random_relation(4, 60, seed=10)
        sets = list(all_subsets(4))
        first = BatchEntropyOracle(r, persist=True, cache_dir=str(tmp_path))
        hs1 = first.entropies(sets)
        first.close()
        assert first.evals > 0
        second = BatchEntropyOracle(r, persist=True, cache_dir=str(tmp_path))
        hs2 = second.entropies(sets)
        second.close()
        assert second.evals == 0
        assert second.persist_hits == len([s for s in sets])
        assert hs2 == pytest.approx(hs1, abs=TOL)

    def test_cache_file_is_json(self, tmp_path):
        r = random_relation(3, 40, seed=8)
        o = BatchEntropyOracle(r, persist=True, cache_dir=str(tmp_path))
        o.entropies([{0}, {1, 2}])
        o.close()
        files = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
        assert len(files) == 1
        payload = json.loads((tmp_path / files[0]).read_text())
        assert payload["fingerprint"] == relation_fingerprint(
            r, params=("PLICacheEngine",)
        )
        assert len(payload["entropies"]) == 2


# --------------------------------------------------------------------- #
# make_oracle wiring
# --------------------------------------------------------------------- #

class TestMakeOracle:
    def test_serial_default_unchanged(self, fig1):
        o = make_oracle(fig1)
        assert type(o) is EntropyOracle

    def test_workers_or_persist_select_batch(self, fig1, tmp_path):
        o = make_oracle(fig1, workers=2)
        assert isinstance(o, BatchEntropyOracle)
        o.close()
        o = make_oracle(fig1, persist=True, cache_dir=str(tmp_path))
        assert isinstance(o, BatchEntropyOracle)
        o.close()
