"""Tests for the batched + persistent entropy execution subsystem."""

import itertools
import json
import os
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import TOL
from repro.core.minsep import mine_all_min_seps
from repro.data.relation import Relation
from repro.entropy.oracle import EntropyOracle, make_oracle
from repro.entropy.plicache import PLICacheEngine
from repro.exec.batch import BatchEntropyOracle
from repro.exec import persist
from repro.exec.persist import (
    PersistentEntropyCache,
    fingerprint_stream,
    relation_fingerprint,
)
from repro.exec.plan import mi_entropy_sets, plan_entropy_requests
from repro.reference import entropy_by_counting
from tests.conftest import random_relation


def all_subsets(n):
    for r in range(n + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(n), r))


# --------------------------------------------------------------------- #
# Engine / oracle parity
# --------------------------------------------------------------------- #

class TestParity:
    """The exact engine and the batch oracle must agree with brute-force
    counting within TOL on random relations."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2000), rows=st.integers(2, 60))
    def test_engines_and_serial_batch_agree(self, seed, rows):
        r = random_relation(4, rows, seed=seed)
        pli = PLICacheEngine(r)
        batch = BatchEntropyOracle(r)
        sets = list(all_subsets(4))
        hs = batch.entropies(sets)
        for attrs in sets:
            expected = entropy_by_counting(r, attrs)
            assert pli.entropy_of(attrs) == pytest.approx(expected, abs=TOL)
            assert hs[attrs] == pytest.approx(expected, abs=TOL)

    def test_mutual_informations_match_serial_formula(self):
        r = random_relation(5, 120, seed=3)
        serial = make_oracle(r)
        batch = BatchEntropyOracle(r)
        triples = [
            ({0}, {1}, {2}),
            ({0, 3}, {1}, ()),
            ({4}, {2, 3}, {0, 1}),
        ]
        got = batch.mutual_informations(triples)
        want = [serial.mutual_information(*t) for t in triples]
        assert got == pytest.approx(want, abs=TOL)

    def test_mining_identical_plain_vs_persist(self, tmp_path):
        r = random_relation(6, 150, seed=11)
        want = mine_all_min_seps(make_oracle(r), 0.05)
        for _ in ("cold", "warm"):
            persisted = make_oracle(r, persist=True, cache_dir=str(tmp_path))
            try:
                assert mine_all_min_seps(persisted, 0.05) == want
            finally:
                persisted.close()

    def test_drop_in_for_miner(self):
        from repro.core.miner import MVDMiner

        r = random_relation(4, 60, seed=2)
        oracle = BatchEntropyOracle(r)
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

    def test_mi_entropy_sets(self):
        xy, xz, xyz, x = mi_entropy_sets({1}, {2}, {0})
        assert (xy, xz, xyz, x) == (
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({0, 1, 2}),
            frozenset({0}),
        )


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

    def test_fingerprint_hashes_codes_once(self, monkeypatch):
        """A relation keeps its column-hash state: repeated calls, with
        and without params, hash its codes once and give the digests of
        a fresh relation over the same codes."""
        calls = []
        hash_columns = persist._hash_columns

        def counting(*args):
            calls.append(args[0])
            return hash_columns(*args)

        monkeypatch.setattr(persist, "_hash_columns", counting)
        r = random_relation(3, 40, seed=8)
        plain = relation_fingerprint(r)
        with_params = relation_fingerprint(r, params=("pli", 2))
        assert relation_fingerprint(r) == plain
        assert relation_fingerprint(r, params=("pli", 2)) == with_params
        assert plain != with_params
        assert len(calls) == 1
        fresh = Relation(r.codes.copy(), r.columns, r.domains)
        assert relation_fingerprint(fresh, params=("pli", 2)) == with_params
        assert relation_fingerprint(fresh) == plain
        assert len(calls) == 2

    def test_derived_relations_fingerprint_their_own_codes(self):
        r = random_relation(3, 40, seed=8)
        relation_fingerprint(r)  # the source keeps its hash state

        def streamed(rel, params=()):
            chunks = ([rel.codes[:, j]] for j in range(rel.n_cols))
            return fingerprint_stream(
                rel.n_rows, rel.n_cols, rel.columns, chunks, params)

        copy = pickle.loads(pickle.dumps(r))
        derived = [r.take_rows([3, 1, 1, 7]), r.head(5),
                   r.sample_rows(10, seed=2), copy]
        for d in derived:
            assert relation_fingerprint(d) == streamed(d)
            assert relation_fingerprint(d, params=("x",)) == streamed(d, ("x",))
        assert relation_fingerprint(copy) == relation_fingerprint(r)
        assert relation_fingerprint(r) not in {
            relation_fingerprint(d) for d in derived[:3]}

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

    def test_persist_selects_batch(self, fig1, tmp_path):
        o = make_oracle(fig1, persist=True, cache_dir=str(tmp_path))
        assert isinstance(o, BatchEntropyOracle)
        o.close()
