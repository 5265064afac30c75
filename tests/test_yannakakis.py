"""Tests for Yannakakis evaluation and the decomposed store."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schema import Schema
from repro.data.relation import Relation
from repro.quality.spurious import (
    _rooted_children,
    join_row_count,
    materialized_join_rows,
)
from repro.quality.yannakakis import (
    DecomposedBags,
    count_query,
    full_reducer,
    iter_join_rows,
    sum_query,
)
from repro.reference import brute_join_count
from repro.storage import DecomposedStore
from tests.conftest import random_relation

A, B, C, D, E, F = range(6)


def fs(*xs):
    return frozenset(xs)


FIG1_SCHEMA = Schema([fs(A, F), fs(A, C, D), fs(A, B, D), fs(B, D, E)])


class TestFullReducer:
    def test_consistent_input_unchanged(self, fig1):
        bags = DecomposedBags(fig1, FIG1_SCHEMA)
        before = [len(r) for r in bags.rows]
        full_reducer(bags)
        assert [len(r) for r in bags.rows] == before

    def test_dangling_tuples_removed(self):
        # Two bags sharing B; one B value dangles on each side.
        r = Relation.from_rows(
            [(0, 0, 0), (1, 1, 1), (2, 2, 2)], ["a", "b", "c"]
        )
        bags = DecomposedBags(r, Schema([fs(0, 1), fs(1, 2)]))
        # Manually inject a dangling tuple into bag 0.
        extra = np.array([[7, 9]])
        bags.rows[0] = np.vstack([bags.rows[0], extra])
        full_reducer(bags)
        assert len(bags.rows[0]) == 3  # dangling (7,9) gone

    def test_empty_bag_propagates(self):
        r = Relation.from_rows([(0, 0)], ["a", "b"])
        bags = DecomposedBags(r, Schema([fs(0), fs(1)]))
        bags.rows[1] = bags.rows[1][:0]  # empty one side
        full_reducer(bags)
        assert len(bags.rows[0]) == 0


class TestIterJoinRows:
    def test_fig1_join(self, fig1):
        bags = DecomposedBags(fig1, FIG1_SCHEMA)
        rows = set(iter_join_rows(bags))
        assert rows == materialized_join_rows(fig1, FIG1_SCHEMA)

    def test_fig1_red_includes_spurious(self, fig1_red):
        bags = DecomposedBags(fig1_red, FIG1_SCHEMA)
        rows = set(iter_join_rows(bags))
        assert len(rows) == 6
        assert fig1_red.row_set() < rows

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 3000))
    def test_matches_materialized_property(self, seed):
        r = random_relation(4, 15, seed=seed)
        schema = Schema([fs(0, 1), fs(1, 2), fs(2, 3)])
        bags = DecomposedBags(r, schema)
        assert set(iter_join_rows(bags)) == materialized_join_rows(r, schema)


@st.composite
def relations_with_schemas(draw):
    """A small relation and a random acyclic schema covering it.

    Bag ``i > 0`` hangs off an earlier bag: a subset (possibly empty) of
    that bag's attributes plus attributes no earlier bag has, so every
    attribute's bags stay connected (running intersection).  The rows
    have duplicates; a resample through ``take_rows`` also leaves codes
    non-dense.
    """
    n_cols = draw(st.integers(1, 7))
    n_rows = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.integers(0, draw(st.integers(1, 4)), size=(n_rows, n_cols))
    rel = Relation(codes, [f"A{j}" for j in range(n_cols)])
    if n_rows and draw(st.booleans()):
        rel = rel.take_rows(rng.integers(0, n_rows, size=draw(st.integers(0, n_rows))))
    attrs = draw(st.permutations(range(n_cols)))
    bags = []
    while attrs:
        k = draw(st.integers(1, len(attrs)))
        new, attrs = frozenset(attrs[:k]), attrs[k:]
        if bags:
            parent = draw(st.sampled_from(bags))
            new |= draw(st.sets(st.sampled_from(sorted(parent))))
        bags.append(new)
    return rel, Schema(bags)


def assert_counts_match_brute(rel, schema):
    want = brute_join_count(rel, schema.bags)
    assert join_row_count(rel, schema) == want
    assert count_query(DecomposedBags(rel, schema)) == want


class TestJoinCountDifferential:
    """``join_row_count``, ``count_query`` and ``sum_query`` (one pass)
    against the brute-force join."""

    @settings(max_examples=150, deadline=None)
    @given(case=relations_with_schemas())
    def test_matches_brute_join(self, case):
        rel, schema = case
        assert_counts_match_brute(rel, schema)
        rows = materialized_join_rows(rel, schema)
        for attr in range(rel.n_cols):
            want = sum(row[attr] for row in rows)
            assert sum_query(DecomposedBags(rel, schema), attr) == want

    def test_empty_separator_is_cartesian(self):
        rel = random_relation(3, 12, seed=1)
        schema = Schema([fs(0), fs(1, 2)])
        assert schema.join_tree().bags[0] & schema.join_tree().bags[1] == fs()
        assert_counts_match_brute(rel, schema)
        assert join_row_count(rel, schema) == (
            rel.distinct_count([0]) * rel.distinct_count([1, 2])
        )

    def test_root_with_several_children(self):
        schema = Schema([fs(0, 1), fs(0, 2), fs(1, 3), fs(0, 4)])
        tree = schema.join_tree()
        children, _ = _rooted_children(len(tree.bags), tree.edges)
        assert len(children[0]) >= 2
        assert_counts_match_brute(random_relation(5, 25, seed=2), schema)

    def test_duplicate_and_non_dense_rows(self):
        rel = random_relation(4, 20, seed=3, max_domain=6)
        sample = rel.take_rows([5, 5, 0, 7, 7, 7, 12])
        assert sample.n_rows > sample.distinct_count(range(4))
        assert sample.radix[0] > sample.cardinality(0)  # codes have holes
        assert_counts_match_brute(sample, Schema([fs(0, 1), fs(1, 2), fs(2, 3)]))

    def test_zero_rows(self):
        rel = Relation(np.zeros((0, 3), dtype=np.int64), ["a", "b", "c"])
        for schema in (Schema([fs(0, 1), fs(1, 2)]), Schema([fs(0), fs(1), fs(2)])):
            assert join_row_count(rel, schema) == 0
            assert_counts_match_brute(rel, schema)

    def test_store_backed_relation(self, tmp_path):
        from repro.backends import open_store_relation, write_store

        rel = random_relation(4, 40, seed=4)
        write_store(rel, str(tmp_path / "s.store"))
        stored = open_store_relation(str(tmp_path / "s.store"))
        schema = Schema([fs(0, 1), fs(1, 2), fs(1, 3)])
        want = brute_join_count(rel, schema.bags)
        assert join_row_count(stored, schema) == want
        assert count_query(DecomposedBags(stored, schema)) == want
        assert stored.kernels.snapshot()["chunked_materialized"] == 1

    def test_packed_store_is_not_loaded(self, tmp_path):
        # A store that packs is grouped over its packed tuples: neither a
        # join count nor a whole ``schemas`` request loads it.
        from repro import api
        from repro.backends import open_store_relation, write_store

        rng = np.random.default_rng(0)
        base = rng.integers(0, 3, (12, 5))
        rel = Relation.from_codes(base[rng.integers(0, 12, 300)])
        path = str(tmp_path / "s.store")
        write_store(rel, path)
        stored = open_store_relation(path)
        schema = Schema([fs(0, 1), fs(1, 2), fs(1, 3), fs(3, 4)])
        assert join_row_count(stored, schema) == brute_join_count(rel, schema.bags)
        snap = stored.kernels.snapshot()
        assert snap["chunked_materialized"] == 0
        assert snap["packs"] == 1

        spec = api.SchemasSpec(eps=0.2)
        got = api.run(api.TaskRequest("schemas", spec, data=api.DataSpec(store=path)))
        want = api.run(api.TaskRequest("schemas", spec), relation=rel)
        assert got.counters["kernel.chunked_materialized"] == 0
        assert got.payload["schemas"] == want.payload["schemas"]
        assert any(s["quality"]["spurious_pct"] > 0 for s in got.payload["schemas"])

    @pytest.mark.parametrize("shape", ["singletons", "chain"])
    def test_exact_beyond_int64(self, shape):
        # Both joins are every combination of column values, so their size
        # is the product of the column cardinalities (> 2**63 - 1).
        if shape == "singletons":
            # 14 columns x 50 values, every attribute its own bag: the
            # root's product overflows int64.
            rng = np.random.default_rng(5)
            codes = np.stack([rng.permutation(50) for _ in range(14)], axis=1)
            bags = [fs(j) for j in range(14)]
        else:
            # 21 columns x 10 values whose neighbours cover all 100 pairs,
            # bags {j, j+1}: the message into the root sums past int64.
            r = np.arange(100)
            codes = np.stack([r % 10 if j % 2 else r // 10 for j in range(21)], axis=1)
            bags = [fs(j, j + 1) for j in range(20)]
        rel = Relation(codes, [f"A{j}" for j in range(codes.shape[1])])
        schema = Schema(bags)
        want = math.prod(rel.cardinality(j) for j in range(rel.n_cols))
        assert want > np.iinfo(np.int64).max
        assert join_row_count(rel, schema) == want
        assert count_query(DecomposedBags(rel, schema)) == want


class TestAggregates:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 3000))
    def test_sum_matches_enumeration(self, seed):
        r = random_relation(4, 15, seed=seed)
        schema = Schema([fs(0, 1, 2), fs(2, 3)])
        bags = DecomposedBags(r, schema)
        rows = list(iter_join_rows(DecomposedBags(r, schema)))
        for attr in range(4):
            expected = sum(row[attr] for row in rows)
            assert sum_query(bags, attr) == expected, f"attr {attr}"

    def test_sum_on_star_schema(self):
        r = Relation.from_rows(
            [(0, 1, 10), (0, 2, 10), (1, 3, 20)], ["k", "x", "v"]
        )
        schema = Schema([fs(0, 1), fs(0, 2)])
        bags = DecomposedBags(r, schema)
        rows = list(iter_join_rows(DecomposedBags(r, schema)))
        assert sum_query(bags, 2) == sum(row[2] for row in rows)


class TestDecomposedStore:
    def test_schema_validation(self, fig1):
        with pytest.raises(ValueError, match="cover"):
            DecomposedStore(fig1, Schema([fs(0, 1)]))
        cyclic = Schema([fs(0, 1), fs(1, 2), fs(0, 2), fs(3), fs(4), fs(5)])
        with pytest.raises(ValueError, match="acyclic"):
            DecomposedStore(fig1, cyclic)

    def test_membership(self, fig1):
        store = DecomposedStore(fig1, FIG1_SCHEMA)
        for row in fig1.codes:
            assert store.contains(row)
        assert not store.contains([9, 9, 9, 9, 9, 9])

    def test_membership_width_check(self, fig1):
        store = DecomposedStore(fig1, FIG1_SCHEMA)
        with pytest.raises(ValueError):
            store.contains([0, 0])

    def test_spurious_membership(self, fig1_red):
        """The spurious tuple is 'stored' — that is exactly the loss E."""
        store = DecomposedStore(fig1_red, FIG1_SCHEMA)
        # (a2,b2,c2,d2,e2,f2) decodes to codes via the column domains.
        codes = [
            fig1_red.domains[j].index(v)
            for j, v in enumerate(("a2", "b2", "c2", "d2", "e2", "f2"))
        ]
        assert store.contains(codes)
        assert store.spurious_count() == 1

    def test_counts_and_savings(self, fig1):
        store = DecomposedStore(fig1, FIG1_SCHEMA)
        assert store.count() == 4
        assert store.spurious_count() == 0
        assert store.stored_cells == sum(
            r.shape[0] * r.shape[1] for r in store.bags.rows
        )
        assert "DecomposedStore" in repr(store)

    def test_reconstruct_roundtrip(self, fig1):
        store = DecomposedStore(fig1, FIG1_SCHEMA)
        back = store.reconstruct()
        assert back.row_set() == fig1.row_set()
        assert back.columns == fig1.columns

    def test_sum_by_name(self):
        r = Relation.from_rows([(0, 5), (1, 7)], ["k", "v"])
        store = DecomposedStore(r, Schema([fs(0, 1)]))
        # Codes, not decoded values: v codes are 0 and 1.
        assert store.sum("v") == 1
