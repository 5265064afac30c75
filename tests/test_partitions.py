"""Tests for stripped partitions (the CNT/TID analogue)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.relation import Relation
from repro.entropy.partitions import StrippedPartition
from repro.reference import entropy_by_counting
from tests.conftest import random_relation


def brute_partition(relation, attrs):
    """Clusters of row ids agreeing on attrs, singletons stripped."""
    groups = {}
    for t, row in enumerate(relation.codes[:, sorted(attrs)]):
        groups.setdefault(tuple(row), []).append(t)
    return sorted(sorted(g) for g in groups.values() if len(g) >= 2)


def clusters_of(part):
    return sorted(sorted(int(t) for t in c) for c in part.clusters())


class TestConstruction:
    def test_from_relation_strips_singletons(self):
        r = Relation.from_rows([(1,), (1,), (2,), (3,)], ["a"])
        p = StrippedPartition.from_relation(r, [0])
        assert p.n_clusters == 1
        assert clusters_of(p) == [[0, 1]]
        assert p.n_singletons() == 2

    def test_single_cluster(self):
        p = StrippedPartition.single_cluster(5)
        assert p.n_clusters == 1
        assert p.size == 5
        assert p.entropy() == pytest.approx(0.0)

    def test_single_cluster_tiny(self):
        p = StrippedPartition.single_cluster(1)
        assert p.n_clusters == 0
        assert p.entropy() == pytest.approx(0.0)

    def test_matches_brute_force(self):
        r = random_relation(3, 50, seed=9)
        for attrs in ([0], [1], [0, 2], [0, 1, 2]):
            p = StrippedPartition.from_relation(r, attrs)
            assert clusters_of(p) == brute_partition(r, attrs)


class TestEntropy:
    def test_uniform_distinct_rows(self):
        r = Relation.from_rows([(i,) for i in range(8)], ["a"])
        p = StrippedPartition.from_relation(r, [0])
        assert p.entropy() == pytest.approx(3.0)  # log2(8)

    def test_constant_column(self):
        r = Relation.from_rows([(7,)] * 10, ["a"])
        p = StrippedPartition.from_relation(r, [0])
        assert p.entropy() == pytest.approx(0.0)

    def test_matches_counting_reference(self):
        r = random_relation(4, 80, seed=5)
        for attrs in ([0], [2, 3], [0, 1, 2, 3]):
            p = StrippedPartition.from_relation(r, attrs)
            assert p.entropy() == pytest.approx(
                entropy_by_counting(r, attrs), abs=1e-10
            )

    def test_entropy_cached(self):
        r = random_relation(2, 30, seed=1)
        p = StrippedPartition.from_relation(r, [0])
        assert p.entropy() == p.entropy()


class TestErrors:
    def test_g3_key_error_unique_column(self):
        r = Relation.from_rows([(i,) for i in range(5)], ["a"])
        p = StrippedPartition.from_relation(r, [0])
        assert p.g3_key_error() == 0.0

    def test_g3_key_error_constant(self):
        r = Relation.from_rows([(1,)] * 4, ["a"])
        p = StrippedPartition.from_relation(r, [0])
        assert p.g3_key_error() == pytest.approx(3 / 4)

    def test_g1_error_bounds(self):
        r = random_relation(2, 40, seed=2)
        p = StrippedPartition.from_relation(r, [0])
        assert 0.0 <= p.g1_error() <= 1.0


class TestRepr:
    def test_repr(self):
        p = StrippedPartition.single_cluster(4)
        assert "StrippedPartition" in repr(p)


class TestRefinesGroupIds:
    """The vectorized refinement test must agree with the per-cluster loop."""

    @staticmethod
    def _loop_refines(part, target_ids):
        # The pre-vectorization reference implementation.
        for i in range(part.n_clusters):
            c = part.cluster(i)
            if len(np.unique(target_ids[c])) > 1:
                return False
        return True

    @given(seed=st.integers(0, 40), rows=st.integers(2, 60))
    @settings(max_examples=40, deadline=None)
    def test_matches_loop_version(self, seed, rows):
        r = random_relation(4, rows, seed=seed)
        part = StrippedPartition.from_relation(r, [0])
        for attrs in ([0], [0, 1], [1], [0, 1, 2], [3]):
            target_ids, _ = r.group_ids(attrs)
            assert part.refines_group_ids(target_ids) == self._loop_refines(
                part, target_ids
            )

    def test_exact_fd_detected(self):
        # b = f(a): the partition of {a} refines the grouping of {a,b}.
        rows = [(i % 3, (i % 3) * 10) for i in range(12)]
        r = Relation.from_rows(rows, ["a", "b"])
        part = StrippedPartition.from_relation(r, [0])
        ids_ab, _ = r.group_ids([0, 1])
        assert part.refines_group_ids(ids_ab)

    def test_violation_detected(self):
        rows = [(0, 0), (0, 1), (1, 2), (1, 2)]
        r = Relation.from_rows(rows, ["a", "b"])
        part = StrippedPartition.from_relation(r, [0])
        ids_ab, _ = r.group_ids([0, 1])
        assert not part.refines_group_ids(ids_ab)

    def test_empty_partition(self):
        r = Relation.from_rows([(1,), (2,), (3,)], ["a"])
        part = StrippedPartition.from_relation(r, [0])
        assert part.n_clusters == 0
        assert part.refines_group_ids(np.zeros(3, dtype=np.int64))
