"""Tests for stripped partitions (the CNT/TID analogue)."""

import pytest

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


class TestRepr:
    def test_repr(self):
        r = Relation.from_rows([(1,), (1,), (2,)], ["a"])
        p = StrippedPartition.from_relation(r, [0])
        assert "StrippedPartition" in repr(p)
