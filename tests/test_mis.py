"""Tests for maximal independent set enumeration (JPY)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hypergraph.mis import (
    greedy_complete,
    is_independent,
    is_maximal_independent,
    maximal_independent_sets,
)
from repro.reference import brute_maximal_independent_sets


def adjacency_from_edges(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


class TestGreedyComplete:
    def test_empty_graph(self):
        adj = adjacency_from_edges(3, [])
        assert greedy_complete((), 3, adj) == frozenset({0, 1, 2})

    def test_path_graph(self):
        adj = adjacency_from_edges(3, [(0, 1), (1, 2)])
        assert greedy_complete((), 3, adj) == frozenset({0, 2})
        assert greedy_complete({1}, 3, adj) == frozenset({1})

    def test_rejects_dependent_seed(self):
        adj = adjacency_from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            greedy_complete({0, 1}, 2, adj)


class TestEnumeration:
    def test_empty_graph_single_mis(self):
        assert list(maximal_independent_sets(0, [])) == [frozenset()]

    def test_no_edges(self):
        adj = adjacency_from_edges(3, [])
        assert list(maximal_independent_sets(3, adj)) == [frozenset({0, 1, 2})]

    def test_triangle(self):
        adj = adjacency_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        out = set(maximal_independent_sets(3, adj))
        assert out == {frozenset({0}), frozenset({1}), frozenset({2})}

    def test_path4(self):
        adj = adjacency_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        out = set(maximal_independent_sets(4, adj))
        assert out == {
            frozenset({0, 2}),
            frozenset({0, 3}),
            frozenset({1, 3}),
        }

    def test_lexicographic_order(self):
        adj = adjacency_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        out = [tuple(sorted(s)) for s in maximal_independent_sets(4, adj)]
        assert out == sorted(out)

    def test_each_output_is_maximal(self):
        adj = adjacency_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
        for s in maximal_independent_sets(6, adj):
            assert is_maximal_independent(s, 6, adj)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 7),
        edge_bits=st.integers(0, 2**21 - 1),
    )
    def test_matches_brute_force(self, n, edge_bits):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [p for k, p in enumerate(pairs) if (edge_bits >> k) & 1]
        adj = adjacency_from_edges(n, edges)
        # The emitted order matters: ASMiner's candidate order follows it.
        got = list(maximal_independent_sets(n, adj))
        expected = sorted(brute_maximal_independent_sets(n, adj), key=sorted)
        assert got == expected


class TestPredicates:
    def test_is_independent(self):
        adj = adjacency_from_edges(3, [(0, 1)])
        assert is_independent({0, 2}, adj)
        assert not is_independent({0, 1}, adj)

    def test_is_maximal_independent(self):
        adj = adjacency_from_edges(3, [(0, 1)])
        assert is_maximal_independent({0, 2}, 3, adj)
        assert not is_maximal_independent({0}, 3, adj)  # can add 2
        assert not is_maximal_independent({0, 1}, 3, adj)  # not independent
