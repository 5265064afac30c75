"""Maximal independent set enumeration.

``ASMiner`` (Fig. 8) reduces acyclic-schema enumeration to enumerating the
maximal independent sets (MIS) of the MVD *incompatibility* graph, citing the
polynomial-delay algorithms of Johnson–Papadimitriou–Yannakakis and
Cohen–Kimelfeld–Sagiv (Theorem 7.3, delay ``O(|V|^3)``).

We implement the classic JPY scheme: fix a vertex order; from each output
MIS ``S`` and pivot vertex ``j`` derive the seed
``{u in S : u < j, u not adjacent to j} ∪ {j}``, greedily complete it to the
lexicographically smallest MIS containing it, and push it on a priority queue
keyed by lexicographic order.  With a seen-set this enumerates every MIS
exactly once, in lexicographic order, with polynomial delay per output.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Set, Union

from repro.lattice import bits_of, mask_of

Adjacency = Union[Dict[int, Set[int]], Sequence[Set[int]]]


def _neighbors(adjacency: Adjacency, v: int) -> Set[int]:
    return set(adjacency[v])


def _adjacency_masks(n: int, adjacency: Adjacency) -> List[int]:
    """``adjacency`` as one neighbour bitmask per vertex."""
    return [mask_of(adjacency[v]) for v in range(n)]


def _blocked(chosen: int, adj: List[int]) -> int:
    """The neighbours of the vertices in ``chosen``."""
    out = 0
    while chosen:
        low = chosen & -chosen
        out |= adj[low.bit_length() - 1]
        chosen ^= low
    return out


def _complete(chosen: int, free: int, adj: List[int]) -> int:
    """Add the lowest free vertex, block its neighbours, until none is free."""
    while free:
        low = free & -free
        chosen |= low
        free &= ~(adj[low.bit_length() - 1] | low)
    return chosen


def greedy_complete(seed: Iterable[int], n: int, adjacency: Adjacency) -> FrozenSet[int]:
    """Complete an independent set to the lexicographically smallest MIS.

    Scans vertices in increasing order and adds every vertex not adjacent to
    the current set.  ``seed`` must itself be independent.
    """
    adj = _adjacency_masks(n, adjacency)
    chosen = mask_of(seed)
    blocked = _blocked(chosen, adj)
    if chosen & blocked:
        raise ValueError("seed is not an independent set")
    free = ((1 << n) - 1) & ~(chosen | blocked)
    return frozenset(bits_of(_complete(chosen, free, adj)))


def maximal_independent_sets(n: int, adjacency: Adjacency) -> Iterator[FrozenSet[int]]:
    """Enumerate all maximal independent sets of a graph on ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    adjacency:
        ``adjacency[v]`` is the set of neighbours of ``v``.  Must be
        symmetric and irreflexive.

    Yields
    ------
    Each MIS exactly once, in lexicographic order of the sorted vertex tuple.

    Sets are int bitmasks internally (vertex ``v`` is bit ``v``); the heap
    is keyed by the sorted vertex tuple, which fixes the output order.
    """
    if n == 0:
        yield frozenset()
        return
    adj = _adjacency_masks(n, adjacency)
    full = (1 << n) - 1
    first = _complete(0, full, adj)
    seen = {first}
    heap = [(tuple(bits_of(first)), first)]
    while heap:
        vertices, current = heapq.heappop(heap)
        yield frozenset(vertices)
        for j in bits_of(full & ~current):
            bit = 1 << j
            seed = (current & (bit - 1) & ~adj[j]) | bit
            free = full & ~(seed | _blocked(seed, adj))
            candidate = _complete(seed, free, adj)
            if candidate not in seen:
                seen.add(candidate)
                heapq.heappush(heap, (tuple(bits_of(candidate)), candidate))


def is_independent(vertices: Iterable[int], adjacency: Adjacency) -> bool:
    """No two vertices in the set are adjacent."""
    vs = list(vertices)
    vset = set(vs)
    return all(not (_neighbors(adjacency, v) & vset) for v in vs)


def is_maximal_independent(vertices: Iterable[int], n: int, adjacency: Adjacency) -> bool:
    """Independent and not extendable by any vertex."""
    vset = set(vertices)
    if not is_independent(vset, adjacency):
        return False
    for v in range(n):
        if v in vset:
            continue
        if not (_neighbors(adjacency, v) & vset):
            return False
    return True
