"""Brute-force reference implementations.

Everything in this module recomputes, by exhaustive enumeration, a quantity
that the production code computes cleverly.  The test suite (and nothing
else) uses these as ground truth on small inputs:

* entropies straight from tuple counts (vs the exact engine), also as a
  drop-in oracle so whole mining runs can be checked against them;
* all ε-MVDs / full ε-MVDs / minimal separators by enumerating partitions
  and subsets (vs ``getFullMVDs`` / ``MineMinSeps``);
* all minimal transversals and maximal independent sets (vs the Berge and
  JPY enumerators);
* the materialised join of a decomposition (vs the Yannakakis count).

These are exponential; keep inputs to roughly n <= 7 attributes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.common import TOL, attrset
from repro.core.mvd import MVD
from repro.data.relation import Relation


# --------------------------------------------------------------------- #
# Entropy
# --------------------------------------------------------------------- #

def entropy_by_counting(relation: Relation, attrs: Iterable[int]) -> float:
    """Direct evaluation of Eq. (1)/(5) with a Counter."""
    attrs = sorted(attrset(attrs))
    n = relation.n_rows
    if n == 0 or not attrs:
        return 0.0
    counts = Counter(tuple(int(v) for v in row) for row in relation.codes[:, attrs])
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


class CountingEntropyEngine:
    """Entropy engine answering every ``H(X)`` by :func:`entropy_by_counting`.

    Shares no code with the counting kernels, so an oracle over it mines
    ground-truth artefacts the production engines are compared against.
    """

    def __init__(self, relation: Relation):
        self.relation = relation

    def entropy_of(self, attrs: Iterable[int]) -> float:
        return entropy_by_counting(self.relation, attrs)


def counting_oracle(relation: Relation):
    """An :class:`~repro.entropy.oracle.EntropyOracle` over brute-force counts."""
    from repro.entropy.oracle import EntropyOracle

    return EntropyOracle(relation, CountingEntropyEngine(relation))


def j_by_counting(relation: Relation, mvd: MVD) -> float:
    """J-measure from counted entropies."""
    total = 0.0
    everything = set(mvd.key)
    for d in mvd.dependents:
        total += entropy_by_counting(relation, mvd.key | d)
        everything |= d
    total -= (mvd.m - 1) * entropy_by_counting(relation, mvd.key)
    total -= entropy_by_counting(relation, everything)
    return total


# --------------------------------------------------------------------- #
# Partition / MVD enumeration
# --------------------------------------------------------------------- #

def set_partitions(items: Sequence[int]) -> Iterable[List[List[int]]]:
    """All set partitions of ``items`` (restricted-growth strings)."""
    items = list(items)
    if not items:
        yield []
        return

    def rec(i: int, blocks: List[List[int]]):
        if i == len(items):
            yield [list(b) for b in blocks]
            return
        x = items[i]
        for b in blocks:
            b.append(x)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([x])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(1, [[items[0]]])


def all_mvds_with_key(
    relation: Relation, key: FrozenSet[int], eps: float
) -> List[MVD]:
    """Every ε-MVD with the given key (dependents partition Omega - key)."""
    free = sorted(set(range(relation.n_cols)) - key)
    out = []
    for blocks in set_partitions(free):
        if len(blocks) < 2:
            continue
        mvd = MVD(key, blocks)
        if j_by_counting(relation, mvd) <= eps + TOL:
            out.append(mvd)
    return out


def full_mvds_with_key(
    relation: Relation,
    key: FrozenSet[int],
    eps: float,
    pair: Optional[Tuple[int, int]] = None,
) -> List[MVD]:
    """Full ε-MVDs with a key: ε-holds and no strict refinement ε-holds."""
    holding = all_mvds_with_key(relation, key, eps)
    if pair is not None:
        holding_pair = [m for m in holding if m.separates(*pair)]
    else:
        holding_pair = holding
    out = []
    for phi in holding_pair:
        if not any(psi.strictly_refines(phi) for psi in holding):
            out.append(phi)
    return sorted(out)


def separates(
    relation: Relation, key: FrozenSet[int], pair: Tuple[int, int], eps: float
) -> bool:
    """Is ``key`` an (A,B)-separator?  Brute force over partitions."""
    a, b = pair
    if a in key or b in key:
        return False
    free = sorted(set(range(relation.n_cols)) - key)
    if a not in free or b not in free:
        return False
    for blocks in set_partitions(free):
        if len(blocks) < 2:
            continue
        mvd = MVD(key, blocks)
        if mvd.separates(a, b) and j_by_counting(relation, mvd) <= eps + TOL:
            return True
    return False


def minimal_separators(
    relation: Relation, pair: Tuple[int, int], eps: float
) -> List[FrozenSet[int]]:
    """All minimal (A,B)-separators by scanning every candidate subset."""
    a, b = pair
    universe = sorted(set(range(relation.n_cols)) - {a, b})
    seps: List[FrozenSet[int]] = []
    for r in range(len(universe) + 1):
        for combo in itertools.combinations(universe, r):
            x = frozenset(combo)
            if any(s <= x for s in seps):
                continue  # a subset already separates; x is not minimal
            if separates(relation, x, pair, eps):
                seps.append(x)
    return sorted(seps, key=lambda s: (len(s), sorted(s)))


def all_standard_mvds(relation: Relation, eps: float) -> List[MVD]:
    """Every standard ε-MVD ``X ->> Y|Z`` with ``XYZ = Omega`` (tiny n only)."""
    n = relation.n_cols
    omega = list(range(n))
    out = []
    for key_size in range(n - 1):
        for key in itertools.combinations(omega, key_size):
            key_set = frozenset(key)
            free = [x for x in omega if x not in key_set]
            # Enumerate bipartitions; fix free[0]'s side to kill symmetry.
            rest = free[1:]
            for mask in range(2 ** len(rest)):
                y = {free[0]}
                z = set()
                for k, x in enumerate(rest):
                    (y if (mask >> k) & 1 else z).add(x)
                if not z:
                    continue
                mvd = MVD(key_set, [y, z])
                if j_by_counting(relation, mvd) <= eps + TOL:
                    out.append(mvd)
    return sorted(out)


# --------------------------------------------------------------------- #
# Hypergraph ground truth
# --------------------------------------------------------------------- #

def brute_minimal_transversals(
    edges: Sequence[FrozenSet[int]], universe: Optional[Iterable[int]] = None
) -> List[FrozenSet[int]]:
    """All minimal transversals by subset enumeration."""
    if universe is None:
        universe_set: Set[int] = set()
        for e in edges:
            universe_set |= e
    else:
        universe_set = set(universe)
    items = sorted(universe_set)
    out: List[FrozenSet[int]] = []
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            c = frozenset(combo)
            if any(t <= c for t in out):
                continue
            if all(c & e for e in edges):
                out.append(c)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def brute_maximal_independent_sets(
    n: int, adjacency: Sequence[Set[int]]
) -> List[FrozenSet[int]]:
    """All maximal independent sets by subset enumeration."""
    verts = list(range(n))
    independents = []
    for r in range(n + 1):
        for combo in itertools.combinations(verts, r):
            s = set(combo)
            if all(not (adjacency[v] & s) for v in s):
                independents.append(frozenset(s))
    out = [s for s in independents if not any(s < t for t in independents)]
    return sorted(out, key=lambda s: (len(s), sorted(s)))


# --------------------------------------------------------------------- #
# Joins
# --------------------------------------------------------------------- #

def brute_join_count(relation: Relation, bags: Sequence[FrozenSet[int]]) -> int:
    """Size of the natural join of the bag projections (nested loops).

    Enumerates candidate tuples from the cross product of per-bag rows only
    when necessary; implemented as an iterative hash join over full rows.
    """
    from repro.core.schema import Schema
    from repro.quality.spurious import materialized_join_rows

    return len(materialized_join_rows(relation, Schema(bags)))
