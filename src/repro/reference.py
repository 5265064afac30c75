"""Brute-force reference implementations.

Everything in this module recomputes, by exhaustive enumeration, a quantity
that the production code computes cleverly.  The test suite (and nothing
else) uses these as ground truth on small inputs:

* entropies straight from tuple counts (vs the exact engine), also as a
  drop-in oracle so whole mining runs can be checked against them;
* all ε-MVDs / full ε-MVDs / minimal separators by enumerating partitions
  and subsets (vs ``getFullMVDs`` / ``MineMinSeps``);
* the full-MVD search of Figs. 6/16/17 on :class:`MVD` objects, re-running
  Fig. 16 for every neighbour (vs the bitmask search with its memoised
  consistency closure in :mod:`repro.core.fullmvd`);
* all minimal transversals and maximal independent sets (vs the Berge and
  JPY enumerators);
* the approx engine's decision interval from sample-length information
  vectors, one float per sample row and term (vs the count-weighted sums
  over the top term's groups in :mod:`repro.approx.engine`);
* the delta tracker's append, one :class:`EvolvingPartition` at a time
  (vs the one batched pass of :class:`EvolvingBatch`);
* the materialised join of a decomposition (vs the Yannakakis count).

These are exponential; keep inputs to roughly n <= 7 attributes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.common import TOL, attrset
from repro.core.budget import SearchBudget, ensure_budget
from repro.core.measures import satisfies
from repro.core.mvd import MVD
from repro.data.relation import Relation
from repro.entropy.partitions import EvolvingPartition, combine_codes
from repro.lattice import bits_of


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
# Full-MVD search on MVD objects
# --------------------------------------------------------------------- #

def mvd_neighbors(mvd: MVD, pair: Optional[Tuple[int, int]] = None) -> List[MVD]:
    """All single-merge coarsenings keeping the pair separated (Eq. 13)."""
    out: List[MVD] = []
    m = mvd.m
    if m <= 2:
        return out  # merging the last two dependents is no longer an MVD
    if pair is not None:
        a, b = pair
    for i in range(m):
        for j in range(i + 1, m):
            if pair is not None:
                union = mvd.dependents[i] | mvd.dependents[j]
                if a in union and b in union:
                    continue
            out.append(mvd.merge(i, j))
    return out


def mvd_pairwise_consistent(
    oracle, mvd: MVD, eps: float, pair: Optional[Tuple[int, int]] = None
) -> Optional[MVD]:
    """``getPairwiseConsistentMVD`` (Fig. 16), scanned afresh on every call.

    Repeatedly merges the first dependent pair (in scan order) with
    ``I(Ci; Cj | S) > eps``; returns ``None`` once a forced merge would
    unite the pair or leave a single dependent.
    """
    key = mvd.key
    current = mvd
    while True:
        if pair is not None and not current.separates(*pair):
            return None
        violating = None
        deps = current.dependents
        for i in range(len(deps)):
            for j in range(i + 1, len(deps)):
                if oracle.mi_exceeds(deps[i], deps[j], key, eps):
                    violating = (i, j)
                    break
            if violating:
                break
        if violating is None:
            return current
        if len(deps) == 2:
            return None
        if pair is not None:
            union = deps[violating[0]] | deps[violating[1]]
            if pair[0] in union and pair[1] in union:
                return None
        current = current.merge(*violating)


def search_full_mvds(
    oracle,
    key: Iterable[int],
    eps: float,
    pair: Optional[Tuple[int, int]] = None,
    limit: Optional[int] = None,
    optimized: bool = True,
    budget: Optional[SearchBudget] = None,
    prune_refined: bool = True,
) -> List[MVD]:
    """The DFS of Fig. 6 (``optimized``: Fig. 17) over :class:`MVD` objects.

    Same contract as :func:`repro.core.fullmvd.get_full_mvds`, which must
    return the same list with the same engine evaluations and no more
    logical queries.
    """
    key = attrset(key)
    budget = ensure_budget(budget)
    universe = oracle.omega
    free = universe - key
    if pair is not None:
        a, b = pair
        if a == b or a not in free or b not in free:
            return []
    if len(free) < 2:
        return []
    phi0 = MVD.finest(key, universe)
    if optimized:
        phi0 = mvd_pairwise_consistent(oracle, phi0, eps, pair)
        if phi0 is None:
            return []
    out: List[MVD] = []
    seen = {phi0}
    stack: List[MVD] = [phi0]
    while stack:
        if limit is not None and len(out) >= limit:
            break
        if budget.exhausted:
            break
        phi = stack.pop()
        budget.tick()
        if satisfies(oracle, phi, eps):
            out.append(phi)
            continue
        for nbr in mvd_neighbors(phi, pair):
            if optimized:
                nbr = mvd_pairwise_consistent(oracle, nbr, eps, pair)
                if nbr is None:
                    continue
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    if prune_refined and len(out) > 1:
        out = [
            phi
            for phi in out
            if not any(other.strictly_refines(phi) for other in out if other is not phi)
        ]
    return sorted(set(out))


# --------------------------------------------------------------------- #
# Approx decision intervals
# --------------------------------------------------------------------- #

def rowwise_interval(
    sample: Relation,
    terms: Sequence[Tuple[int, float]],
    delta: float,
    method: str = "clt",
) -> Tuple[float, float, bool]:
    """``(lo, hi, saturated)`` for ``sum coeff * H(mask)`` over ``sample``.

    Builds the per-row information combination
    ``d(r) = sum coeff * -log2 p_hat(proj_mask(r))`` as one float per
    sample row, grouping each term with ``np.unique``, and feeds its
    mean and variance to :func:`~repro.approx.bounds.decision_interval`.
    Same contract as ``ApproxEntropyEngine._interval_full`` (including
    the saturation guards), which must agree to float rounding.
    """
    from repro.approx.bounds import decision_interval
    from repro.approx.engine import SATURATION_SINGLETONS, SATURATION_SUPPORT
    from repro.entropy.estimators import LN2

    n = sample.n_rows
    if n == 0:
        return (0.0, 0.0, False)
    combo = np.zeros(n)
    mm = 0.0
    spread = 0.0
    saturated = False
    for m, coeff in terms:
        idx = [j for j in range(sample.n_cols) if m >> j & 1]
        if idx:
            _, inv, counts = np.unique(
                sample.codes[:, idx], axis=0, return_inverse=True, return_counts=True
            )
            inv = inv.reshape(-1)
        else:
            inv = np.zeros(n, dtype=np.int64)
            counts = np.array([n])
        combo += coeff * -np.log2(counts[inv] / n)
        mm += coeff * (len(counts) - 1)
        spread += abs(coeff)
        if (len(counts) > SATURATION_SUPPORT * n
                or (counts == 1).sum() / n > SATURATION_SINGLETONS):
            saturated = True
    mm /= 2.0 * n * LN2
    lo, hi = decision_interval(
        float(combo.mean()), float(combo.var()), n, mm, delta, method, spread=spread
    )
    return lo, hi, saturated


# --------------------------------------------------------------------- #
# Delta maintenance, one set at a time
# --------------------------------------------------------------------- #

def append_block(part: EvolvingPartition, codes_block: np.ndarray) -> bool:
    """Absorb appended rows (full-width code block) into one set.

    Returns ``False``, leaving ``part`` untouched, when the block carries
    a code at or past the radix captured at build time; the caller then
    rebuilds from the full relation.  Same contract, per set, as
    :meth:`EvolvingBatch.append_block`, which must leave the same keys,
    counts, row count and entropy.
    """
    k = codes_block.shape[0]
    if k == 0:
        return True
    if not part.idx:
        if len(part.counts):
            part.counts = part.counts + k
        else:
            part.keys = np.zeros(1, dtype=np.int64)
            part.counts = np.array([k], dtype=np.int64)
        part.n_rows += k
        part._entropy = None
        return True
    for pos, j in enumerate(part.idx):
        if int(codes_block[:, j].max()) >= part.radix[pos]:
            return False
    new_keys = combine_codes(codes_block, part.idx, part.radix)
    uniq, add = np.unique(new_keys, return_counts=True)
    pos = np.searchsorted(part.keys, uniq)
    in_range = pos < len(part.keys)
    found = np.zeros(len(uniq), dtype=bool)
    found[in_range] = part.keys[pos[in_range]] == uniq[in_range]
    part.counts[pos[found]] += add[found]
    if not found.all():
        missing = ~found
        part.keys = np.insert(part.keys, pos[missing], uniq[missing])
        part.counts = np.insert(part.counts, pos[missing], add[missing])
    part.n_rows += k
    part._entropy = None
    return True


def advance_per_set(
    parts: Dict[int, Optional[EvolvingPartition]],
    new_relation: Relation,
    block: np.ndarray,
) -> Tuple[Dict[int, float], Dict[str, int]]:
    """``DeltaTracker.advance`` on ``parts`` (mask -> set, ``None`` if
    untrackable), one :func:`append_block` per set; updates ``parts``.

    Returns the same ``(patched entropies, stats)`` as the tracker.
    """
    patched: Dict[int, float] = {}
    stats = {"patched": 0, "rebuilt": 0, "dropped": 0}
    for mask, part in list(parts.items()):
        if part is None:
            stats["dropped"] += 1
            continue
        if append_block(part, block):
            stats["patched"] += 1
        else:
            part = EvolvingPartition.build(new_relation, bits_of(mask))
            parts[mask] = part
            stats["rebuilt"] += 1
            if part is None:
                stats["dropped"] += 1
                continue
        patched[mask] = part.entropy()
    return patched, stats


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
