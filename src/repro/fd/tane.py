"""TANE-style functional dependency discovery over stripped partitions.

A levelwise lattice search for all *minimal* FDs ``X -> A`` with
``g3(X -> A) <= error`` (``error = 0`` gives exact FDs), following
Huhtala et al.'s TANE (cited as [21] in the paper):

* candidate right-hand sides are maintained per node via the classic
  ``C+`` sets, pruning both non-minimal FDs and dead lattice branches;
* validity is checked on dense group ids derived from the relation's code
  matrix (the same machinery that powers the entropy engines).

This baseline exists to demonstrate the paper's point that FDs alone do not
yield acyclic schemas (see ``examples/fd_vs_mvd.py``) and to exercise the
partition substrate from a second angle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.common import attrset
from repro.core.budget import SearchBudget
from repro.data.relation import Relation
from repro.fd.measures import g3_error
from repro.lattice import AttrSet, bits_of


@dataclass(frozen=True)
class FD:
    """A functional dependency ``lhs -> rhs`` with its g3 error.

    ``lhs`` is an :class:`~repro.lattice.AttrSet` (equal and hash-equal to
    the matching frozenset of column indices).
    """

    lhs: AttrSet
    rhs: int
    error: float = 0.0

    def format(self, columns: Sequence[str] = ()) -> str:
        cols = tuple(columns)
        if cols:
            left = ",".join(cols[a] for a in sorted(self.lhs)) or "{}"
            return f"{left} -> {cols[self.rhs]}"
        left = ",".join(str(a) for a in sorted(self.lhs)) or "{}"
        return f"{left} -> {self.rhs}"

    def sort_key(self) -> tuple:
        return (len(self.lhs), sorted(self.lhs), self.rhs)


def fd_holds(relation: Relation, lhs: Iterable[int], rhs: int, error: float = 0.0) -> bool:
    """Does ``X -> A`` hold within the g3 error budget?"""
    lhs = attrset(lhs)
    if int(rhs) in lhs:
        return True
    if error <= 0:
        # Exact test: X and X∪{A} induce the same grouping.
        lhs_sorted = sorted(lhs)
        return relation.distinct_count(lhs_sorted) == relation.distinct_count(
            lhs_sorted + [int(rhs)]
        )
    return g3_error(relation, lhs, rhs) <= error + 1e-12


def mine_fds(
    relation: Relation,
    error: float = 0.0,
    max_lhs: Optional[int] = None,
    budget: Optional[SearchBudget] = None,
) -> List[FD]:
    """All minimal FDs of the relation with ``g3 <= error``.

    Parameters
    ----------
    relation:
        Input relation.
    error:
        g3 threshold; 0 mines exact FDs.
    max_lhs:
        Optional cap on left-hand-side size (level cutoff).
    budget:
        Optional search budget checked at every level boundary; when it
        trips (deadline or a serving-layer cancellation) the FDs of the
        completed levels are returned — each one individually valid and
        minimal, the deeper levels simply unexplored.

    Returns FDs sorted by (|lhs|, lhs, rhs).  ``{} -> A`` is reported for
    (near-)constant columns.  The lattice is encoded as raw bitmasks:
    nodes and C+ sets are plain-int masks — the classic TANE bitset
    layout — so candidate generation and the C+ prunings are single
    AND/OR/NOT operations.
    """
    n = relation.n_cols
    omega = (1 << n) - 1
    if max_lhs is None:
        max_lhs = n - 1
    results: List[FD] = []
    # C+ sets: cplus[X] = bitmask of candidate rhs attributes for lhs ⊆ X.
    cplus: Dict[int, int] = {0: omega}

    # Level 0: constant columns ({} -> A).
    for a in range(n):
        err = g3_error(relation, AttrSet.from_mask(0), a)
        if err <= error + 1e-12:
            results.append(FD(AttrSet.from_mask(0), a, err))
            cplus[0] &= ~(1 << a)

    level: List[int] = [1 << a for a in range(n)]
    for x in level:
        cplus[x] = cplus[0]

    # A node X of size k tests FDs with |lhs| = k - 1, so levels run up to
    # max_lhs + 1.
    size = 1
    while level and size <= max_lhs + 1:
        if budget is not None and budget.exhausted:
            break  # return the completed levels (all individually valid)
        next_cplus: Dict[int, int] = {}
        for x in level:
            cx = cplus[x]
            # Candidate FDs at this node: (X \ {A}) -> A for A in X ∩ C+(X).
            for a in bits_of(x & cx):
                lhs = x & ~(1 << a)
                err = g3_error(relation, AttrSet.from_mask(lhs), a)
                if err <= error + 1e-12:
                    results.append(FD(AttrSet.from_mask(lhs), a, err))
                    # TANE pruning: drop A, and remove attributes outside X
                    # from C+(X); any FD (X' \ {B}) -> B with X ⊆ X' would
                    # be non-minimal.
                    cx &= x & ~(1 << a)
            next_cplus[x] = cx
        cplus.update(next_cplus)
        # Generate the next level (apriori-style join of siblings sharing
        # the prefix = all but the top attribute).
        by_prefix: Dict[int, List[int]] = {}
        for x in level:
            top = x.bit_length() - 1
            by_prefix.setdefault(x & ~(1 << top), []).append(top)
        next_level_set = set()
        for prefix, tails in by_prefix.items():
            tails.sort()
            for i in range(len(tails)):
                for j in range(i + 1, len(tails)):
                    candidate = prefix | (1 << tails[i]) | (1 << tails[j])
                    # All size-|candidate|-1 subsets must exist (apriori).
                    if all(
                        candidate & ~(1 << a) in cplus for a in bits_of(candidate)
                    ):
                        next_level_set.add(candidate)
        next_level = []
        for x in sorted(next_level_set, key=lambda m: tuple(bits_of(m))):
            cx = omega
            for a in bits_of(x):
                cx &= cplus[x & ~(1 << a)]
            if cx:
                cplus[x] = cx
                next_level.append(x)
        level = next_level
        size += 1
    # Deduplicate (a constant column also surfaces at level 1 checks).
    unique: Dict[Tuple[int, int], FD] = {}
    for fd in results:
        key = (fd.lhs.mask, fd.rhs)
        if key not in unique:
            unique[key] = fd
    minimal = _filter_minimal(list(unique.values()))
    return sorted(minimal, key=FD.sort_key)


def _filter_minimal(fds: List[FD]) -> List[FD]:
    """Keep FDs whose lhs is minimal per rhs (defence in depth; the C+
    pruning already guarantees this in the exact case)."""
    by_rhs: Dict[int, List[FD]] = {}
    for fd in fds:
        by_rhs.setdefault(fd.rhs, []).append(fd)
    out: List[FD] = []
    for group in by_rhs.values():
        group.sort(key=lambda f: len(f.lhs))
        kept: List[FD] = []
        for fd in group:
            if not any(k.lhs <= fd.lhs for k in kept):
                kept.append(fd)
        out.extend(kept)
    return out


def brute_force_fds(
    relation: Relation, error: float = 0.0, max_lhs: Optional[int] = None
) -> List[FD]:
    """Reference implementation: test every (lhs, rhs) pair (tiny n only)."""
    n = relation.n_cols
    if max_lhs is None:
        max_lhs = n - 1
    found: List[FD] = []
    for rhs in range(n):
        others = [a for a in range(n) if a != rhs]
        minimal: List[FrozenSet[int]] = []
        for r in range(0, max_lhs + 1):
            for combo in itertools.combinations(others, r):
                lhs = frozenset(combo)
                if any(m <= lhs for m in minimal):
                    continue
                err = g3_error(relation, lhs, rhs)
                if err <= error + 1e-12:
                    minimal.append(lhs)
                    found.append(FD(lhs, rhs, err))
    return sorted(found, key=FD.sort_key)
