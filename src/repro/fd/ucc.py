"""Unique column combination (UCC) discovery.

UCCs — attribute sets whose projection has no duplicate rows, i.e. keys —
are the third member of the dependency family the paper positions against
(FDs, UCCs, MVDs; Section 1).  Like FDs they are special cases of the
structure Maimon mines: ``X`` is a UCC iff ``H(X) = log N`` under the
empirical distribution, iff ``X -> A`` for every attribute.

Levelwise miner with minimality pruning over the same grouping machinery as
TANE; the approximate variant uses the g3-style error (fraction of tuples to
delete so X becomes a key), computable directly from a stripped partition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence

from repro.common import attrset
from repro.data.relation import Relation
from repro.lattice import AttrSet


@dataclass(frozen=True)
class UCC:
    """A (minimal) unique column combination with its g3 error.

    ``attrs`` is an :class:`~repro.lattice.AttrSet` (interchangeable with
    the matching frozenset of column indices).
    """

    attrs: AttrSet
    error: float = 0.0

    def format(self, columns: Sequence[str] = ()) -> str:
        cols = tuple(columns)
        if cols:
            return "{" + ",".join(cols[a] for a in sorted(self.attrs)) + "}"
        return "{" + ",".join(str(a) for a in sorted(self.attrs)) + "}"

    def sort_key(self) -> tuple:
        return (len(self.attrs), sorted(self.attrs))


def ucc_error(relation: Relation, attrs) -> float:
    """g3 error of "attrs is a key": min fraction of tuples to remove."""
    n = relation.n_rows
    if n == 0:
        return 0.0
    distinct = relation.distinct_count(sorted(attrset(attrs)))
    return (n - distinct) / n


def is_ucc(relation: Relation, attrs, error: float = 0.0) -> bool:
    """Does ``attrs`` identify rows within the g3 budget?"""
    return ucc_error(relation, attrs) <= error + 1e-12


def mine_uccs(
    relation: Relation,
    error: float = 0.0,
    max_size: Optional[int] = None,
) -> List[UCC]:
    """All minimal UCCs with ``g3 <= error``.

    Levelwise search; a set is pruned when a subset is already a UCC
    (minimality) — the error measure is monotone (supersets can only
    reduce duplicates), so pruning is sound for the approximate case too.
    """
    n = relation.n_cols
    if max_size is None:
        max_size = n
    found: List[UCC] = []
    minimal: List[int] = []          # bitmasks of found (minimal) UCCs
    level: List[int] = [0]
    size = 0
    while level and size <= max_size:
        next_level: List[int] = []
        survivors: List[int] = []
        for cand in level:
            if any(m & ~cand == 0 for m in minimal):
                continue  # not minimal
            err = ucc_error(relation, AttrSet.from_mask(cand))
            if err <= error + 1e-12:
                minimal.append(cand)
                found.append(UCC(AttrSet.from_mask(cand), err))
            else:
                survivors.append(cand)
        # Expand the non-unique survivors apriori-style (append attributes
        # above the current maximum, so each set is generated once).
        seen = set()
        for cand in survivors:
            top = cand.bit_length() - 1 if cand else -1
            for a in range(top + 1, n):
                nxt = cand | (1 << a)
                if nxt not in seen:
                    seen.add(nxt)
                    next_level.append(nxt)
        level = next_level
        size += 1
    return sorted(found, key=UCC.sort_key)


def brute_force_uccs(
    relation: Relation, error: float = 0.0, max_size: Optional[int] = None
) -> List[UCC]:
    """Reference: test every subset, keep the minimal ones (tiny n only)."""
    n = relation.n_cols
    if max_size is None:
        max_size = n
    minimal: List[FrozenSet[int]] = []
    out: List[UCC] = []
    for r in range(0, max_size + 1):
        for combo in itertools.combinations(range(n), r):
            s = frozenset(combo)
            if any(m <= s for m in minimal):
                continue
            err = ucc_error(relation, s)
            if err <= error + 1e-12:
                minimal.append(s)
                out.append(UCC(s, err))
    return sorted(out, key=UCC.sort_key)
