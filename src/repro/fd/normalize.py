"""Classical BCNF decomposition from functional dependencies.

The textbook baseline (Codd / Bernstein lineage, cited as [7, 10] in the
paper): repeatedly find an FD ``X -> A`` violating Boyce–Codd normal form
(``X`` not a superkey of the fragment) and split the fragment into
``X ∪ {A}`` and ``X ∪ (rest)``.

This exists as a *contrast* to Maimon: BCNF looks only at FDs, so it cannot
decompose relations whose structure is a pure (non-functional) MVD, and the
single schema it emits is one point in the space ``ASMiner`` enumerates.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from repro.core.schema import Schema
from repro.data.relation import Relation
from repro.fd.tane import FD, mine_fds


def is_superkey(relation: Relation, attrs: FrozenSet[int], within: FrozenSet[int]) -> bool:
    """Is ``attrs`` a superkey of the projection onto ``within``?

    Deduplicating onto ``within`` changes no distinct count over its
    subsets, so both counts are read off ``relation`` directly.
    """
    return relation.distinct_count(attrs & within) == relation.distinct_count(within)


def _violation(
    relation: Relation, fragment: FrozenSet[int], fds: List[FD]
) -> Optional[Tuple[FrozenSet[int], int]]:
    """An FD X -> A applicable to the fragment with X not a superkey."""
    for fd in fds:
        if fd.rhs not in fragment or not (fd.lhs <= fragment):
            continue
        if fd.rhs in fd.lhs:
            continue
        if fd.lhs >= fragment - {fd.rhs}:
            # Splitting on this FD would reproduce the fragment itself
            # (left piece = lhs ∪ {rhs} = fragment): no progress.
            continue
        if not is_superkey(relation, fd.lhs, fragment):
            return fd.lhs, fd.rhs
    return None


def bcnf_decompose(
    relation: Relation,
    error: float = 0.0,
    max_lhs: Optional[int] = 3,
) -> Schema:
    """Decompose into (approximately) BCNF using mined minimal FDs.

    Standard lossless-join BCNF decomposition: each violation ``X -> A``
    splits a fragment ``W`` into ``X ∪ {A}`` and ``W - {A}``.  With
    ``error > 0``, approximate FDs drive the splits, mirroring how Maimon
    uses approximate MVDs (the resulting joins may produce spurious
    tuples).  Deterministic: violations are applied in the sorted order of
    the mined FD list.
    """
    fds = mine_fds(relation, error=error, max_lhs=max_lhs)
    omega = frozenset(range(relation.n_cols))
    fragments: List[FrozenSet[int]] = [omega]
    done: List[FrozenSet[int]] = []
    while fragments:
        fragment = fragments.pop()
        if len(fragment) <= 1:
            done.append(fragment)
            continue
        violation = _violation(relation, fragment, fds)
        if violation is None:
            done.append(fragment)
            continue
        lhs, rhs = violation
        left = (lhs & fragment) | {rhs}
        right = fragment - {rhs}
        fragments.extend([left, right])
    return Schema(done)
