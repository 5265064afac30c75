"""The J-measure: information-theoretic degree of approximation.

Lee's theorem (Theorem 3.3) ties database dependencies to entropic
expressions: a relation satisfies an acyclic join dependency ``AJD(S)`` iff
``J(S) = 0``, where for a join tree ``(T, chi)``

``J(T) = sum_v H(chi(v)) - sum_(u,v) H(chi(u) ∩ chi(v)) - H(chi(T))``  (Eq. 6)

and ``J`` depends only on the schema, not the particular join tree.  For an
MVD ``X ->> Y1 | ... | Ym`` (the schema ``{XY1, ..., XYm}`` with a star join
tree)

``J = sum_i H(XYi) - (m-1) H(X) - H(X Y1..Ym)``,

which for ``m = 2`` is exactly the conditional mutual information
``I(Y; Z | X)``.  Definition 4.1: ``S`` is an ε-schema iff ``J(S) <= ε``.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Sequence, Tuple

from repro.common import attrset
from repro.core.mvd import MVD
from repro.entropy.oracle import EntropyOracle


def j_measure(oracle: EntropyOracle, mvd: MVD) -> float:
    """``J(X ->> Y1 | ... | Ym)`` under the empirical distribution.

    Defined for any pairwise-disjoint dependents, whether or not they cover
    ``Omega`` (Section 3.2).  Always >= 0 up to float noise (it is a sum of
    conditional mutual informations, Theorem 5.1).

    This is the innermost scoring call of the full-MVD DFS, so all the set
    algebra runs on raw bitmasks through :meth:`EntropyOracle.entropy_mask`.
    """
    key_mask = mvd.key.mask
    total = 0.0
    everything = key_mask
    for d in mvd.dependents:
        dm = d.mask
        total += oracle.entropy_mask(key_mask | dm)
        everything |= dm
    total -= (mvd.m - 1) * oracle.entropy_mask(key_mask)
    total -= oracle.entropy_mask(everything)
    return total


def satisfies(oracle: EntropyOracle, mvd: MVD, eps: float) -> bool:
    """``R |=ε phi``: the J-measure is within the threshold (plus tolerance).

    Routed through the oracle's decision interface so engines that answer
    from estimates (:mod:`repro.approx`) can escalate boundary cases to an
    exact evaluation; exact oracles compute ``j_measure(...) <= eps + TOL``
    verbatim.
    """
    return oracle.j_le(
        mvd.key.mask, tuple(d.mask for d in mvd.dependents), eps
    )


def j_of_join_tree(
    oracle: EntropyOracle,
    bags: Sequence[FrozenSet[int]],
    edges: Iterable[Tuple[int, int]],
) -> float:
    """Eq. (6): ``sum H(bag) - sum H(separator) - H(all attributes)``.

    All H terms of a tree are issued as one batch, so scoring a schema
    candidate is a single (deduped) oracle call —
    this is ASMiner's per-candidate scoring hot path.
    """
    bags = [attrset(b) for b in bags]
    edges = list(edges)
    everything = attrset(()).union(*bags)
    separators = [bags[u] & bags[v] for u, v in edges]
    hs = oracle.entropies(bags + separators + [everything])
    total = sum(hs[b] for b in bags)
    total -= sum(hs[sep] for sep in separators)
    total -= hs[everything]
    return total


def j_of_schema(oracle: EntropyOracle, bags: Sequence[FrozenSet[int]]) -> float:
    """``J(S)`` for an acyclic schema given by its bags.

    Builds a join tree first (Lee: the value does not depend on which one).
    Raises ``ValueError`` for cyclic schemas, for which J is undefined.
    """
    from repro.hypergraph.gyo import build_join_tree_edges

    bags = [attrset(b) for b in bags]
    if len(bags) == 1:
        return 0.0
    edges = build_join_tree_edges(bags)
    if edges is None:
        raise ValueError("J(S) is only defined for acyclic schemas")
    return j_of_join_tree(oracle, bags, edges)


def mvd_from_schema_bags(key: FrozenSet[int], bags: Sequence[FrozenSet[int]]) -> MVD:
    """The MVD ``X ->> (bag1 - X) | ... | (bagm - X)`` of a star schema."""
    return MVD(key, [attrset(b) - key for b in bags])
