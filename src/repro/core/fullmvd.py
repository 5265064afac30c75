"""``getFullMVDs``: discovering the full ε-MVDs with a given key.

Section 6.2 of the paper.  An ε-MVD ``psi`` is *full* when no strict
refinement of it ε-holds; full MVDs with minimal-separator keys suffice to
derive every ε-MVD (Theorem 5.7).

The search walks the partition lattice of the non-key attributes top-down
from the all-singletons partition (most refined): a node ``phi`` with
``J(phi) <= ε`` is output; otherwise its neighbours — all ways of merging two
dependents without uniting the target pair (A, B) — are pushed (Fig. 6).

The optimised variant (Figs. 16–17, Appendix 12.3) prunes using *pairwise
consistency*: since ``I(Ci; Cj | S) <= J(S ->> C1|...|Cm)`` (Proposition 5.1),
any candidate with a dependent pair whose conditional mutual information
exceeds ε can only reach ε by merging that pair, so those merges are applied
eagerly; if that ever forces A and B together, the branch dies.

Note on Eq. (13): the paper's displayed condition ``A, B ∉ Zi Zj`` would
forbid merging anything into the components of A or B, making full MVDs such
as ``X ->> AC | BD`` unreachable, contradicting the sentence that follows it
("if A, B were separated in phi, then they remain separated in every MVD in
Nbr(phi)").  We implement the evident intent: a merge is allowed iff it does
not put A and B into the same dependent.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.common import attrset
from repro.core.budget import SearchBudget, ensure_budget
from repro.core.measures import satisfies
from repro.core.mvd import MVD
from repro.entropy.oracle import EntropyOracle

Pair = Tuple[int, int]


def neighbors(mvd: MVD, pair: Optional[Pair] = None) -> List[MVD]:
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


def pairwise_consistent(
    oracle: EntropyOracle,
    mvd: MVD,
    eps: float,
    pair: Optional[Pair] = None,
) -> Optional[MVD]:
    """``getPairwiseConsistentMVD`` (Fig. 16).

    Repeatedly merge any dependent pair with ``I(Ci; Cj | S) > eps``.  The
    merge is forced: ``I(Ci; Cj | S) <= J(phi)`` holds for every candidate
    ``phi`` that keeps Ci and Cj in distinct dependents (Proposition 5.1),
    so no such candidate — here or anywhere below it in the merge DAG — can
    ever reach ``J <= eps``.  Returns the stabilised MVD, or ``None`` when
    the forced merges would unite the target pair (A, B).
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
            # The forced merge would collapse to a single dependent: no
            # ε-MVD with this key survives on this branch.
            return None
        if pair is not None:
            union = deps[violating[0]] | deps[violating[1]]
            if pair[0] in union and pair[1] in union:
                return None
        current = current.merge(*violating)


def get_full_mvds(
    oracle: EntropyOracle,
    key: Iterable[int],
    eps: float,
    pair: Optional[Pair] = None,
    limit: Optional[int] = None,
    optimized: bool = True,
    budget: Optional[SearchBudget] = None,
    prune_refined: bool = True,
) -> List[MVD]:
    """Full ε-MVDs with key ``key`` (optionally separating ``pair``).

    Parameters
    ----------
    oracle:
        Entropy oracle over the relation.
    key:
        The candidate key ``S`` (column indices).
    eps:
        Approximation threshold ε.
    pair:
        When given, only MVDs keeping ``pair = (A, B)`` in distinct
        dependents are searched (``A, B ∉ key`` required, else no results).
    limit:
        The paper's ``K``: stop after this many outputs (``None`` = all).
    optimized:
        Use the pairwise-consistency pruning of Fig. 17 (default) instead of
        the plain DFS of Fig. 6.
    budget:
        Optional search budget; on exhaustion the outputs found so far are
        returned (possibly incomplete).
    prune_refined:
        Drop outputs strictly refined by another output, enforcing fullness
        among the returned set (see DESIGN.md; the plain DFS can output two
        comparable MVDs reached along different branches).
    """
    key = attrset(key)
    budget = ensure_budget(budget)
    universe = oracle.omega
    free = universe - key
    if pair is not None:
        a, b = pair
        if a in key or b in key or a == b:
            return []
    if len(free) < 2:
        return []
    phi0 = MVD.finest(key, universe)
    if optimized:
        phi0 = pairwise_consistent(oracle, phi0, eps, pair)
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
        for nbr in neighbors(phi, pair):
            if optimized:
                nbr = pairwise_consistent(oracle, nbr, eps, pair)
                if nbr is None:
                    continue
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    if prune_refined and len(out) > 1:
        # phi is not full if some other output strictly refines it.
        out = [
            phi
            for phi in out
            if not any(other.strictly_refines(phi) for other in out if other is not phi)
        ]
    return sorted(set(out))


def key_separates(
    oracle: EntropyOracle,
    key: Iterable[int],
    pair: Pair,
    eps: float,
    optimized: bool = True,
    budget: Optional[SearchBudget] = None,
) -> bool:
    """Is ``key`` an (A, B)-separator (Definition 5.5)?

    True iff some ε-MVD with this key puts A and B in distinct dependents —
    checked by running the full-MVD search with ``K = 1``.
    """
    return bool(
        get_full_mvds(
            oracle,
            key,
            eps,
            pair=pair,
            limit=1,
            optimized=optimized,
            budget=budget,
            prune_refined=False,
        )
    )
