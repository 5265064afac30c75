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

Representation
--------------
A search node is a tuple of dependent bitmasks in lowest-bit order, the
canonical order of :class:`~repro.core.mvd.MVD`.  Merging dependents
``i < j`` puts the union at position ``i`` (its lowest bit is dependent
``i``'s), so the order needs no re-sort.  ``J`` is decided on the masks
(:meth:`EntropyOracle.j_le`); an ``MVD`` is built only for outputs.

The consistency closure
-----------------------
Fig. 16 picks its next merge by scanning the dependent pairs in a fixed
order for the first one with ``I(Ci; Cj | S) > ε``.  That choice never
looks at (A, B): the pair only decides when to give up (the merge would
unite A and B, or leave one dependent).  Every state therefore has one
forced-merge path, the same for every pair, and "follow the path, then
answer ``None`` if it unites the pair or collapses to one dependent"
returns exactly Fig. 16's MVD or ``None``.  The path is memoised per
(ε, key mask) on the oracle (:meth:`EntropyOracle.consistency_memo`):
each state maps to the furthest state known on its path, compressed as
the path is walked.  The walk stops as soon as the pair is united, as
Fig. 16 does, so an uncached step makes exactly Fig. 16's MI queries:
the engine evaluates the same sets in the same order, and only repeated
queries disappear.  The memo lives as long as the oracle's entropy memo,
across searches, and is dropped on ``advance``; its entries depend on
the oracle's verdicts only, so it holds for any oracle whose verdicts
are deterministic, sampled ones included.

Note on Eq. (13): the paper's displayed condition ``A, B ∉ Zi Zj`` would
forbid merging anything into the components of A or B, making full MVDs such
as ``X ->> AC | BD`` unreachable, contradicting the sentence that follows it
("if A, B were separated in phi, then they remain separated in every MVD in
Nbr(phi)").  We implement the evident intent: a merge is allowed iff it does
not put A and B into the same dependent.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.common import attrset
from repro.core.budget import SearchBudget, ensure_budget
from repro.core.mvd import MVD
from repro.entropy.oracle import EntropyOracle
from repro.lattice import AttrSet, bits_of

Pair = Tuple[int, int]
#: Dependent bitmasks in lowest-bit order: one search node.
Deps = Tuple[int, ...]


def _merge(deps: Deps, i: int, j: int) -> Deps:
    """Unite dependents ``i < j``; the union keeps position ``i``."""
    return deps[:i] + (deps[i] | deps[j],) + deps[i + 1:j] + deps[j + 1:]


def _unites(deps: Deps, pair_mask: int) -> bool:
    """Does one dependent hold both attributes of ``pair_mask``?"""
    for d in deps:
        if d & pair_mask:
            # The first dependent touching the pair decides: the other
            # attribute is either here too or in a later dependent.
            return (d & pair_mask) == pair_mask
    return False


def _neighbor_states(deps: Deps, pair_mask: int) -> Iterator[Deps]:
    """Single merges of ``deps`` that keep the pair apart (Eq. 13)."""
    m = len(deps)
    if m <= 2:
        return  # merging the last two dependents is no longer an MVD
    for i in range(m - 1):
        di = deps[i]
        for j in range(i + 1, m):
            if pair_mask and ((di | deps[j]) & pair_mask) == pair_mask:
                continue
            yield _merge(deps, i, j)


def _forced_merge(
    oracle: EntropyOracle, key: AttrSet, deps: Deps, eps: float
) -> Deps:
    """One step of Fig. 16: merge the first pair with ``I > eps``.

    Returns ``deps`` itself when no pair exceeds ε (a fixed point).
    """
    sets = [AttrSet.from_mask(d) for d in deps]
    for i in range(len(sets) - 1):
        si = sets[i]
        for j in range(i + 1, len(sets)):
            if oracle.mi_exceeds(si, sets[j], key, eps):
                return _merge(deps, i, j)
    return deps


def _consistent(
    oracle: EntropyOracle,
    key: AttrSet,
    deps: Deps,
    eps: float,
    memo: Dict[Deps, Deps],
    pair_mask: int,
) -> Optional[Deps]:
    """Fig. 16 through the memoised closure (see the module docstring).

    ``deps`` must keep the pair apart.  Returns the pairwise-consistent
    state, or ``None`` when the forced merges unite the pair or collapse
    to one dependent.
    """
    path = []
    united = False
    while len(deps) > 1:
        nxt = memo.get(deps)
        if nxt is None:
            nxt = memo[deps] = _forced_merge(oracle, key, deps, eps)
        if len(nxt) == len(deps):
            break  # fixed point
        path.append(deps)
        deps = nxt
        if pair_mask and _unites(deps, pair_mask):
            united = True
            break
    if len(path) > 1:  # a one-step path is already memoised
        for state in path:
            memo[state] = deps
    return None if united or len(deps) < 2 else deps


def _deps_of(mvd: MVD) -> Deps:
    return tuple(d.mask for d in mvd.dependents)


def _as_mvd(key: AttrSet, deps: Deps) -> MVD:
    return MVD(key, [AttrSet.from_mask(d) for d in deps])


def _pair_mask(pair: Optional[Pair]) -> int:
    return 0 if pair is None else (1 << int(pair[0])) | (1 << int(pair[1]))


def neighbors(mvd: MVD, pair: Optional[Pair] = None) -> List[MVD]:
    """All single-merge coarsenings keeping the pair separated (Eq. 13)."""
    return [
        _as_mvd(mvd.key, deps)
        for deps in _neighbor_states(_deps_of(mvd), _pair_mask(pair))
    ]


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
    the forced merges would unite the target pair (A, B) or leave a single
    dependent.
    """
    if pair is not None and not mvd.separates(*pair):
        return None
    key = mvd.key
    deps = _consistent(
        oracle, key, _deps_of(mvd), eps,
        oracle.consistency_memo(eps, key.mask), _pair_mask(pair),
    )
    return None if deps is None else _as_mvd(key, deps)


def _prune_refined(
    found: List[Deps], free_mask: int, budget: Optional[SearchBudget]
) -> List[Deps]:
    """The outputs that no other output strictly refines.

    Every output partitions the same free attributes, so only an output
    with more dependents can strictly refine another, and ``fine``
    refines ``coarse`` iff each attribute lies in the same ``coarse``
    dependent as the lowest attribute of its ``fine`` dependent.  Each
    output becomes a row of such labels (per attribute, the position of
    its dependent's lowest attribute), and one vectorised comparison
    tests an output against all finer ones.

    Outputs are tested finest first.  With a ``budget``, it is checked
    before each comparison, and a prune cut short returns the outputs it
    has confirmed: at least those with the most dependents, which no
    other output can strictly refine.
    """
    position = {a: i for i, a in enumerate(bits_of(free_mask))}
    rows = []
    for deps in found:
        row = [0] * len(position)
        for d in deps:
            low = position[(d & -d).bit_length() - 1]
            for a in bits_of(d):
                row[position[a]] = low
        rows.append(row)
    labels = np.array(rows)
    sizes = np.array([len(deps) for deps in found])
    kept = []
    for i in np.argsort(-sizes, kind="stable"):
        finer = sizes > sizes[i]
        if finer.any():
            if budget is not None and budget.exhausted:
                break
            own = labels[i]
            if (own[labels[finer]] == own).all(axis=1).any():
                continue
        kept.append(found[i])
    return kept


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
        dependents are searched (``A, B`` must be distinct attributes of
        the relation outside ``key``, else no results).
    limit:
        The paper's ``K``: stop after this many outputs (``None`` = all).
    optimized:
        Use the pairwise-consistency pruning of Fig. 17 (default) instead of
        the plain DFS of Fig. 6.
    budget:
        Optional search budget.  A search it cuts short returns an
        incomplete result: of the outputs found so far, those its prune
        confirmed before the budget check, at least the ones with the
        most dependents.  A search that explored every node is pruned
        in full, even when the budget ran out on its last node.
    prune_refined:
        Drop outputs strictly refined by another output, enforcing fullness
        among the returned set (see DESIGN.md; the plain DFS can output two
        comparable MVDs reached along different branches).
    """
    key = attrset(key)
    budget = ensure_budget(budget)
    key_mask = key.mask
    free = AttrSet.from_mask(oracle.omega.mask & ~key_mask)
    pair_mask = 0
    if pair is not None:
        a, b = pair
        if a == b or a not in free or b not in free:
            return []
        pair_mask = _pair_mask(pair)
    if len(free) < 2:
        return []
    phi0: Optional[Deps] = tuple(1 << a for a in bits_of(free.mask))
    memo = oracle.consistency_memo(eps, key_mask) if optimized else {}
    if optimized:
        phi0 = _consistent(oracle, key, phi0, eps, memo, pair_mask)
        if phi0 is None:
            return []
    found: List[Deps] = []
    seen = {phi0}
    stack = [phi0]
    while stack:
        if limit is not None and len(found) >= limit:
            break
        if budget.exhausted:
            break
        deps = stack.pop()
        budget.tick()
        if oracle.j_le(key_mask, deps, eps):
            found.append(deps)
            continue
        for nbr in _neighbor_states(deps, pair_mask):
            if optimized:
                nbr = _consistent(oracle, key, nbr, eps, memo, pair_mask)
                if nbr is None:
                    continue
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    if prune_refined and len(found) > 1:
        # An empty stack means every node was explored: that answer is
        # final, so its prune is not cut short.
        found = _prune_refined(found, free.mask, budget if stack else None)
    return sorted(_as_mvd(key, deps) for deps in found)


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
