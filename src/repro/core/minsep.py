"""``MineMinSeps`` / ``ReduceMinSep``: minimal A,B-separators (Section 6.1).

A set ``X`` (with ``A, B ∉ X``) *separates* A and B when some ε-MVD with key
``X`` puts A and B in distinct dependents (Definition 5.5).  Separator-hood
is monotone under supersets (Proposition 5.1, Eq. 8), so minimal separators
are well-defined and the greedy ``ReduceMinSep`` (Fig. 4) shrinks any
separator to a minimal one by scanning attributes in a fixed order.

``MineMinSeps`` (Fig. 5) enumerates *all* minimal separators using the
Gunopulos et al. most-specific-sentences scheme (Theorem 6.1): with ``C`` the
separators found so far, any further minimal separator must avoid at least
one element of every member of ``C`` — i.e. it is contained in the complement
of some minimal *transversal* ``D`` of ``C``.  So the loop draws minimal
transversals of ``C`` (maintained incrementally, Berge-style), tests whether
``U \\ D`` separates, reduces it, and repeats until the transversals are
exhausted.

Note: line 9 of the paper's Fig. 5 complements ``D`` with respect to
``Omega``; since a key containing A or B can never separate them, we
complement within the universe ``U = Omega \\ {A, B}`` (this also matches
the proof of Theorem 6.1, where separators and transversals live inside
``U``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.budget import SearchBudget, ensure_budget
from repro.core.fullmvd import key_separates
from repro.entropy.oracle import EntropyOracle
from repro.hypergraph.transversal import TransversalEnumerator
from repro.lattice import AttrSet, bits_of, mask_of

Pair = Tuple[int, int]


def reduce_min_sep(
    oracle: EntropyOracle,
    eps: float,
    separator: Iterable[int],
    pair: Pair,
    optimized: bool = True,
    budget: Optional[SearchBudget] = None,
) -> AttrSet:
    """Shrink a separator to a minimal one (Fig. 4).

    Scans the attributes of ``separator`` in ascending index order (the
    "predefined ordering p"); drops each attribute whose removal still
    leaves a separator.  The fixed order is what makes the enumeration of
    ``MineMinSeps`` complete (Theorem 6.2's proof inducts on the
    lexicographic order this scan induces).  The scan itself is pure mask
    arithmetic: each drop-candidate is one AND-NOT away.
    """
    start = mask_of(separator)
    current = start
    for x in bits_of(start):
        candidate = current & ~(1 << x)
        if key_separates(
            oracle, AttrSet.from_mask(candidate), pair, eps,
            optimized=optimized, budget=budget,
        ):
            current = candidate
    return AttrSet.from_mask(current)


def iter_min_seps(
    oracle: EntropyOracle,
    eps: float,
    pair: Pair,
    optimized: bool = True,
    budget: Optional[SearchBudget] = None,
):
    """Enumerate minimal A,B-separators in discovery order (Fig. 5).

    This is the enumeration form of ``MineMinSeps``: each separator is
    yielded as soon as it is found, which is what Corollary 6.3's delay
    bound talks about (see ``benchmarks/bench_delay_minseps.py``).  With an
    exhausted budget the stream simply ends early.
    """
    a, b = pair
    budget = ensure_budget(budget)
    omega = oracle.omega
    if a == b or a not in omega or b not in omega:
        raise ValueError(f"pair {pair} must be two distinct attributes of the relation")
    universe = AttrSet.from_mask(omega.mask & ~((1 << a) | (1 << b)))
    if budget.exhausted:
        return
    # Fast gate (Fig. 5 line 3): the most favourable key is Omega - {A,B};
    # J(Omega-AB ->> A|B) = I(A; B | Omega-AB).  If even that exceeds eps,
    # no separator exists (Eq. 8).  The decision routes through the oracle
    # (exact compare, or interval + escalation on the approx engine).
    if oracle.mis_exceed([({a}, {b}, universe)], eps)[0]:
        return
    found: set = set()
    first = reduce_min_sep(oracle, eps, universe, pair, optimized=optimized, budget=budget)
    found.add(first)
    yield first
    enum = TransversalEnumerator()
    enum.add_edge(first)
    while not budget.exhausted:
        d = enum.pop_unprocessed()
        if d is None:
            break
        budget.tick()
        candidate = universe - d
        if key_separates(oracle, candidate, pair, eps, optimized=optimized, budget=budget):
            sep = reduce_min_sep(
                oracle, eps, candidate, pair, optimized=optimized, budget=budget
            )
            # `candidate` avoids an element of every known separator, so the
            # reduction lands on a brand-new minimal separator (Thm 6.1).
            if sep not in found:
                found.add(sep)
                yield sep
                enum.add_edge(sep)


def mine_min_seps(
    oracle: EntropyOracle,
    eps: float,
    pair: Pair,
    optimized: bool = True,
    budget: Optional[SearchBudget] = None,
) -> List[AttrSet]:
    """All minimal A,B-separators of R (Fig. 5), in discovery order.

    Eager wrapper over :func:`iter_min_seps`; with an exhausted budget the
    list may be a prefix of the full answer.
    """
    return list(
        iter_min_seps(oracle, eps, pair, optimized=optimized, budget=budget)
    )


def mine_all_min_seps(
    oracle: EntropyOracle,
    eps: float,
    pairs: Optional[Iterable[Pair]] = None,
    optimized: bool = True,
    budget: Optional[SearchBudget] = None,
) -> Dict[Pair, List[AttrSet]]:
    """Minimal separators for every attribute pair (the Fig. 13/14 workload).

    ``pairs`` defaults to all unordered attribute pairs, in lexicographic
    order.  Pairs skipped because the budget ran out are absent from the
    result.
    """
    budget = ensure_budget(budget)
    n = oracle.n_attrs
    if pairs is None:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out: Dict[Pair, List[AttrSet]] = {}
    for pair in pairs:
        if budget.exhausted:
            break
        out[pair] = mine_min_seps(
            oracle, eps, pair, optimized=optimized, budget=budget
        )
    return out
