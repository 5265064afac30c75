"""Classical 4NF-style decomposition from mined ε-MVDs.

Fagin's fourth normal form (cited as [13] in the paper): a relation is in
4NF when every non-trivial MVD ``X ->> Y`` has a superkey ``X``.  The
classical normalisation loop — find a violating MVD, split, recurse — yields
*one* decomposition; the paper's ``ASMiner`` generalises this by
enumerating *all* maximal decompositions synthesisable from ``M_ε``.

We implement the loop on top of ``getFullMVDs`` so the two approaches can
be compared directly (see ``examples/fd_vs_mvd.py`` and the tests): the
4NF result is always one of the schemas reachable from compatible subsets
of ε-MVDs, typically neither the widest nor the most decomposed.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

from repro.common import attrset
from repro.core.budget import SearchBudget, ensure_budget
from repro.core.fullmvd import get_full_mvds
from repro.core.schema import Schema
from repro.data.relation import Relation
from repro.entropy.oracle import EntropyOracle, make_oracle
from repro.lattice import AttrSet


def _fragment_violation(
    oracle: EntropyOracle,
    fragment: FrozenSet[int],
    eps: float,
    max_key: int,
    budget: SearchBudget,
):
    """A full ε-MVD over the fragment whose key is not a fragment superkey.

    Keys are tried in ascending size; the entropy criterion for "superkey
    of the fragment" is ``H(key) == H(fragment)`` under the empirical
    distribution (equality of partitions).
    """
    import itertools

    attrs = sorted(fragment)
    h_fragment = oracle.entropy(fragment)
    for size in range(0, min(max_key, len(attrs) - 2) + 1):
        for key in itertools.combinations(attrs, size):
            if budget.exhausted:
                return None
            key_set = attrset(key)
            if oracle.entropy(key_set) >= h_fragment - 1e-9:
                continue  # superkey: not a 4NF violation
            found = _full_mvds_within(oracle, fragment, key_set, eps, budget)
            if found:
                return found[0]
    return None


def _full_mvds_within(
    oracle: EntropyOracle,
    fragment: FrozenSet[int],
    key: FrozenSet[int],
    eps: float,
    budget: SearchBudget,
):
    """Full ε-MVDs of the *projected* relation R[fragment] with this key.

    Entropies of subsets of the fragment under the projection's empirical
    distribution equal those under R's distribution only when R[fragment]
    is viewed as a bag; we reuse R's oracle, which corresponds to bag
    semantics — the standard choice for information-theoretic dependency
    mining on projections.
    """
    free = fragment - key
    if len(free) < 2:
        return []
    # Restrict the search to the fragment by treating it as the universe:
    # build a sub-oracle view via a thin adapter.
    view = _FragmentOracle(oracle, fragment)
    return get_full_mvds(view, key, eps, limit=1, budget=budget)


class _FragmentOracle:
    """Oracle adapter restricting the attribute universe to a fragment."""

    def __init__(self, base: EntropyOracle, fragment):
        self._base = base
        self._fragment = attrset(fragment)

    @property
    def omega(self) -> AttrSet:
        return self._fragment

    @property
    def n_attrs(self) -> int:
        return len(self._fragment)

    def entropy(self, attrs):
        return self._base.entropy(attrset(attrs) & self._fragment)

    def entropy_mask(self, m: int) -> float:
        return self._base.entropy_mask(m & self._fragment.mask)

    def mutual_information(self, ys, zs, xs=()):
        return self._base.mutual_information(
            attrset(ys) & self._fragment,
            attrset(zs) & self._fragment,
            attrset(xs) & self._fragment,
        )

    # Batched interface: clip to the fragment, delegate to the base oracle
    # (which may plan/persist; see repro.exec).

    def entropies(self, requests):
        clipped = [attrset(a) & self._fragment for a in requests]
        return self._base.entropies(clipped)

    def mutual_informations(self, triples):
        return self._base.mutual_informations(
            [
                (
                    attrset(ys) & self._fragment,
                    attrset(zs) & self._fragment,
                    attrset(xs) & self._fragment,
                )
                for ys, zs, xs in triples
            ]
        )

    # Decision interface: clip and delegate, so estimate-answering engines
    # (repro.approx) keep their interval/escalation behaviour on fragments.

    def mi_exceeds(self, ys, zs, xs, eps: float) -> bool:
        return self._base.mi_exceeds(
            attrset(ys) & self._fragment,
            attrset(zs) & self._fragment,
            attrset(xs) & self._fragment,
            eps,
        )

    def mis_exceed(self, triples, eps: float):
        return self._base.mis_exceed(
            [
                (
                    attrset(ys) & self._fragment,
                    attrset(zs) & self._fragment,
                    attrset(xs) & self._fragment,
                )
                for ys, zs, xs in triples
            ],
            eps,
        )

    def j_le(self, key_mask: int, deps, eps: float) -> bool:
        # MVDs searched over this view live inside the fragment universe
        # (their key and dependents partition subsets of it), so no
        # clipping is needed — delegate the decision wholesale.
        return self._base.j_le(key_mask, deps, eps)

    def consistency_memo(self, eps: float, key_mask: int):
        # Closure states live inside the fragment, where this view's
        # verdicts are the base oracle's: share the base's memo.
        return self._base.consistency_memo(eps, key_mask)

    @property
    def queries(self) -> int:
        return self._base.queries


def fourNF_decompose(
    relation: Relation,
    eps: float = 0.0,
    max_key: int = 3,
    oracle: Optional[EntropyOracle] = None,
    budget: Optional[SearchBudget] = None,
) -> Schema:
    """Fagin-style 4NF decomposition driven by approximate MVDs.

    Repeatedly splits a fragment by the first full ε-MVD with a smallest
    non-superkey key, until no fragment has a violating ε-MVD (with keys up
    to ``max_key``).  Returns the single resulting schema.  With an
    exhausted budget the current (possibly partially decomposed) schema is
    returned.
    """
    oracle = oracle if oracle is not None else make_oracle(relation)
    budget = ensure_budget(budget)
    omega = AttrSet.full(relation.n_cols)
    work: List[FrozenSet[int]] = [omega]
    done: List[FrozenSet[int]] = []
    while work:
        fragment = work.pop()
        if len(fragment) <= 2 or budget.exhausted:
            done.append(fragment)
            continue
        phi = _fragment_violation(oracle, fragment, eps, max_key, budget)
        if phi is None:
            done.append(fragment)
            continue
        for dep in phi.dependents:
            work.append(phi.key | dep)
    return Schema(done)
