"""The exact entropy engine: counts-first ``H(X)`` with a mask-keyed memo.

The paper avoids re-scanning the data for every ``H(X_alpha)`` by
maintaining CNT/TID tables and combining them with main-memory joins
(Section 6.3; the literal rendering lives in
:mod:`repro.entropy.sqlengine`).  Entropy needs only group *counts*, never
tuple ids, so this engine skips the tables altogether: every ``H(X)`` is
answered by the relation's counting kernels (:mod:`repro.kernels` for an
in-memory relation, the chunk-streaming lanes of :mod:`repro.backends`
for a store), which compose mixed-radix keys and count them.  The
kernels' composed-prefix cache plays the role the paper's block tables
played: lattice-adjacent queries reuse the key columns of their
predecessors.  When the relation's rows repeat, the kernels count over
its distinct tuples weighted by multiplicity (the packed table of
:mod:`repro.kernels.dispatch`), so an evaluation costs the number of
distinct tuples rather than rows; its value is the same float.

The entropy memo is keyed by the :class:`~repro.lattice.AttrSet`
bitmask of the attribute set (a plain int), so a repeat query costs one
dict probe and always returns the identical float.
"""

from __future__ import annotations

from typing import Dict

from repro.data.relation import Relation
from repro.lattice import AttrSet, bits_of, mask_of


class PLICacheEngine:
    """Exact entropy engine over one relation's counting kernels."""

    def __init__(self, relation: Relation):
        self.relation = relation
        self._entropy_memo: Dict[int, float] = {}
        # Kernel counters are relation-level and shared across engines;
        # this engine reports deltas against a private baseline.
        self._kernel_baseline = relation.kernels.snapshot()

    def entropy_of(self, attrs) -> float:
        """Entropy in bits of the attribute set ``attrs`` (column indices).

        The answer comes straight from the dispatched counting kernel
        (Eq. 5 over group counts).  The memo keeps the first value
        computed, so within one engine instance every repeat query
        returns the identical float.
        """
        m = attrs.mask if type(attrs) is AttrSet else mask_of(attrs)
        cached = self._entropy_memo.get(m)
        if cached is not None:
            return cached
        if m >> self.relation.n_cols:
            raise IndexError(
                f"attribute index {m.bit_length() - 1} out of range "
                f"0..{self.relation.n_cols - 1}"
            )
        value = self.relation.kernels.entropy(tuple(bits_of(m)))
        self._entropy_memo[m] = value
        return value

    def reset_stats(self) -> None:
        self._kernel_baseline = self.relation.kernels.snapshot()

    @property
    def kernel_stats(self) -> Dict[str, int]:
        """Kernel dispatch counters accrued by *this* engine.

        Deltas since construction / :meth:`reset_stats` — the underlying
        counters live on the shared relation-level dispatcher, so other
        engines over the same relation keep their own independent view.
        """
        return self.relation.kernels.snapshot_since(self._kernel_baseline)

    def advance(self, new_relation: Relation) -> None:
        """Move to a new version of the relation, dropping the memo.

        The engine's contract under evolution is simply to never serve a
        stale entropy (patching memoised values is
        :class:`~repro.delta.tracker.DeltaTracker`'s job).
        """
        if new_relation.n_cols != self.relation.n_cols:
            raise ValueError(
                f"cannot advance across a column change "
                f"({self.relation.n_cols} -> {new_relation.n_cols} columns)"
            )
        self.relation = new_relation
        self._entropy_memo.clear()
        self._kernel_baseline = new_relation.kernels.snapshot()
