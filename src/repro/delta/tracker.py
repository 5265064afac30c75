"""Delta maintenance of memoised entropies: the tracker behind warm re-mining.

The oracle memo maps attribute-set bitmasks to entropies; a single
appended row changes *every* one of those values (``H = log N - S/N``
moves with ``N``), so plain invalidation would throw the whole warm
session away.  The :class:`DeltaTracker` keeps, for every attribute set
the oracle has evaluated, the
:class:`~repro.entropy.partitions.EvolvingPartition` group state that
makes the new entropy a *patch* instead of an ``O(N)`` recomputation.

Cost model per append of ``k`` rows over ``L`` tracked sets holding
``G`` groups in all:

* no cardinality jump — one batched pass
  (:class:`~repro.entropy.partitions.EvolvingBatch`): a fixed number of
  NumPy calls over the ``k * L`` new keys and the ``G`` retained groups,
  plus one ``np.dot`` and a few slice assignments per set; the ``N``
  retained rows are untouched, and ``combine_codes`` runs only when a
  set is first tracked or rebuilt;
* a column's dictionary grew — only the sets *containing that column*
  fall back to a full regroup (the exact-agreement fallback), everything
  else still patches in the same pass;
* a set whose key space exceeds the dense-radix bound is never tracked;
  its memo entry is dropped on advance and recomputed on demand.

Entropies produced by the tracker are bit-identical to the engines'
from-scratch values (see :class:`EvolvingPartition`), which is what makes
warm re-mining after an append byte-identical to a cold mine of the
concatenated dataset.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.data.relation import Relation
from repro.entropy.partitions import EvolvingBatch, EvolvingPartition, StrippedPartition
from repro.lattice import bits_of


class DeltaTracker:
    """Evolving grouping state for every entropy the oracle memoised.

    Attributes
    ----------
    patched:
        Entropies updated in place by delta maintenance (lifetime total).
    rebuilt:
        Exact-agreement fallbacks: sets regrouped from scratch because a
        column's cardinality jumped past the captured radix bound.
    dropped:
        Memo entries discarded on advance because the set is untrackable
        (key space beyond the dense-radix bound).
    """

    def __init__(self, relation: Relation):
        self.relation = relation
        #: mask -> EvolvingPartition, or None for untrackable sets.
        self._parts: Dict[int, Optional[EvolvingPartition]] = {}
        #: The trackable masks and their stacked batch; reset whenever a
        #: set is first tracked or regrouped.
        self._batch: Optional[Tuple[List[int], EvolvingBatch]] = None
        self.patched = 0
        self.rebuilt = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._parts)

    def entropy_of_mask(self, mask: int) -> float:
        """``H`` of the set encoded by ``mask``, recording evolving state.

        First call per mask groups the relation once (same cost class as
        an engine evaluation); later appends patch it.  Untrackable sets
        are computed through a throwaway stripped partition so the float
        path matches the engines exactly.
        """
        part = self._parts.get(mask)
        if part is not None:
            return part.entropy()
        if mask in self._parts:  # recorded as untrackable
            return self._fallback_entropy(mask)
        part = EvolvingPartition.build(self.relation, bits_of(mask))
        self._parts[mask] = part
        if part is None:
            return self._fallback_entropy(mask)
        self._batch = None
        return part.entropy()

    def _fallback_entropy(self, mask: int) -> float:
        return StrippedPartition.from_relation(self.relation, bits_of(mask)).entropy()

    def advance(self, new_relation: Relation, delta) -> Tuple[Dict[int, float], Dict[str, int]]:
        """Absorb an appended batch; returns ``(patched masks, stats)``.

        ``patched`` maps every still-valid mask to its new entropy — the
        oracle swaps its memo to exactly this dict.  Masks missing from it
        (untrackable sets) must be recomputed on demand.
        """
        if delta.start_row != self.relation.n_rows:
            raise ValueError(
                f"delta starts at row {delta.start_row} but the tracked "
                f"relation has {self.relation.n_rows} rows"
            )
        block = new_relation.codes[delta.start_row:]
        if self._batch is None:
            masks = [m for m, part in self._parts.items() if part is not None]
            self._batch = (masks, EvolvingBatch([self._parts[m] for m in masks]))
        masks, batch = self._batch
        entropies, jumped = batch.append_block(block)
        patched = dict(zip(masks, entropies))
        stats = {
            "patched": len(masks) - len(jumped),
            "rebuilt": len(jumped),
            "dropped": len(self._parts) - len(masks),
        }
        for pos in jumped:
            mask = masks[pos]
            part = EvolvingPartition.build(new_relation, bits_of(mask))
            self._parts[mask] = part
            if part is None:  # the grown radix put the set past the bound
                stats["dropped"] += 1
                del patched[mask]
                continue
            patched[mask] = part.entropy()
        if jumped:
            self._batch = None
        self.relation = new_relation
        self.patched += stats["patched"]
        self.rebuilt += stats["rebuilt"]
        self.dropped += stats["dropped"]
        return patched, stats
