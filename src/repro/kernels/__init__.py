"""Counts-first grouping kernels with runtime dispatch.

The miner's inner loop is "entropy of an attribute set", and entropy
needs only group *counts* — never tuple ids.  This package evaluates
those counts directly from the code matrix (compose mixed-radix keys,
count them) and picks the cheapest counting kernel per query:

========  =============================  =======================================
kernel    cost                           when
========  =============================  =======================================
bincount  ``O(n + K)``                   key bound ``K`` within
                                         :func:`count.bincount_limit` (kept
                                         common by eager densification during
                                         composition)
sort      ``O(n log n)``                 ``np.unique`` — the legacy path and
                                         universal fallback
========  =============================  =======================================

Both kernels return counts in ascending key order, making every dispatch
choice bit-identical to the legacy sort path — verified by the parity
suite in ``tests/test_kernels.py``.  A relation whose distinct tuples
are at most half its rows is counted over those tuples, weighted by
multiplicity (:class:`~repro.kernels.dispatch.PackedTable`), with the
same counts vector.

Keys are composed from narrow, contiguous code columns, one dtype per
column chosen by :func:`narrow_dtype` (the width the on-disk stores use
too), so the in-memory and the chunk-streamed lanes read one layout.

Entry points: :class:`GroupCounter` (per-relation dispatcher, reachable
as ``Relation.kernels``), :func:`entropy_from_counts` (the shared Eq. 5
evaluation), :func:`key_counts` (raw-key counting for
:class:`~repro.entropy.partitions.EvolvingPartition`),
:func:`grouping_order` (the counting-sort permutation behind
:meth:`StrippedPartition.from_group_ids`) and :func:`representatives`
(one member per group: deduplicated projections, approx intervals and
spurious-tuple counting).  :meth:`GroupCounter.unit_ids_and_counts`
groups a packed relation's distinct tuples instead of its rows, for the
callers that read each group only through one member.
"""

from repro.kernels.count import (
    bincount_counts,
    bincount_ids,
    bincount_ids_and_counts,
    bincount_limit,
    entropy_from_counts,
    grouping_order,
    key_counts,
    representatives,
    sort_counts,
    sort_ids,
    sort_ids_and_counts,
)
from repro.kernels.compose import narrow_dtype
from repro.kernels.dispatch import PREFIX_BUDGET, GroupCounter

__all__ = [
    "GroupCounter",
    "PREFIX_BUDGET",
    "bincount_counts",
    "bincount_ids",
    "bincount_ids_and_counts",
    "bincount_limit",
    "entropy_from_counts",
    "grouping_order",
    "key_counts",
    "narrow_dtype",
    "representatives",
    "sort_counts",
    "sort_ids",
    "sort_ids_and_counts",
]
