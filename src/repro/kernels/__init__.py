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
suite in ``tests/test_kernels.py``.

Entry points: :class:`GroupCounter` (per-relation dispatcher, reachable
as ``Relation.kernels``), :func:`entropy_from_counts` (the shared Eq. 5
evaluation), :func:`key_counts` (raw-key counting for
:class:`~repro.entropy.partitions.EvolvingPartition`), and
:func:`grouping_order` (the counting-sort permutation behind
:meth:`StrippedPartition.from_group_ids`).
"""

from repro.kernels.count import (
    bincount_counts,
    bincount_ids,
    bincount_ids_and_counts,
    bincount_limit,
    entropy_from_counts,
    grouping_order,
    key_counts,
    sort_counts,
    sort_ids,
    sort_ids_and_counts,
)
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
    "sort_counts",
    "sort_ids",
    "sort_ids_and_counts",
]
