"""Counting kernels: group counts, dense ids and entropy from raw key arrays.

Every function in this module answers one of three questions about a 1-D
array of non-negative integer *group keys* (mixed-radix combinations of
code columns, see :mod:`repro.kernels.compose`):

* ``*_counts`` — how large is each group?  Counts are always returned in
  **ascending key order**, which is the order ``np.unique`` yields and the
  order every entropy summation in this codebase runs in; that invariant
  is what makes all kernels *bit-identical*, not merely close, to the
  legacy sort path (float summation order is part of the contract).
* ``*_ids`` — which group does each row belong to?  Dense ids in
  ``0..n_groups-1`` follow the lexicographic (ascending key) order, the
  :meth:`repro.data.relation.Relation.group_ids` contract.
* :func:`entropy_from_counts` — the Eq. (5) plug-in entropy of a count
  vector, which :class:`~repro.entropy.partitions.StrippedPartition` and
  :class:`~repro.entropy.partitions.EvolvingPartition` call too.

Two kernels with one contract:

* **bincount** — ``O(n + K)`` when the key-space bound ``K`` is modest: one
  ``np.bincount`` scatter, no sort anywhere.  The fast path for the
  low-domain relations the paper's workloads live in.
* **sort** — ``np.unique``-based, ``O(n log n)``; the legacy path and the
  universal fallback (works for any int64 key space).

Selection lives in :mod:`repro.kernels.dispatch`; the functions here are
deliberately dumb so each is independently parity-testable.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

#: Always allow a bincount table of this many counters (a 64k-entry int64
#: table is half a megabyte — cheaper than any sort).
BINCOUNT_MIN_BOUND = 1 << 16
#: Allow the counter table to exceed the row count by this factor: a
#: bincount over ``K <= 4 n`` counters still beats sorting ``n`` keys.
BINCOUNT_RATIO = 4
#: Never allocate more than this many counters (16M entries = 128 MB),
#: whatever the row count says.
BINCOUNT_HARD_CAP = 1 << 24


def bincount_limit(n_rows: int) -> int:
    """Largest key-space bound the bincount kernel accepts for ``n_rows``."""
    return min(BINCOUNT_HARD_CAP, max(BINCOUNT_MIN_BOUND, BINCOUNT_RATIO * n_rows))


# --------------------------------------------------------------------- #
# Count-only kernels (ascending key order)
# --------------------------------------------------------------------- #


def bincount_counts(keys: np.ndarray, dense: bool = False) -> np.ndarray:
    """Group sizes via one ``np.bincount`` scatter, ``O(n + K)``.

    ``dense=True`` asserts the keys are already dense group ids (every
    value in ``0..max`` occurs), letting the zero-compression pass be
    skipped.  Counts come out indexed by key, i.e. ascending key order.
    """
    counts = np.bincount(keys)
    if dense:
        return counts
    return counts[counts > 0]


def sort_counts(keys: np.ndarray) -> np.ndarray:
    """Group sizes via ``np.unique`` (the legacy sort path)."""
    return np.unique(keys, return_counts=True)[1]


def key_counts(
    keys: np.ndarray, bound: Optional[int], n_rows: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(distinct keys, counts)`` in ascending key order, kernel-dispatched.

    The one entry point that preserves the raw key *values* (not dense
    ids) — what :class:`~repro.entropy.partitions.EvolvingPartition`
    needs, since its append stability rests on keys never being
    re-densified.  ``bound`` is the key-space bound when known (``None``
    forces the sort fallback).
    """
    if bound is not None and 0 <= bound <= bincount_limit(n_rows):
        counts = np.bincount(keys, minlength=0)
        nz = np.nonzero(counts)[0]
        return nz.astype(np.int64, copy=False), counts[nz]
    uniq, counts = np.unique(keys, return_counts=True)
    return uniq.astype(np.int64, copy=False), counts


# --------------------------------------------------------------------- #
# Chunk-streaming accumulation (out-of-core counts)
# --------------------------------------------------------------------- #
#
# The streamed lanes answer the same question as the in-memory kernels —
# group counts in ascending key order — without ever holding all rows at
# once.  Three merge strategies, mirroring the in-memory dispatch:
#
# * bincount-merge: one shared counter table, ``total += bincount(chunk)``
#   per chunk, when the composed key bound fits a bounded table;
# * sort-merge: per-chunk ``np.unique`` runs merged through
#   :func:`merge_key_counts` (sorted-set union + exact int64 adds);
# * row-merge: for key bounds past the int64 guard the keys stay as
#   column tuples and :func:`lex_row_counts` groups them
#   lexicographically — the order equal to ascending mixed-radix keys.
#
# Every lane preserves ascending key order, so streamed counts are
# element-for-element the in-memory counts vector and every downstream
# entropy is bit-identical (densification in the in-memory path is
# order-preserving, so it never changes the counts vector either).


def merge_key_counts(
    acc_keys: Optional[np.ndarray],
    acc_counts: Optional[np.ndarray],
    keys: np.ndarray,
    counts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge two ascending ``(distinct keys, counts)`` runs into one.

    Both runs must be sorted with unique keys (what ``np.unique`` and
    :func:`key_counts` produce); the accumulator may be ``None`` on the
    first chunk.  Counts are added in exact int64 arithmetic — never via
    weighted bincount, which would round-trip through float64.
    """
    if acc_keys is None or len(acc_keys) == 0:
        return keys, counts.astype(np.int64, copy=False)
    uniq = np.union1d(acc_keys, keys)
    out = np.zeros(len(uniq), dtype=np.int64)
    out[np.searchsorted(uniq, acc_keys)] += acc_counts
    out[np.searchsorted(uniq, keys)] += counts
    return uniq, out


def lex_row_counts(
    rows: np.ndarray, weights: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a 2-D key matrix with (weighted) multiplicities.

    Rows come out in lexicographic order (first column most significant)
    — exactly the ascending order of the mixed-radix keys the rows would
    compose to, which keeps the counts vector bit-compatible with the
    composed lanes even when the key product overflows int64.  Sorting
    is an explicit ``np.lexsort`` (numeric per column), never a raw-byte
    view, so the order is endianness-independent.
    """
    if rows.shape[0] == 0:
        return rows, np.zeros(0, dtype=np.int64)
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    changed = np.any(ordered[1:] != ordered[:-1], axis=1)
    starts = np.flatnonzero(np.concatenate(([True], changed)))
    uniq = ordered[starts]
    if weights is None:
        bounds = np.concatenate((starts, [len(ordered)]))
        return uniq, np.diff(bounds).astype(np.int64, copy=False)
    return uniq, np.add.reduceat(weights[order], starts).astype(np.int64, copy=False)


def merge_row_counts(
    acc_rows: Optional[np.ndarray],
    acc_counts: Optional[np.ndarray],
    rows: np.ndarray,
    counts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge two lexicographically grouped row runs (the wide-key lane)."""
    if acc_rows is None or len(acc_rows) == 0:
        return rows, counts.astype(np.int64, copy=False)
    return lex_row_counts(
        np.concatenate([acc_rows, rows]),
        np.concatenate([acc_counts, counts.astype(np.int64, copy=False)]),
    )


def chunked_bincount_counts(chunks, bound: int) -> np.ndarray:
    """Group sizes accumulated over key chunks via one shared table.

    ``chunks`` yields 1-D key arrays all bounded by ``bound``; the table
    is allocated once and every chunk scatters into it, so peak memory is
    ``8 * bound`` bytes plus one chunk.  Equivalent to
    :func:`bincount_counts` over the concatenated keys.
    """
    total = np.zeros(int(bound), dtype=np.int64)
    for chunk in chunks:
        total += np.bincount(chunk, minlength=len(total))
    return total[total > 0]


def chunked_merge_counts(chunks) -> np.ndarray:
    """Group sizes accumulated over key chunks via sorted-run merging.

    The fallback for key bounds past the table budget: each chunk is
    grouped locally (``np.unique``) and merged into the running
    ``(keys, counts)`` run.  Peak memory is one chunk plus two runs of
    the distinct-key count.
    """
    keys = counts = None
    for chunk in chunks:
        uniq, c = np.unique(chunk, return_counts=True)
        keys, counts = merge_key_counts(keys, counts, uniq, c)
    if counts is None:
        return np.zeros(0, dtype=np.int64)
    return counts


def chunked_row_counts(chunks) -> np.ndarray:
    """Group sizes over chunks of 2-D key-tuple matrices (wide-key lane)."""
    rows = counts = None
    for chunk in chunks:
        uniq, c = lex_row_counts(chunk)
        rows, counts = merge_row_counts(rows, counts, uniq, c)
    if counts is None:
        return np.zeros(0, dtype=np.int64)
    return counts


# --------------------------------------------------------------------- #
# Dense-id kernels (lexicographic group ids)
# --------------------------------------------------------------------- #


def bincount_ids(keys: np.ndarray) -> Tuple[np.ndarray, int]:
    """Densify keys to ids via bincount presence + cumsum, ``O(n + K)``.

    Bit-identical to ``np.unique(keys, return_inverse=True)``: the rank
    of each key among the distinct keys, in ascending key order.
    """
    counts = np.bincount(keys)
    present = counts > 0
    remap = np.cumsum(present, dtype=np.int64)
    remap -= 1
    ids = remap[keys]
    n_groups = int(remap[-1]) + 1 if len(remap) else 0
    return ids, n_groups


def sort_ids(keys: np.ndarray) -> Tuple[np.ndarray, int]:
    """Densify keys to ids via ``np.unique`` (the legacy path)."""
    uniq, inv = np.unique(keys, return_inverse=True)
    return inv.reshape(-1).astype(np.int64, copy=False), len(uniq)


def bincount_ids_and_counts(
    keys: np.ndarray, dense: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused ``(dense ids, group counts)`` in one bincount pass."""
    counts = np.bincount(keys)
    if dense:
        return keys.astype(np.int64, copy=False), counts
    present = counts > 0
    remap = np.cumsum(present, dtype=np.int64)
    remap -= 1
    return remap[keys], counts[present]


def sort_ids_and_counts(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Fused ``(dense ids, group counts)`` via one ``np.unique``."""
    _, inv, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return inv.reshape(-1).astype(np.int64, copy=False), counts


# --------------------------------------------------------------------- #
# Entropy (Eq. 5) and the grouping permutation
# --------------------------------------------------------------------- #


def entropy_from_counts(counts: np.ndarray, n_rows: int) -> float:
    """Plug-in entropy in bits of a group-count vector (Eq. 5).

    ``H = log2 N - (1/N) * sum_c c * log2 c`` over counts ``>= 2``
    (singletons contribute 0), clamped at 0.  Counts must arrive in
    ascending key order: the ``np.dot`` summation order is part of the
    contract, so every caller — kernels, partitions — produces
    bit-identical floats for the same grouping.  The delta tracker's
    batched patch (:meth:`~repro.entropy.partitions.EvolvingBatch.append_block`)
    applies the same steps to slices of one array.
    """
    if n_rows == 0:
        return 0.0
    sizes = counts[counts >= 2].astype(np.float64)
    s = float(np.dot(sizes, np.log2(sizes))) if len(sizes) else 0.0
    return max(0.0, math.log2(n_rows) - s / n_rows)


def grouping_order(ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Stable grouping permutation: rows ordered by (group id, row index).

    Exactly ``np.argsort(ids, kind="stable")`` — the partition-building
    sort of :meth:`StrippedPartition.from_group_ids` — computed as a
    radix sort instead of a comparison sort: the ids are cast to the
    smallest sufficient unsigned dtype, where numpy's stable integer
    argsort is a 1-2 pass radix sort, ``O(n + K)`` for dense ids
    (measured ~6x faster than the int64 argsort it replaces).

    ``counts`` must be ``np.bincount(ids, minlength=n_groups)``; callers
    always have it in hand (it is also the entropy input).
    """
    n_groups = len(counts)
    if n_groups <= np.iinfo(np.uint8).max:
        ids = ids.astype(np.uint8)
    elif n_groups <= np.iinfo(np.uint16).max:
        ids = ids.astype(np.uint16)
    elif n_groups <= np.iinfo(np.uint32).max:
        ids = ids.astype(np.uint32)
    return np.argsort(ids, kind="stable").astype(np.int64, copy=False)


def representatives(ids: np.ndarray, n_groups: int) -> np.ndarray:
    """One row index per group, in group-id order.

    Rows of a group agree on the grouped attributes, so any member
    represents it: ``codes[representatives(*kernels.ids(idx))][:, idx]``
    is the deduplicated projection onto ``idx`` in ascending key order
    (the rows and order of ``np.unique(codes[:, idx], axis=0)``).
    """
    rows = np.empty(n_groups, dtype=np.int64)
    rows[ids] = np.arange(len(ids), dtype=np.int64)
    return rows
