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
from typing import List, Optional, Sequence, Tuple

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
#: Count a relation over its G distinct tuples (weighted by
#: multiplicity) only when ``G * PACK_RATIO <= N``.  Measured on a 2-vCPU
#: x86-64 host, all 255 subsets of an 8-column relation of 100k shuffled
#: rows, probe included: packed / row time 0.59 at G = N/3, 0.91 at N/2,
#: 0.99 at 3N/4 and 1.04 at 0.9N.
PACK_RATIO = 2


def bincount_limit(n_rows: int) -> int:
    """Largest key-space bound the bincount kernel accepts for ``n_rows``."""
    return min(BINCOUNT_HARD_CAP, max(BINCOUNT_MIN_BOUND, BINCOUNT_RATIO * n_rows))


def pack_cap(n_rows: int) -> int:
    """Most distinct tuples a relation of ``n_rows`` rows packs into."""
    return n_rows // PACK_RATIO


# --------------------------------------------------------------------- #
# Count-only kernels (ascending key order)
# --------------------------------------------------------------------- #


def bincount_counts(keys: np.ndarray, weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Group sizes via one ``np.bincount`` scatter, ``O(n + K)``.

    Counts come out indexed by key, i.e. ascending key order.

    ``weights`` gives each key a positive integer multiplicity (a packed
    table's tuple counts, as float64), and a group's size is the sum of
    its weights.  NumPy sums them in float64, which is exact while every
    sum stays below 2^53, so the int64 result equals the count over the
    rows the weights stand for.
    """
    if weights is not None:
        sums = np.bincount(keys, weights=weights)
        return sums[sums > 0].astype(np.int64)
    counts = np.bincount(keys)
    return counts[counts > 0]


def sort_counts(keys: np.ndarray, weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Group sizes via ``np.unique`` (the legacy sort path).

    ``weights`` as in :func:`bincount_counts`.
    """
    if weights is not None:
        return sort_ids_and_counts(keys, weights)[1]
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
#   :func:`merge_key_runs` (stable sort of sorted runs + exact int64 adds);
# * row-merge: for key bounds past the int64 guard the keys stay as
#   column tuples and :func:`lex_row_counts` groups them
#   lexicographically — the order equal to ascending mixed-radix keys.
#
# The two merge lanes fold their per-chunk runs lazily
# (:func:`_fold_runs`): runs wait until they hold as many keys as the
# merged run, so a pass over mostly-distinct rows costs about two merges
# of its keys, not one re-sort of the growing run per chunk.
#
# Every lane preserves ascending key order, so streamed counts are
# element-for-element the in-memory counts vector and every downstream
# entropy is bit-identical (densification in the in-memory path is
# order-preserving, so it never changes the counts vector either).


def merge_key_runs(
    runs: Sequence[Tuple[np.ndarray, np.ndarray]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge ascending ``(distinct keys, counts)`` runs into one.

    Each run must be sorted with unique keys (what ``np.unique`` and
    :func:`key_counts` produce).  The concatenated keys are ordered by a
    stable sort, which NumPy runs as timsort (radix sort for keys of 16
    bits or less): it finds the sorted runs and merges them in linear
    passes rather than sorting from scratch.  Counts are added in exact
    int64 arithmetic — never via weighted bincount, which would
    round-trip through float64.
    """
    if len(runs) == 1:
        keys, counts = runs[0]
        return keys, counts.astype(np.int64, copy=False)
    keys = np.concatenate([k for k, _ in runs])
    counts = np.concatenate([c for _, c in runs]).astype(np.int64, copy=False)
    if len(keys) == 0:
        return keys, counts
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(counts[order], starts)


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


def merge_row_runs(
    runs: Sequence[Tuple[np.ndarray, np.ndarray]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge lexicographically grouped row runs (the wide-key lane)."""
    if len(runs) == 1:
        rows, counts = runs[0]
        return rows, counts.astype(np.int64, copy=False)
    return lex_row_counts(
        np.concatenate([r for r, _ in runs]),
        np.concatenate([c for _, c in runs]).astype(np.int64, copy=False),
    )


def _fold_runs(runs, merge, cap: Optional[int], empty):
    """Fold ascending runs into one with ``merge``; ``None`` past ``cap``.

    Runs wait until they hold at least as many keys as the merged run, so
    a merge handles at most twice the keys it takes in, and folding a
    pass costs about two passes over its runs instead of one pass over
    the growing merged run per chunk.  Runs also merge as soon as they
    could take the merged run past ``cap``: the merge then counts the
    distinct keys exactly, so a capped pass gives up at the first run
    that takes it past, without reading further.  Returns ``empty`` for
    no runs at all.
    """
    merged = None
    pending: List[Tuple[np.ndarray, np.ndarray]] = []
    waiting = 0
    for run in runs:
        pending.append(run)
        waiting += len(run[0])
        held = 0 if merged is None else len(merged[0])
        if waiting >= held or (cap is not None and held + waiting > cap):
            merged = merge(pending if merged is None else [merged, *pending])
            pending, waiting = [], 0
            if cap is not None and len(merged[0]) > cap:
                return None
    if pending:
        # Within the cap, or the last run would have merged above.
        merged = merge([merged, *pending])
    return empty if merged is None else merged


# The three streamed lanes.  Each returns its distinct keys (or key
# tuples) next to the counts, which is what packing a relation reads
# (:func:`repro.kernels.dispatch.pack`), and gives up, returning
# ``None``, as soon as more than ``cap`` distinct keys have been seen.


def chunked_bincount_keys(
    chunks, bound: int, cap: Optional[int] = None
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(distinct keys, counts)`` over key chunks via one shared table.

    ``chunks`` yields 1-D key arrays all bounded by ``bound``; the table
    is allocated once and every chunk scatters into it, so peak memory is
    ``8 * bound`` bytes plus one chunk.  Equivalent to
    :func:`key_counts` over the concatenated keys.
    """
    total = np.zeros(int(bound), dtype=np.int64)
    seen = 0
    for chunk in chunks:
        total += np.bincount(chunk, minlength=len(total))
        seen += len(chunk)
        # No more distinct keys than rows: skip the scan until then.
        if cap is not None and seen > cap and np.count_nonzero(total) > cap:
            return None
    keys = np.flatnonzero(total)
    return keys, total[keys]


def chunked_merge_keys(
    chunks, cap: Optional[int] = None
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(distinct keys, counts)`` over key chunks via sorted-run merging.

    The fallback for key bounds past the table budget: each chunk is
    grouped locally (``np.unique``) and the runs are folded lazily
    (:func:`_fold_runs`, :func:`merge_key_runs`).  Peak memory is one
    chunk plus about twice the distinct-key count.
    """
    runs = (np.unique(chunk, return_counts=True) for chunk in chunks)
    empty = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return _fold_runs(runs, merge_key_runs, cap, empty)


def chunked_row_keys(
    chunks, cap: Optional[int] = None
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(distinct rows, counts)`` over chunks of 2-D key-tuple matrices
    (the wide-key lane), rows in lexicographic order."""
    runs = (lex_row_counts(chunk) for chunk in chunks)
    empty = np.zeros((0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64)
    return _fold_runs(runs, merge_row_runs, cap, empty)


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
    keys: np.ndarray, weights: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused ``(dense ids, group counts)`` in one bincount pass.

    ``weights`` as in :func:`bincount_counts`: the ids stay per key, the
    counts are the groups' summed weights.
    """
    counts = np.bincount(keys, weights=weights)
    present = counts > 0
    remap = np.cumsum(present, dtype=np.int64)
    remap -= 1
    return remap[keys], counts[present].astype(np.int64, copy=False)


def sort_ids_and_counts(
    keys: np.ndarray, weights: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused ``(dense ids, group counts)`` via one ``np.unique``.

    ``weights`` as in :func:`bincount_counts`.
    """
    if weights is None:
        _, inv, counts = np.unique(keys, return_inverse=True, return_counts=True)
        return inv.reshape(-1).astype(np.int64, copy=False), counts
    uniq, inv = np.unique(keys, return_inverse=True)
    inv = inv.reshape(-1)
    sums = np.bincount(inv, weights=weights, minlength=len(uniq))
    return inv.astype(np.int64, copy=False), sums.astype(np.int64)


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
    """One member index per group, in group-id order.

    ``ids`` gives each member (a row, or a unit of
    :meth:`~repro.kernels.dispatch.GroupCounter.unit_ids_and_counts`)
    its group; the result indexes the same members.  Members of a group
    agree on the grouped attributes, so any one represents it:
    ``codes[representatives(*kernels.ids(idx))][:, idx]`` is the
    deduplicated projection onto ``idx`` in ascending key order (the
    rows and order of ``np.unique(codes[:, idx], axis=0)``).
    """
    rows = np.empty(n_groups, dtype=np.int64)
    rows[ids] = np.arange(len(ids), dtype=np.int64)
    return rows
