"""Runtime kernel dispatch: per-relation counts-first grouping engine.

:class:`GroupCounter` is the one object the rest of the codebase talks
to.  It owns a relation's code matrix plus radix bounds and answers the
grouping questions every entropy engine reduces to — group counts,
dense ids, entropy — by composing mixed-radix keys
(:mod:`repro.kernels.compose`) and routing them to the cheapest counting
kernel (:mod:`repro.kernels.count`):

* ``bincount`` when the composed key bound fits the O(n + K) counter
  table (:func:`count.bincount_limit` — the common case for the paper's
  low-domain workloads, made more common by eager densification during
  composition);
* ``sort`` (``np.unique``, the legacy path) otherwise — always
  available, always the parity reference.

Both kernels return counts in ascending key order, so every choice is
bit-identical; dispatch affects time, never values.

**Prefix sharing.**  The planner (:mod:`repro.exec.plan`) orders batch
requests by (size, lexicographic), so consecutive attribute sets share
long composed-key prefixes — ``{0,1,2}`` then ``{0,1,3}`` differ in one
trailing attribute.  The dispatcher keeps an LRU of composed prefix key
arrays keyed by the index tuple and extends the longest cached prefix
instead of recomposing from scratch.  Cached arrays are never mutated
(:func:`compose.extend_keys` always allocates), and the cache is bounded
by an element budget so memory stays proportional to a handful of key
columns.

Per-instance counters (``stats``) record every kernel choice and cache
event; the oracles surface them as the flat ``kernel.*`` keys of
``Maimon.counters()`` (see :mod:`repro.obs.counters`) so dispatch
decisions are observable in benchmarks and tests.

**Tracing.**  The grouping entry points participate in request tracing
(:mod:`repro.obs.trace`) as ``span("kernel")``.  These are the hottest
call sites in the system, so they do not go through the generic
``span()`` helper: each checks the thread-local ``ACTIVE.trace`` once
and takes the untraced path with no other work — the guaranteed no-op
fast path the obs layer promises.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.kernels import compose, count
from repro.obs.trace import ACTIVE as _TRACE

#: Default element budget for the composed-prefix LRU (int32/int64 key
#: arrays; 2^24 elements is 16 one-million-row prefixes, <= 128 MB).
PREFIX_BUDGET = 1 << 24

#: Largest bincount table the streamed lanes allocate (2^22 int64
#: counters = 32 MB) — deliberately tighter than BINCOUNT_HARD_CAP so a
#: chunk-streamed run under a memory budget never hides a giant counter
#: table behind the "out-of-core" label.
CHUNK_TABLE_CAP = 1 << 22

#: Default row-block size for chunk-streamed counting.  A streamed
#: subset holds one int64 block per projected column plus compose
#: temporaries, so the working set is roughly
#: ``chunk_rows * 8 * (n_cols + 2)`` bytes — 2^18 rows keeps a 10-column
#: stream around 25 MB, small enough to mine under ~100 MB budgets while
#: still amortising per-chunk read/bincount overhead.
DEFAULT_CHUNK_ROWS = 1 << 18

_STAT_KEYS = (
    "bincount",
    "sort",
    "densify_bincount",
    "densify_sort",
    "prefix_hits",
    "composed",
    "chunked_bincount",
    "chunked_merge",
    "chunked_wide",
    "chunked_chunks",
)


def _compose_chunk(
    cols: Sequence[np.ndarray], radix: Tuple[int, ...]
) -> np.ndarray:
    """Mixed-radix keys for one row block, densify-free.

    Densification ranks keys *globally* across all rows, so a streamed
    composition must never densify per chunk — the caller guarantees the
    full key product fits int64 before choosing this lane.  Bit-wise the
    keys equal what :func:`compose.extend_keys` yields when it never
    densifies; when the in-memory path does densify, the remap is
    order-preserving so the ascending-order counts vector (and every
    entropy) still matches element for element.
    """
    keys = np.ascontiguousarray(cols[0], dtype=np.int64)
    for pos in range(1, len(cols)):
        r = max(int(radix[pos]), 1)
        keys = keys * r
        keys += cols[pos]
    return keys


def stream_counts(
    chunks,
    radix: Sequence[int],
    limit: int,
    stats: Dict[str, int],
) -> np.ndarray:
    """Group sizes accumulated from row blocks, in ascending key order.

    ``chunks`` yields one row block at a time as a sequence of aligned
    per-column int64 code arrays (already projected to the attribute set
    being grouped); ``radix`` gives the per-column exclusive bounds in
    the same order.  Lane choice mirrors the in-memory dispatch:

    * key product fits ``min(limit, CHUNK_TABLE_CAP)`` — shared bincount
      table (:func:`count.chunked_bincount_counts`);
    * fits int64 — per-chunk sort + run merge
      (:func:`count.chunked_merge_counts`);
    * otherwise — lexicographic row-tuple merge
      (:func:`count.chunked_row_counts`).

    Every lane returns the same counts vector the in-memory kernels
    produce for the concatenated rows, so streamed entropies are
    bit-identical.
    """
    radix = tuple(max(int(r), 1) for r in radix)
    bound = 1
    for r in radix:
        bound *= r  # Python int: exact, never overflows

    def counted(it):
        for block in it:
            stats["chunked_chunks"] += 1
            yield block

    if 0 <= bound <= min(limit, CHUNK_TABLE_CAP):
        stats["chunked_bincount"] += 1
        keyed = (_compose_chunk(cols, radix) for cols in counted(chunks))
        return count.chunked_bincount_counts(keyed, bound)
    if bound <= compose.INT64_KEY_BOUND:
        stats["chunked_merge"] += 1
        keyed = (_compose_chunk(cols, radix) for cols in counted(chunks))
        return count.chunked_merge_counts(keyed)
    stats["chunked_wide"] += 1
    stacked = (
        np.column_stack([np.ascontiguousarray(c, dtype=np.int64) for c in cols])
        for cols in counted(chunks)
    )
    return count.chunked_row_counts(stacked)


class GroupCounter:
    """Counts-first grouping engine over one code matrix.

    Parameters
    ----------
    codes:
        ``(N, n)`` integer code matrix (column ``j`` bounded by
        ``radix[j]``).
    radix:
        Per-column exclusive code bounds (``Relation.radix``).
    prefix_budget:
        Element budget of the composed-prefix LRU; ``0`` disables
        prefix caching (every call composes from scratch).
    """

    __slots__ = ("codes", "radix", "n_rows", "limit", "stats", "prefix_budget", "_prefix", "_prefix_elems")

    def __init__(
        self,
        codes: np.ndarray,
        radix: Sequence[int],
        prefix_budget: int = PREFIX_BUDGET,
    ):
        self.codes = codes
        self.radix = tuple(int(r) for r in radix)
        self.n_rows = int(codes.shape[0])
        self.limit = count.bincount_limit(self.n_rows)
        self.prefix_budget = int(prefix_budget)
        self.stats: Dict[str, int] = dict.fromkeys(_STAT_KEYS, 0)
        self._prefix: "OrderedDict[Tuple[int, ...], Tuple[np.ndarray, int]]" = OrderedDict()
        self._prefix_elems = 0

    # ------------------------------------------------------------------ #
    # Composition with prefix sharing
    # ------------------------------------------------------------------ #

    def _remember(self, idx: Tuple[int, ...], keys: np.ndarray, bound: int) -> None:
        if self.prefix_budget <= 0 or len(idx) < 2 or idx in self._prefix:
            return
        self._prefix[idx] = (keys, bound)
        self._prefix_elems += keys.size
        while self._prefix_elems > self.prefix_budget and self._prefix:
            _, (old, _b) = self._prefix.popitem(last=False)
            self._prefix_elems -= old.size

    def compose_keys(self, idx: Tuple[int, ...]) -> Tuple[np.ndarray, int]:
        """Composed mixed-radix keys and their exclusive bound for ``idx``.

        ``idx`` must be a sorted tuple of in-range column indices.  Starts
        from the longest cached prefix when one exists; caches every
        intermediate prefix of length >= 2 it produces along the way.
        """
        keys = None
        bound = 1
        start = 0
        if self.prefix_budget > 0:
            for k in range(len(idx), 1, -1):
                hit = self._prefix.get(idx[:k])
                if hit is not None:
                    self._prefix.move_to_end(idx[:k])
                    keys, bound = hit
                    start = k
                    self.stats["prefix_hits"] += 1
                    break
        if start == 0:
            j = idx[0]
            keys = self.codes[:, j]
            bound = max(self.radix[j], 1)
            start = 1
        for pos in range(start, len(idx)):
            j = idx[pos]
            keys, bound = compose.extend_keys(
                keys, bound, self.codes[:, j], self.radix[j], self.limit, self.stats
            )
            self.stats["composed"] += 1
            self._remember(idx[: pos + 1], keys, bound)
        return keys, bound

    # ------------------------------------------------------------------ #
    # Kernel-dispatched answers
    # ------------------------------------------------------------------ #

    def counts(self, idx: Tuple[int, ...]) -> np.ndarray:
        """Group sizes for ``idx``, in ascending composed-key order.

        This ordering equals dense-group-id order, so the result is
        element-for-element what ``np.bincount(group_ids)`` yields on the
        legacy path.
        """
        trace = _TRACE.trace
        if trace is None:
            return self._counts(idx)
        with trace.span("kernel"):
            return self._counts(idx)

    def _counts(self, idx: Tuple[int, ...]) -> np.ndarray:
        if not idx:
            n = self.n_rows
            return np.full(min(1, n), n, dtype=np.int64)
        keys, bound = self.compose_keys(idx)
        if 0 <= bound <= self.limit:
            self.stats["bincount"] += 1
            return count.bincount_counts(keys)
        self.stats["sort"] += 1
        return count.sort_counts(keys)

    def entropy(self, idx: Tuple[int, ...]) -> float:
        """Plug-in entropy H(idx) in bits — no partition materialized."""
        if not idx:
            return 0.0
        return count.entropy_from_counts(self.counts(idx), self.n_rows)

    def ids_and_counts(self, idx: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """Fused ``(dense group ids, group counts)`` for ``idx``."""
        trace = _TRACE.trace
        if trace is None:
            return self._ids_and_counts(idx)
        with trace.span("kernel"):
            return self._ids_and_counts(idx)

    def _ids_and_counts(self, idx: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        if not idx:
            n = self.n_rows
            return (
                np.zeros(n, dtype=np.int64),
                np.full(min(1, n), n, dtype=np.int64),
            )
        keys, bound = self.compose_keys(idx)
        if 0 <= bound <= self.limit:
            self.stats["bincount"] += 1
            return count.bincount_ids_and_counts(keys)
        self.stats["sort"] += 1
        return count.sort_ids_and_counts(keys)

    def ids(self, idx: Tuple[int, ...]) -> Tuple[np.ndarray, int]:
        """Dense group ids and group count for ``idx``.

        Bit-identical to the legacy ``np.unique(..., return_inverse=True)``
        densification in :meth:`Relation.group_ids`.
        """
        trace = _TRACE.trace
        if trace is None:
            return self._ids(idx)
        with trace.span("kernel"):
            return self._ids(idx)

    def _ids(self, idx: Tuple[int, ...]) -> Tuple[np.ndarray, int]:
        if not idx:
            return np.zeros(self.n_rows, dtype=np.int64), min(1, self.n_rows)
        keys, bound = self.compose_keys(idx)
        if 0 <= bound <= self.limit:
            self.stats["bincount"] += 1
            return count.bincount_ids(keys)
        self.stats["sort"] += 1
        return count.sort_ids(keys)

    # ------------------------------------------------------------------ #
    # Chunk-streaming accumulation
    # ------------------------------------------------------------------ #

    def counts_chunked(
        self, idx: Tuple[int, ...], chunk_rows: int = DEFAULT_CHUNK_ROWS
    ) -> np.ndarray:
        """Group sizes for ``idx`` streamed in row blocks of ``chunk_rows``.

        Bit-identical to :meth:`counts` — the parity hook for the
        out-of-core backends, which run the same :func:`stream_counts`
        lanes over chunks read from disk instead of matrix slices.
        Bypasses the prefix cache (streamed runs own no composed arrays).
        """
        if not idx:
            n = self.n_rows
            return np.full(min(1, n), n, dtype=np.int64)
        chunk_rows = max(int(chunk_rows), 1)

        def blocks():
            for start in range(0, self.n_rows, chunk_rows):
                stop = start + chunk_rows
                yield [
                    np.ascontiguousarray(self.codes[start:stop, j], dtype=np.int64)
                    for j in idx
                ]

        return stream_counts(
            blocks(), tuple(self.radix[j] for j in idx), self.limit, self.stats
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def reset_stats(self) -> None:
        """Zero all dispatch counters (cache contents are kept).

        The counters are per *relation*, shared by every engine/oracle
        grouping through the same :class:`GroupCounter`.  Engines must
        not call this to reset their own view — they snapshot a baseline
        and report deltas via :meth:`snapshot_since` instead, so one
        engine's reset never clobbers another's stats.
        """
        for k in _STAT_KEYS:
            self.stats[k] = 0

    def clear_cache(self) -> None:
        """Drop all cached prefix key arrays."""
        self._prefix.clear()
        self._prefix_elems = 0

    def snapshot(self) -> Dict[str, int]:
        """Copy of the dispatch counters (for oracle/bench stats)."""
        return dict(self.stats)

    def snapshot_since(self, baseline: Dict[str, int]) -> Dict[str, int]:
        """Counters accrued since ``baseline`` (a prior :meth:`snapshot`).

        This is how engines report per-engine kernel stats over the
        shared relation-level counters: snapshot at construction/reset,
        read deltas here.  A direct :meth:`reset_stats` on the dispatcher
        between baseline and read makes deltas meaningless (negative);
        callers own one convention or the other, never both.
        """
        return {k: v - baseline.get(k, 0) for k, v in self.stats.items()}

    def __repr__(self) -> str:
        return (
            f"<GroupCounter N={self.n_rows} limit={self.limit} "
            f"stats={self.snapshot()}>"
        )
