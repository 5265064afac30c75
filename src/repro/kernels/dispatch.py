"""Runtime kernel dispatch: per-relation counts-first grouping engine.

:class:`GroupCounter` is the one object the rest of the codebase talks
to.  It owns a relation's code matrix plus radix bounds and answers the
grouping questions every entropy engine reduces to — group counts,
dense ids, entropy — by composing mixed-radix keys
(:mod:`repro.kernels.compose`) and routing them to the cheapest counting
kernel (:mod:`repro.kernels.count`).  Keys are composed only from
narrow, contiguous per-column arrays (:meth:`GroupCounter.column`, one
copy per column in :func:`compose.narrow_dtype` of its radix, made on
first use), never from the strided columns of the int64 matrix.
Counting runs on:

* ``bincount`` when the composed key bound fits the O(n + K) counter
  table (:func:`count.bincount_limit` — the common case for the paper's
  low-domain workloads, made more common by eager densification during
  composition);
* ``sort`` (``np.unique``, the legacy path) otherwise — always
  available, always the parity reference.

Both kernels return counts in ascending key order, so every choice is
bit-identical; dispatch affects time, never values.

**The packed table.**  Every entropy is a function of the relation's
empirical distribution, which its distinct tuples and their
multiplicities describe completely.  On the first ``counts``/``entropy``
call the counter groups all columns once (:func:`pack`, the routine the
store counter of :mod:`repro.backends` uses too).  When the ``G``
distinct tuples satisfy ``G * PACK_RATIO <= N``
(:data:`count.PACK_RATIO`) it keeps them with their int64 multiplicities
in a :class:`PackedTable`, and every later count composes keys over the
``G`` tuples and sums multiplicities per group instead of counting the
``N`` rows: the counts vector, and so every entropy, is identical
element for element.  Otherwise the relation is marked unpackable and
its rows are counted as above.  In memory the probe groups all rows in
one block, so a declined probe costs about one row count (a store's
probe reads blocks and folds their sorted runs lazily,
:func:`count.chunked_merge_keys`).  The probe is counted as ``packs`` or
``pack_declines``, never as a kernel call; each answer from the packed
table counts as one ``bincount`` or ``sort``.

**Units.**  Callers that read a grouping only through one member per
group (approx decision intervals, spurious-tuple join counts) ask
:meth:`GroupCounter.unit_ids_and_counts`: dense ids over the counter's
*units* — the packed tuples, or the rows when the relation declined —
next to the same group sizes.  Row-aligned answers (``ids``,
``ids_and_counts``) always read the rows and never probe; they serve
the callers that need rows (the stratified sampler, FD measures,
partitions, ``project``).

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
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.kernels import compose, count
from repro.obs.trace import ACTIVE as _TRACE

#: Default element budget for the composed-prefix LRU (key arrays of
#: 1-8 bytes per element; 2^24 elements is 16 one-million-row prefixes,
#: <= 128 MB).  The narrow column copies of :meth:`GroupCounter.column`
#: are not counted: one per column, one byte per code for the paper's
#: workloads.
PREFIX_BUDGET = 1 << 24

#: Largest bincount table the streamed lanes allocate (2^22 int64
#: counters = 32 MB) — deliberately tighter than BINCOUNT_HARD_CAP so a
#: chunk-streamed run under a memory budget never hides a giant counter
#: table behind the "out-of-core" label.
CHUNK_TABLE_CAP = 1 << 22

#: Default row-block size for chunk-streamed counting.  A streamed
#: subset holds one narrow block per projected column (1-8 bytes per
#: code, :func:`compose.narrow_dtype`) plus one key buffer (1-8 bytes
#: per row) and the counting temporaries, so the working set is at most
#: ``chunk_rows * 8 * (n_cols + 2)`` bytes — 2^18 rows keeps even an
#: all-int64 10-column stream around 25 MB, small enough to mine under
#: ~100 MB budgets while still amortising per-chunk read/bincount
#: overhead.
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
    "packs",
    "pack_declines",
)


def _compose_chunk(
    cols: Sequence[np.ndarray], radix: Tuple[int, ...], dtype: np.dtype
) -> np.ndarray:
    """Mixed-radix keys for one row block, densify-free.

    ``cols`` are the block's narrow code arrays, as the backends hand
    them out; ``dtype`` holds the full key product
    (:func:`compose.key_dtype`).  A one-column key is the column itself;
    otherwise the first multiply allocates the one output buffer in
    ``dtype`` (taking its width from ``dtype=``, not from the narrow
    operands, which would wrap) and every later step runs in place.

    Densification ranks keys *globally* across all rows, so a streamed
    composition must never densify per chunk — the caller guarantees the
    full key product fits int64 before choosing this lane.  The key
    values equal what :func:`compose.extend_keys` yields when it never
    densifies; when the in-memory path does densify, the remap is
    order-preserving so the ascending-order counts vector (and every
    entropy) still matches element for element.
    """
    if len(cols) == 1:
        return cols[0]
    # Codes lie below their radix and keys below the product, so every
    # cast is lossless whatever integer dtype a backend hands out.
    keys = np.multiply(cols[0], radix[1], dtype=dtype, casting="unsafe")
    np.add(keys, cols[1], out=keys, casting="unsafe")
    for pos in range(2, len(cols)):
        np.multiply(keys, radix[pos], out=keys)
        np.add(keys, cols[pos], out=keys, casting="unsafe")
    return keys


def counted(chunks, stats: Dict[str, int]):
    """``chunks`` as they come, each one counted in ``chunked_chunks``."""
    for block in chunks:
        stats["chunked_chunks"] += 1
        yield block


def _stream_keys(chunks, radix: Tuple[int, ...], limit: int, cap: Optional[int]):
    """Route row blocks to a streamed lane (see :func:`stream_counts`).

    Returns ``(lane, groups)``: ``lane`` names the lane's stat and
    ``groups`` is its ``(distinct keys, counts)`` — distinct key *rows*
    on the ``chunked_wide`` lane — or ``None`` once more than ``cap``
    distinct keys were seen.
    """
    bound = 1
    for r in radix:
        bound *= r  # Python int: exact, never overflows
    dtype = compose.key_dtype(bound)
    if 0 <= bound <= min(limit, CHUNK_TABLE_CAP):
        keyed = (_compose_chunk(cols, radix, dtype) for cols in chunks)
        return "chunked_bincount", count.chunked_bincount_keys(keyed, bound, cap)
    if bound <= compose.INT64_KEY_BOUND:
        keyed = (_compose_chunk(cols, radix, dtype) for cols in chunks)
        return "chunked_merge", count.chunked_merge_keys(keyed, cap)
    stacked = (
        np.column_stack([np.ascontiguousarray(c, dtype=np.int64) for c in cols])
        for cols in chunks
    )
    return "chunked_wide", count.chunked_row_keys(stacked, cap)


def stream_counts(
    chunks,
    radix: Sequence[int],
    limit: int,
    stats: Dict[str, int],
) -> np.ndarray:
    """Group sizes accumulated from row blocks, in ascending key order.

    ``chunks`` yields one row block at a time as a sequence of aligned
    per-column code arrays of any integer dtype — the backends hand out
    each column's :func:`compose.narrow_dtype` — already projected to
    the attribute set being grouped; ``radix`` gives the per-column
    exclusive bounds in the same order.  The composed lanes read the
    blocks as they come (:func:`_compose_chunk`); only the row-tuple
    lane widens them to int64.  Lane choice mirrors the in-memory
    dispatch:

    * key product fits ``min(limit, CHUNK_TABLE_CAP)`` — shared bincount
      table (:func:`count.chunked_bincount_keys`);
    * fits int64 — per-chunk sort + run merge
      (:func:`count.chunked_merge_keys`);
    * otherwise — lexicographic row-tuple merge
      (:func:`count.chunked_row_keys`).

    Every lane returns the same counts vector the in-memory kernels
    produce for the concatenated rows, so streamed entropies are
    bit-identical.
    """
    radix = tuple(max(int(r), 1) for r in radix)
    lane, (_, counts) = _stream_keys(counted(chunks, stats), radix, limit, None)
    stats[lane] += 1
    return counts


def _decode(keys: np.ndarray, radix: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """Code tuples of mixed-radix keys, first column most significant.

    The inverse of :func:`_compose_chunk`: row ``g`` of the result
    composes to ``keys[g]``, so ascending keys give tuples in
    lexicographic order.
    """
    codes = np.empty((len(keys), len(radix)), dtype=dtype)
    rest = keys.astype(np.int64)
    for j in range(len(radix) - 1, 0, -1):
        rest, codes[:, j] = np.divmod(rest, radix[j])
    if len(radix):
        codes[:, 0] = rest
    return codes


def _dispatch_counts(
    keys: np.ndarray,
    bound: int,
    limit: int,
    stats: Dict[str, int],
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Group sizes of composed keys on the kernel their bound favours.

    ``bincount`` when ``bound`` fits ``limit``, ``sort`` otherwise; the
    choice is counted in ``stats``.  ``weights`` are per-key
    multiplicities (see :func:`count.bincount_counts`).
    """
    if 0 <= bound <= limit:
        stats["bincount"] += 1
        return count.bincount_counts(keys, weights=weights)
    stats["sort"] += 1
    return count.sort_counts(keys, weights=weights)


def _dispatch_ids_and_counts(
    keys: np.ndarray,
    bound: int,
    limit: int,
    stats: Dict[str, int],
    weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(dense ids, group sizes)`` of composed keys, as
    :func:`_dispatch_counts` chooses and counts its kernel."""
    if 0 <= bound <= limit:
        stats["bincount"] += 1
        return count.bincount_ids_and_counts(keys, weights=weights)
    stats["sort"] += 1
    return count.sort_ids_and_counts(keys, weights=weights)


class PackedTable:
    """A relation's distinct tuples and their multiplicities.

    The relation's empirical distribution, and with it every plug-in
    entropy, depends only on its distinct tuples and how often each
    occurs.  The group counts of ``X`` are the sums of the
    multiplicities of the tuples in each ``X``-group, and mixed-radix
    keys over the same codes order those groups the same way, so
    :meth:`counts` equals the row counter's vector element for element
    while it composes keys over ``G`` tuples instead of ``N`` rows.

    ``tuples`` is a :class:`GroupCounter` over the tuple codes, used
    only to compose keys (with its own composed-prefix LRU); it shares
    the owning counter's ``stats``, so each answer counts as one
    ``bincount`` or ``sort`` there, as a row count would.
    """

    __slots__ = ("tuples", "weights", "n_rows")

    def __init__(
        self,
        codes: np.ndarray,
        counts: np.ndarray,
        radix: Sequence[int],
        stats: Dict[str, int],
        prefix_budget: int,
    ):
        self.tuples = GroupCounter(codes, radix, prefix_budget, stats=stats)
        # float64 for np.bincount's weights: exact below 2^53 rows.
        self.weights = counts.astype(np.float64)
        #: Rows the tuples stand for.
        self.n_rows = int(counts.sum())

    def counts(self, idx: Tuple[int, ...]) -> np.ndarray:
        """Group sizes for a non-empty ``idx``, in ascending key order."""
        tuples = self.tuples
        keys, bound = tuples.compose_keys(idx)
        return _dispatch_counts(keys, bound, tuples.limit, tuples.stats, self.weights)

    def ids_and_counts(self, idx: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """Dense group id per tuple and group sizes in rows.

        The sizes are :meth:`counts`, element for element; an empty
        ``idx`` puts every tuple in one group of all the rows.
        """
        tuples = self.tuples
        if not idx:
            n = self.n_rows
            return (
                np.zeros(tuples.n_rows, dtype=np.int64),
                np.full(min(1, n), n, dtype=np.int64),
            )
        keys, bound = tuples.compose_keys(idx)
        return _dispatch_ids_and_counts(
            keys, bound, tuples.limit, tuples.stats, self.weights
        )


def pack(
    chunks,
    radix: Sequence[int],
    limit: int,
    cap: int,
    stats: Dict[str, int],
    prefix_budget: int,
) -> Union[PackedTable, bool]:
    """Pack row blocks into their distinct tuples, or decline.

    The one packing routine of both counters: :class:`GroupCounter`
    feeds it slices of its narrow columns, the chunk-streaming counter
    of :mod:`repro.backends` one pass of store blocks.  ``chunks`` yields
    row blocks over *all* columns, as :func:`stream_counts` reads them,
    and the same lanes group them: the composed keys of the shared table
    or the merged runs are decoded back into code tuples
    (:func:`_decode`); the row-tuple lane yields tuples directly.  The
    tuples come in lexicographic (ascending key) order, in one
    :func:`compose.narrow_dtype` wide enough for every column.

    Declines, returning ``False``, as soon as more than ``cap`` distinct
    tuples are seen, without reading the remaining blocks.  Counted as
    ``packs`` or ``pack_declines``, never as a ``bincount``/``sort``; the
    caller counts any chunks it reads.
    """
    radix = tuple(max(int(r), 1) for r in radix)
    lane, groups = _stream_keys(chunks, radix, limit, cap)
    if groups is None:
        stats["pack_declines"] += 1
        return False
    keys, counts = groups
    dtype = compose.narrow_dtype(max(radix, default=1))
    if lane != "chunked_wide":
        codes = _decode(keys, radix, dtype)
    elif len(keys):
        codes = keys.astype(dtype)
    else:
        codes = np.zeros((0, len(radix)), dtype=dtype)
    stats["packs"] += 1
    return PackedTable(codes, counts, radix, stats, prefix_budget)


class GroupCounter:
    """Counts-first grouping engine over one code matrix.

    Parameters
    ----------
    codes:
        ``(N, n)`` integer code matrix (column ``j`` bounded by
        ``radix[j]``).  Read once per column, by :meth:`column`.
    radix:
        Per-column exclusive code bounds (``Relation.radix``).
    prefix_budget:
        Element budget of the composed-prefix LRU; ``0`` disables
        prefix caching (every call composes from scratch).
    stats:
        Dispatch counters to share (a :class:`PackedTable` shares its
        owner's); a fresh set by default.
    """

    __slots__ = ("codes", "radix", "n_rows", "limit", "stats", "prefix_budget",
                 "_cols", "_prefix", "_prefix_elems", "_packed")

    def __init__(
        self,
        codes: np.ndarray,
        radix: Sequence[int],
        prefix_budget: int = PREFIX_BUDGET,
        stats: Optional[Dict[str, int]] = None,
    ):
        self.codes = codes
        self.radix = tuple(int(r) for r in radix)
        self.n_rows = int(codes.shape[0])
        self.limit = count.bincount_limit(self.n_rows)
        self.prefix_budget = int(prefix_budget)
        self.stats: Dict[str, int] = (
            dict.fromkeys(_STAT_KEYS, 0) if stats is None else stats
        )
        self._cols: List[Optional[np.ndarray]] = [None] * len(self.radix)
        self._prefix: "OrderedDict[Tuple[int, ...], Tuple[np.ndarray, int]]" = OrderedDict()
        self._prefix_elems = 0
        #: The packed table once probed: a :class:`PackedTable`, or
        #: ``False`` when the relation declined to pack.
        self._packed: Union[None, bool, PackedTable] = None

    # ------------------------------------------------------------------ #
    # Composition with prefix sharing
    # ------------------------------------------------------------------ #

    def column(self, j: int) -> np.ndarray:
        """Column ``j`` as a contiguous :func:`compose.narrow_dtype` array.

        The only input key composition reads.  Made on first use, once
        per column, and kept for the counter's lifetime.
        """
        col = self._cols[j]
        if col is None:
            col = self.codes[:, j].astype(compose.narrow_dtype(self.radix[j]))
            self._cols[j] = col
        return col

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
            keys = self.column(j)
            bound = max(self.radix[j], 1)
            start = 1
        for pos in range(start, len(idx)):
            j = idx[pos]
            keys, bound = compose.extend_keys(
                keys, bound, self.column(j), self.radix[j], self.limit, self.stats
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
        packed = self._probe()
        if packed:
            return packed.counts(idx)
        keys, bound = self.compose_keys(idx)
        return _dispatch_counts(keys, bound, self.limit, self.stats)

    def _probe(self) -> Union[PackedTable, bool]:
        """The packed table, or ``False``; packs on the first call."""
        packed = self._packed
        if packed is None:
            packed = self._packed = self._pack()
        return packed

    def _pack(self) -> Union[PackedTable, bool]:
        """Group all columns once into the packed table, or decline.

        When the radix product fits int64, all rows form one block: one
        composition and one bincount or sort, cheaper than folding the
        sorted runs of row blocks (on a 2-CPU x86-64 host, 0.10 s against
        0.26 s for 5M rows, 93% of them distinct).  Otherwise the
        row-tuple lane would widen every column to int64, so it reads row
        blocks of :data:`DEFAULT_CHUNK_ROWS`, as a store is read.  Never
        touches the composed-prefix LRU.  Packs when the distinct tuples
        are at most :func:`count.pack_cap` of the rows.
        """
        cols = [self.column(j) for j in range(len(self.radix))]
        bound = 1
        for r in self.radix:
            bound *= max(r, 1)  # Python int: exact, never overflows
        step = DEFAULT_CHUNK_ROWS
        if bound <= compose.INT64_KEY_BOUND:
            step = max(self.n_rows, 1)
        blocks = (
            [col[start:start + step] for col in cols]
            for start in range(0, self.n_rows, step)
        )
        return pack(blocks, self.radix, self.limit, count.pack_cap(self.n_rows),
                    self.stats, self.prefix_budget)

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
        return _dispatch_ids_and_counts(keys, bound, self.limit, self.stats)

    def unit_ids_and_counts(self, idx: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """``(dense group id per unit, group sizes in rows)`` for ``idx``.

        The counter's *units* are the packed table's distinct tuples
        when the relation packed, its rows when it declined; the first
        call probes the pack as :meth:`counts` does.  The sizes equal
        :meth:`counts` element for element, and two units share an id
        iff their codes agree on ``idx``, so :func:`count.representatives`
        of the ids picks one unit per group.  Meant for callers that
        read a group only through one member (approx intervals,
        spurious-tuple counts): a packed relation is grouped over its
        ``G`` tuples instead of its ``N`` rows.  An empty ``idx`` gives
        zeros over the units.
        """
        trace = _TRACE.trace
        if trace is None:
            return self._unit_ids_and_counts(idx)
        with trace.span("kernel"):
            return self._unit_ids_and_counts(idx)

    def _unit_ids_and_counts(self, idx: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        packed = self._probe()
        if packed:
            return packed.ids_and_counts(idx)
        return self._ids_and_counts(idx)

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
        lanes over narrow chunks read from disk instead of slices of
        :meth:`column`.  Bypasses the prefix cache (streamed runs own no
        composed arrays).
        """
        if not idx:
            n = self.n_rows
            return np.full(min(1, n), n, dtype=np.int64)
        chunk_rows = max(int(chunk_rows), 1)
        cols = [self.column(j) for j in idx]

        def blocks():
            for start in range(0, self.n_rows, chunk_rows):
                stop = start + chunk_rows
                yield [col[start:stop] for col in cols]

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
        """Drop all cached prefix key arrays (the packed table's too)."""
        self._prefix.clear()
        self._prefix_elems = 0
        if self._packed:
            self._packed.tuples.clear_cache()

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
