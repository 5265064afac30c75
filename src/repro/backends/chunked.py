"""Chunk-streaming grouping engine over a :class:`RelationBackend`.

:class:`ChunkedGroupCounter` is the backend-side twin of
:class:`repro.kernels.dispatch.GroupCounter`: the same public surface
the entropy engines and quality consume (``counts`` / ``entropy`` /
``unit_ids_and_counts`` / ``ids`` / ``snapshot`` / ``snapshot_since``),
answered from row blocks instead of a resident code matrix.  The blocks
arrive in each column's narrow stored dtype
(:func:`repro.kernels.narrow_dtype`) and are composed into keys as they
are, the layout the in-memory counter composes from too.

Routing:

* ``counts``/``entropy`` — the hot, counts-first path.  The first call
  makes one streamed pass over all columns and packs the store into
  its distinct tuples with their multiplicities
  (:func:`repro.kernels.dispatch.pack`, the routine the in-memory
  counter uses too).  The cap is :func:`repro.kernels.count.pack_cap`
  of the rows and at most one chunk's rows, so a packed table never
  holds more than a chunk's worth, and the pass stops reading as soon
  as more distinct tuples turn up.  A packed store answers every later
  count from memory, with no further chunk reads.  A store that
  declines streams each count through
  :func:`repro.kernels.dispatch.stream_counts` (bincount-merge /
  sorted-run merge / row-tuple merge; see that module).  Backends that
  advertise ``supports_count_pushdown`` (the DuckDB group-by path) are
  asked directly and never packed.  Every way, the counts vector is
  bit-identical to the in-memory dispatcher, so
  :class:`~repro.entropy.plicache.PLICacheEngine`'s fast path mines a
  store without ever materialising it.
* ``unit_ids_and_counts`` — the grouping spurious-tuple counting reads,
  one id per unit.  A packed store's units are its packed tuples, so it
  answers from the packed table with no chunk reads.
* ``ids`` (row-aligned output, inherently O(rows) memory), and the unit
  grouping of a store that declined or of a pushdown backend, delegate
  to an in-memory :class:`GroupCounter` over the materialised matrix,
  counted in the ``chunked_materialized`` stat so a bench or test can
  assert an out-of-core run never silently fell back.

Stats use the same key set as the in-memory dispatcher (the
``chunked_*`` keys are part of ``dispatch._STAT_KEYS``), so engines'
``snapshot_since`` bookkeeping and the flat ``kernel.*`` counter
namespace work unchanged.  The pack pass counts its blocks in
``chunked_chunks`` and itself as ``packs`` or ``pack_declines``; each
answer from the packed table counts as a ``bincount`` or ``sort``, each
streamed one under its ``chunked_*`` lane.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.kernels import count, dispatch
from repro.obs.trace import ACTIVE as _TRACE

_STAT_KEYS = dispatch._STAT_KEYS + ("chunked_pushdown", "chunked_materialized")


class ChunkedGroupCounter:
    """Counts-first grouping engine streaming from a backend.

    Parameters
    ----------
    backend:
        The :class:`~repro.backends.base.RelationBackend` holding the
        codes.
    chunk_rows:
        Row-block size for streamed counting.
    materialize:
        Zero-argument callable returning the in-memory
        :class:`~repro.kernels.dispatch.GroupCounter` for the dense
        fallback paths (built lazily, shared with the owning relation
        facade so the matrix is materialised at most once).
    """

    __slots__ = ("backend", "radix", "n_rows", "limit", "chunk_rows",
                 "stats", "_materialize", "_dense", "_packed")

    def __init__(
        self,
        backend,
        chunk_rows: int = dispatch.DEFAULT_CHUNK_ROWS,
        materialize: Optional[Callable[[], "dispatch.GroupCounter"]] = None,
    ):
        self.backend = backend
        self.radix = tuple(int(r) for r in backend.radix)
        self.n_rows = int(backend.n_rows)
        self.limit = count.bincount_limit(self.n_rows)
        self.chunk_rows = max(int(chunk_rows), 1)
        self.stats: Dict[str, int] = dict.fromkeys(_STAT_KEYS, 0)
        self._materialize = materialize
        self._dense: Optional["dispatch.GroupCounter"] = None
        #: As :class:`~repro.kernels.dispatch.GroupCounter`'s: the packed
        #: table once probed, or ``False`` when the store declined.
        self._packed: Union[None, bool, "dispatch.PackedTable"] = None

    # ------------------------------------------------------------------ #
    # Counts (the hot path): packed table after one pass, else streamed
    # ------------------------------------------------------------------ #

    def counts(self, idx: Tuple[int, ...]) -> np.ndarray:
        """Group sizes for ``idx`` in ascending composed-key order."""
        trace = _TRACE.trace
        if trace is None:
            return self._counts(idx)
        with trace.span("kernel"):
            return self._counts(idx)

    def _counts(self, idx: Tuple[int, ...]) -> np.ndarray:
        if not idx:
            n = self.n_rows
            return np.full(min(1, n), n, dtype=np.int64)
        if self.backend.supports_count_pushdown:
            self.stats["chunked_pushdown"] += 1
            return self.backend.key_counts(tuple(idx))
        packed = self._probe()
        if packed:
            return packed.counts(idx)
        return dispatch.stream_counts(
            self.backend.iter_chunks(idx, self.chunk_rows),
            tuple(self.radix[j] for j in idx),
            self.limit,
            self.stats,
        )

    def _probe(self) -> Union[bool, "dispatch.PackedTable"]:
        """The packed table, or ``False``; packs on the first call."""
        packed = self._packed
        if packed is None:
            packed = self._packed = self._pack()
        return packed

    def _pack(self) -> Union[bool, "dispatch.PackedTable"]:
        """One streamed pass over all columns into the packed table.

        The cap is :func:`~repro.kernels.count.pack_cap` of the rows and
        at most one chunk's rows, so the table never holds more than a
        chunk's worth; the pass stops reading as soon as more distinct
        tuples turn up.  The table's prefix LRU gets the same budget.
        """
        cap = min(count.pack_cap(self.n_rows), self.chunk_rows)
        chunks = self.backend.iter_chunks(tuple(range(len(self.radix))), self.chunk_rows)
        return dispatch.pack(dispatch.counted(chunks, self.stats), self.radix,
                             self.limit, cap, self.stats, self.chunk_rows)

    def entropy(self, idx: Tuple[int, ...]) -> float:
        """Plug-in entropy H(idx) in bits, streamed (Eq. 5)."""
        if not idx:
            return 0.0
        return count.entropy_from_counts(self.counts(idx), self.n_rows)

    def unit_ids_and_counts(self, idx: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """As :meth:`GroupCounter.unit_ids_and_counts
        <repro.kernels.dispatch.GroupCounter.unit_ids_and_counts>`.

        A packed store's units are its packed tuples; a store that
        declined, or a pushdown backend, has the dense fallback's units.
        """
        trace = _TRACE.trace
        if trace is None:
            return self._unit_ids_and_counts(idx)
        with trace.span("kernel"):
            return self._unit_ids_and_counts(idx)

    def _unit_ids_and_counts(self, idx: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        if not self.backend.supports_count_pushdown:
            packed = self._probe()
            if packed:
                return packed.ids_and_counts(idx)
        return self._dense_counter()._unit_ids_and_counts(idx)

    # ------------------------------------------------------------------ #
    # Dense fallbacks (row-aligned output => in-memory)
    # ------------------------------------------------------------------ #

    def _dense_counter(self) -> "dispatch.GroupCounter":
        if self._dense is None:
            if self._materialize is None:
                raise RuntimeError(
                    "this backend counter has no materialize hook; "
                    "row-aligned grouping (ids) is unavailable"
                )
            self.stats["chunked_materialized"] += 1
            self._dense = self._materialize()
        return self._dense

    def ids(self, idx: Tuple[int, ...]) -> Tuple[np.ndarray, int]:
        return self._dense_counter().ids(idx)

    # ------------------------------------------------------------------ #
    # Introspection (GroupCounter-compatible)
    # ------------------------------------------------------------------ #

    def reset_stats(self) -> None:
        for k in _STAT_KEYS:
            self.stats[k] = 0
        if self._dense is not None:
            self._dense.reset_stats()

    def clear_cache(self) -> None:
        if self._dense is not None:
            self._dense.clear_cache()
        if self._packed:
            self._packed.tuples.clear_cache()

    def snapshot(self) -> Dict[str, int]:
        """Streamed + dense-fallback counters, one flat dict."""
        snap = dict(self.stats)
        if self._dense is not None:
            for k, v in self._dense.snapshot().items():
                snap[k] = snap.get(k, 0) + v
        return snap

    def snapshot_since(self, baseline: Dict[str, int]) -> Dict[str, int]:
        return {k: v - baseline.get(k, 0) for k, v in self.snapshot().items()}

    def __repr__(self) -> str:
        return (
            f"<ChunkedGroupCounter N={self.n_rows} chunk={self.chunk_rows} "
            f"backend={type(self.backend).__name__}>"
        )
