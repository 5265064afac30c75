"""Chunk-streaming grouping engine over a :class:`RelationBackend`.

:class:`ChunkedGroupCounter` is the backend-side twin of
:class:`repro.kernels.dispatch.GroupCounter`: the same public surface
the entropy engines consume (``counts`` / ``entropy`` / ``ids`` /
``ids_and_counts`` / ``snapshot`` / ``snapshot_since``), answered from
row blocks instead of a resident code matrix.

Routing:

* ``counts``/``entropy`` — the hot, counts-first path — stream through
  :func:`repro.kernels.dispatch.stream_counts` (bincount-merge /
  sorted-run merge / row-tuple merge; see that module), or are pushed
  down to the backend when it advertises ``supports_count_pushdown``
  (the DuckDB group-by path).  Either way the counts vector is
  bit-identical to the in-memory dispatcher, so
  :class:`~repro.entropy.plicache.PLICacheEngine`'s fast path mines a
  store without ever materialising it.
* ``ids``/``ids_and_counts`` — needed only by the partition paths
  (schema evaluation, spurious-tuple counting) — require row-aligned
  output, which is inherently O(rows) memory; they delegate to an
  in-memory :class:`GroupCounter` over the materialised matrix,
  counted in the ``chunked_materialized`` stat so a bench or test can
  assert an out-of-core run never silently fell back.

Stats use the same key set as the in-memory dispatcher (the
``chunked_*`` keys are part of ``dispatch._STAT_KEYS``), so engines'
``snapshot_since`` bookkeeping and the flat ``kernel.*`` counter
namespace work unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

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
                 "stats", "_materialize", "_dense")

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

    # ------------------------------------------------------------------ #
    # Streamed counts (the hot path)
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
        return dispatch.stream_counts(
            self.backend.iter_chunks(idx, self.chunk_rows),
            tuple(self.radix[j] for j in idx),
            self.limit,
            self.stats,
        )

    def entropy(self, idx: Tuple[int, ...]) -> float:
        """Plug-in entropy H(idx) in bits, streamed (Eq. 5)."""
        if not idx:
            return 0.0
        return count.entropy_from_counts(self.counts(idx), self.n_rows)

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

    def ids_and_counts(self, idx: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        return self._dense_counter().ids_and_counts(idx)

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
