"""The `RelationBackend` contract and the in-memory reference backend.

A backend answers the questions mining actually asks of a relation's
storage, without prescribing where the bytes live:

* **metadata** — row count, column names, per-column radix bounds and
  cardinalities;
* **chunked iteration** — aligned per-column code blocks for any
  attribute subset, each column in the narrow dtype of its radix
  (:func:`repro.kernels.narrow_dtype`), the feed for the chunk-streaming
  counting lanes (:func:`repro.kernels.dispatch.stream_counts`), which
  compose keys from them without widening;
* **counts pushdown** — ``key_counts(idx)``: group sizes in ascending
  mixed-radix key order, the one hot question of counts-first mining
  (PR 7 made every entropy reduce to it);
* **identity** — the canonical relation fingerprint
  (:func:`repro.exec.persist.fingerprint_stream`), so persistent caches
  and the serve registry recognise the same data across storages.

Implementations: :class:`NumpyBackend` (here — wraps the in-memory
:class:`~repro.data.relation.Relation`, bit-identical, zero behaviour
change), :class:`~repro.backends.mmap_backend.MmapBackend` (on-disk
columnar store) and the import-gated
:class:`~repro.backends.duckdb_backend.DuckDBBackend` (SQL pushdown).

The counts contract is strict: every backend returns the counts vector
element-for-element equal to ``GroupCounter.counts`` on the materialized
matrix — ascending key order included — because the entropy summation
order is part of the bit-identity contract (see
:func:`repro.kernels.count.entropy_from_counts`).
"""

from __future__ import annotations

import abc
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.relation import Relation
from repro.kernels import dispatch


class StoreError(ValueError):
    """A store directory is missing, malformed or version-incompatible."""


class RelationBackend(abc.ABC):
    """Abstract storage engine behind one relational instance."""

    #: Backends that answer :meth:`key_counts` without streaming chunks
    #: through the numpy merge lanes (e.g. SQL group-by pushdown) set
    #: this so :class:`~repro.backends.chunked.ChunkedGroupCounter`
    #: routes counts straight to the backend.
    supports_count_pushdown: bool = False

    # -- metadata ------------------------------------------------------ #

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Dataset name (used in benches and reports)."""

    @property
    @abc.abstractmethod
    def columns(self) -> Tuple[str, ...]:
        """Attribute names."""

    @property
    @abc.abstractmethod
    def n_rows(self) -> int:
        """Number of tuples (duplicates included)."""

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    @abc.abstractmethod
    def radix(self) -> Tuple[int, ...]:
        """Per-column exclusive code bounds (``max code + 1``)."""

    @property
    @abc.abstractmethod
    def cardinalities(self) -> Tuple[int, ...]:
        """Per-column distinct-value counts."""

    # -- data ---------------------------------------------------------- #

    @abc.abstractmethod
    def iter_chunks(
        self, idx: Sequence[int], chunk_rows: int
    ) -> Iterator[List[np.ndarray]]:
        """Yield row blocks as aligned per-column code arrays.

        Blocks cover all rows in order; each yielded list holds one
        contiguous array per index in ``idx`` (same order), all of the
        same length ``<= chunk_rows``.  Column ``j`` comes in
        ``narrow_dtype(radix[j])`` — what the store files hold and what
        key composition reads — never widened to int64.
        """

    @abc.abstractmethod
    def key_counts(self, idx: Tuple[int, ...]) -> np.ndarray:
        """Group sizes over ``idx`` in ascending mixed-radix key order."""

    @abc.abstractmethod
    def fingerprint(self) -> str:
        """The canonical relation fingerprint of the stored data."""

    @abc.abstractmethod
    def to_relation(self) -> Relation:
        """Materialize the full in-memory :class:`Relation` (O(data))."""

    # -- optional ------------------------------------------------------ #

    def store_bytes(self) -> int:
        """On-disk footprint in bytes (0 for purely in-memory backends)."""
        return 0

    def domain(self, j: int) -> Optional[list]:
        """Decode table of column ``j`` (``None``: codes decode to self)."""
        return self.to_relation().domains[j]

    def close(self) -> None:
        """Release file handles / connections (idempotent)."""

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name!r} "
            f"{self.n_rows}x{self.n_cols}>"
        )


class NumpyBackend(RelationBackend):
    """The default backend: a view over an in-memory :class:`Relation`.

    Every answer delegates to the relation's own
    :class:`~repro.kernels.dispatch.GroupCounter`, so behaviour — kernel
    choice, stats, prefix cache, bit-exact counts — is literally the
    pre-backend code path.  Exists so the backend seam has an identity
    element: code written against :class:`RelationBackend` runs
    unchanged over in-memory data.
    """

    supports_count_pushdown = True  # the GroupCounter *is* the pushdown

    def __init__(self, relation: Relation):
        self.relation = relation

    @property
    def name(self) -> str:
        return self.relation.name

    @property
    def columns(self) -> Tuple[str, ...]:
        return self.relation.columns

    @property
    def n_rows(self) -> int:
        return self.relation.n_rows

    @property
    def radix(self) -> Tuple[int, ...]:
        return self.relation.radix

    @property
    def cardinalities(self) -> Tuple[int, ...]:
        return tuple(self.relation.cardinality(j) for j in range(self.relation.n_cols))

    def iter_chunks(
        self, idx: Sequence[int], chunk_rows: int
    ) -> Iterator[List[np.ndarray]]:
        # Slices of the counter's narrow columns: the layout key
        # composition reads in memory, so both lanes see the same arrays.
        cols = [self.relation.kernels.column(j) for j in idx]
        chunk_rows = max(int(chunk_rows), 1)
        for start in range(0, self.n_rows, chunk_rows):
            stop = start + chunk_rows
            yield [col[start:stop] for col in cols]

    def key_counts(self, idx: Tuple[int, ...]) -> np.ndarray:
        return self.relation.kernels.counts(tuple(idx))

    def fingerprint(self) -> str:
        from repro.exec.persist import relation_fingerprint

        return relation_fingerprint(self.relation)

    def to_relation(self) -> Relation:
        return self.relation

    def domain(self, j: int) -> Optional[list]:
        return self.relation.domains[j]


#: Default row-block size for store ingestion and streamed counting —
#: re-exported from the dispatcher so every layer chunks alike.
DEFAULT_CHUNK_ROWS = dispatch.DEFAULT_CHUNK_ROWS
