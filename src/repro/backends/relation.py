"""A Relation facade over a storage backend.

:class:`BackendRelation` lets every relation consumer in the codebase —
entropy engines, miners, the request API, serve — run against a
:class:`~repro.backends.base.RelationBackend` without knowing whether
the codes live in RAM or on disk.  It is deliberately *not* a
:class:`~repro.data.relation.Relation` subclass: ``Relation.__init__``
coerces its input into a resident contiguous int64 matrix, which is the
exact thing an out-of-core backend must avoid.  Instead the facade
duck-types the ``Relation`` surface:

* **Streaming-native** (never materialises): shape/column metadata,
  ``radix``/``cardinality``, ``kernels`` (a
  :class:`~repro.backends.chunked.ChunkedGroupCounter`), ``group_sizes``
  / ``distinct_count``, ``iter_column_chunks`` (the fingerprint feed).
  The counts-first mining path — ``PLICacheEngine`` fast path +
  ``entropy_from_counts`` — touches nothing else, which is what makes
  mining a store 10-100x larger than RAM possible.  A store whose
  distinct tuples fit one chunk (and half its rows) is read once, into
  its packed table, and counted from memory after that; any other
  store streams its chunks per count.  Spurious-tuple counting groups
  a packed store's tuples too, so a ``schemas`` request on it never
  materialises.
* **Materialising** (documented, lazy, cached): ``codes``, ``domains``,
  row access and the relational operations (``project`` etc.), which
  are inherently O(rows).  The first such call builds the in-memory
  twin once via ``backend.to_relation()``; the
  ``kernel.chunked_materialized`` counter records that it happened.

Store-backed relations are read-only: ``supports_delta_tracking`` is
``False`` so the delta subsystem declines them up front rather than
shadow-maintaining partitions over data it cannot see grow.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.backends.base import RelationBackend
from repro.backends.chunked import ChunkedGroupCounter
from repro.data.relation import AttrSetSpec, AttrSpec, Relation
from repro.kernels import dispatch
from repro.lattice import AttrSet


class BackendRelation:
    """Duck-typed :class:`Relation` over a :class:`RelationBackend`."""

    #: The delta subsystem (append tracking) requires resident,
    #: growable partitions; store-backed relations decline it.
    supports_delta_tracking = False

    def __init__(
        self,
        backend: RelationBackend,
        chunk_rows: int = dispatch.DEFAULT_CHUNK_ROWS,
    ):
        self.backend = backend
        self.columns: Tuple[str, ...] = tuple(backend.columns)
        self.name = backend.name
        self.chunk_rows = max(int(chunk_rows), 1)
        self._col_index = {c: j for j, c in enumerate(self.columns)}
        self._radix = tuple(int(r) for r in backend.radix)
        self._kernel: Optional[ChunkedGroupCounter] = None
        self._dense: Optional[Relation] = None

    # ------------------------------------------------------------------ #
    # Metadata (streaming-native)
    # ------------------------------------------------------------------ #

    @property
    def n_rows(self) -> int:
        return self.backend.n_rows

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.n_cols

    @property
    def radix(self) -> Tuple[int, ...]:
        return self._radix

    def cardinality(self, attr: AttrSpec) -> int:
        return int(self.backend.cardinalities[self.col_index(attr)])

    def col_index(self, attr: AttrSpec) -> int:
        if isinstance(attr, (int, np.integer)):
            j = int(attr)
            if not 0 <= j < self.n_cols:
                raise IndexError(f"column index {j} out of range 0..{self.n_cols - 1}")
            return j
        try:
            return self._col_index[attr]
        except KeyError:
            raise KeyError(f"unknown column {attr!r}; have {self.columns}") from None

    def col_indices(self, attrs: AttrSetSpec) -> Tuple[int, ...]:
        if type(attrs) is AttrSet:
            if attrs.mask >> self.n_cols:
                raise IndexError(
                    f"column index {attrs.max_attr()} out of range "
                    f"0..{self.n_cols - 1}"
                )
            return attrs.indices()
        if isinstance(attrs, (int, np.integer, str)):
            attrs = [attrs]
        return tuple(sorted(self.col_index(a) for a in attrs))

    def attr_names(self, attrs) -> Tuple[str, ...]:
        return tuple(self.columns[j] for j in sorted(attrs))

    # ------------------------------------------------------------------ #
    # Grouping (streaming-native)
    # ------------------------------------------------------------------ #

    @property
    def kernels(self) -> ChunkedGroupCounter:
        """The chunk-streaming grouping engine for this relation."""
        if self._kernel is None:
            self._kernel = ChunkedGroupCounter(
                self.backend,
                chunk_rows=self.chunk_rows,
                materialize=lambda: self.materialize().kernels,
            )
        return self._kernel

    def group_sizes(self, attrs: AttrSetSpec) -> np.ndarray:
        return self.kernels.counts(self.col_indices(attrs))

    def distinct_count(self, attrs: AttrSetSpec) -> int:
        return len(self.kernels.counts(self.col_indices(attrs)))

    def group_ids(self, attrs: AttrSetSpec) -> Tuple[np.ndarray, int]:
        """Dense group ids — row-aligned output, materialises (see module)."""
        return self.kernels.ids(self.col_indices(attrs))

    def iter_column_chunks(self, j: int, chunk_rows: int) -> Iterator[np.ndarray]:
        """Code chunks of column ``j`` in the backend's dtype — the
        streamed-hash feed :func:`repro.exec.persist.relation_fingerprint`
        consumes (it hashes them as int64 bytes), so fingerprinting a
        store-backed relation never materialises it."""
        stream = getattr(self.backend, "iter_column_chunks", None)
        if stream is not None:
            yield from stream(j, chunk_rows)
            return
        for block in self.backend.iter_chunks((j,), chunk_rows):
            yield block[0]

    # ------------------------------------------------------------------ #
    # Materialising surface
    # ------------------------------------------------------------------ #

    def materialize(self) -> Relation:
        """The in-memory twin (built once, cached; O(rows x cols) RAM)."""
        if self._dense is None:
            self._dense = self.backend.to_relation()
        return self._dense

    @property
    def codes(self) -> np.ndarray:
        """Full code matrix — materialises the backend."""
        return self.materialize().codes

    @property
    def domains(self) -> Tuple[Optional[list], ...]:
        return tuple(self.backend.domain(j) for j in range(self.n_cols))

    def column_values(self, attr: AttrSpec) -> list:
        return self.materialize().column_values(attr)

    def project(self, attrs: AttrSetSpec, dedup: bool = True) -> Relation:
        return self.materialize().project(attrs, dedup=dedup)

    def distinct(self) -> Relation:
        return self.materialize().distinct()

    def take_rows(self, row_indices) -> Relation:
        return self.materialize().take_rows(row_indices)

    def head(self, k: int) -> Relation:
        return self.materialize().head(k)

    def sample_rows(self, k: int, seed: int = 0) -> Relation:
        return self.materialize().sample_rows(k, seed=seed)

    def select_columns(self, attrs: AttrSetSpec) -> Relation:
        return self.materialize().select_columns(attrs)

    def rename(self, mapping: Dict[str, str]) -> Relation:
        return self.materialize().rename(mapping)

    def rows(self) -> List[tuple]:
        return self.materialize().rows()

    def row_set(self, attrs: Optional[AttrSetSpec] = None) -> set:
        return self.materialize().row_set(attrs)

    def pretty(self, limit: int = 10) -> str:
        return self.materialize().pretty(limit)

    # ------------------------------------------------------------------ #
    # Dunder
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self.n_rows

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BackendRelation):
            other = other.materialize()
        if not isinstance(other, Relation):
            return NotImplemented
        return self.materialize() == other

    def __hash__(self):  # pragma: no cover - mirrors Relation
        raise TypeError("BackendRelation objects are not hashable")

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<BackendRelation{label} {self.n_rows}x{self.n_cols} "
            f"backend={type(self.backend).__name__}>"
        )
