"""Pluggable relation storage backends.

The backend seam separates *what the miners ask* (group counts over
attribute subsets, in ascending key order — the counts-first contract
of PR 7) from *where the codes live*:

* :class:`NumpyBackend` — the in-memory default; wraps a
  :class:`~repro.data.relation.Relation`, bit-identical to the
  pre-backend code path.
* :class:`MmapBackend` — an on-disk columnar store directory
  (:mod:`repro.backends.store`), read in bounded row blocks; mines
  relations far larger than RAM through the chunk-streaming kernels.
* :class:`DuckDBBackend` — optional (import-gated): pushes the group-by
  counting into SQL.

:class:`BackendRelation` adapts any backend to the ``Relation`` surface
the rest of the codebase consumes; :func:`open_backend` resolves a
store directory + backend name (the ``DataSpec.store`` / ``backend``
knobs) into a ready relation.
"""

from repro.backends.base import (
    DEFAULT_CHUNK_ROWS,
    NumpyBackend,
    RelationBackend,
    StoreError,
)
from repro.backends.chunked import ChunkedGroupCounter
from repro.backends.mmap_backend import MmapBackend
from repro.backends.relation import BackendRelation
from repro.backends.store import (
    INGEST_CHUNK_ROWS,
    MANIFEST_NAME,
    STORE_FORMAT,
    ingest_csv,
    read_manifest,
    write_store,
)

#: Backend names accepted by ``DataSpec.backend`` / ``--backend``.
BACKENDS = ("numpy", "mmap", "duckdb")


def have_duckdb() -> bool:
    """Whether the optional DuckDB pushdown backend is importable."""
    from repro.backends import duckdb_backend

    return duckdb_backend.HAVE_DUCKDB


def open_backend(path: str, backend: str = "mmap") -> RelationBackend:
    """Open a store directory with the named backend.

    ``mmap`` reads the columnar files directly; ``duckdb`` loads them
    into an in-process DuckDB table for SQL counts pushdown (requires
    the optional dependency).  Raises :class:`StoreError` for a bad
    store or backend name, :class:`RuntimeError` when duckdb is asked
    for but not installed.
    """
    if backend == "mmap":
        return MmapBackend(path)
    if backend == "duckdb":
        from repro.backends.duckdb_backend import DuckDBBackend

        return DuckDBBackend(MmapBackend(path))
    raise StoreError(
        f"unknown store backend {backend!r}; expected 'mmap' or 'duckdb'"
    )


def open_store_relation(
    path: str, backend: str = "mmap", chunk_rows: int = DEFAULT_CHUNK_ROWS
) -> BackendRelation:
    """A ready-to-mine :class:`BackendRelation` over a store directory."""
    return BackendRelation(open_backend(path, backend), chunk_rows=chunk_rows)
