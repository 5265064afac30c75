"""Out-of-core backend over an on-disk columnar store directory.

:class:`MmapBackend` answers the backend contract straight from the
store files written by :func:`repro.backends.store.ingest_csv` /
:func:`~repro.backends.store.write_store`:

* metadata comes from the manifest — including the **ingest-time
  fingerprint**, so opening a store never rehashes the data;
* ``iter_chunks`` reads bounded row blocks per column with plain
  ``seek`` + ``np.fromfile`` into fresh buffers, in the column's stored
  narrow dtype (the manifest's ``dtypes``:
  :func:`repro.kernels.narrow_dtype` of its radix); the counting lanes
  compose keys from those blocks as read, with no int64 widening in
  between.  Deliberately *not*
  ``np.memmap`` for the streaming path: touched memmap pages count
  toward the process RSS until the OS reclaims them, which would make
  an "out-of-core" run indistinguishable from an in-memory one under a
  memory budget.  Peak memory is one narrow ``chunk_rows`` block per
  column of the attribute subset plus one key buffer, whatever the
  store size;
* ``key_counts`` feeds those blocks through the chunk-streaming lanes
  of :func:`repro.kernels.dispatch.stream_counts` — bit-identical
  counts, bounded memory;
* ``column``/``to_relation`` expose random access (read-only
  ``np.memmap``) and full materialisation for the code paths that
  genuinely need the matrix (partitions, projections, exports).
"""

from __future__ import annotations

import os
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends import store as store_mod
from repro.backends.base import RelationBackend, StoreError
from repro.data.relation import Relation
from repro.kernels import count, dispatch


class MmapBackend(RelationBackend):
    """Columnar store directory as a :class:`RelationBackend`.

    Parameters
    ----------
    path:
        Store directory (must contain ``store.json``; see
        :mod:`repro.backends.store` for the layout).
    chunk_rows:
        Default row-block size for streamed reads.
    """

    def __init__(self, path: str, chunk_rows: int = dispatch.DEFAULT_CHUNK_ROWS):
        self.path = os.path.abspath(path)
        self.manifest = store_mod.read_manifest(self.path)
        self.chunk_rows = max(int(chunk_rows), 1)
        self._columns: Tuple[str, ...] = tuple(self.manifest["columns"])
        self._dtypes = tuple(np.dtype(d) for d in self.manifest["dtypes"])
        self._domains: List[Optional[list]] = [None] * len(self._columns)
        self._domain_loaded = [False] * len(self._columns)
        n_rows = int(self.manifest["n_rows"])
        for j, dt in enumerate(self._dtypes):
            expected = n_rows * dt.itemsize
            actual = os.path.getsize(store_mod.column_file(self.path, j))
            if actual != expected:
                raise StoreError(
                    f"column file {store_mod.column_file(self.path, j)} has "
                    f"{actual} bytes, expected {expected} "
                    f"({n_rows} rows x {dt.name})"
                )

    # -- metadata ------------------------------------------------------ #

    @property
    def name(self) -> str:
        return str(self.manifest["name"])

    @property
    def columns(self) -> Tuple[str, ...]:
        return self._columns

    @property
    def n_rows(self) -> int:
        return int(self.manifest["n_rows"])

    @property
    def radix(self) -> Tuple[int, ...]:
        return tuple(int(r) for r in self.manifest["radix"])

    @property
    def cardinalities(self) -> Tuple[int, ...]:
        return tuple(int(c) for c in self.manifest["cardinalities"])

    def fingerprint(self) -> str:
        return str(self.manifest["fingerprint"])

    def store_bytes(self) -> int:
        total = 0
        for entry in os.scandir(self.path):
            if entry.is_file():
                total += entry.stat().st_size
        return total

    # -- data ---------------------------------------------------------- #

    def iter_chunks(
        self, idx: Sequence[int], chunk_rows: int = 0
    ) -> Iterator[List[np.ndarray]]:
        chunk_rows = max(int(chunk_rows), 0) or self.chunk_rows
        idx = [int(j) for j in idx]
        handles = [open(store_mod.column_file(self.path, j), "rb") for j in idx]
        try:
            for start in range(0, self.n_rows, chunk_rows):
                n = min(chunk_rows, self.n_rows - start)
                block = []
                for f, j in zip(handles, idx):
                    dt = self._dtypes[j]
                    f.seek(start * dt.itemsize)
                    arr = np.fromfile(f, dtype=dt, count=n)
                    if len(arr) != n:  # pragma: no cover - truncated file
                        raise StoreError(
                            f"short read in {store_mod.column_file(self.path, j)}"
                        )
                    block.append(arr)
                yield block
        finally:
            for f in handles:
                f.close()

    def key_counts(self, idx: Tuple[int, ...]) -> np.ndarray:
        idx = tuple(int(j) for j in idx)
        if not idx:
            n = self.n_rows
            return np.full(min(1, n), n, dtype=np.int64)
        radix = self.radix
        stats = dict.fromkeys(dispatch._STAT_KEYS, 0)
        return dispatch.stream_counts(
            self.iter_chunks(idx, self.chunk_rows),
            tuple(radix[j] for j in idx),
            count.bincount_limit(self.n_rows),
            stats,
        )

    def iter_column_chunks(self, j: int, chunk_rows: int) -> Iterator[np.ndarray]:
        """Stored-dtype code chunks of one column (the fingerprint feed,
        which hashes them as int64 bytes)."""
        for block in self.iter_chunks((j,), chunk_rows):
            yield block[0]

    def column(self, j: int) -> np.ndarray:
        """Read-only random access to one column (memory-mapped)."""
        dt = self._dtypes[j]
        if self.n_rows == 0:
            return np.empty(0, dtype=dt)
        return np.memmap(
            store_mod.column_file(self.path, j), dtype=dt, mode="r",
            shape=(self.n_rows,),
        )

    def domain(self, j: int) -> Optional[list]:
        if not self._domain_loaded[j]:
            if self.manifest["domains"][j]:
                values = store_mod.read_domain(self.path, j)
                if len(values) < self.cardinalities[j]:
                    raise StoreError(
                        f"domain file for column {j} has {len(values)} values, "
                        f"expected >= {self.cardinalities[j]}"
                    )
                self._domains[j] = values
            self._domain_loaded[j] = True
        return self._domains[j]

    def to_relation(self) -> Relation:
        """Materialize the full in-memory relation (O(rows x cols) RAM)."""
        codes = np.empty((self.n_rows, self.n_cols), dtype=np.int64)
        for j in range(self.n_cols):
            start = 0
            for block in self.iter_chunks((j,), self.chunk_rows):
                codes[start:start + len(block[0]), j] = block[0]
                start += len(block[0])
        return Relation(
            codes,
            self._columns,
            [self.domain(j) for j in range(self.n_cols)],
            name=self.name,
        )
