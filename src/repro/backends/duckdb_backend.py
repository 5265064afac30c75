"""Optional DuckDB backend: group-by counting pushed down into SQL.

The grown-up version of the :mod:`repro.entropy.sqlengine` /
:mod:`repro.sqlsim` embryo: instead of simulating SQL semantics over
numpy, the codes live in an actual DuckDB table and ``key_counts``
becomes::

    SELECT COUNT(*) FROM t GROUP BY c_i, c_j, ... ORDER BY c_i, c_j, ...

Ascending lexicographic ``ORDER BY`` over the code columns equals
ascending mixed-radix key order, so the counts vector — and therefore
every entropy — is bit-identical to the numpy lanes.  That ordering
clause is load-bearing: without it DuckDB returns groups in hash order
and the float summation in ``entropy_from_counts`` would drift.

The import is gated: this module always imports, ``HAVE_DUCKDB`` says
whether the engine is usable, and constructing :class:`DuckDBBackend`
without duckdb raises a clear error.  Codes are loaded from any other
backend's chunk stream via batched ``executemany`` — a pushdown
demonstrator, not a bulk loader; the chunked numpy lanes remain the
out-of-core workhorse.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import RelationBackend
from repro.data.relation import Relation

try:  # pragma: no cover - absence is the common case in dev images
    import duckdb

    HAVE_DUCKDB = True
except ImportError:  # pragma: no cover
    duckdb = None
    HAVE_DUCKDB = False


class DuckDBBackend(RelationBackend):
    """Counts pushdown over a DuckDB table mirroring another backend.

    Parameters
    ----------
    source:
        Any :class:`RelationBackend` (typically an
        :class:`~repro.backends.mmap_backend.MmapBackend`); metadata,
        domains and the fingerprint delegate to it, codes are copied
        into an in-process DuckDB table at construction.
    chunk_rows:
        Load batch size.
    """

    supports_count_pushdown = True

    def __init__(self, source: RelationBackend, chunk_rows: int = 1 << 16):
        if not HAVE_DUCKDB:
            raise RuntimeError(
                "duckdb is not installed; install the 'duckdb' extra or use "
                "the mmap backend"
            )
        self.source = source
        self._con = duckdb.connect()
        cols = ", ".join(f"c{j} BIGINT NOT NULL" for j in range(source.n_cols))
        if source.n_cols:
            self._con.execute(f"CREATE TABLE t ({cols})")
            placeholders = ", ".join("?" for _ in range(source.n_cols))
            insert = f"INSERT INTO t VALUES ({placeholders})"
            all_idx = tuple(range(source.n_cols))
            for block in source.iter_chunks(all_idx, chunk_rows):
                rows = list(zip(*(col.tolist() for col in block)))
                if rows:
                    self._con.executemany(insert, rows)

    # -- metadata (delegated) ------------------------------------------ #

    @property
    def name(self) -> str:
        return self.source.name

    @property
    def columns(self) -> Tuple[str, ...]:
        return self.source.columns

    @property
    def n_rows(self) -> int:
        return self.source.n_rows

    @property
    def radix(self) -> Tuple[int, ...]:
        return self.source.radix

    @property
    def cardinalities(self) -> Tuple[int, ...]:
        return self.source.cardinalities

    def fingerprint(self) -> str:
        return self.source.fingerprint()

    def store_bytes(self) -> int:
        return self.source.store_bytes()

    def domain(self, j: int) -> Optional[list]:
        return self.source.domain(j)

    # -- data ---------------------------------------------------------- #

    def iter_chunks(
        self, idx: Sequence[int], chunk_rows: int
    ) -> Iterator[List[np.ndarray]]:
        return self.source.iter_chunks(idx, chunk_rows)

    def key_counts(self, idx: Tuple[int, ...]) -> np.ndarray:
        if not idx:
            n = self.n_rows
            return np.full(min(1, n), n, dtype=np.int64)
        keys = ", ".join(f"c{int(j)}" for j in idx)
        cursor = self._con.execute(
            f"SELECT COUNT(*) AS n FROM t GROUP BY {keys} ORDER BY {keys}"
        )
        counts = cursor.fetchnumpy()["n"]
        return np.ascontiguousarray(counts, dtype=np.int64)

    def to_relation(self) -> Relation:
        return self.source.to_relation()

    def close(self) -> None:
        self._con.close()
