"""The on-disk columnar store format and its chunked CSV ingester.

A *store* is a directory::

    store.json           # manifest: shape, columns, radix, dtypes, fingerprint
    col_00000.bin        # column 0 codes, raw little-endian, narrow dtype
    domain_00000.jsonl   # column 0 decode table, one JSON value per line
    ...

Codes are the same first-appearance dictionary encoding
:meth:`Relation.from_rows` produces (the pure-Python dict walk of
``data.relation._factorize_object``), stored per column in the smallest
sufficient dtype (:func:`repro.kernels.narrow_dtype`) — a store of a
CSV is typically 4-8x smaller than the in-memory int64 matrix, and the
chunk-streaming counters compose keys from these columns as read,
without widening them.  Line ``i`` of a domain file decodes code ``i``;
a ``null`` entry in the manifest's ``domains`` list means the column
has no decode table (codes decode to themselves, like
``Relation.domains[j] is None``).

The manifest's ``fingerprint`` is the **canonical relation
fingerprint** (:func:`repro.exec.persist.fingerprint_stream`) of the
stored codes, computed during the ingest finalise pass.  Loading the
same CSV with :func:`repro.data.loaders.from_csv` yields a relation
with the identical fingerprint — that identity is what lets persistent
entropy caches and the serve registry treat a store and its in-memory
twin as the same dataset.

Ingestion (:func:`ingest_csv`) streams: rows are dictionary-encoded as
they are read, codes are spilled to per-column temp files every
``chunk_rows`` rows, and newly discovered domain values are appended to
the domain files per chunk — peak memory is one row block plus the
per-column encoding dictionaries (proportional to *distinct values*,
never to rows).  A finalise pass narrows the temp int32 codes to the
final dtype chunk-by-chunk while computing the fingerprint in the same
read.  The ingest builds into a hidden sibling directory and renames it
into place, so a crashed ingest never leaves a half-readable store.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import tempfile
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.backends.base import StoreError
from repro.data.loaders import null_token_sub
from repro.data.relation import Relation
from repro.exec.persist import fingerprint_stream, relation_fingerprint
from repro.kernels import narrow_dtype
from repro.obs.trace import span

#: Manifest file name inside a store directory.
MANIFEST_NAME = "store.json"
#: Bump when the directory layout changes; old stores are rejected.
STORE_FORMAT = 1
#: Default ingest row-block size: per column a 64k-row int32 spill
#: buffer is 256 KB, so even very wide relations ingest in a few MB.
INGEST_CHUNK_ROWS = 1 << 16

#: JSON-representable domain scalar types (bool before int on purpose:
#: bool is an int subclass and round-trips as JSON true/false).
_DOMAIN_SCALARS = (str, bool, int, float, type(None))


def manifest_path(path: str) -> str:
    return os.path.join(path, MANIFEST_NAME)


def column_file(path: str, j: int) -> str:
    return os.path.join(path, f"col_{j:05d}.bin")


def domain_file(path: str, j: int) -> str:
    return os.path.join(path, f"domain_{j:05d}.jsonl")


def read_manifest(path: str) -> dict:
    """Load and validate a store manifest; raise :class:`StoreError`."""
    mpath = manifest_path(path)
    try:
        with open(mpath, encoding="utf-8") as f:
            manifest = json.load(f)
    except OSError as exc:
        raise StoreError(f"not a store directory (no {MANIFEST_NAME}): {path}") from exc
    except ValueError as exc:
        raise StoreError(f"corrupt store manifest: {mpath}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != STORE_FORMAT:
        raise StoreError(
            f"unsupported store format {manifest.get('format')!r} in {mpath} "
            f"(expected {STORE_FORMAT})"
        )
    for key in ("name", "n_rows", "columns", "radix", "cardinalities",
                "dtypes", "domains", "fingerprint"):
        if key not in manifest:
            raise StoreError(f"store manifest missing {key!r}: {mpath}")
    n = len(manifest["columns"])
    for key in ("radix", "cardinalities", "dtypes", "domains"):
        if len(manifest[key]) != n:
            raise StoreError(f"store manifest {key!r} length != columns: {mpath}")
    for j in range(n):
        if not os.path.exists(column_file(path, j)):
            raise StoreError(f"store missing column file {column_file(path, j)}")
    return manifest


def _write_manifest(path: str, manifest: dict) -> None:
    with open(manifest_path(path), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _json_scalar(value):
    """A domain value as a JSON-faithful scalar (or raise StoreError)."""
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        value = value.item()
    if not isinstance(value, _DOMAIN_SCALARS):
        raise StoreError(
            f"domain value {value!r} of type {type(value).__name__} is not "
            "JSON-representable; only scalar domains can be stored"
        )
    if isinstance(value, float) and value != value:  # NaN
        raise StoreError("NaN domain values cannot be stored as JSON")
    return value


def read_domain(path: str, j: int) -> list:
    """Decode table of column ``j`` (one JSON value per line)."""
    values = []
    with open(domain_file(path, j), encoding="utf-8") as f:
        for line in f:
            values.append(json.loads(line))
    return values


class _IngestState:
    """Per-column encoding state for one streaming ingest."""

    def __init__(self, tmp: str, n_cols: int):
        self.encoders: List[Dict[str, int]] = [{} for _ in range(n_cols)]
        self.pending: List[List[int]] = [[] for _ in range(n_cols)]
        self.new_values: List[List[str]] = [[] for _ in range(n_cols)]
        self.code_files = [
            open(os.path.join(tmp, f"codes-{j}.i32"), "wb") for j in range(n_cols)
        ]
        self.domain_files = [
            open(domain_file(tmp, j), "w", encoding="utf-8") for j in range(n_cols)
        ]

    def flush(self) -> None:
        with span("chunk"):
            for j, codes in enumerate(self.pending):
                if codes:
                    np.asarray(codes, dtype=np.int32).tofile(self.code_files[j])
                    codes.clear()
                if self.new_values[j]:
                    out = self.domain_files[j]
                    for value in self.new_values[j]:
                        out.write(json.dumps(value))
                        out.write("\n")
                    self.new_values[j].clear()

    def close(self) -> None:
        for f in self.code_files:
            f.close()
        for f in self.domain_files:
            f.close()


def ingest_csv(
    source: Union[str, io.TextIOBase],
    out: str,
    has_header: bool = True,
    delimiter: str = ",",
    name: Optional[str] = None,
    null_token: str = "",
    max_rows: Optional[int] = None,
    chunk_rows: int = INGEST_CHUNK_ROWS,
    force: bool = False,
) -> dict:
    """Stream a CSV into a columnar store directory; return the manifest.

    Cell normalisation (strip, ``null_token`` -> ``"<null>"``, ragged
    rows padded/truncated to the header width) and the first-appearance
    dictionary encoding replicate :func:`repro.data.loaders.from_csv` +
    :meth:`Relation.from_rows` exactly, so the manifest fingerprint
    equals ``relation_fingerprint(from_csv(source, ...))`` — the store
    *is* the relation, just not in RAM.  Peak memory: one ``chunk_rows``
    row block plus the per-column value dictionaries.
    """
    if os.path.exists(manifest_path(out)) and not force:
        raise StoreError(f"store already exists (use force=True to replace): {out}")
    chunk_rows = max(int(chunk_rows), 1)
    close_stream = False
    if isinstance(source, str):
        stream = open(source, "r", newline="", encoding="utf-8")
        close_stream = True
        if name is None:
            name = source.rsplit("/", 1)[-1]
    else:
        stream = source
        if name is None:
            name = getattr(source, "name", "")
    parent = os.path.dirname(os.path.abspath(out)) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".ingest-", dir=parent)
    state: Optional[_IngestState] = None
    columns: Optional[List[str]] = None
    n_rows = 0
    try:
        with span("ingest"):
            reader = csv.reader(stream, delimiter=delimiter)
            for i, row in enumerate(reader):
                if i == 0 and has_header:
                    columns = [c.strip() for c in row]
                    continue
                cells = [null_token_sub(cell, null_token) for cell in row]
                if columns is None:
                    columns = [f"A{j}" for j in range(len(cells))]
                if state is None:
                    if len(set(columns)) != len(columns):
                        raise StoreError(f"duplicate column names in {columns!r}")
                    state = _IngestState(tmp, len(columns))
                width = len(columns)
                if len(cells) < width:
                    cells = cells + ["<null>"] * (width - len(cells))
                elif len(cells) > width:
                    cells = cells[:width]
                for j in range(width):
                    enc = state.encoders[j]
                    cell = cells[j]
                    code = enc.get(cell)
                    if code is None:
                        code = len(enc)
                        enc[cell] = code
                        state.new_values[j].append(cell)
                    state.pending[j].append(code)
                n_rows += 1
                if n_rows % chunk_rows == 0:
                    state.flush()
                if max_rows is not None and n_rows >= max_rows:
                    break
            if columns is None:
                columns = []
            if state is None:
                state = _IngestState(tmp, len(columns))
            state.flush()
            state.close()
            manifest = _finalize(tmp, str(name or ""), columns, state, n_rows,
                                 chunk_rows)
        if os.path.exists(out):
            if not force:  # pragma: no cover - raced creation
                raise StoreError(f"store already exists: {out}")
            shutil.rmtree(out)
        os.rename(tmp, out)
        return manifest
    finally:
        if close_stream:
            stream.close()
        if os.path.exists(tmp):
            shutil.rmtree(tmp)


def _finalize(
    tmp: str,
    name: str,
    columns: Sequence[str],
    state: _IngestState,
    n_rows: int,
    chunk_rows: int,
) -> dict:
    """Narrow the spilled codes to final files + fingerprint, one pass."""
    cards = [len(enc) for enc in state.encoders]
    dtypes = [narrow_dtype(card) for card in cards]

    def column_chunks(j: int):
        # One read of the int32 spill per column: each block is written
        # to the final narrow file and yielded (as int64) to the
        # fingerprint hash — finalise never holds more than one block.
        src_path = os.path.join(tmp, f"codes-{j}.i32")
        with open(src_path, "rb") as src, open(column_file(tmp, j), "wb") as dst:
            while True:
                block = np.fromfile(src, dtype=np.int32, count=chunk_rows)
                if block.size == 0:
                    break
                with span("chunk"):
                    block.astype(dtypes[j], copy=False).tofile(dst)
                    yield block.astype(np.int64, copy=False)
        os.unlink(src_path)

    fingerprint = fingerprint_stream(
        n_rows, len(columns), columns,
        (column_chunks(j) for j in range(len(columns))),
    )
    # Ensure empty columns still get their (empty) data files.
    for j in range(len(columns)):
        if not os.path.exists(column_file(tmp, j)):
            open(column_file(tmp, j), "wb").close()  # pragma: no cover
    manifest = {
        "format": STORE_FORMAT,
        "name": name,
        "n_rows": n_rows,
        "columns": list(columns),
        "radix": cards,  # ingest codes are dense: radix == cardinality
        "cardinalities": cards,
        "dtypes": [dt.name for dt in dtypes],
        "domains": [True] * len(columns),  # every CSV column is string-decoded
        "fingerprint": fingerprint,
    }
    _write_manifest(tmp, manifest)
    return manifest


def write_store(
    relation: Relation,
    out: str,
    chunk_rows: int = INGEST_CHUNK_ROWS,
    force: bool = False,
) -> dict:
    """Write an in-memory relation as a store directory; return manifest.

    The inverse of :meth:`MmapBackend.to_relation` up to dtype: codes
    round-trip exactly (the fingerprint is ``relation_fingerprint``),
    domains must be JSON scalars.  Used by tests, examples and synthetic
    benches; real out-of-core data should go through :func:`ingest_csv`.
    """
    if os.path.exists(manifest_path(out)) and not force:
        raise StoreError(f"store already exists (use force=True to replace): {out}")
    chunk_rows = max(int(chunk_rows), 1)
    parent = os.path.dirname(os.path.abspath(out)) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".ingest-", dir=parent)
    try:
        radix = [int(r) for r in relation.radix]
        dtypes = [narrow_dtype(r) for r in radix]
        for j in range(relation.n_cols):
            col = relation.codes[:, j]
            with open(column_file(tmp, j), "wb") as dst:
                for start in range(0, relation.n_rows, chunk_rows):
                    block = np.ascontiguousarray(col[start:start + chunk_rows])
                    block.astype(dtypes[j], copy=False).tofile(dst)
            with open(domain_file(tmp, j), "w", encoding="utf-8") as df:
                domain = relation.domains[j]
                if domain is not None:
                    for value in domain:
                        df.write(json.dumps(_json_scalar(value)))
                        df.write("\n")
        manifest = {
            "format": STORE_FORMAT,
            "name": relation.name,
            "n_rows": relation.n_rows,
            "columns": list(relation.columns),
            "radix": radix,
            "cardinalities": [relation.cardinality(j) for j in range(relation.n_cols)],
            "dtypes": [dt.name for dt in dtypes],
            "domains": [relation.domains[j] is not None for j in range(relation.n_cols)],
            "fingerprint": relation_fingerprint(relation),
        }
        _write_manifest(tmp, manifest)
        if os.path.exists(out):
            if not force:  # pragma: no cover - raced creation
                raise StoreError(f"store already exists: {out}")
            shutil.rmtree(out)
        os.rename(tmp, out)
        return manifest
    finally:
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
