"""Columnar relation engine.

A :class:`Relation` stores a relational instance as a dense matrix of
*factorised codes*: every column is dictionary-encoded into consecutive
integers ``0..card-1``, and the original values are kept per column so the
relation can be decoded back for display or export.

The encoding is what every other layer of the system builds on:

* the entropy engines (:mod:`repro.entropy`) group rows by subsets of columns,
  which reduces to grouping integer code vectors;
* stripped partitions (the in-memory analogue of the paper's CNT/TID tables)
  are derived from per-column codes;
* projections — needed for schema decomposition and decomposed storage —
  are deduplicated code matrices, one row per group.

The paper treats the input as a single relation ``R`` with attributes
``Omega`` and the *empirical distribution* assigning probability ``1/N`` to
every tuple (Section 3.2).  Duplicate rows are therefore meaningful (they
shift the empirical distribution) and are preserved; use
:meth:`Relation.distinct` to obtain set semantics when required.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.kernels import representatives
from repro.lattice import AttrSet

AttrSpec = Union[int, str]
AttrSetSpec = Union[Iterable[AttrSpec], AttrSpec]


def _factorize_object(values: Sequence) -> Tuple[np.ndarray, list]:
    """Reference dictionary encoding: a pure-Python dict walk.

    Handles any hashable values (mixed types, NaN-by-identity, big ints);
    kept as the fallback for inputs the vectorised path cannot represent
    faithfully and as the agreement baseline in the test suite.
    """
    mapping: Dict[object, int] = {}
    codes = np.empty(len(values), dtype=np.int64)
    domain: list = []
    for i, v in enumerate(values):
        code = mapping.get(v)
        if code is None:
            code = len(domain)
            mapping[v] = code
            domain.append(v)
        codes[i] = code
    return codes, domain


#: Python scalar types worth converting for the vectorised path.  Strings
#: are deliberately absent: converting a list of str to a fixed-width U
#: array plus a sort-based unique measures ~2x *slower* than the dict
#: walk (and U dtypes corrupt values with trailing NULs), whereas numeric
#: conversion + unique wins 1.5-4.5x.  Inputs that are already ndarrays
#: skip conversion and always take the fast path.
_VECTORIZABLE_TYPES = (int, float, bool)


def _as_uniform_array(values: Sequence) -> Optional[np.ndarray]:
    """``values`` as a 1-D non-object ndarray, or None when unsafe/unwise.

    Unsafe cases — mixed scalar types (numpy would silently coerce, e.g.
    ``[1, True]`` collapses the bool), NaNs (dict encoding keys them by
    identity, ``np.unique`` collapses them), ints beyond int64 — and the
    unprofitable ones (see :data:`_VECTORIZABLE_TYPES`) fall back to the
    reference dict walk.
    """
    if isinstance(values, np.ndarray):
        if values.ndim != 1 or values.dtype == object:
            return None
        arr = values
    else:
        kinds = set(map(type, values))
        if len(kinds) != 1 or kinds.pop() not in _VECTORIZABLE_TYPES:
            return None
        try:
            arr = np.asarray(values)
        except (OverflowError, ValueError):
            return None
        if arr.ndim != 1 or arr.dtype == object:
            return None
    if arr.dtype.kind == "f" and np.isnan(arr).any():
        return None
    return arr


def _factorize(values: Sequence) -> Tuple[np.ndarray, list]:
    """Dictionary-encode ``values`` into integer codes.

    Returns ``(codes, domain)`` where ``domain[code] == value``.  Values are
    encoded in first-appearance order, so round-tripping is deterministic.

    This is the hot path of ingestion: ndarray and homogeneous numeric
    inputs go through one ``np.unique`` with a first-appearance reordering
    of the sorted uniques; anything numpy cannot represent faithfully —
    or not profitably, like Python string lists (see
    :data:`_VECTORIZABLE_TYPES`) — takes the reference dict walk.
    """
    if len(values) == 0:
        return np.empty(0, dtype=np.int64), []
    arr = _as_uniform_array(values)
    if arr is None:
        return _factorize_object(values)
    uniq, first, inv = np.unique(arr, return_index=True, return_inverse=True)
    # np.unique sorts by value; remap to first-appearance order so the
    # codes match the reference implementation exactly.
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq), dtype=np.int64)
    codes = rank[inv.reshape(-1)]
    domain = arr[first[order]].tolist()
    return codes, domain


class Relation:
    """An immutable relational instance with dictionary-encoded columns.

    Parameters
    ----------
    codes:
        ``(N, n)`` int64 matrix of factorised codes, one column per attribute.
    columns:
        Attribute names, length ``n``.
    domains:
        Optional per-column decode tables (``domains[j][code] == value``).
        When omitted, codes decode to themselves.
    name:
        Optional human-readable dataset name (used in benches and reports).
    """

    __slots__ = (
        "codes", "columns", "domains", "name", "_col_index", "_radix", "_cards",
        "_kernel", "_fingerprint",
    )

    def __init__(
        self,
        codes: np.ndarray,
        columns: Sequence[str],
        domains: Optional[Sequence[list]] = None,
        name: str = "",
    ):
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        if codes.ndim != 2:
            raise ValueError("codes must be a 2-D matrix (rows x columns)")
        if codes.shape[1] != len(columns):
            raise ValueError(
                f"codes has {codes.shape[1]} columns but {len(columns)} names given"
            )
        if len(set(columns)) != len(columns):
            raise ValueError(f"duplicate column names in {columns!r}")
        self.codes = codes
        self.columns: Tuple[str, ...] = tuple(str(c) for c in columns)
        if domains is None:
            domains = [None] * len(self.columns)
        if len(domains) != len(self.columns):
            raise ValueError("domains must have one entry per column")
        self.domains: Tuple[Optional[list], ...] = tuple(domains)
        self.name = name
        self._col_index = {c: j for j, c in enumerate(self.columns)}
        # Per-column *radix* bound (max code + 1).  Row subsetting
        # (``take_rows``/``head``/``sample_rows``) can leave holes in the
        # code range, so this is an upper bound on the number of distinct
        # codes — exactly what the mixed-radix combination in
        # :meth:`group_ids` needs, but NOT the true cardinality.
        if codes.shape[0]:
            self._radix = tuple(int(codes[:, j].max()) + 1 for j in range(codes.shape[1]))
        else:
            self._radix = tuple(0 for _ in self.columns)
        # True per-column distinct counts, computed lazily on first
        # :meth:`cardinality` call (an np.unique per column is too costly
        # for the many short-lived relations created during mining).
        self._cards: List[Optional[int]] = [None] * len(self.columns)
        # Lazy counts-first grouping dispatcher (see :attr:`kernels`).
        self._kernel = None
        # sha256 state after the column bytes, kept by
        # :func:`repro.exec.persist.relation_fingerprint` so the codes
        # are hashed once per relation.
        self._fingerprint = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence],
        columns: Sequence[str],
        name: str = "",
    ) -> "Relation":
        """Build a relation from an iterable of tuples/lists."""
        rows = list(rows)
        n = len(columns)
        for r in rows:
            if len(r) != n:
                raise ValueError(f"row {r!r} has {len(r)} fields, expected {n}")
        codes = np.empty((len(rows), n), dtype=np.int64)
        domains: List[list] = []
        for j in range(n):
            col_codes, domain = _factorize([r[j] for r in rows])
            codes[:, j] = col_codes
            domains.append(domain)
        return cls(codes, columns, domains, name=name)

    @classmethod
    def from_columns(
        cls,
        data: Dict[str, Sequence],
        name: str = "",
    ) -> "Relation":
        """Build a relation from a mapping ``column name -> values``."""
        columns = list(data)
        lengths = {len(v) for v in data.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns have differing lengths: {sorted(lengths)}")
        n_rows = lengths.pop() if lengths else 0
        codes = np.empty((n_rows, len(columns)), dtype=np.int64)
        domains: List[list] = []
        for j, c in enumerate(columns):
            col_codes, domain = _factorize(list(data[c]))
            codes[:, j] = col_codes
            domains.append(domain)
        return cls(codes, columns, domains, name=name)

    @classmethod
    def from_codes(
        cls,
        codes: np.ndarray,
        columns: Optional[Sequence[str]] = None,
        name: str = "",
    ) -> "Relation":
        """Build a relation directly from a code matrix.

        Codes need not be dense; they are re-factorised per column so the
        invariants of the class hold.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 2:
            raise ValueError("codes must be 2-D")
        if columns is None:
            columns = [f"A{j}" for j in range(codes.shape[1])]
        dense = np.empty_like(codes)
        domains: List[list] = []
        for j in range(codes.shape[1]):
            uniq, inv = np.unique(codes[:, j], return_inverse=True)
            dense[:, j] = inv
            domains.append(list(uniq))
        return cls(dense, columns, domains, name=name)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #

    @property
    def n_rows(self) -> int:
        """Number of tuples ``N = |R|`` (duplicates included)."""
        return self.codes.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of attributes ``n = |Omega|``."""
        return self.codes.shape[1]

    @property
    def n_cells(self) -> int:
        """Total number of cells, ``N * n`` (used for storage-savings S)."""
        return self.n_rows * self.n_cols

    @property
    def radix(self) -> Tuple[int, ...]:
        """Per-column dense-radix bounds (``max code + 1``).

        An upper bound on distinct codes per column — exact for densely
        coded relations, loose after row subsetting; this is the bound the
        mixed-radix grouping of :meth:`group_ids` and the delta-maintained
        partitions of :mod:`repro.entropy.partitions` key on.
        """
        return self._radix

    def cardinality(self, attr: AttrSpec) -> int:
        """Number of distinct values in one column.

        This is the *true* distinct count even when codes are non-dense
        (relations produced by ``take_rows``/``head``/``sample_rows`` may
        skip codes); the dense-radix bound used internally by
        :meth:`group_ids` is kept separately.
        """
        j = self.col_index(attr)
        card = self._cards[j]
        if card is None:
            # return_counts keeps np.unique on its sorted path; the plain
            # call takes NumPy 2.4's unsorted one, about 30x slower on a
            # column of 1M distinct codes.
            counts = np.unique(self.codes[:, j], return_counts=True)[1]
            card = len(counts)
            self._cards[j] = card
        return card

    def col_index(self, attr: AttrSpec) -> int:
        """Resolve a column name or index to an index."""
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
        """Resolve a collection of names/indices to a sorted index tuple."""
        if type(attrs) is AttrSet:
            # Bitmask fast path: bits iterate ascending; one range check.
            if attrs.mask >> self.n_cols:
                raise IndexError(
                    f"column index {attrs.max_attr()} out of range "
                    f"0..{self.n_cols - 1}"
                )
            return attrs.indices()
        if isinstance(attrs, (int, np.integer, str)):
            attrs = [attrs]
        return tuple(sorted(self.col_index(a) for a in attrs))

    def attr_names(self, attrs: Iterable[int]) -> Tuple[str, ...]:
        """Map column indices back to names (sorted by index)."""
        return tuple(self.columns[j] for j in sorted(attrs))

    def column_values(self, attr: AttrSpec) -> list:
        """Decoded values of one column, in row order."""
        j = self.col_index(attr)
        domain = self.domains[j]
        col = self.codes[:, j]
        if domain is None:
            return [int(v) for v in col]
        return [domain[v] for v in col]

    # ------------------------------------------------------------------ #
    # Grouping primitives
    # ------------------------------------------------------------------ #

    @property
    def kernels(self):
        """The counts-first grouping dispatcher for this relation.

        A lazily built :class:`repro.kernels.GroupCounter` over the code
        matrix and radix bounds.  It answers counts/ids/entropy queries by
        composing mixed-radix keys with smallest-sufficient dtypes and
        dispatching to a bincount or sort kernel — both bit-identical;
        see :mod:`repro.kernels.dispatch` for the selection rules, and
        for the packed table that answers counts over the distinct
        tuples when rows repeat.
        Shared by :meth:`group_ids`,
        :meth:`group_sizes`, :meth:`distinct_count` and the entropy
        engines, so its ``stats`` counters aggregate every grouping this
        relation served.
        """
        if self._kernel is None:
            from repro.kernels import GroupCounter

            self._kernel = GroupCounter(self.codes, self._radix)
        return self._kernel

    def group_ids(self, attrs: AttrSetSpec) -> Tuple[np.ndarray, int]:
        """Group rows by a set of attributes.

        Returns ``(ids, n_groups)`` where ``ids[t]`` is a dense group id in
        ``0..n_groups-1`` shared by all rows agreeing on ``attrs``.  Group ids
        follow the lexicographic order of the code vectors.

        Evaluation is delegated to :attr:`kernels`: mixed-radix key
        composition (pairwise, with overflow-safe eager re-densification)
        followed by a dispatched densify — an O(n + K) bincount rank when
        the key bound ``K`` is within :func:`repro.kernels.bincount_limit`
        of the row count, the legacy ``np.unique`` sort otherwise.  Both
        yield the identical dense ids (the rank of each key in ascending
        key order).
        """
        idx = self.col_indices(attrs)
        return self.kernels.ids(idx)

    def group_sizes(self, attrs: AttrSetSpec) -> np.ndarray:
        """Sizes of the groups of rows agreeing on ``attrs``.

        Counts-first: equals ``np.bincount(group_ids(attrs))`` but is
        answered by the dispatched counting kernel without materializing
        the ids (counts in ascending key order == dense-id order).
        """
        idx = self.col_indices(attrs)
        return self.kernels.counts(idx)

    def distinct_count(self, attrs: AttrSetSpec) -> int:
        """Number of distinct tuples in the projection onto ``attrs``."""
        idx = self.col_indices(attrs)
        return len(self.kernels.counts(idx))

    # ------------------------------------------------------------------ #
    # Relational operations
    # ------------------------------------------------------------------ #

    def project(self, attrs: AttrSetSpec, dedup: bool = True) -> "Relation":
        """Project onto ``attrs``; deduplicates by default (set semantics).

        This is ``R[Y]`` in the paper.  Column order in the result follows
        the column order of ``self`` (i.e. sorted indices).  Deduplicated
        rows come in lexicographic order, one per group of
        :meth:`group_ids` — a row-wise ``np.unique``'s rows and order,
        without sorting rows.
        """
        idx = self.col_indices(attrs)
        sub = self.codes[:, idx]
        if dedup:
            sub = sub[representatives(*self.kernels.ids(idx))]
        return Relation(
            sub,
            [self.columns[j] for j in idx],
            [self.domains[j] for j in idx],
            name=self.name,
        )

    def distinct(self) -> "Relation":
        """Deduplicate rows (set semantics)."""
        return self.project(range(self.n_cols), dedup=True)

    def take_rows(self, row_indices: Sequence[int]) -> "Relation":
        """Select a subset of rows (used by scalability experiments).

        Decode tables are preserved; codes may become non-dense, which only
        makes the per-column radix used by :meth:`group_ids` slightly loose.
        """
        sel = np.asarray(row_indices, dtype=np.int64)
        return Relation(self.codes[sel], self.columns, self.domains, name=self.name)

    def head(self, k: int) -> "Relation":
        """First ``k`` rows."""
        return self.take_rows(range(min(k, self.n_rows)))

    def sample_rows(self, k: int, seed: int = 0) -> "Relation":
        """Uniform row sample without replacement, deterministic in ``seed``.

        Always returns a *new* relation, never ``self`` — callers mutate or
        cache samples independently of the source (``k >= n_rows`` yields a
        full copy in row order).
        """
        if k >= self.n_rows:
            return self.take_rows(np.arange(self.n_rows, dtype=np.int64))
        rng = np.random.default_rng(seed)
        sel = rng.choice(self.n_rows, size=k, replace=False)
        sel.sort()
        return self.take_rows(sel)

    def select_columns(self, attrs: AttrSetSpec) -> "Relation":
        """Keep a subset of columns without deduplicating rows."""
        return self.project(attrs, dedup=False)

    def rename(self, mapping: Dict[str, str]) -> "Relation":
        """Rename columns according to ``mapping`` (missing names kept)."""
        new_cols = [mapping.get(c, c) for c in self.columns]
        return Relation(self.codes, new_cols, self.domains, name=self.name)

    # ------------------------------------------------------------------ #
    # Export / dunder
    # ------------------------------------------------------------------ #

    def rows(self) -> List[tuple]:
        """Decoded rows as a list of tuples.

        Decoding is vectorized per column — one ``np.take`` into an object
        array per column instead of an O(N·n) Python double loop — and the
        column-major result is zipped back into row tuples.
        """
        if self.n_rows == 0:
            return []
        if self.n_cols == 0:
            return [() for _ in range(self.n_rows)]
        decoded = []
        for j in range(self.n_cols):
            domain = self.domains[j]
            col = self.codes[:, j]
            if domain is None:
                decoded.append(col.tolist())
            else:
                table = np.empty(len(domain), dtype=object)
                for code, value in enumerate(domain):
                    table[code] = value
                decoded.append(np.take(table, col).tolist())
        return list(zip(*decoded))

    def row_set(self, attrs: Optional[AttrSetSpec] = None) -> set:
        """Set of code tuples over ``attrs`` (defaults to all columns)."""
        idx = self.col_indices(attrs) if attrs is not None else tuple(range(self.n_cols))
        return {tuple(int(v) for v in row) for row in self.codes[:, idx]}

    def __getstate__(self):
        # The kernel dispatcher holds cached composed-key arrays and the
        # hash state cannot be pickled; both are rebuilt lazily on the
        # other side.
        lazy = ("_kernel", "_fingerprint")
        return {s: getattr(self, s) for s in self.__slots__ if s not in lazy}

    def __setstate__(self, state):
        for k, v in state.items():
            setattr(self, k, v)
        self._kernel = None
        self._fingerprint = None

    def __len__(self) -> int:
        return self.n_rows

    def __eq__(self, other: object) -> bool:
        """Set-semantics equality: same columns and same set of rows."""
        if not isinstance(other, Relation):
            return NotImplemented
        if self.columns != other.columns:
            return False
        return self.row_set() == other.row_set() if self.domains == other.domains else (
            set(map(tuple, self.rows())) == set(map(tuple, other.rows()))
        )

    def __hash__(self):  # pragma: no cover - relations are not hashable
        raise TypeError("Relation objects are mutable-sized; not hashable")

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Relation{label} {self.n_rows}x{self.n_cols} cols={list(self.columns)}>"

    def pretty(self, limit: int = 10) -> str:
        """A small fixed-width rendering for examples and docs."""
        rows = self.rows()[:limit]
        header = list(self.columns)
        table = [header] + [[str(v) for v in r] for r in rows]
        widths = [max(len(row[j]) for row in table) for j in range(len(header))]
        lines = []
        for i, row in enumerate(table):
            lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)))
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        if self.n_rows > limit:
            lines.append(f"... ({self.n_rows - limit} more rows)")
        return "\n".join(lines)
