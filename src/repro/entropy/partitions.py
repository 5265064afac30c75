"""Stripped partitions: the in-memory analogue of the paper's CNT/TID tables.

Section 6.3 of the paper computes entropies by maintaining, for each attribute
set ``alpha``, two SQL tables:

* ``CNT_alpha(val, cnt)`` — one row per *non-singleton* value of ``alpha``
  with its frequency, and
* ``TID_alpha(val, tid)`` — the tuple ids carrying each such value,

and combines ``alpha`` with ``beta`` through a main-memory join on ``tid``
followed by a ``GROUP BY`` with ``HAVING count(*) > 1``.

That pair of tables is precisely a *stripped partition* (also called a
stripped Position List Index, PLI) as used by TANE and Pyro: the partition of
tuple ids induced by "agree on alpha", with all singleton equivalence classes
removed.  A partition is stored as a flat ``tids`` array plus cluster
``offsets`` (CSR-style), keeping only clusters of size >= 2.

Entropy falls out of the counts alone (Eq. 5): singleton clusters contribute
``0`` because ``1 * log(1) = 0``, which is why stripping is lossless for
entropy computation — the observation the paper's technique rests on.  The
exact entropy engine therefore never builds partitions
(:mod:`repro.entropy.plicache` counts straight from the code matrix); the
delta tracker (:mod:`repro.delta.tracker`) uses them, and the paper's SQL
join over them is rendered literally by :mod:`repro.entropy.sqlengine`.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.relation import Relation
from repro.kernels import entropy_from_counts, grouping_order, key_counts

#: Largest mixed-radix key product :class:`EvolvingPartition` will track;
#: the same int64-overflow bound :meth:`Relation.group_ids` re-densifies at.
DENSE_RADIX_BOUND = 2**62
INT64_MAX = int(np.iinfo(np.int64).max)
#: The ``bounds`` entry of a column outside a set: no code reaches it.
NO_BOUND = INT64_MAX
#: New keys :class:`EvolvingBatch` holds at once (``rows x sets``); a
#: larger append is merged in row chunks, keeping its working set near
#: that of one set's per-set append.
APPEND_KEYS = 1 << 20


class StrippedPartition:
    """A singleton-stripped partition of tuple ids.

    Attributes
    ----------
    tids:
        int64 array of tuple ids, cluster by cluster.
    offsets:
        int64 array of cluster boundaries; cluster ``i`` is
        ``tids[offsets[i]:offsets[i+1]]``.  Every cluster has size >= 2.
    n_rows:
        Total number of tuples ``N`` in the underlying relation (needed to
        turn counts into probabilities).
    """

    __slots__ = ("tids", "offsets", "n_rows", "_entropy")

    def __init__(self, tids: np.ndarray, offsets: np.ndarray, n_rows: int):
        self.tids = np.ascontiguousarray(tids, dtype=np.int64)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.n_rows = int(n_rows)
        self._entropy: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_group_ids(cls, ids: np.ndarray, n_groups: int, n_rows: int) -> "StrippedPartition":
        """Build from dense group ids (``ids[t]`` in ``0..n_groups-1``).

        The grouping permutation is a counting sort
        (:func:`repro.kernels.grouping_order`): the group counts are
        already in hand, so rows can be placed into cluster slots in
        ``O(n + K)`` instead of the comparison ``argsort`` — with the
        identical stable (group id, row index) order, so ``tids`` and
        ``offsets`` match the legacy build element-for-element.
        """
        if len(ids) == 0:
            return cls(np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64), n_rows)
        counts = np.bincount(ids, minlength=n_groups)
        order = grouping_order(ids, counts)
        sorted_ids = ids[order]
        # Sorting groups tuple ids by cluster (ascending cluster id), so the
        # kept clusters stay contiguous after masking out singletons.
        keep_positions = counts[sorted_ids] >= 2
        tids = order[keep_positions]
        sizes = counts[counts >= 2]
        offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        return cls(tids, offsets, n_rows)

    @classmethod
    def from_relation(cls, relation: Relation, attrs: Iterable[int]) -> "StrippedPartition":
        """Partition of ``relation`` induced by the attribute set ``attrs``.

        ``H(∅)`` is exactly 0, as :meth:`GroupCounter.entropy` returns it;
        Eq. (5) over the one all-rows cluster would leave float residue.
        """
        idx = relation.col_indices(attrs)
        ids, n_groups = relation.group_ids(idx)
        part = cls.from_group_ids(ids, n_groups, relation.n_rows)
        if not idx:
            part._entropy = 0.0
        return part

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def n_clusters(self) -> int:
        """Number of non-singleton clusters (rows of ``CNT_alpha``)."""
        return len(self.offsets) - 1

    @property
    def size(self) -> int:
        """Total tuple ids stored (rows of ``TID_alpha``)."""
        return int(self.offsets[-1])

    def cluster(self, i: int) -> np.ndarray:
        """Tuple ids of cluster ``i``."""
        return self.tids[self.offsets[i] : self.offsets[i + 1]]

    def cluster_sizes(self) -> np.ndarray:
        """Sizes of all stored clusters (the ``cnt`` column)."""
        return np.diff(self.offsets)

    def clusters(self) -> List[np.ndarray]:
        """All clusters as arrays (convenience, mostly for tests)."""
        return [self.cluster(i) for i in range(self.n_clusters)]

    def n_singletons(self) -> int:
        """Number of rows living in stripped (singleton) clusters."""
        return self.n_rows - self.size

    # ------------------------------------------------------------------ #
    # Entropy
    # ------------------------------------------------------------------ #

    def entropy(self) -> float:
        """Empirical entropy ``H`` of the grouping, in bits (Eq. 5).

        ``H(X) = log N - (1/N) * sum_c |c| log |c|`` where the sum runs over
        non-singleton clusters only (singletons contribute 0).
        """
        if self._entropy is None:
            self._entropy = entropy_from_counts(self.cluster_sizes(), self.n_rows)
        return self._entropy

    def __repr__(self) -> str:
        return (
            f"<StrippedPartition clusters={self.n_clusters} size={self.size} "
            f"N={self.n_rows} H={self.entropy():.4f}>"
        )


def combine_codes(
    codes: np.ndarray, idx: Sequence[int], radix: Sequence[int]
) -> np.ndarray:
    """Mixed-radix combination of code columns into one int64 key per row.

    The key order is lexicographic in the code vectors (earlier indices
    most significant) — crucially, *independent of the radix values* as
    long as every code stays below its radix, which is what lets
    :class:`EvolvingPartition` keep keys stable across appends.  The
    caller guarantees the radix product fits in int64.

    Copy-free: a single column comes back as a view of ``codes``, and
    the multi-column case allocates exactly one output array on the
    first extension step (the legacy implementation started with an
    unconditional ``astype(int64, copy=True)``).  Callers must not
    mutate the single-column result.  Keys stay raw int64 mixed-radix
    values — never densified, never narrowed — because
    :class:`EvolvingPartition`'s append stability depends on key values
    being reproducible across appends.
    """
    keys = codes[:, idx[0]]
    if len(idx) == 1:
        return keys
    out = np.multiply(keys, radix[1])
    np.add(out, codes[:, idx[1]], out=out)
    for pos in range(2, len(idx)):
        out *= radix[pos]
        out += codes[:, idx[pos]]
    return out


class EvolvingPartition:
    """Delta-maintainable grouping state for one attribute set.

    A :class:`StrippedPartition` alone cannot absorb appended rows: the
    stripped singletons carry no value information, so matching a new row
    against them needs a full regroup.  This class keeps exactly the extra
    state that makes appends cheap — the sorted array of distinct
    mixed-radix group keys plus their multiplicities — and maintains the
    entropy of Eq. (5) from the counts.  Appends go through
    :class:`EvolvingBatch`, which patches every tracked set of a relation
    in one pass; the ``N`` retained rows are never touched.

    Two situations force a full rebuild (the *exact-agreement fallback*):
    a column's cardinality jumping past the radix bound captured at build
    time (a new dictionary code would collide in or overflow the key
    space), which :meth:`EvolvingBatch.append_block` reports instead of
    patching; and a key-space product beyond ``DENSE_RADIX_BOUND``, in
    which case :meth:`build` refuses to track the set at all.

    ``weights`` and ``bounds`` are the set's rows of the batched pass, one
    entry per relation column: the mixed-radix weight of each member
    column (0 elsewhere), so ``codes @ weights`` is :func:`combine_codes`;
    and the captured radix of each member column (``NO_BOUND`` elsewhere),
    the cardinality-jump test.

    Float determinism: counts are kept in ascending key order, which is
    the same order :meth:`Relation.group_ids` yields dense group ids in,
    so the entropy summation runs over the identical sizes sequence as a
    from-scratch :class:`StrippedPartition` — the incremental path is not
    just within tolerance but bit-identical.
    """

    __slots__ = ("idx", "radix", "weights", "bounds", "keys", "counts", "n_rows", "_entropy")

    def __init__(
        self,
        idx: Tuple[int, ...],
        radix: Tuple[int, ...],
        weights: np.ndarray,
        bounds: np.ndarray,
        keys: np.ndarray,
        counts: np.ndarray,
        n_rows: int,
    ):
        self.idx = idx
        self.radix = radix
        self.weights = weights
        self.bounds = bounds
        self.keys = keys
        self.counts = counts
        self.n_rows = int(n_rows)
        self._entropy: Optional[float] = None

    @classmethod
    def build(
        cls, relation: Relation, attrs: Iterable[int]
    ) -> Optional["EvolvingPartition"]:
        """Group ``relation`` by ``attrs``; ``None`` if untrackable.

        Untrackable means the product of the per-column radix bounds
        exceeds :data:`DENSE_RADIX_BOUND` — stable int64 keys are then
        impossible and callers must fall back to full recomputation.
        """
        idx = tuple(relation.col_indices(attrs))
        radix = tuple(max(relation.radix[j], 1) for j in idx)
        weights = np.zeros(relation.n_cols, dtype=np.int64)
        bounds = np.full(relation.n_cols, NO_BOUND, dtype=np.int64)
        product = 1
        for j, r in zip(reversed(idx), reversed(radix)):
            if product > DENSE_RADIX_BOUND // r:
                return None
            weights[j] = product
            bounds[j] = r
            product *= r
        n = relation.n_rows
        if not idx or n == 0:
            keys = np.zeros(min(1, n), dtype=np.int64)
            counts = np.full(min(1, n), n, dtype=np.int64)
            return cls(idx, radix, weights, bounds, keys, counts, n)
        all_keys = combine_codes(relation.codes, idx, radix)
        # Kernel-dispatched counting (bincount when the radix product is
        # small, sort otherwise) — the key *values* stay raw mixed-radix,
        # which append stability depends on; only the counting is routed.
        keys, counts = key_counts(all_keys, product, n)
        return cls(idx, radix, weights, bounds, keys, counts, n)

    @property
    def n_groups(self) -> int:
        return len(self.keys)

    def entropy(self) -> float:
        """Empirical entropy in bits (Eq. 5), recomputed from the counts.

        :func:`~repro.kernels.entropy_from_counts`, so values agree
        bit-for-bit with the engines' from-scratch computation; ``H(∅)``
        is exactly 0, as the engines return it.
        """
        if self._entropy is None:
            self._entropy = entropy_from_counts(self.counts, self.n_rows) if self.idx else 0.0
        return self._entropy

    def __repr__(self) -> str:
        return (
            f"<EvolvingPartition attrs={list(self.idx)} groups={self.n_groups} "
            f"N={self.n_rows} H={self.entropy():.4f}>"
        )


class EvolvingBatch:
    """Every tracked :class:`EvolvingPartition` of a relation, patched together.

    Stacks the sets' ``weights`` and ``bounds`` rows once, so an append
    of ``k`` rows to ``L`` sets costs a fixed number of NumPy calls over
    ``k * L`` new keys and the ``G`` retained groups, plus one ``np.dot``
    per set — not a dozen small calls per set.
    """

    __slots__ = ("parts", "weights", "bounds", "shifts", "cuts")

    def __init__(self, parts: Sequence[EvolvingPartition]):
        self.parts = list(parts)
        self.weights = np.array([p.weights for p in self.parts], dtype=np.int64)
        self.bounds = np.array([p.bounds for p in self.parts], dtype=np.int64)
        # Shifting each set's keys by the radix products of the sets before
        # it makes the concatenated keys one increasing array, searched in
        # one call.  A run of sets ends before its shifted keys would pass
        # int64; the paper's small domains keep every batch one run.
        shifts: List[int] = []
        self.cuts = [0]
        total = 0
        for pos, part in enumerate(self.parts):
            product = math.prod(part.radix)
            if total > INT64_MAX - product:
                self.cuts.append(pos)
                total = 0
            shifts.append(total)
            total += product
        self.cuts.append(len(self.parts))
        self.shifts = np.array(shifts, dtype=np.int64)

    def append_block(self, block: np.ndarray) -> Tuple[List[Optional[float]], List[int]]:
        """Absorb appended rows (full-width code block) into every set.

        Returns ``(entropies, jumped)``: each set's new entropy, in
        ``parts`` order, and the positions of the sets left untouched
        (entropy ``None``) because the block carries a code at or past
        their captured radix — the caller rebuilds those from the full
        relation.  Every other set's ``keys`` and ``counts`` become
        slices of the merged arrays.

        The pass, for ``L`` sets and ``k`` rows: one column ``max`` tests
        every set's radix; ``weights @ block.T`` gives every set's keys
        (the values of :func:`combine_codes`, below each set's radix
        product, so below 2^62); one row-wise sort and a run mask give
        each set's distinct new keys and multiplicities; one search over
        the shifted, concatenated old keys matches them; counts are added
        in place and unseen keys inserted with one ``np.insert``.  A block
        of more than ``APPEND_KEYS // L`` rows repeats these steps per row
        chunk.

        Entropies take one ``np.log2`` over every count ``>= 2`` and then
        one ``np.dot`` per set on its slice, rather than
        :func:`~repro.kernels.entropy_from_counts` per set: that would
        repeat the filter, cast and log as three more calls per set.  The
        values, summation order and clamp are the same, so the result is
        bit-identical; ``tests/test_delta.py::TestBatchedAppend`` pins it
        against the per-set path in :func:`repro.reference.append_block`.
        """
        parts = self.parts
        k = block.shape[0]
        if k == 0 or not parts:
            return [p.entropy() for p in parts], []
        jumped_rows = (self.bounds <= block.max(axis=0)).any(axis=1)
        keys = np.concatenate([p.keys for p in parts])
        counts = np.concatenate([p.counts for p in parts])
        lengths = np.array([len(p.keys) for p in parts], dtype=np.int64)
        step = max(1, APPEND_KEYS // len(parts))
        for start in range(0, k, step):
            keys, counts, lengths = self._merge(
                block[start:start + step], keys, counts, lengths, jumped_rows
            )
        offsets = np.zeros(len(parts) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])

        big = np.flatnonzero(counts >= 2)
        sizes = counts[big].astype(np.float64)
        logs = np.log2(sizes)
        size_offsets = np.searchsorted(big, offsets).tolist()
        offsets = offsets.tolist()
        entropies: List[Optional[float]] = []
        rows = zip(parts, (~jumped_rows).tolist(), offsets, offsets[1:],
                   size_offsets, size_offsets[1:])
        for part, live, lo, hi, size_lo, size_hi in rows:
            if not live:
                entropies.append(None)
                continue
            part.keys = keys[lo:hi]
            part.counts = counts[lo:hi]
            part.n_rows += k
            n = part.n_rows
            h = 0.0
            if part.idx:
                s = 0.0
                if size_hi > size_lo:
                    s = float(np.dot(sizes[size_lo:size_hi], logs[size_lo:size_hi]))
                h = max(0.0, math.log2(n) - s / n)
            part._entropy = h
            entropies.append(h)
        return entropies, np.flatnonzero(jumped_rows).tolist()

    def _merge(
        self,
        rows: np.ndarray,
        keys: np.ndarray,
        counts: np.ndarray,
        lengths: np.ndarray,
        jumped_rows: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Merge ``rows``' keys into the concatenated ``keys``/``counts``.

        Sets flagged in ``jumped_rows`` are left as they are.  Returns
        the merged keys, counts and per-set lengths; ``counts`` may be
        updated in place.
        """
        k = rows.shape[0]
        new = self.weights @ rows.T.astype(np.int64, copy=False)
        new.sort(axis=1)
        first = np.empty(new.shape, dtype=bool)
        first[:, 0] = True
        np.not_equal(new[:, 1:], new[:, :-1], out=first[:, 1:])
        starts = np.flatnonzero(first)
        uniq = new.ravel()[starts]
        add = np.empty_like(starts)
        np.subtract(starts[1:], starts[:-1], out=add[:-1])
        add[-1] = new.size - starts[-1]
        set_of = starts // k
        live = ~jumped_rows[set_of]
        if not live.all():
            uniq, add, set_of = uniq[live], add[live], set_of[live]

        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        shifted = keys + np.repeat(self.shifts, lengths)
        probes = uniq + self.shifts[set_of]
        pos = np.empty(len(uniq), dtype=np.int64)
        old_cuts = offsets[self.cuts].tolist()
        probe_cuts = np.searchsorted(set_of, self.cuts).tolist()
        for c in range(len(self.cuts) - 1):
            o0, o1 = old_cuts[c], old_cuts[c + 1]
            q0, q1 = probe_cuts[c], probe_cuts[c + 1]
            pos[q0:q1] = o0 + np.searchsorted(shifted[o0:o1], probes[q0:q1])
        in_set = pos < offsets[1:][set_of]
        found = np.zeros(len(uniq), dtype=bool)
        found[in_set] = keys[pos[in_set]] == uniq[in_set]
        counts[pos[found]] += add[found]
        if found.all():
            return keys, counts, lengths
        missing = ~found
        keys = np.insert(keys, pos[missing], uniq[missing])
        counts = np.insert(counts, pos[missing], add[missing])
        return keys, counts, lengths + np.bincount(set_of[missing], minlength=len(lengths))
