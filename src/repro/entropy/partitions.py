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
from repro.kernels import grouping_order, key_counts

#: Largest mixed-radix key product :class:`EvolvingPartition` will track;
#: the same int64-overflow bound :meth:`Relation.group_ids` re-densifies at.
DENSE_RADIX_BOUND = 2**62


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
        """Partition of ``relation`` induced by the attribute set ``attrs``."""
        ids, n_groups = relation.group_ids(attrs)
        return cls.from_group_ids(ids, n_groups, relation.n_rows)

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
            n = self.n_rows
            if n == 0:
                self._entropy = 0.0
            else:
                sizes = self.cluster_sizes().astype(np.float64)
                s = float(np.dot(sizes, np.log2(sizes))) if len(sizes) else 0.0
                # Clamp tiny negative float residue (H is mathematically >= 0).
                self._entropy = max(0.0, math.log2(n) - s / n)
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
    entropy of Eq. (5) from the counts.

    Appending ``k`` rows costs ``O(k log G + G)`` numpy work (``G`` =
    number of groups): one key combination, one ``searchsorted`` probe,
    and a sorted merge for unseen keys.  The ``N`` retained rows are never
    touched.  Two situations force a full rebuild (the *exact-agreement
    fallback*): a column's cardinality jumping past the dense-radix bound
    captured at build time (a new dictionary code would collide in or
    overflow the key space), handled by :meth:`append_block` returning
    ``False``; and a key-space product beyond ``DENSE_RADIX_BOUND``, in
    which case :meth:`build` refuses to track the set at all.

    Float determinism: counts are kept in ascending key order, which is
    the same order :meth:`Relation.group_ids` yields dense group ids in,
    so the entropy summation runs over the identical sizes sequence as a
    from-scratch :class:`StrippedPartition` — the incremental path is not
    just within tolerance but bit-identical.
    """

    __slots__ = ("idx", "radix", "keys", "counts", "n_rows", "_entropy")

    def __init__(
        self,
        idx: Tuple[int, ...],
        radix: Tuple[int, ...],
        keys: np.ndarray,
        counts: np.ndarray,
        n_rows: int,
    ):
        self.idx = idx
        self.radix = radix
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
        product = 1
        for r in radix:
            if product > DENSE_RADIX_BOUND // r:
                return None
            product *= r
        n = relation.n_rows
        if not idx or n == 0:
            keys = np.zeros(min(1, n), dtype=np.int64)
            counts = np.full(min(1, n), n, dtype=np.int64)
            return cls(idx, radix, keys, counts, n)
        all_keys = combine_codes(relation.codes, idx, radix)
        # Kernel-dispatched counting (bincount when the radix product is
        # small, sort otherwise) — the key *values* stay raw mixed-radix,
        # which append stability depends on; only the counting is routed.
        keys, counts = key_counts(all_keys, product, n)
        return cls(idx, radix, keys, counts, n)

    def append_block(self, codes_block: np.ndarray) -> bool:
        """Absorb appended rows (full-width code block); False on fallback.

        Returns ``False`` — leaving the partition untouched — when the
        block carries a code at or past the radix bound captured at build
        time (a cardinality jump).  The caller must then rebuild from the
        full relation, which re-captures the grown radix.
        """
        k = codes_block.shape[0]
        if k == 0:
            return True
        if not self.idx:
            if len(self.counts):
                self.counts = self.counts + k
            else:
                self.keys = np.zeros(1, dtype=np.int64)
                self.counts = np.array([k], dtype=np.int64)
            self.n_rows += k
            self._entropy = None
            return True
        for pos, j in enumerate(self.idx):
            if int(codes_block[:, j].max()) >= self.radix[pos]:
                return False
        new_keys = combine_codes(codes_block, self.idx, self.radix)
        uniq, add = np.unique(new_keys, return_counts=True)
        pos = np.searchsorted(self.keys, uniq)
        in_range = pos < len(self.keys)
        found = np.zeros(len(uniq), dtype=bool)
        found[in_range] = self.keys[pos[in_range]] == uniq[in_range]
        self.counts[pos[found]] += add[found]
        if not found.all():
            missing = ~found
            self.keys = np.insert(self.keys, pos[missing], uniq[missing])
            self.counts = np.insert(self.counts, pos[missing], add[missing])
        self.n_rows += k
        self._entropy = None
        return True

    @property
    def n_groups(self) -> int:
        return len(self.keys)

    def entropy(self) -> float:
        """Empirical entropy in bits (Eq. 5), recomputed from the counts.

        Same formula, filter, summation order and clamp as
        :meth:`StrippedPartition.entropy`, so values agree bit-for-bit
        with the engines' from-scratch computation.
        """
        if self._entropy is None:
            n = self.n_rows
            if n == 0:
                self._entropy = 0.0
            else:
                sizes = self.counts[self.counts >= 2].astype(np.float64)
                s = float(np.dot(sizes, np.log2(sizes))) if len(sizes) else 0.0
                self._entropy = max(0.0, math.log2(n) - s / n)
        return self._entropy

    def __repr__(self) -> str:
        return (
            f"<EvolvingPartition attrs={list(self.idx)} groups={self.n_groups} "
            f"N={self.n_rows} H={self.entropy():.4f}>"
        )
