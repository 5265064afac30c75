"""The paper's Section 6.3 entropy machinery, executed as SQL-style queries.

This engine is the most literal rendering of ``getEntropyR``: it maintains
``CNT_alpha(val, cnt)`` and ``TID_alpha(val, tid)`` tables inside the
in-memory relational engine of :mod:`repro.sqlsim` and combines attribute
sets with the paper's two queries —

    -- CNT_{a∪b}
    SELECT Hash(A.val, B.val) AS val, count(*) AS cnt
    FROM TID_a A, TID_b B WHERE A.tid = B.tid
    GROUP BY Hash(A.val, B.val) HAVING count(*) > 1

    -- TID_{a∪b}
    SELECT Hash(A.val, B.val) AS val, A.tid AS tid
    FROM TID_a A, TID_b B, CNT_{a∪b} Z
    WHERE A.tid = B.tid AND Hash(A.val, B.val) = Z.val

including the block-of-size-L caching scheme.  It agrees with the
counts-first engine (:mod:`repro.entropy.plicache`) to 1e-9 at row-store
speeds.  It is not a runtime engine choice: it is the fidelity reference
``tests/test_sqlengine.py`` checks the counts engine against, and the
comparison arm of ``benchmarks/bench_ablation_entropy.py``, mirroring the
role H2 plays in the authors' implementation.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.data.relation import Relation
from repro.lattice import AttrSet, bits_of, mask_of
from repro.sqlsim.engine import Database, Table, hash_combine


def _table_suffix(mask: int) -> str:
    return "_".join(str(a) for a in bits_of(mask))


class SQLEntropyEngine:
    """CNT/TID-table entropy engine over the mini SQL substrate.

    ``block_size`` is the paper's L: attributes are split into blocks of
    at most L, and a set spanning blocks is assembled one block piece at
    a time.  Every CNT/TID table pair built stays materialised — this is
    a fidelity reference for small inputs, not a memory-bounded engine.
    """

    def __init__(self, relation: Relation, block_size: int = 10):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.relation = relation
        self.block_size = block_size
        self.db = Database()
        n = relation.n_cols
        # Bitmask of each block, for one-AND splitting of query sets.
        self.block_masks: List[int] = [
            ((1 << min(start + block_size, n)) - 1) & ~((1 << start) - 1)
            for start in range(0, n, block_size)
        ]
        #: Table-name suffix of every materialised CNT/TID pair, by mask.
        self._tables: Dict[int, str] = {}
        self._entropy_memo: Dict[int, float] = {}
        self.queries_run = 0  # combine operations executed
        for j in range(n):
            self._materialise_single(j)

    # ------------------------------------------------------------------ #
    # Public API (same contract as the other engines)
    # ------------------------------------------------------------------ #

    @property
    def blocks(self) -> List[Tuple[int, ...]]:
        """The attribute blocks as index tuples (introspection helper)."""
        return [tuple(bits_of(m)) for m in self.block_masks]

    def entropy_of(self, attrs) -> float:
        """Entropy in bits via a scan of ``CNT_attrs`` (Eq. 5)."""
        m = attrs.mask if type(attrs) is AttrSet else mask_of(attrs)
        cached = self._entropy_memo.get(m)
        if cached is not None:
            return cached
        n = self.relation.n_rows
        if n == 0 or not m:
            value = 0.0
        else:
            cnt = self.db.get(self._cnt_name(m))
            s = sum(c * math.log2(c) for c in cnt.column_values("cnt"))
            value = max(0.0, math.log2(n) - s / n)
        self._entropy_memo[m] = value
        return value

    def reset_stats(self) -> None:
        self.queries_run = 0

    def advance(self, new_relation: Relation) -> None:
        """Move to a new version of the relation.

        The CNT/TID tables are rebuilt from scratch — the SQL arm exists
        for fidelity, not speed, so it takes the simple exact route.
        """
        self.__init__(new_relation, block_size=self.block_size)

    # ------------------------------------------------------------------ #
    # Table materialisation
    # ------------------------------------------------------------------ #

    def _materialise_single(self, j: int) -> None:
        """Base CNT/TID tables for one attribute (singleton values pruned)."""
        codes = self.relation.codes[:, j]
        counts: Dict[int, int] = {}
        for v in codes:
            counts[int(v)] = counts.get(int(v), 0) + 1
        kept = {v for v, c in counts.items() if c >= 2}
        suffix = _table_suffix(1 << j)
        self.db.create(
            Table(f"CNT_{suffix}", ["val", "cnt"],
                  [(v, counts[v]) for v in sorted(kept)])
        )
        self.db.create(
            Table(
                f"TID_{suffix}",
                ["val", "tid"],
                [(int(v), t) for t, v in enumerate(codes) if int(v) in kept],
            )
        )
        self._tables[1 << j] = suffix

    def _cnt_name(self, mask: int) -> str:
        return f"CNT_{self._ensure_tables(mask)}"

    def _tid_name(self, mask: int) -> str:
        return f"TID_{self._ensure_tables(mask)}"

    def _ensure_tables(self, mask: int) -> str:
        """Materialise (or look up) the CNT/TID pair for an attribute set."""
        if mask >> self.relation.n_cols:
            raise IndexError(
                f"attribute index {mask.bit_length() - 1} out of range "
                f"0..{self.relation.n_cols - 1}"
            )
        pieces = [mask & bm for bm in self.block_masks if mask & bm]
        # Assemble across blocks, keeping every running union so queries
        # sharing a prefix of blocks reuse its tables.
        acc_mask = pieces[0]
        suffix = self._block_suffix(acc_mask)
        for piece in pieces[1:]:
            acc_mask |= piece
            if acc_mask not in self._tables:
                self._tables[acc_mask] = self._combine(
                    suffix, self._block_suffix(piece), acc_mask
                )
            suffix = self._tables[acc_mask]
        return suffix

    def _block_suffix(self, mask: int) -> str:
        """Tables of a within-block subset (<= 2^L per block)."""
        hit = self._tables.get(mask)
        if hit is not None:
            return hit
        top = 1 << (mask.bit_length() - 1)
        rest = mask ^ top
        suffix = self._combine(
            self._block_suffix(rest),
            self._block_suffix(top),
            mask,
        )
        self._tables[mask] = suffix
        return suffix

    def _combine(self, sfx_a: str, sfx_b: str, mask: int) -> str:
        """Run the paper's two queries to build CNT/TID for a union."""
        self.queries_run += 1
        tid_a = self.db.get(f"TID_{sfx_a}")
        tid_b = self.db.get(f"TID_{sfx_b}")
        suffix = _table_suffix(mask)
        # Query 1: join TIDs on tid, group the hashed value pair, HAVING > 1.
        joined = tid_a.join(tid_b, on="tid", suffixes=("_a", "_b"))
        hashed = joined.project(
            {
                "val": lambda r: hash_combine(r["val_a"], r["val_b"]),
                "tid": lambda r: r["tid_a"],
            },
            name=f"H_{suffix}",
        )
        cnt = hashed.group_count("val", having_min=2, name=f"CNT_{suffix}")
        # Query 2: keep only tids whose hashed value survived the HAVING.
        tid = hashed.semijoin(cnt, on="val", name=f"TID_{suffix}")
        self.db.create_or_replace(cnt)
        self.db.create_or_replace(tid)
        return suffix
