"""Request planning for batched entropy execution.

The miners produce *lattice-shaped* workloads: within one batch the
requested attribute sets overlap heavily (shared keys, one-attribute
extensions, running unions).  The planner exploits that before any engine
sees the batch:

* **deduplication** — duplicate sets are evaluated once; the batch oracle
  still accounts one logical query per request (see
  :mod:`repro.entropy.oracle` on ``queries`` vs ``evals``).  Dedup runs on
  raw :class:`~repro.lattice.AttrSet` bitmasks (a plain-int set), the
  cheapest dedup structure CPython has;
* **containment ordering** — unique sets are ordered by size, then
  lexicographically, so subsets are evaluated before their supersets and
  neighbouring sets share long prefixes.  Two caches feed off this
  ordering downstream: the PLI-cache engine memoises running unions per
  block prefix, and the kernel dispatcher (:mod:`repro.kernels.dispatch`)
  keeps an LRU of composed mixed-radix prefix keys — siblings like
  ``{0,1,2}`` then ``{0,1,3}`` re-use the composed ``(0,1)`` key column
  instead of recomposing it, which is the batch-aware sharing the
  counts-first fast path banks on;
* **sharding** — for the process pool, the ordered list is cut into
  *contiguous* chunks of roughly equal estimated cost.  Contiguity keeps
  lattice-adjacent sets on the same worker, where they share that worker's
  partition cache; cost balancing keeps the pool busy until the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.lattice import AttrSet, mask_of
from repro.obs.trace import span


def containment_key(attrs) -> Tuple[int, Tuple[int, ...]]:
    """Sort key placing subsets before supersets, then lexicographic."""
    if type(attrs) is AttrSet:
        return (len(attrs), attrs.indices())
    return (len(attrs), tuple(sorted(attrs)))


@dataclass(frozen=True)
class ExecutionPlan:
    """A planned entropy batch.

    Attributes
    ----------
    logical:
        Number of requests as issued by the caller (duplicates included);
        this is what the ``queries`` counter advances by.
    unique:
        Deduplicated sets in containment order (size, then lexicographic).
    """

    logical: int
    unique: Tuple[AttrSet, ...]

    @property
    def n_unique(self) -> int:
        return len(self.unique)

    @property
    def dedup_savings(self) -> int:
        """Requests avoided by deduplication alone."""
        return self.logical - len(self.unique)


def plan_entropy_requests(requests: Iterable[Iterable[int]]) -> ExecutionPlan:
    """Normalise, dedupe and order a batch of entropy requests."""
    with span("plan"):
        logical = 0
        unique = set()
        for attrs in requests:
            logical += 1
            unique.add(attrs.mask if type(attrs) is AttrSet else mask_of(attrs))
        ordered = tuple(
            sorted(map(AttrSet.from_mask, unique), key=containment_key)
        )
        return ExecutionPlan(logical=logical, unique=ordered)


def estimated_cost(attrs) -> int:
    """Relative cost proxy for evaluating ``H(attrs)``.

    One key-composition pass per attribute beyond the first, plus a
    constant for the count; exact weights do not matter, only that bigger
    sets load a shard more.
    """
    return 1 + len(attrs)


def shard(sets: Sequence[AttrSet], n_shards: int) -> List[List[AttrSet]]:
    """Cut a containment-ordered batch into contiguous balanced shards.

    Returns at most ``n_shards`` non-empty lists whose concatenation is
    ``sets``.  Balancing is greedy on :func:`estimated_cost`: each cut is
    placed once the running cost reaches an equal share of the remainder.
    """
    n_shards = max(1, int(n_shards))
    sets = list(sets)
    if n_shards == 1 or len(sets) <= 1:
        return [sets] if sets else []
    total = sum(estimated_cost(s) for s in sets)
    shards: List[List[AttrSet]] = []
    current: List[AttrSet] = []
    spent = 0
    acc = 0
    for s in sets:
        current.append(s)
        acc += estimated_cost(s)
        remaining_shards = n_shards - len(shards)
        target = (total - spent) / remaining_shards if remaining_shards else acc
        # Close the shard once it carries its share, unless it must absorb
        # the tail (fewer remaining sets than remaining shards is fine).
        if acc >= target and len(shards) < n_shards - 1:
            shards.append(current)
            spent += acc
            current, acc = [], 0
    if current:
        shards.append(current)
    return shards


def mi_entropy_sets(
    ys: Iterable[int], zs: Iterable[int], xs: Iterable[int] = ()
) -> Tuple[AttrSet, AttrSet, AttrSet, AttrSet]:
    """The four ``H`` terms of ``I(Y; Z | X)`` (Eq. 2), in formula order:
    ``H(XY), H(XZ), H(XYZ), H(X)``."""
    ym, zm, xm = mask_of(ys), mask_of(zs), mask_of(xs)
    return (
        AttrSet.from_mask(xm | ym),
        AttrSet.from_mask(xm | zm),
        AttrSet.from_mask(xm | ym | zm),
        AttrSet.from_mask(xm),
    )
