"""Batched + parallel entropy execution subsystem.

The paper is explicit that "the most expensive operation of Maimon is the
computation of the entropy H(X)"; the miners issue that operation millions
of times with heavily overlapping attribute sets.  This package is the
execution service sitting between the mining algorithms and the entropy
engines:

* :mod:`repro.exec.plan` — request planning: dedupe, lattice-containment
  ordering (so composed key prefixes are shared), cost-balanced sharding;
* :mod:`repro.exec.pool` — a process-pool evaluator shipping the relation
  codes once per worker and running worker-local exact engines;
* :mod:`repro.exec.persist` — an on-disk entropy cache keyed by a relation
  fingerprint, giving repeated CLI/bench runs a warm start;
* :mod:`repro.exec.batch` — :class:`BatchEntropyOracle`, the drop-in
  oracle tying the three together behind the standard
  :class:`~repro.entropy.oracle.EntropyOracle` interface.

The hot paths (``mine_min_seps`` gates, the pairwise-consistency loop of
``getFullMVDs``, ASMiner's J-measure scoring, TANE's level batches) hand
whole batches to the oracle; with ``workers <= 1`` everything stays serial
and bit-identical to the seed implementation, so the executor seam costs
nothing when unused.  Future sharding / async / multi-backend work plugs
into the same seam.
"""

from repro.exec.batch import BatchEntropyOracle
from repro.exec.persist import PersistentEntropyCache, relation_fingerprint
from repro.exec.plan import ExecutionPlan, mi_entropy_sets, plan_entropy_requests, shard
from repro.exec.pool import ParallelEvaluator

__all__ = [
    "BatchEntropyOracle",
    "PersistentEntropyCache",
    "relation_fingerprint",
    "ExecutionPlan",
    "plan_entropy_requests",
    "mi_entropy_sets",
    "shard",
    "ParallelEvaluator",
]
