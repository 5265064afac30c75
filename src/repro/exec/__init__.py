"""Batched entropy execution subsystem.

The paper is explicit that "the most expensive operation of Maimon is the
computation of the entropy H(X)"; the miners issue that operation millions
of times with heavily overlapping attribute sets.  This package is the
execution service sitting between the mining algorithms and the entropy
engines:

* :mod:`repro.exec.plan` — request planning: dedupe and lattice-containment
  ordering (so composed key prefixes are shared);
* :mod:`repro.exec.persist` — an on-disk entropy cache keyed by a relation
  fingerprint, giving repeated CLI/bench runs a warm start;
* :mod:`repro.exec.batch` — :class:`BatchEntropyOracle`, the drop-in
  oracle tying the two together behind the standard
  :class:`~repro.entropy.oracle.EntropyOracle` interface.

Every ``H(X)`` is evaluated in-process on the oracle's engine; batches
only change the order and the caching, never the values.
"""

from repro.exec.batch import BatchEntropyOracle
from repro.exec.persist import PersistentEntropyCache, relation_fingerprint
from repro.exec.plan import ExecutionPlan, mi_entropy_sets, plan_entropy_requests

__all__ = [
    "BatchEntropyOracle",
    "PersistentEntropyCache",
    "relation_fingerprint",
    "ExecutionPlan",
    "plan_entropy_requests",
    "mi_entropy_sets",
]
