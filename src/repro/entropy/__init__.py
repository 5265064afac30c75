"""Entropy substrate.

The single most expensive operation in Maimon is computing the entropy
``H(X)`` of a set of attributes under the empirical distribution of the input
relation (Section 6.3 of the paper).  This package provides:

* :class:`~repro.entropy.partitions.StrippedPartition` — the in-memory
  analogue of the paper's CNT/TID tables (singleton-pruned position list
  indices), kept where tuple ids are consumed;
* :class:`~repro.entropy.plicache.PLICacheEngine` — the exact engine:
  every ``H(X)`` counts-first through the relation's grouping kernels
  (:mod:`repro.kernels`), no partition materialised;
* :class:`~repro.entropy.sqlengine.SQLEntropyEngine` — the literal
  Section 6.3 CNT/TID queries with the block-of-size-L scheme, the
  fidelity reference the counts engine is tested against;
* :class:`~repro.entropy.estimators.EstimatedEntropyEngine` — bias-corrected
  estimators, the sample tier of the ``approx`` engine;
* :class:`~repro.entropy.oracle.EntropyOracle` — the ``getEntropyR`` facade
  that the mining algorithms call, adding result caching, derived measures
  (conditional mutual information, J-measures) and instrumentation.
"""

from repro.entropy.partitions import EvolvingPartition, StrippedPartition
from repro.entropy.plicache import PLICacheEngine
from repro.entropy.sqlengine import SQLEntropyEngine
from repro.entropy.estimators import ESTIMATORS, EstimatedEntropyEngine
from repro.entropy.oracle import EntropyOracle, make_oracle

__all__ = [
    "EvolvingPartition",
    "StrippedPartition",
    "PLICacheEngine",
    "SQLEntropyEngine",
    "ESTIMATORS",
    "EstimatedEntropyEngine",
    "EntropyOracle",
    "make_oracle",
]
