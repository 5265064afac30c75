"""``repro.delta`` — incremental dataset evolution.

The paper mines a *static* relation; real datasets keep arriving.  This
package turns "rows were appended" from a cold restart into a warm-path
operation, end to end:

* :mod:`~repro.delta.builder` — append-aware relation construction:
  :func:`append_rows` / :class:`RelationBuilder` extend the dictionary
  encoding in place-of-rebuild and emit a :class:`Delta` record whose
  digest chains version fingerprints (:func:`chained_fingerprint`) in
  ``O(k)``;
* :mod:`~repro.delta.tracker` — :class:`DeltaTracker` maintains an
  :class:`~repro.entropy.partitions.EvolvingPartition` per memoised
  attribute set, so an append *patches* every cached entropy instead of
  invalidating it: one batched pass over the appended block for all
  tracked sets, a fixed number of NumPy calls plus one ``np.dot`` per
  set (with an exact-agreement fallback when a column's cardinality
  jumps past the dense-radix bound);
* :mod:`~repro.delta.diffing` — result diffing (`diff_payloads` and
  friends): what the new rows added, dropped and score-shifted among the
  mined MVDs / minimal separators / schemas, shared by the serving
  layer's append endpoint and the ``repro diff`` CLI.

The consumer-facing entry points are
:meth:`repro.core.maimon.Maimon.append_rows` (warm in-process evolution)
and the serving layer's ``POST /datasets/<id>/rows`` (warm evolution plus
re-mine plus diff over HTTP).
"""

from repro.delta.builder import (
    Delta,
    RelationBuilder,
    append_rows,
    chained_fingerprint,
)
from repro.delta.diffing import (
    diff_miner_results,
    diff_payloads,
    diff_schemas_payloads,
    format_provenance_mismatch,
    provenance_mismatch,
    summarize_diff,
)
from repro.delta.tracker import DeltaTracker

__all__ = [
    "Delta",
    "DeltaTracker",
    "RelationBuilder",
    "append_rows",
    "chained_fingerprint",
    "diff_miner_results",
    "diff_payloads",
    "diff_schemas_payloads",
    "format_provenance_mismatch",
    "provenance_mismatch",
    "summarize_diff",
]
