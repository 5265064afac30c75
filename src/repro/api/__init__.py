"""``repro.api`` — one declarative request contract for every front door.

The paper's pipeline (entropy oracle → MineMinSeps → full-MVD search →
ASMiner) is reachable through the library, the one-shot CLI, the HTTP
serving layer and the bench harnesses.  This package is the single typed
surface they all compile into:

* **Specs** (:mod:`repro.api.specs`) — frozen, validated dataclasses for
  the engine (:class:`EngineSpec`), the data source (:class:`DataSpec`)
  and each task (:class:`MineSpec`, :class:`SchemasSpec`,
  :class:`ProfileSpec`, :class:`DiffSpec`), with exact
  ``to_dict``/``from_dict`` round-trips and a stable JSON form.
* **Envelopes** (:mod:`repro.api.envelope`) — :class:`TaskRequest` (task
  name + specs) and :class:`TaskResult` (stamped artefact + timing +
  oracle counters + relation fingerprint).
* **Tasks** (:mod:`repro.api.tasks`) — the registry mapping task names to
  execute functions, and :func:`run`, the library front door:

      >>> from repro import api
      >>> request = api.TaskRequest(
      ...     task="schemas",
      ...     spec=api.SchemasSpec(eps=0.01, top=5),
      ...     engine=api.EngineSpec(engine="approx"),
      ...     data=api.DataSpec(csv="data.csv"),
      ... )
      >>> result = api.run(request)
      >>> result.payload["schemas"]   # == `repro schemas --json` artefact

Every artefact is stamped with the resolved spec and the relation
fingerprint (``payload["spec"]`` / ``payload["fingerprint"]``), so saved
results carry their provenance and ``repro diff`` can flag comparisons
across mismatched specs.
"""

from repro.api.envelope import (
    PROVENANCE_KEYS,
    TASK_SPECS,
    TaskRequest,
    TaskResult,
    stamp_payload,
    strip_provenance,
)
from repro.api.specs import (
    ENGINES,
    DataSpec,
    DiffSpec,
    EngineSpec,
    MineSpec,
    ProfileSpec,
    SchemasSpec,
    Spec,
    SpecError,
)
from repro.api.tasks import TASKS, TaskDef, execute_task, run, search_budget

__all__ = [
    "ENGINES",
    "PROVENANCE_KEYS",
    "TASKS",
    "TASK_SPECS",
    "DataSpec",
    "DiffSpec",
    "EngineSpec",
    "MineSpec",
    "ProfileSpec",
    "SchemasSpec",
    "Spec",
    "SpecError",
    "TaskDef",
    "TaskRequest",
    "TaskResult",
    "execute_task",
    "run",
    "search_budget",
    "stamp_payload",
    "strip_provenance",
]
