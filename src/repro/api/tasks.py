"""The task registry: one executable definition per mining task.

Each task is a named pairing of a spec class and an ``execute`` function
that runs the spec against a warm :class:`~repro.core.maimon.Maimon` and
returns the artefact payload (built by the :mod:`repro.io` builders) plus
the in-memory result object.  Both the one-shot runner (:func:`run`) and
the serving layer (:mod:`repro.serve.service`) call :func:`execute_task`,
so a served response and a CLI ``--json`` artefact are the same bytes by
construction — they are literally the same code path from spec to payload.

``budget`` threading: every execute function accepts an optional
:class:`~repro.core.budget.SearchBudget`.  When the caller supplies one
(the serving layer's deadline/cancellation-aware ``RequestBudget``), it
wins; otherwise the spec's own ``budget`` seconds are compiled into a
fresh ``SearchBudget`` (``None`` = unlimited, ``0`` = no time at all).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Type

from repro import io as repro_io
from repro.api.envelope import TASK_SPECS, TaskRequest, TaskResult, stamp_payload
from repro.api.specs import (
    EngineSpec,
    MineSpec,
    ProfileSpec,
    SchemasSpec,
    Spec,
    SpecError,
)
from repro.core.budget import SearchBudget
from repro.obs.trace import span, start_trace


def _locked(lock: Any) -> Any:
    """The caller's mutex, or a no-op context for single-owner callers."""
    return lock if lock is not None else nullcontext()


def search_budget(seconds: Optional[float]) -> Optional[SearchBudget]:
    """Compile spec budget seconds into a budget object.

    ``None`` means unlimited (no budget object at all); an explicit ``0``
    means zero time — the budget machinery then returns empty truncated
    results, mirroring ``--budget 0``.
    """
    return SearchBudget(max_seconds=seconds) if seconds is not None else None


def _effective_budget(spec: Any,
                      budget: Optional[SearchBudget]) -> Optional[SearchBudget]:
    return budget if budget is not None else search_budget(spec.budget)


# --------------------------------------------------------------------- #
# Execute functions: (maimon, spec, engine, budget) -> (payload, raw)
# --------------------------------------------------------------------- #

def _execute_mine(maimon: Any, spec: MineSpec, engine: EngineSpec,
                  budget: Optional[SearchBudget] = None,
                  lock: Any = None) -> Tuple[Dict[str, Any], object]:
    # Only the oracle work runs under a shared session's lock; payload
    # serialisation happens after release so concurrent requests queue on
    # mining time, not on dict building.
    with _locked(lock):
        with span("mine"):
            result = maimon.mine_mvds(
                spec.eps, budget=_effective_budget(spec, budget)
            )
    with span("serialize"):
        payload = repro_io.miner_result_to_dict(result, maimon.relation.columns)
    return payload, result


def _execute_schemas(maimon: Any, spec: SchemasSpec, engine: EngineSpec,
                     budget: Optional[SearchBudget] = None,
                     lock: Any = None) -> Tuple[Dict[str, Any], object]:
    from repro.core.ranking import rank_schemas

    with _locked(lock):
        with span("schemas"):
            ranked = rank_schemas(
                maimon,
                spec.eps,
                k=spec.top,
                objective=spec.objective,
                schema_budget=_effective_budget(spec, budget),
                with_spurious=spec.spurious,
            )
    with span("serialize"):
        payload = repro_io.schemas_payload(
            spec.eps, ranked, maimon.relation.columns
        )
    return payload, ranked


def _execute_profile(maimon: Any, spec: ProfileSpec, engine: EngineSpec,
                     budget: Optional[SearchBudget] = None,
                     lock: Any = None) -> Tuple[Dict[str, Any], object]:
    # Profiling interleaves oracle queries with payload building, so the
    # whole call stays under the lock (as the serving layer always did).
    with _locked(lock), span("profile"):
        payload = repro_io.profile_to_dict(
            maimon.relation,
            maimon.oracle,
            fd_lhs=spec.fd_lhs,
            budget=_effective_budget(spec, budget),
        )
    return payload, payload


@dataclass(frozen=True)
class TaskDef:
    """One registered task: its name, spec class and execute function."""

    name: str
    spec_cls: Type[Spec]
    execute: Callable[..., Tuple[Dict[str, Any], object]]


#: The system-wide task registry; transports dispatch on these names.
#: Spec classes come from the one task->spec mapping (``TASK_SPECS``) so
#: the two registries cannot drift.
_EXECUTORS: Tuple[
    Tuple[str, Callable[..., Tuple[Dict[str, Any], object]]], ...
] = (
    ("mine", _execute_mine),
    ("schemas", _execute_schemas),
    ("profile", _execute_profile),
)

TASKS: Dict[str, TaskDef] = {
    name: TaskDef(name, TASK_SPECS[name], fn) for name, fn in _EXECUTORS
}
assert set(TASKS) == set(TASK_SPECS), "task registries out of sync"


def execute_task(task: str, maimon: Any, spec: Spec,
                 engine: Optional[EngineSpec] = None,
                 budget: Optional[SearchBudget] = None,
                 lock: Any = None) -> Tuple[Dict[str, Any], object]:
    """Run one task against an existing (possibly warm) ``Maimon``.

    Returns ``(payload, raw)`` — the unstamped artefact dict and the
    in-memory result.  Callers that own provenance (the runner, the
    serving layer) stamp the payload themselves with the ids they key
    the relation by.  ``lock`` is for shared holders (warm serving
    sessions): the oracle-touching work runs inside it, while payload
    serialisation happens outside wherever the task allows.

    When the engine spec asks for tracing, the whole execution runs
    under a fresh request trace and the finished span tree is embedded
    as ``payload["trace"]`` — the same block whichever transport called
    (the CLI pretty-prints it, serve returns it in the job result).
    With tracing off this path adds nothing to the payload, keeping
    trace-less artefacts byte-identical to pre-trace output.
    """
    try:
        definition = TASKS[task]
    except KeyError:
        known = ", ".join(sorted(TASKS))
        raise SpecError(f"unknown task {task!r}; known: {known}",
                        field="task") from None
    if type(spec) is not definition.spec_cls:
        raise SpecError(
            f"task {task!r} takes a {definition.spec_cls.__name__}, "
            f"got {type(spec).__name__}", field="spec",
        )
    resolved = engine if engine is not None else EngineSpec()
    if not resolved.trace:
        return definition.execute(maimon, spec, resolved, budget, lock=lock)
    with start_trace(task) as trace:
        payload, raw = definition.execute(
            maimon, spec, resolved, budget, lock=lock
        )
    payload["trace"] = trace.to_dict()
    return payload, raw


def run(request: TaskRequest, relation: Any = None) -> TaskResult:
    """Execute one declarative request end to end (the library front door).

    Validates the request, resolves the relation (from ``request.data``
    unless one is passed in), builds a ``Maimon`` from the engine spec,
    executes the task and returns a :class:`TaskResult` whose payload is
    stamped with the resolved spec and the relation fingerprint — the
    exact artefact ``--json`` writes and ``repro serve`` returns for the
    same spec.
    """
    from repro.exec.persist import relation_fingerprint

    request.validate()
    if relation is None:
        if request.data is None:
            raise SpecError(
                "request carries no data spec; pass a relation explicitly "
                "or set request.data", field="data",
            )
        relation = request.data.load()
    maimon = request.engine.make_maimon(relation)
    started = time.perf_counter()
    try:
        payload, raw = execute_task(
            request.task, maimon, request.spec, engine=request.engine
        )
        counters = maimon.counters()
    finally:
        maimon.close()
    elapsed = time.perf_counter() - started
    fingerprint = relation_fingerprint(relation)
    stamp_payload(payload, request, fingerprint)
    return TaskResult(
        task=request.task,
        request=request,
        fingerprint=fingerprint,
        payload=payload,
        elapsed_s=elapsed,
        counters=counters,
        raw=raw,
    )
