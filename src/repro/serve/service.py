"""The mining service: request validation, session routing, job execution.

``MiningService`` is the transport-independent core of :mod:`repro.serve`
— the HTTP layer (:mod:`repro.serve.server`) is a thin JSON shim over it,
and tests drive it directly.  Per request it

1. resolves the dataset (a registered fingerprint, an inline CSV/rows
   payload, or a built-in surrogate name),
2. parses the JSON body into the system-wide typed request
   (:class:`repro.api.TaskRequest` — the same specs the CLI compiles its
   flags into; invalid specs become structured 400s with
   ``code: "invalid_spec"``),
3. leases the warm session for ``(dataset, engine spec)`` from the
   session cache,
4. executes through the shared task registry
   (:func:`repro.api.execute_task`) on the job pool under the session
   lock, with a :class:`~repro.serve.jobs.RequestBudget` enforcing the
   per-request deadline (the request's own ``budget`` capped by the
   server-wide ``max_request_seconds``) and cooperative cancellation,
5. stamps the artefact with the resolved spec + dataset fingerprint —
   served payloads are byte-identical to CLI ``--json`` artefacts for
   the same spec, because they are the same code path.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

from repro import io as repro_io
from repro.api import (
    TASK_SPECS,
    EngineSpec,
    SpecError,
    TaskRequest,
    execute_task,
    stamp_payload,
)
from repro.api.specs import _float_or_error, _int_or_error, _str_or_error
from repro.obs.logs import JsonLogger
from repro.obs.registry import MetricsRegistry
from repro.serve.jobs import Job, JobFinishedError, JobManager
from repro.serve.registry import DatasetRegistry
from repro.serve.session import SessionCache

#: Default cap on any single request's mining budget, seconds.
DEFAULT_MAX_REQUEST_SECONDS = 300.0


class ServiceError(Exception):
    """A client-visible request error with an HTTP-ish status code.

    ``extra`` keys are merged into the JSON error envelope next to
    ``error``, so callers can react structurally (e.g. ``code``,
    ``job_id``, ``job_status``) instead of parsing the message.
    """

    def __init__(self, message: str, status: int = 400, **extra):
        super().__init__(message)
        self.status = status
        self.extra = extra


class MiningService:
    """Long-lived mining state plus the request handlers built on it.

    Parameters
    ----------
    max_sessions, max_datasets:
        LRU capacities of the warm-session and dataset stores.
    job_workers:
        Concurrent mining jobs (requests beyond this queue FIFO).
    max_request_seconds:
        Hard per-request deadline; request budgets are clamped to it
        (``None`` disables the cap).
    defaults:
        The server's default :class:`~repro.api.specs.EngineSpec`;
        requests override its fields per call.  The legacy keyword
        arguments (``engine``, ``workers``, ``persist``, ``cache_dir``)
        build one when ``defaults`` is not given.
    metrics:
        The :class:`~repro.obs.registry.MetricsRegistry` to publish on.
        Each service builds its own by default so embedded services and
        tests never bleed samples into each other; the HTTP layer serves
        it on ``GET /metrics``.
    slow_ms:
        When set, requests whose *running* time exceeds this many
        milliseconds increment ``repro_slow_requests_total`` and emit a
        ``slow_request`` warning on the structured log.
    logger:
        Optional :class:`~repro.obs.logs.JsonLogger` for one-line JSON
        request logs (request id, kind, status, queue/run times).
        ``None`` disables request logging; metrics stay on regardless.
    """

    def __init__(
        self,
        max_sessions: int = 8,
        max_datasets: int = 64,
        job_workers: int = 4,
        max_request_seconds: Optional[float] = DEFAULT_MAX_REQUEST_SECONDS,
        engine: str = "pli",
        workers: int = 1,
        persist: bool = False,
        cache_dir: Optional[str] = None,
        defaults: Optional[EngineSpec] = None,
        metrics: Optional[MetricsRegistry] = None,
        slow_ms: Optional[float] = None,
        logger: Optional[JsonLogger] = None,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.slow_ms = slow_ms
        self.logger = logger
        self._register_metrics()
        self.registry = DatasetRegistry(capacity=max_datasets)
        self.sessions = SessionCache(
            capacity=max_sessions,
            lock_wait_histogram=self._lock_wait_seconds,
        )
        self.jobs = JobManager(
            max_workers=job_workers, observer=self._job_finished
        )
        self.max_request_seconds = max_request_seconds
        if defaults is None:
            defaults = EngineSpec(
                engine=engine, workers=workers, persist=persist,
                cache_dir=cache_dir,
            )
        try:
            self.defaults = defaults.validate()
        except SpecError as exc:
            raise ServiceError(str(exc), code="invalid_spec") from None
        self.started_at = time.time()
        self._closed = False
        self.metrics.register_callback(self._sweep_metrics)

    # ------------------------------------------------------------------ #
    # Metrics / logging
    # ------------------------------------------------------------------ #

    def _register_metrics(self) -> None:
        """Declare every metric family up front.

        Families render their ``# HELP``/``# TYPE`` headers even before
        the first sample, so a scrape right after startup already shows
        the complete catalogue (the CI smoke asserts exactly that).
        """
        m = self.metrics
        self._requests_total = m.counter(
            "repro_requests_total",
            "Finished requests by task kind and terminal status.",
            labelnames=("task", "status"),
        )
        self._request_queued_seconds = m.histogram(
            "repro_request_queued_seconds",
            "Time requests spent queued for a job-pool worker.",
            labelnames=("task",),
        )
        self._request_running_seconds = m.histogram(
            "repro_request_running_seconds",
            "Time requests spent executing on a job-pool worker.",
            labelnames=("task",),
        )
        self._lock_wait_seconds = m.histogram(
            "repro_session_lock_wait_seconds",
            "Time requests waited to acquire a warm session's lock "
            "(the queueing term of multi-client latency).",
        )
        self._slow_requests_total = m.counter(
            "repro_slow_requests_total",
            "Requests whose running time exceeded the --slow-ms threshold.",
            labelnames=("task",),
        )
        self._jobs_gauge = m.gauge(
            "repro_jobs",
            "Jobs in the journal by lifecycle state.",
            labelnames=("state",),
        )
        self._jobs_queue_depth = m.gauge(
            "repro_jobs_queue_depth",
            "Jobs waiting for a free worker right now.",
        )
        self._sessions_gauge = m.gauge(
            "repro_sessions", "Warm sessions currently cached."
        )
        self._sessions_capacity = m.gauge(
            "repro_sessions_capacity", "Session cache capacity."
        )
        self._session_cache_events = m.counter(
            "repro_session_cache_events_total",
            "Session cache lookups by outcome.",
            labelnames=("event",),
        )
        self._datasets_gauge = m.gauge(
            "repro_datasets", "Datasets currently registered."
        )
        self._datasets_capacity = m.gauge(
            "repro_datasets_capacity", "Dataset registry capacity."
        )
        self._dataset_evictions = m.counter(
            "repro_dataset_evictions_total",
            "Datasets evicted from the registry (LRU).",
        )
        self._uptime_seconds = m.gauge(
            "repro_uptime_seconds", "Seconds since the service started."
        )
        self._store_bytes = m.gauge(
            "repro_store_bytes",
            "On-disk bytes of each store-backed dataset's columnar files.",
            labelnames=("dataset_id",),
        )
        self._session_counter = m.gauge(
            "repro_session_counter",
            "Per-session mining counters (the flat Maimon.counters() "
            "namespace, one time series per counter key).",
            labelnames=("dataset_id", "engine", "counter"),
        )

    def _sweep_metrics(self) -> None:
        """Scrape-time sweep: publish the subsystems' own plain-int stats.

        The mining loops never touch the registry — their counters stay
        free local ints; this callback absorbs them into gauges and
        ``set_total`` counters only when someone actually scrapes.
        """
        jobs = self.jobs.stats()
        for state in ("queued", "running", "done", "error", "cancelled"):
            self._jobs_gauge.set(jobs.get(state, 0), state=state)
        self._jobs_queue_depth.set(jobs.get("queued", 0))
        sessions = self.sessions.stats()
        self._sessions_gauge.set(sessions["sessions"])
        self._sessions_capacity.set(sessions["capacity"])
        for event in ("hits", "misses", "evictions"):
            self._session_cache_events.set_total(
                sessions[event], event=event
            )
        registry = self.registry.stats()
        self._datasets_gauge.set(registry["datasets"])
        self._datasets_capacity.set(registry["capacity"])
        self._dataset_evictions.set_total(registry["evictions"])
        self._uptime_seconds.set(round(time.time() - self.started_at, 3))
        for described in self.registry.list():
            if "store_bytes" in described:
                self._store_bytes.set(
                    described["store_bytes"],
                    dataset_id=str(described["dataset_id"]),
                )
        for entry in self.sessions.list():
            dataset_id = str(entry.get("dataset_id", ""))
            engine = str(entry.get("engine", ""))
            for key, value in entry.items():
                # The flat counter keys are the dotted ones; transport
                # fields (dataset_id, requests, age_s...) are not.
                if "." in key and isinstance(value, (int, float)):
                    self._session_counter.set(
                        value, dataset_id=dataset_id, engine=engine,
                        counter=key,
                    )

    def _job_finished(self, job: Job) -> None:
        """JobManager observer: one metrics/log update per finished job."""
        queued = job.queued_seconds()
        running = job.running_seconds()
        self._requests_total.inc(task=job.kind, status=job.status)
        self._request_queued_seconds.observe(queued, task=job.kind)
        if running is not None:
            self._request_running_seconds.observe(running, task=job.kind)
        slow = (
            self.slow_ms is not None
            and running is not None
            and running * 1000.0 > self.slow_ms
        )
        if slow:
            self._slow_requests_total.inc(task=job.kind)
        if self.logger is not None:
            fields = {
                "request_id": job.id,
                "task": job.kind,
                "status": job.status,
                "queued_ms": round(queued * 1000.0, 3),
            }
            if running is not None:
                fields["running_ms"] = round(running * 1000.0, 3)
            if job.error is not None:
                fields["error"] = job.error
            level = "warning" if job.status == "error" else "info"
            self.logger.log("request", level=level, **fields)
            if slow:
                self.logger.warning(
                    "slow_request", request_id=job.id, task=job.kind,
                    running_ms=fields.get("running_ms"),
                    slow_ms=self.slow_ms,
                )

    def metrics_text(self) -> str:
        """The Prometheus text exposition body for ``GET /metrics``."""
        return self.metrics.render()

    # ------------------------------------------------------------------ #
    # Datasets
    # ------------------------------------------------------------------ #

    def upload(self, payload: dict) -> dict:
        """Register a dataset; see :meth:`_register` for accepted shapes."""
        return self._register(payload).describe()

    def _register(self, payload: dict):
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        try:
            return self._register_validated(payload)
        except SpecError as exc:
            extra = {"field": exc.field} if exc.field else {}
            raise ServiceError(
                str(exc), code="invalid_spec", **extra
            ) from None

    def _register_validated(self, payload: dict):
        """Strictly-parsed upload shapes; raises SpecError on bad fields."""
        max_rows = _int_or_error(payload, "max_rows", None,
                                 "'max_rows' must be an integer >= 1")
        if max_rows is not None and max_rows < 1:
            raise SpecError("'max_rows' must be an integer >= 1",
                            field="max_rows")
        name = _str_or_error(payload, "name", "", "'name' must be a string")
        if "csv" in payload:
            csv_text = payload["csv"]
            if not isinstance(csv_text, str):
                raise SpecError("'csv' must be a string of CSV text",
                                field="csv")
            delimiter = _str_or_error(payload, "delimiter", ",",
                                      "'delimiter' must be a string")
            return self.registry.add_csv_text(
                csv_text, name=name, max_rows=max_rows, delimiter=delimiter,
            )
        if "rows" in payload:
            if "columns" not in payload:
                raise ServiceError("'rows' uploads require 'columns'")
            rows = payload["rows"]
            columns = payload["columns"]
            if not isinstance(rows, list):
                raise SpecError("'rows' must be a list of rows", field="rows")
            if not isinstance(columns, list):
                raise SpecError("'columns' must be a list of column names",
                                field="columns")
            return self.registry.add_rows(rows, columns, name=name)
        if "dataset" in payload:
            dataset = _str_or_error(payload, "dataset", "",
                                    "'dataset' must be a string")
            scale = _float_or_error(payload, "scale", 0.01,
                                    "'scale' must be a number > 0")
            if scale is None or scale <= 0:
                # A JSON null (or 0) would otherwise crash deep in the
                # surrogate generator as an opaque 500.
                raise SpecError("'scale' must be a number > 0", field="scale")
            try:
                return self.registry.add_builtin(
                    dataset, scale=scale, max_rows=max_rows,
                )
            except KeyError as exc:
                raise ServiceError(str(exc), status=404) from None
        if "store" in payload:
            store = _str_or_error(payload, "store", "",
                                  "'store' must be a store directory path")
            backend = _str_or_error(payload, "backend", "mmap",
                                    "'backend' must be a string")
            if backend not in ("mmap", "duckdb"):
                raise SpecError(
                    "'backend' must be 'mmap' or 'duckdb' for store uploads",
                    field="backend",
                )
            if max_rows is not None:
                raise SpecError(
                    "'max_rows' applies while parsing; a store is "
                    "pre-encoded and immutable — re-ingest a capped CSV "
                    "instead",
                    field="max_rows",
                )
            from repro.backends import StoreError
            try:
                return self.registry.add_store(store, backend=backend)
            except (StoreError, OSError) as exc:
                raise ServiceError(
                    str(exc), code="invalid_store"
                ) from None
            except RuntimeError as exc:
                # duckdb requested but not installed
                raise ServiceError(str(exc), code="invalid_store") from None
        raise ServiceError(
            "provide one of 'csv', 'rows', 'dataset' or 'store'"
        )

    def _resolve(self, payload: dict):
        """Dataset entry for a request: by id, or inline-registered."""
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        dataset_id = payload.get("dataset_id")
        if dataset_id is not None:
            try:
                return self.registry.entry(dataset_id)
            except LookupError as exc:
                raise ServiceError(str(exc), status=404) from None
        return self._register(payload)

    # ------------------------------------------------------------------ #
    # Mining requests
    # ------------------------------------------------------------------ #

    def _submit_task(self, task: str, payload: dict) -> Job:
        """The one request path every mining task flows through.

        Parses the transport payload into the same typed
        :class:`~repro.api.TaskRequest` the CLI compiles its flags into,
        leases the warm session for ``(dataset, engine spec)``, executes
        via :func:`repro.api.execute_task` and stamps the artefact with
        the resolved spec + dataset fingerprint — so a served result and
        a CLI ``--json`` artefact for the same spec are the same bytes.
        """
        entry = self._resolve(payload)
        request = self._task_request(task, payload)
        budget_s = self._budget_seconds(request.spec.budget)

        def run(job: Job) -> dict:
            with self.sessions.lease(
                entry.dataset_id, entry.relation, spec=request.engine
            ) as s:
                # The session lock covers only the oracle-touching work
                # (execute_task takes it around that); payload building
                # and stamping never block concurrent requests.
                result_payload, _ = execute_task(
                    task,
                    s.maimon,
                    request.spec,
                    engine=request.engine,
                    budget=job.budget(budget_s),
                    lock=s.lock,
                )
                return stamp_payload(result_payload, request, entry.dataset_id)

        return self.jobs.submit(task, run, request=payload)

    def submit_mine(self, payload: dict) -> Job:
        """Phase 1: full ε-MVDs.  Result matches ``repro mine --json``."""
        return self._submit_task("mine", payload)

    def submit_schemas(self, payload: dict) -> Job:
        """Both phases + ranking.  Result matches ``repro schemas --json``."""
        return self._submit_task("schemas", payload)

    def submit_profile(self, payload: dict) -> Job:
        """Column entropies + minimal FDs.  Matches ``repro profile --json``."""
        return self._submit_task("profile", payload)

    def submit_append(self, payload: dict, dataset_id: Optional[str] = None) -> Job:
        """Append rows to a dataset as a new version, re-mine, and diff.

        The child version is registered synchronously (chained lineage
        fingerprint, see :meth:`DatasetRegistry.append_rows`); the job then
        advances the warm session through delta maintenance (or starts a
        cold one), re-mines at ``eps`` under the usual request budget, and
        reports the result **diff** against the parent session's cached
        result at the same ``eps`` — what the new rows added, dropped and
        kept among the MVDs and minimal separators.
        """
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        dataset_id = dataset_id or payload.get("dataset_id")
        if not dataset_id:
            raise ServiceError("'dataset_id' is required")
        rows = payload.get("rows")
        if not isinstance(rows, list) or not rows:
            raise ServiceError("'rows' must be a non-empty list of rows")
        try:
            name = _str_or_error(payload, "name", "",
                                 "'name' must be a string")
        except SpecError as exc:
            raise ServiceError(str(exc), code="invalid_spec") from None
        try:
            child, parent, delta = self.registry.append_rows(
                dataset_id, rows, name=name
            )
        except LookupError as exc:
            raise ServiceError(str(exc), status=404, code="unknown_dataset") from None
        except ValueError as exc:
            # Store-backed datasets are read-only; see DatasetRegistry.
            raise ServiceError(str(exc), code="store_readonly") from None
        request = self._task_request("mine", payload)
        eps = request.spec.eps
        budget_s = self._budget_seconds(request.spec.budget)
        columns = child.relation.columns

        def run(job: Job) -> dict:
            from repro.delta.diffing import diff_miner_results

            session, warm, stats = self.sessions.advance(
                parent.dataset_id, child.dataset_id, child.relation, delta,
                spec=request.engine,
            )
            try:
                # One lock acquisition across baseline read + re-mine: a
                # concurrent append must not advance this session between
                # previous_mvds() and the mine, or the diff would compare
                # across the wrong pair of versions.
                with session.lock:
                    previous = session.maimon.previous_mvds(eps)
                    result_dict, _ = execute_task(
                        "mine",
                        session.maimon,
                        request.spec,
                        engine=request.engine,
                        budget=job.budget(budget_s),
                    )
                stamp_payload(result_dict, request, child.dataset_id)
                previous_dict = (
                    repro_io.miner_result_to_dict(previous, columns)
                    if previous is not None
                    else None
                )
                return {
                    "dataset_id": child.dataset_id,
                    "parent_id": parent.dataset_id,
                    "rows": child.relation.n_rows,
                    "delta": repro_io.delta_to_dict(delta, columns),
                    "advance": {**stats, "warm_session": warm},
                    "result": result_dict,
                    "diff": (
                        diff_miner_results(previous_dict, result_dict)
                        if previous_dict is not None
                        else None
                    ),
                }
            finally:
                self.sessions.release(session)

        return self.jobs.submit("append", run, request=payload)

    # ------------------------------------------------------------------ #
    # Jobs / health
    # ------------------------------------------------------------------ #

    def job_payload(self, job_id: str, wait: Optional[float] = None) -> dict:
        try:
            job = self.jobs.wait(job_id, wait) if wait else self.jobs.get(job_id)
        except LookupError as exc:
            raise ServiceError(
                str(exc), status=404, code="unknown_job", job_id=job_id
            ) from None
        return job.to_dict()

    def cancel(self, job_id: str) -> dict:
        """Cancel a job; finished and unknown jobs get structured errors.

        Cancelling a job that already finished is a client-state conflict
        (409), not a silent success that would mislabel a complete result
        as cancelled; the envelope carries the job's actual status so
        clients can resolve the race structurally.
        """
        try:
            return self.jobs.cancel(job_id).to_dict()
        except LookupError as exc:
            raise ServiceError(
                str(exc), status=404, code="unknown_job", job_id=job_id
            ) from None
        except JobFinishedError as exc:
            raise ServiceError(
                str(exc),
                status=409,
                code="job_finished",
                job_id=job_id,
                job_status=exc.job.status,
            ) from None

    def health(self) -> dict:
        return {
            "status": "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
            "defaults": self.defaults.to_dict(),
            "max_request_seconds": self.max_request_seconds,
            "registry": self.registry.stats(),
            "sessions": self.sessions.stats(),
            "session_list": self.sessions.list(),
            "jobs": self.jobs.stats(),
        }

    def close(self) -> None:
        """Stop accepting jobs, cancel stragglers, close every session."""
        if self._closed:
            return
        self._closed = True
        self.jobs.shutdown(wait=True)
        self.sessions.close()

    def __enter__(self) -> "MiningService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Request parsing (transport payload -> typed repro.api specs)
    # ------------------------------------------------------------------ #

    #: Payload keys owned by the transport itself (dataset addressing,
    #: inline uploads, job control) rather than by any spec.
    TRANSPORT_KEYS = frozenset({
        "dataset_id", "wait", "csv", "rows", "columns", "name", "delimiter",
        "dataset", "scale", "max_rows",
    })

    #: Engine keys a request may carry: every ``EngineSpec`` field
    #: (cache_dir / track_deltas are server-owned and rejected inside
    #: ``EngineSpec.from_request``).
    ENGINE_KEYS = frozenset(f.name for f in dataclasses.fields(EngineSpec))

    #: Spec-key aliases the transport accepts beyond the dataclass fields.
    SPEC_KEY_ALIASES = {"schemas": frozenset({"no_spurious"})}

    def _task_request(self, task: str, payload: dict) -> TaskRequest:
        """Parse a JSON body into the system-wide typed request.

        All knob validation lives in the specs themselves
        (:mod:`repro.api.specs`); failures surface as structured 400s
        (``code: "invalid_spec"`` plus the offending ``field``) instead
        of silently ignored flags.  Unknown keys are part of that
        contract: a typoed knob (``"epz"``, ``"worker"``) is a 400, not
        a silently default-valued run — mirroring the strictness of
        ``Spec.from_dict`` for config files.
        """
        spec_cls = TASK_SPECS[task]
        allowed = (
            self.TRANSPORT_KEYS
            | self.ENGINE_KEYS
            | {f.name for f in dataclasses.fields(spec_cls)}
            | self.SPEC_KEY_ALIASES.get(task, frozenset())
        )
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise ServiceError(
                f"unknown request field(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(allowed))}",
                code="invalid_spec",
                field=unknown[0],
            )
        try:
            spec = spec_cls.from_request(payload)
            engine = EngineSpec.from_request(payload, base=self.defaults)
            return TaskRequest(task=task, spec=spec, engine=engine).validate()
        except SpecError as exc:
            extra = {"code": "invalid_spec"}
            if exc.field is not None:
                extra["field"] = exc.field
            raise ServiceError(str(exc), **extra) from None

    def _budget_seconds(self, budget: Optional[float]) -> Optional[float]:
        """Effective deadline: the spec's budget clamped by the server cap.

        An explicit ``budget: 0`` means *no work* — the budget machinery
        returns an empty truncated result — mirroring the CLI's
        ``--budget 0`` semantics.
        """
        cap = self.max_request_seconds
        if budget is None:
            return cap
        if cap is None:
            return budget
        return min(budget, cap)
