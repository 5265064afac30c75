"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``mine``        mine full ε-MVDs from a CSV file (phase 1);
``schemas``     discover approximate acyclic schemas from a CSV (both phases);
``profile``     quick information profile of a CSV (entropies, near-FDs);
``serve``       long-lived mining service: JSON API over warm sessions
                (see :mod:`repro.serve`);
``diff``        diff two saved mining artefacts: MVDs / minimal separators /
                schemas added, dropped and score-shifted (see
                :mod:`repro.delta.diffing`);
``serve-bench`` cold-vs-warm serving latency bench (``BENCH_serve.json``);
``bench``       exec-subsystem scalability bench (writes ``BENCH_exec.json``);
``delta-bench`` warm append+re-mine vs cold full re-mine
                (``BENCH_delta.json``, see :mod:`repro.delta`);
``approx-bench`` approx (sampled + escalation) vs exact mining at scale
                (``BENCH_scale.json``, see :mod:`repro.approx`);
``kernel-bench`` counts-first kernel dispatch vs the legacy sort kernel,
                with a parity + no-regression gate (merged into
                ``BENCH_scale.json``, see :mod:`repro.kernels`);
``datasets``    list the built-in dataset surrogates (Table 2 registry);
``check``       run the repo's static analyzer (:mod:`repro.analysis`) —
                serve lock discipline, hot-path set churn, spec/registry
                drift, strict request parsing.

All data commands take ``--no-persist`` (disable the on-disk entropy
cache) and ``--cache-dir`` (cache location); see :mod:`repro.exec`.

Every data command compiles its argparse namespace into a
:class:`repro.api.TaskRequest` — the same typed request contract the HTTP
serving layer and the library use — and routes through
:func:`repro.api.run`, so a CLI ``--json`` artefact, a served response and
a library result for the same spec are byte-identical.  ``--dump-config``
writes the compiled request as JSON instead of running it, and
``--config job.json`` runs a previously dumped (or hand-written) request.

Examples
--------
    python -m repro mine data.csv --eps 0.05 --json out.json
    python -m repro schemas data.csv --eps 0.1 --top 5 --objective savings
    python -m repro schemas data.csv --eps 0.1 --dump-config job.json
    python -m repro schemas --config job.json
    python -m repro profile data.csv --fd-lhs 3
    python -m repro serve --port 8765
    python -m repro bench --dataset Image --base-rows 1500
    python -m repro datasets
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import api
from repro import io as repro_io
from repro.bench.harness import Table
from repro.core.ranking import OBJECTIVES
from repro.data import datasets
from repro.entropy.estimators import ESTIMATORS


class UsageError(SystemExit):
    """A request the CLI rejects before running anything.

    Exits with status 2, argparse's usage-error status, so a bad flag and
    a bad ``--config`` file fail the same way; :func:`main` prints the
    message to stderr.  ``str()`` is the message, so in-process callers
    can match on it.
    """

    def __init__(self, message: str) -> None:
        super().__init__(2)
        self.message = message

    def __str__(self) -> str:
        return self.message


def _default(value, fallback):
    """CLI default application: request flags parse as None = not given.

    Keeping argparse defaults at ``None`` is what lets ``--config`` tell
    "flag explicitly passed" apart from "default" and reject the
    combination instead of silently ignoring the flag.
    """
    return fallback if value is None else value


def _engine_spec(args) -> api.EngineSpec:
    return api.EngineSpec(
        engine=_default(args.engine, "pli"),
        persist=not args.no_persist,
        cache_dir=args.cache_dir,
        estimator=_default(getattr(args, "estimator", None), "mle"),
        sample_rows=getattr(args, "sample_rows", None),
        confidence=getattr(args, "confidence", None),
        sample_seed=getattr(args, "sample_seed", None),
        trace=bool(getattr(args, "trace", False)),
    )


def _data_spec(args) -> api.DataSpec:
    return api.DataSpec(
        csv=args.csv,
        dataset=args.dataset,
        store=getattr(args, "store", None),
        backend=getattr(args, "backend", None),
        scale=_default(args.scale, 0.01),
        max_rows=args.max_rows,
        sample=getattr(args, "sample", None),
        seed=_default(getattr(args, "seed", None), 0),
    )


#: Namespace entries that shape *output*, not the request — combinable
#: with --config.  Everything else defaults to None/False, so any other
#: non-default value means a request-shaping flag was explicitly passed.
_DISPLAY_DESTS = frozenset({"command", "func", "config", "dump_config", "json"})


def _flags_given(args) -> List[str]:
    """Request-shaping flags the user explicitly passed (for --config).

    Derived from the parsed namespace rather than a hand-kept flag list,
    so a future request flag cannot silently escape the conflict check.
    """
    return sorted(
        dest.replace("_", "-")
        for dest, value in vars(args).items()
        if dest not in _DISPLAY_DESTS and value is not None and value is not False
    )


def _compile_request(task: str, args, spec) -> api.TaskRequest:
    """Argparse namespace -> TaskRequest (or load one from ``--config``).

    Spec validation errors become clean :class:`UsageError` exits
    instead of tracebacks — they are usage errors, not crashes.
    ``--config`` *replaces* the request: combining it with
    request-shaping flags is an error, not a silent override in either
    direction.
    """
    try:
        if getattr(args, "config", None):
            conflicting = _flags_given(args)
            if conflicting:
                raise UsageError(
                    "--config replaces the data/engine/task flags; remove: "
                    + ", ".join(conflicting)
                )
            try:
                data = repro_io.load_json(args.config)
            except OSError as exc:
                raise UsageError(f"cannot read --config: {exc}") from None
            except ValueError as exc:
                raise UsageError(
                    f"--config {args.config} is not valid JSON: {exc}"
                ) from None
            request = api.TaskRequest.from_dict(data)
            if request.task != task:
                raise UsageError(
                    f"{args.config} is a {request.task!r} request; "
                    f"run 'repro {request.task} --config {args.config}'"
                )
            return request
        return api.TaskRequest(
            task=task, spec=spec, engine=_engine_spec(args), data=_data_spec(args)
        ).validate()
    except api.SpecError as exc:
        raise UsageError(f"invalid request: {exc}") from None


def _maybe_dump_config(args, request: api.TaskRequest) -> bool:
    """Handle ``--dump-config``: write the compiled request, skip the run."""
    path = getattr(args, "dump_config", None)
    if not path:
        return False
    if path == "-":
        print(json.dumps(request.to_dict(), indent=2, sort_keys=True))
    else:
        repro_io.save_json(request.to_dict(), path)
        print(f"wrote {path}")
    return True


def _run(request: api.TaskRequest):
    """Resolve the data spec, announce the input, execute the request."""
    if request.data is None:
        raise UsageError(
            "invalid request: the config carries no 'data' spec; add one "
            "(a 'csv' path or a built-in 'dataset' name)"
        )
    try:
        relation = request.data.load()
    except api.SpecError as exc:
        # Load-time spec failures (missing store directory, duckdb not
        # installed) are usage errors, same as validation failures.
        raise UsageError(f"invalid request: {exc}") from None
    print(f"{relation.name or 'input'}: {relation.n_rows} rows x {relation.n_cols} cols")
    return relation, api.run(request, relation=relation)


def _print_trace(result) -> None:
    """Pretty-print the span tree of a ``--trace`` run, if one was recorded."""
    block = result.payload.get("trace")
    if not block:
        return
    from repro.obs.trace import format_trace

    print()
    print(format_trace(block, top=5))


def cmd_mine(args) -> int:
    request = _compile_request(
        "mine", args, api.MineSpec(
            eps=_default(args.eps, 0.0),
            budget=args.budget,
            top=_default(args.top, 20),
        )
    )
    if _maybe_dump_config(args, request):
        return 0
    relation, result = _run(request)
    mined = result.raw
    print(mined.summary())
    top = request.spec.top
    for phi in mined.mvds[:top]:
        print(f"  {phi.format(relation.columns)}")
    if len(mined.mvds) > top:
        print(f"  ... ({len(mined.mvds) - top} more)")
    _print_trace(result)
    if args.json:
        repro_io.save_json(result.payload, args.json)
        print(f"wrote {args.json}")
    return 0


def cmd_schemas(args) -> int:
    request = _compile_request(
        "schemas",
        args,
        api.SchemasSpec(
            eps=_default(args.eps, 0.05),
            budget=_default(args.budget, 20.0),
            top=_default(args.top, 10),
            objective=_default(args.objective, "balanced"),
            spurious=not args.no_spurious,
        ),
    )
    if _maybe_dump_config(args, request):
        return 0
    relation, result = _run(request)
    ranked = result.raw
    if not ranked:
        print("no schemas found at this threshold")
        return 1
    spec = request.spec
    table = Table(
        f"Top {len(ranked)} schemas (eps={spec.eps}, objective={spec.objective})",
        ["rank", "score", "J", "m", "width", "S%", "E%", "schema"],
    )
    for rs in ranked:
        ds = rs.discovered
        q = ds.quality
        table.add(
            {
                "rank": rs.rank,
                "score": round(rs.score, 2),
                "J": round(ds.j_measure, 4),
                "m": q.n_relations,
                "width": q.width,
                "S%": round(q.savings_pct, 2),
                "E%": None if q.spurious_pct is None else round(q.spurious_pct, 2),
                "schema": ds.schema.format(relation.columns),
            }
        )
    table.show()
    _print_trace(result)
    if args.json:
        repro_io.save_json(result.payload, args.json)
        print(f"wrote {args.json}")
    return 0


def cmd_profile(args) -> int:
    request = _compile_request(
        "profile", args, api.ProfileSpec(fd_lhs=_default(args.fd_lhs, 2))
    )
    if _maybe_dump_config(args, request):
        return 0
    _, result = _run(request)
    payload = result.payload
    table = Table("Column profile", ["column", "distinct", "H_bits", "H_norm"])
    for row in payload["columns"]:
        table.add(row)
    table.show()
    table = Table(f"Minimal exact FDs (lhs <= {request.spec.fd_lhs})", ["fd"])
    for fd in payload["fds"][:20]:
        table.add({"fd": fd})
    table.show()
    if len(payload["fds"]) > 20:
        print(f"... ({len(payload['fds']) - 20} more FDs)")
    _print_trace(result)
    if args.json:
        repro_io.save_json(payload, args.json)
        print(f"wrote {args.json}")
    return 0


def cmd_serve(args) -> int:
    """Run the long-lived mining service (see :mod:`repro.serve`)."""
    from repro.obs.logs import JsonLogger
    from repro.serve import MiningService, make_server

    try:
        defaults = _engine_spec(args).validate()
    except api.SpecError as exc:
        raise UsageError(f"invalid request: {exc}") from None
    service = MiningService(
        max_sessions=args.max_sessions,
        job_workers=args.job_workers,
        max_request_seconds=args.max_request_seconds,
        defaults=defaults,
        slow_ms=args.slow_ms,
        logger=JsonLogger(component="serve"),
    )
    for name in args.preload or []:
        entry = service.upload({"dataset": name,
                                "scale": _default(args.scale, 0.01)})
        print(f"preloaded {name}: dataset_id={entry['dataset_id']}")
    server = make_server(service, host=args.host, port=args.port, verbose=args.verbose)
    print(
        f"repro serve listening on http://{args.host}:{server.server_port} "
        f"(engine={defaults.engine}, sessions<={args.max_sessions}, "
        f"jobs<={args.job_workers}, deadline={args.max_request_seconds}s)"
    )
    print("endpoints: POST /datasets /mine /schemas /profile; "
          "GET /jobs/<id> /healthz /metrics; Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.close()
    return 0


def cmd_diff(args) -> int:
    """Diff two mining artefacts; exit 1 when they differ (like diff(1)).

    Artefacts stamped with their request provenance (every artefact
    produced since :mod:`repro.api`) are additionally checked for *spec*
    mismatches — comparing results mined under different engines, eps or
    inputs is flagged loudly instead of read as a clean data diff.
    """
    from repro.delta.diffing import (
        diff_payloads,
        format_provenance_mismatch,
        summarize_diff,
    )

    try:
        spec = api.DiffSpec(top=_default(args.top, 20)).validate()
    except api.SpecError as exc:
        raise UsageError(f"invalid request: {exc}") from None
    old = repro_io.load_json(args.old)
    new = repro_io.load_json(args.new)
    diff = diff_payloads(old, new, tol=spec.tol)
    print(summarize_diff(diff))
    for line in format_provenance_mismatch(diff.get("provenance")):
        print(f"  ! {line}")
    if diff["kind"] == "mine":
        for label, entries in (
            ("+ mvd", diff["mvds"]["added"]),
            ("- mvd", diff["mvds"]["dropped"]),
            ("+ min_sep", diff["min_seps"]["added"]),
            ("- min_sep", diff["min_seps"]["dropped"]),
        ):
            for entry in entries[: spec.top]:
                print(f"  {label} {entry}")
    else:
        for label, entries in (
            ("+ schema", diff["schemas"]["added"]),
            ("- schema", diff["schemas"]["dropped"]),
            ("~ schema", diff["schemas"]["shifted"]),
        ):
            for entry in entries[: spec.top]:
                print(f"  {label} {entry}")
    if args.json:
        repro_io.save_json(diff, args.json)
        print(f"wrote {args.json}")
    return 1 if diff["changed"] else 0


def cmd_delta_bench(args) -> int:
    """Append-path bench (repro.delta); writes ``BENCH_delta.json``."""
    from repro.bench.harness import delta_append_benchmark, write_bench_json

    payload = delta_append_benchmark(
        rows_list=tuple(args.rows),
        n_cols=args.cols,
        eps=args.eps,
        batch=args.batch,
        appends=args.appends,
        seed=args.seed,
    )
    table = Table(
        f"Delta append (markov_tree, eps={args.eps}, batch={args.batch})",
        ["rows_base", "appends", "warm_p50_s", "cold_p50_s", "speedup_p50",
         "parity"],
    )
    for r in payload["runs"]:
        table.add(r)
    table.show()
    path = write_bench_json(payload, args.json)
    print(f"wrote {path}")
    # The correctness invariants are gated here (CI runs this command as
    # a parity sanity step); the speedup number is reported, not gated —
    # it is timing- and host-dependent.
    failed = False
    for r in payload["runs"]:
        if not r["parity"]:
            print(f"PARITY FAILURE: warm/cold results diverged at "
                  f"{r['rows_base']} rows")
            failed = True
        if max(r["warm_evals"]) > min(r["cold_evals"]):
            print(f"EVALS FAILURE: incremental path did {r['warm_evals']} "
                  f"engine evals vs cold {r['cold_evals']} at "
                  f"{r['rows_base']} rows")
            failed = True
    return 1 if failed else 0


def cmd_approx_bench(args) -> int:
    """Approx-vs-exact scaling bench (repro.approx); ``BENCH_scale.json``."""
    from repro.bench.harness import approx_scale_benchmark, write_bench_json

    payload = approx_scale_benchmark(
        rows_list=tuple(args.rows),
        n_cols=args.cols,
        eps=args.eps,
        sample_rows=args.sample_rows,
        confidence=args.confidence,
        seed=args.seed,
    )
    table = Table(
        f"Approx vs exact mining (markov_tree, eps={args.eps}, "
        f"sample={args.sample_rows})",
        ["rows", "approx_s", "exact_s", "speedup", "approx_rows_per_s",
         "escalations", "exact_evals", "agreement"],
    )
    for r in payload["runs"]:
        table.add(r)
    table.show()
    # The scale-bench JSON is shared with kernel-bench: keep the "kernels"
    # block it merged into the file (see cmd_kernel_bench).
    kernels = _read_bench_json(args.json).get("kernels")
    if kernels is not None:
        payload["kernels"] = kernels
    path = write_bench_json(payload, args.json)
    print(f"wrote {path}")
    # Correctness is gated (CI runs this with small sizes): the approx arm
    # must reproduce the exact arm's output, and must actually have used
    # the escalation path (zero escalations would mean the intervals were
    # never exercised at the boundary — a silently degenerate run).
    # Speedup is reported, not gated: timing- and host-dependent.
    failed = False
    for r in payload["runs"]:
        if not r["agreement"]:
            print(f"AGREEMENT FAILURE: approx and exact mining diverged at "
                  f"{r['rows']} rows")
            failed = True
    if all(r["escalations"] == 0 for r in payload["runs"]):
        print("ESCALATION FAILURE: no run escalated a single decision")
        failed = True
    return 1 if failed else 0


def _read_bench_json(path: str) -> dict:
    """The bench payload already at ``path``; empty when there is none."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def cmd_kernel_bench(args) -> int:
    """Counts-first kernel vs legacy sort bench; merges BENCH_scale.json."""
    from repro.bench.harness import kernel_benchmark, write_bench_json

    payload = kernel_benchmark(
        rows_list=tuple(args.rows),
        n_cols=args.cols,
        eps=args.eps,
        seed=args.seed,
    )
    table = Table(
        f"Kernel dispatch vs legacy sort (markov_tree, eps={args.eps})",
        ["rows", "dispatch_evals_s", "legacy_evals_s", "eval_speedup",
         "mine_s", "exact_rows_per_s", "mvds"],
    )
    for r in payload["runs"]:
        table.add(r)
    table.show()
    # The scale-bench JSON is shared with approx-bench: fold this payload in
    # under a "kernels" key so the existing approx trajectory fields stay
    # byte-for-byte comparable across runs, rather than replacing the file.
    merged = _read_bench_json(args.json)
    if merged:
        merged["kernels"] = payload
        path = write_bench_json(merged, args.json)
    else:
        path = write_bench_json(payload, args.json)
    print(f"wrote {path}")
    # Gate: entropies must be identical across arms and the dispatcher
    # must never lose to the legacy sort kernel on the reference workload.
    for failure in payload["gate"]["failures"]:
        print(f"KERNEL GATE FAILURE: {failure}")
    return 0 if payload["gate"]["passed"] else 1


def cmd_serve_bench(args) -> int:
    """Cold-vs-warm serving bench; writes ``BENCH_serve.json``."""
    from repro.bench.harness import serve_benchmark, write_bench_json

    payload = serve_benchmark(
        name=args.dataset,
        scale=args.scale,
        max_rows=args.max_rows,
        eps=args.eps,
        n_requests=args.requests,
        clients=tuple(args.clients),
        cold_runs=args.cold_runs,
    )
    table = Table(
        f"Serve latency ({args.dataset}, eps={args.eps}, "
        f"cold mean {payload['cold_single_shot']['mean_s']:.3f}s)",
        ["mode", "clients", "requests", "rps", "p50_ms", "p95_ms", "speedup_vs_cold"],
    )
    for r in payload["warm"]:
        table.add(r)
    table.show()
    path = write_bench_json(payload, args.json)
    print(f"wrote {path}")
    return 0


def cmd_bench(args) -> int:
    """Exec-subsystem scalability bench; writes machine-readable JSON."""
    from repro.bench.harness import exec_scalability, write_bench_json

    persist_dir = None
    scratch_dir = None
    if not args.no_persist:
        persist_dir = args.cache_dir
        if persist_dir is None:
            import tempfile

            # Scratch cache: the bench measures cold-vs-warm within one
            # invocation, so the directory is removed afterwards.
            persist_dir = scratch_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        payload = exec_scalability(
            name=args.dataset,
            fractions=tuple(args.fractions),
            eps=args.eps,
            base_rows=args.base_rows,
            max_cols=args.max_cols,
            time_limit_s=args.budget,
            persist_dir=persist_dir,
        )
    finally:
        if scratch_dir is not None:
            import shutil

            shutil.rmtree(scratch_dir, ignore_errors=True)
    table = Table(
        f"Exec scalability ({args.dataset}, eps={args.eps}, "
        f"cpus={payload['cpu_count']})",
        ["mode", "rows", "runtime_s", "min_seps", "queries", "evals",
         "speedup_vs_serial"],
    )
    for r in payload["runs"]:
        table.add(r)
    table.show()
    path = write_bench_json(payload, args.json)
    print(f"wrote {path}")
    return 0


def cmd_datasets(args) -> int:
    table = Table(
        "Built-in dataset surrogates (Table 2 registry)",
        ["name", "cols", "rows", "profile"],
    )
    for spec in datasets.TABLE2:
        table.add(
            {
                "name": spec.name,
                "cols": spec.n_cols,
                "rows": spec.n_rows,
                "profile": spec.profile,
            }
        )
    table.add({"name": "nursery", "cols": 9, "rows": 12960, "profile": "reconstruction"})
    table.show()
    return 0


def cmd_ingest(args) -> int:
    """Stream a CSV into an on-disk columnar store (see repro.backends)."""
    import time

    from repro.backends import INGEST_CHUNK_ROWS, StoreError, ingest_csv

    started = time.perf_counter()
    trace_ctx = None
    try:
        if args.trace:
            from repro.obs.trace import start_trace

            trace_ctx = start_trace("ingest")
            trace_ctx.__enter__()
        try:
            manifest = ingest_csv(
                args.csv,
                args.out,
                has_header=not args.no_header,
                delimiter=args.delimiter,
                name=args.name,
                null_token=args.null_token,
                max_rows=args.max_rows,
                chunk_rows=args.chunk_rows or INGEST_CHUNK_ROWS,
                force=args.force,
            )
        finally:
            if trace_ctx is not None:
                trace_ctx.__exit__(None, None, None)
    except (StoreError, OSError) as exc:
        raise SystemExit(f"ingest failed: {exc}") from None
    elapsed = time.perf_counter() - started
    n_rows = manifest["n_rows"]
    rate = n_rows / elapsed if elapsed > 0 else float("inf")
    print(
        f"ingested {n_rows} rows x {len(manifest['columns'])} cols "
        f"into {args.out} in {elapsed:.2f}s ({rate:,.0f} rows/s)"
    )
    print(f"fingerprint: {manifest['fingerprint']}")
    print(f"mine it with: repro mine --store {args.out}")
    if trace_ctx is not None:
        from repro.obs.trace import format_trace

        print()
        print(format_trace(trace_ctx.trace.to_dict(), top=5))
    return 0


def cmd_store_bench(args) -> int:
    """Out-of-core store bench + parity gates; writes ``BENCH_store.json``."""
    from repro.bench.harness import store_benchmark, write_bench_json

    payload = store_benchmark(
        rows_list=tuple(args.rows),
        n_cols=args.cols,
        eps=args.eps,
        seed=args.seed,
        budget_mb=args.budget_mb,
        chunk_rows=args.chunk_rows,
    )
    table = Table(
        f"Out-of-core store vs in-memory (markov_tree, eps={args.eps}, "
        f"budget {args.budget_mb} MB)",
        ["rows", "matrix_mb", "store_mb", "ingest_rows_per_s",
         "store_peak_mb", "memory_peak_mb", "store_mine_s", "memory_mine_s",
         "under_budget", "parity"],
    )
    for r in payload["runs"]:
        table.add(r)
    table.show()
    path = write_bench_json(payload, args.json)
    print(f"wrote {path}")
    # Gate: the out-of-core arm must stay under the memory budget on the
    # oversized workload, mine bit-identically to the in-memory arm, and
    # the chunked counts lanes must agree with the in-memory kernels.
    for failure in payload["gate"]["failures"]:
        print(f"STORE GATE FAILURE: {failure}")
    return 0 if payload["gate"]["passed"] else 1


def cmd_check(args) -> int:
    # Imported lazily: the analyzer is a dev-facing subsystem and must not
    # tax `repro mine` startup.
    from repro import analysis

    config = analysis.load_config(args.root)
    if args.paths:
        config.paths = list(args.paths)
    if args.baseline is not None:
        config.baseline = args.baseline or None
    only = None
    if args.rules:
        only = [r.strip() for r in args.rules.split(",") if r.strip()]

    if args.list_rules:
        for cls in analysis.ALL_RULES:
            print(f"{cls.rule_id}  {cls.name}: {cls.summary}")
        print(
            f"{analysis.UNUSED_PRAGMA_RULE}  unused-pragma: stale "
            f"`# repro: allow[...]` waivers (framework)"
        )
        print(
            f"{analysis.PARSE_ERROR_RULE}  parse-error: files that failed "
            f"to parse (framework)"
        )
        return 0

    if args.write_baseline:
        # Capture the *full* current finding set: ignore any existing
        # baseline so re-baselining is idempotent.
        config.baseline = None
        report = analysis.run_analysis(config, only_rules=only)
        count = analysis.write_baseline(args.write_baseline, report.findings)
        print(f"wrote {count} baseline entr{'y' if count == 1 else 'ies'} "
              f"to {args.write_baseline}")
        return 0

    report = analysis.run_analysis(config, only_rules=only)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.format())
        summary = (
            f"{len(report.findings)} finding"
            f"{'' if len(report.findings) == 1 else 's'} "
            f"({report.suppressed} suppressed, {report.baselined} baselined) "
            f"across {report.files} files "
            f"[rules: {', '.join(report.rules)}]"
        )
        print(summary)
    return 0 if report.ok else 1


def _common_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("csv", nargs="?", help="input CSV file")
    p.add_argument("--dataset", help="built-in surrogate name instead of a CSV")
    p.add_argument("--store",
                   help="ingested columnar store directory instead of a CSV "
                        "(see 'repro ingest'); mined out-of-core")
    p.add_argument("--backend", choices=["numpy", "mmap", "duckdb"],
                   default=None,
                   help="storage backend for --store (default mmap; duckdb "
                        "needs the optional dependency)")
    p.add_argument("--scale", type=float, default=None,
                   help="row scale for --dataset (default 0.01)")
    p.add_argument("--max-rows", type=int, default=None)
    p.add_argument("--sample", type=int, default=None,
                   help="mine a uniform row sample of this size (unsound for "
                        "MVDs — prefer --engine approx; see repro.approx)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for --sample (default 0)")
    p.add_argument("--trace", action="store_true",
                   help="record a span tree for the run (embedded in --json "
                        "artefacts, pretty-printed to the terminal)")
    _engine_arg(p)
    _exec_args(p)
    _config_args(p)


def _config_args(p: argparse.ArgumentParser) -> None:
    """The declarative-request round-trip flags (see :mod:`repro.api`)."""
    p.add_argument("--config", metavar="JSON",
                   help="run a saved task request instead of compiling one "
                        "from the flags (see --dump-config)")
    p.add_argument("--dump-config", metavar="PATH",
                   help="write the compiled task request as JSON ('-' for "
                        "stdout) and exit without running")


def _engine_arg(p: argparse.ArgumentParser) -> None:
    # Choices come from the registries, so --help cannot drift from them.
    # Request flags default to None ("not given") so --config can reject
    # explicitly-passed flags; the real defaults live at the compile step.
    p.add_argument("--engine", choices=api.ENGINES, default=None,
                   help="entropy engine (default pli)")
    p.add_argument("--estimator", choices=list(ESTIMATORS), default=None,
                   help="entropy estimator for --engine approx (default mle)")
    p.add_argument("--sample-rows", type=int, default=None,
                   help="--engine approx: sample size (default 100000)")
    p.add_argument("--confidence", type=float, default=None,
                   help="--engine approx: per-decision confidence in (0,1) "
                        "(default 0.95)")
    p.add_argument("--sample-seed", type=int, default=None,
                   help="--engine approx: sampling seed (default 0)")


def _exec_args(p: argparse.ArgumentParser) -> None:
    """Flags of the repro.exec entropy execution subsystem."""
    p.add_argument("--no-persist", action="store_true",
                   help="disable the on-disk entropy cache")
    p.add_argument("--cache-dir", default=None,
                   help="entropy cache directory (default: $REPRO_CACHE_DIR "
                        "or ./.repro_cache)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Maimon: mine approximate MVDs and acyclic schemas",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine full eps-MVDs (phase 1)")
    _common_input_args(p)
    p.add_argument("--eps", type=float, default=None, help="threshold (default 0.0)")
    p.add_argument("--budget", type=float, default=None, help="seconds limit")
    p.add_argument("--top", type=int, default=None,
                   help="MVDs to print (default 20)")
    p.add_argument("--json", help="write the full result to a JSON file")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("schemas", help="discover acyclic schemas (both phases)")
    _common_input_args(p)
    p.add_argument("--eps", type=float, default=None,
                   help="threshold (default 0.05)")
    p.add_argument("--budget", type=float, default=None,
                   help="seconds limit (default 20)")
    p.add_argument("--top", type=int, default=None, help="schemas (default 10)")
    p.add_argument("--objective", choices=sorted(OBJECTIVES), default=None,
                   help="ranking objective (default balanced)")
    p.add_argument("--no-spurious", action="store_true",
                   help="skip spurious-tuple counting (faster)")
    p.add_argument("--json", help="write the schemas to a JSON file")
    p.set_defaults(func=cmd_schemas)

    p = sub.add_parser("profile", help="entropy / FD profile of the input")
    _common_input_args(p)
    p.add_argument("--fd-lhs", type=int, default=None,
                   help="max FD lhs size (default 2)")
    p.add_argument("--json", help="write the profile to a JSON file")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "serve", help="long-lived mining service (JSON API over warm sessions)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765, help="0 picks a free port")
    p.add_argument("--max-sessions", type=int, default=8,
                   help="warm Maimon sessions kept (LRU eviction)")
    p.add_argument("--job-workers", type=int, default=4,
                   help="concurrent mining jobs (others queue)")
    p.add_argument("--max-request-seconds", type=float, default=300.0,
                   help="hard per-request mining deadline")
    p.add_argument("--preload", nargs="*", metavar="DATASET",
                   help="built-in surrogates to register at startup")
    p.add_argument("--scale", type=float, default=0.01,
                   help="row scale for --preload datasets")
    p.add_argument("--slow-ms", type=float, default=None,
                   help="log (and count) requests whose running time "
                        "exceeds this many milliseconds")
    p.add_argument("--verbose", action="store_true", help="log HTTP requests")
    _engine_arg(p)
    _exec_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "diff",
        help="diff two saved mining artefacts (mine or schemas --json files)",
    )
    p.add_argument("old", help="baseline artefact (JSON)")
    p.add_argument("new", help="new artefact (JSON)")
    p.add_argument("--top", type=int, default=20,
                   help="changed entries to print per category")
    p.add_argument("--json", help="write the structured diff to a JSON file")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "delta-bench",
        help="warm append+re-mine vs cold full re-mine (BENCH_delta.json)",
    )
    p.add_argument("--rows", type=int, nargs="+", default=[10000, 50000],
                   help="base row counts of the markov_tree surrogates")
    p.add_argument("--cols", type=int, default=8)
    p.add_argument("--batch", type=int, default=200,
                   help="rows appended per batch")
    p.add_argument("--appends", type=int, default=3,
                   help="append batches per base size")
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--json", default="BENCH_delta.json")
    p.set_defaults(func=cmd_delta_bench)

    p = sub.add_parser(
        "approx-bench",
        help="approx vs exact mining at scale (BENCH_scale.json)",
    )
    p.add_argument("--rows", type=int, nargs="+",
                   default=[100000, 1000000, 10000000],
                   help="row counts of the markov_tree surrogates")
    p.add_argument("--cols", type=int, default=8)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--sample-rows", type=int, default=50000,
                   help="approx engine sample size")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--json", default="BENCH_scale.json")
    p.set_defaults(func=cmd_approx_bench)

    p = sub.add_parser(
        "kernel-bench",
        help="counts-first kernels vs legacy sort kernel (BENCH_scale.json)",
    )
    p.add_argument("--rows", type=int, nargs="+", default=[100000, 1000000],
                   help="row counts of the markov_tree surrogates")
    p.add_argument("--cols", type=int, default=8)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--json", default="BENCH_scale.json")
    p.set_defaults(func=cmd_kernel_bench)

    p = sub.add_parser(
        "serve-bench",
        help="cold vs warm serving latency bench (BENCH_serve.json)",
    )
    p.add_argument("--dataset", default="Image")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--max-rows", type=int, default=1500)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--requests", type=int, default=12,
                   help="warm requests per client count")
    p.add_argument("--clients", type=int, nargs="+", default=[1, 2, 4],
                   help="concurrent client counts to sweep")
    p.add_argument("--cold-runs", type=int, default=3,
                   help="cold single-shot baseline repetitions")
    p.add_argument("--json", default="BENCH_serve.json")
    p.set_defaults(func=cmd_serve_bench)

    p = sub.add_parser(
        "bench", help="exec-subsystem scalability bench (BENCH_exec.json)"
    )
    p.add_argument("--dataset", default="Image")
    p.add_argument("--base-rows", type=int, default=4000)
    p.add_argument("--max-cols", type=int, default=10)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--fractions", type=float, nargs="+", default=[0.5, 1.0])
    p.add_argument("--budget", type=float, default=60.0, help="seconds per run")
    p.add_argument("--json", default="BENCH_exec.json")
    _exec_args(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("datasets", help="list built-in dataset surrogates")
    p.set_defaults(func=cmd_datasets)

    p = sub.add_parser(
        "ingest",
        help="stream a CSV into an on-disk columnar store "
             "(mine it out-of-core with --store)",
    )
    p.add_argument("csv", help="input CSV file")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="store directory to create")
    p.add_argument("--name", default=None,
                   help="dataset name recorded in the store (default: "
                        "the CSV file name)")
    p.add_argument("--delimiter", default=",", help="field separator")
    p.add_argument("--no-header", action="store_true",
                   help="the CSV has no header row (columns become A0..An)")
    p.add_argument("--null-token", default="",
                   help="cell value to treat as NULL (default: empty)")
    p.add_argument("--max-rows", type=int, default=None,
                   help="stop ingesting after this many rows")
    p.add_argument("--chunk-rows", type=int, default=None,
                   help="rows per spill block (default 65536)")
    p.add_argument("--force", action="store_true",
                   help="replace an existing store directory")
    p.add_argument("--trace", action="store_true",
                   help="print the ingest span tree (per-chunk time)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser(
        "store-bench",
        help="out-of-core mining bench: peak RSS + rows/s vs in-memory, "
             "with parity gates (writes BENCH_store.json)",
    )
    p.add_argument("--rows", type=int, nargs="+", default=[200_000],
                   help="synthetic relation sizes (default 200000)")
    p.add_argument("--cols", type=int, default=8,
                   help="synthetic relation width (default 8)")
    p.add_argument("--eps", type=float, default=0.01,
                   help="mining threshold (default 0.01)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-mb", type=int, default=None,
                   help="memory budget for the out-of-core arm in MB "
                        "(default: a quarter of the largest code matrix)")
    p.add_argument("--chunk-rows", type=int, default=None,
                   help="streamed row-block size (default 1048576)")
    p.add_argument("--json", default="BENCH_store.json",
                   help="output JSON path (default BENCH_store.json)")
    p.set_defaults(func=cmd_store_bench)

    p = sub.add_parser(
        "check",
        help="run the repro static analyzer (repro.analysis rules RPR002-005)",
    )
    p.add_argument("paths", nargs="*",
                   help="files/directories to analyze (default: "
                        "[tool.repro-analysis] paths, else 'src')")
    p.add_argument("--root", default=".",
                   help="project root holding pyproject.toml (default: .)")
    p.add_argument("--rules", default=None,
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON")
    p.add_argument("--baseline", default=None,
                   help="baseline file of accepted rule:path findings "
                        "('' to ignore a configured baseline)")
    p.add_argument("--write-baseline", metavar="PATH", default=None,
                   help="write the current findings as a baseline and exit")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
