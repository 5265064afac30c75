"""Experiment drivers behind the ``benchmarks/`` suite.

Each public function regenerates the data series of one table or figure of
the paper and returns a list of plain-dict rows; the bench files wrap them
with ``pytest-benchmark`` timing and print paper-style tables.  Budgets are
parameters everywhere: the paper's 5-hour / 30-minute limits scale down to
seconds on laptop-sized surrogates (DESIGN.md §3).
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.budget import SearchBudget
from repro.core.miner import MVDMiner
from repro.core.minsep import mine_all_min_seps
from repro.core.fullmvd import get_full_mvds
from repro.data import datasets
from repro.data.relation import Relation
from repro.api.specs import EngineSpec
from repro.quality.metrics import pareto_front


class Table:
    """Minimal fixed-width table printer for bench output."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add(self, row: Dict[str, object]) -> None:
        self.rows.append([self._fmt(row.get(c)) for c in self.columns])

    @staticmethod
    def _fmt(v: object) -> str:
        if v is None:
            return "-"
        if isinstance(v, float):
            return f"{v:.4g}"
        return str(v)

    def render(self) -> str:
        header = list(self.columns)
        body = [header] + self.rows
        widths = [max(len(r[j]) for r in body) for j in range(len(header))]
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(h.ljust(widths[j]) for j, h in enumerate(header)))
        lines.append("  ".join("-" * w for w in widths))
        for r in self.rows:
            lines.append("  ".join(r[j].ljust(widths[j]) for j in range(len(header))))
        return "\n".join(lines)

    def show(self) -> None:
        print("\n" + self.render() + "\n")


# --------------------------------------------------------------------- #
# Table 2 — dataset suite, full MVDs at threshold 0
# --------------------------------------------------------------------- #

def table2_row(
    name: str,
    scale: float = 0.001,
    max_rows: Optional[int] = 3000,
    max_cols: Optional[int] = 14,
    eps: float = 0.0,
    time_limit_s: float = 20.0,
) -> Dict[str, object]:
    """One row of Table 2 on the dataset's surrogate (scaled)."""
    relation = datasets.load(name, scale=scale, max_rows=max_rows, max_cols=max_cols)
    miner = MVDMiner(relation)
    budget = SearchBudget(max_seconds=time_limit_s).start()
    result = miner.mine(eps, budget=budget)
    return {
        "dataset": name,
        "cols": relation.n_cols,
        "rows": relation.n_rows,
        "runtime_s": round(result.elapsed, 2),
        "full_mvds": "TL" if result.timed_out else result.n_mvds,
        "min_seps": result.n_min_seps,
        "entropy_queries": result.entropy_queries,
        "entropy_evals": result.entropy_evals,
        "timed_out": result.timed_out,
    }


# --------------------------------------------------------------------- #
# Figs 10 & 11 — Nursery use case
# --------------------------------------------------------------------- #

def run_nursery_sweep(
    relation: Relation,
    thresholds: Sequence[float] = (0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
    schema_limit: int = 40,
    schema_budget_s: float = 10.0,
    mvd_budget_s: Optional[float] = 30.0,
) -> Tuple[List[Dict[str, object]], List[int]]:
    """All (J, S, E, m) points of the threshold sweep plus the pareto front.

    Returns ``(rows, pareto_indices)`` — Fig. 11 is the scatter of all rows,
    Fig. 10 the pareto-optimal subset.  ``mvd_budget_s`` bounds phase 1 per
    threshold (the paper's timeout-then-enumerate mode, Section 4).
    """
    maimon = EngineSpec().make_maimon(relation)
    rows: List[Dict[str, object]] = []
    seen = set()
    for eps in thresholds:
        budget = SearchBudget(max_seconds=schema_budget_s)  # lazy start: clock begins after phase 1
        mvd_budget = (
            SearchBudget(max_seconds=mvd_budget_s).start()
            if mvd_budget_s is not None
            else None
        )
        for ds in maimon.discover_schemas(
            eps,
            limit=schema_limit,
            schema_budget=budget,
            mvd_budget=mvd_budget,
            with_spurious=True,
        ):
            if ds.schema in seen:
                continue
            seen.add(ds.schema)
            q = ds.quality
            rows.append(
                {
                    "eps": eps,
                    "J": round(ds.j_measure, 4),
                    "S%": round(q.savings_pct, 2),
                    "E%": round(q.spurious_pct or 0.0, 2),
                    "m": q.n_relations,
                    "width": q.width,
                    "schema": ds.schema.format(relation.columns),
                }
            )
    points = [(r["S%"], r["E%"]) for r in rows]
    return rows, pareto_front(points)


# --------------------------------------------------------------------- #
# Fig 12 — spurious tuples vs J-measure buckets
# --------------------------------------------------------------------- #

def spurious_vs_j_buckets(
    relation: Relation,
    thresholds: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5),
    schema_limit: int = 30,
    schema_budget_s: float = 8.0,
    n_buckets: int = 8,
    mvd_budget_s: Optional[float] = 20.0,
) -> List[Dict[str, object]]:
    """Quantiles of spurious-tuple %% per J-measure bucket (one box each)."""
    maimon = EngineSpec().make_maimon(relation)
    samples: List[Tuple[float, float]] = []
    seen = set()
    for eps in thresholds:
        budget = SearchBudget(max_seconds=schema_budget_s)  # lazy start: clock begins after phase 1
        mvd_budget = (
            SearchBudget(max_seconds=mvd_budget_s).start()
            if mvd_budget_s is not None
            else None
        )
        for ds in maimon.discover_schemas(
            eps,
            limit=schema_limit,
            schema_budget=budget,
            mvd_budget=mvd_budget,
            with_spurious=True,
        ):
            if ds.schema in seen:
                continue
            seen.add(ds.schema)
            samples.append((ds.j_measure, ds.quality.spurious_pct or 0.0))
    if not samples:
        return []
    # Like the paper's Fig. 12 axes: J clipped to [0, max threshold], with a
    # dedicated near-zero bucket so Lee's J=0 <=> E=0 shows up cleanly.
    j_max = max(max(thresholds), 1e-9)
    samples = [(j, e) for j, e in samples if j <= j_max + 1e-9]
    if not samples:
        return []
    js = np.array([s[0] for s in samples])
    es = np.array([s[1] for s in samples])
    zero_cut = 0.01
    edges = np.concatenate(
        ([0.0, zero_cut], np.linspace(zero_cut, j_max, n_buckets)[1:])
    )
    rows = []
    for k in range(len(edges) - 1):
        lo, hi = edges[k], edges[k + 1]
        mask = (js >= lo) & (js <= hi if k == len(edges) - 2 else js < hi)
        if not mask.any():
            continue
        sub = es[mask]
        rows.append(
            {
                "J_bucket": f"[{lo:.3f},{hi:.3f})",
                "n_schemas": int(mask.sum()),
                "E%_q25": round(float(np.percentile(sub, 25)), 2),
                "E%_median": round(float(np.percentile(sub, 50)), 2),
                "E%_q75": round(float(np.percentile(sub, 75)), 2),
                "E%_max": round(float(sub.max()), 2),
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Fig 13 — row scalability of minimal-separator mining
# --------------------------------------------------------------------- #

def row_scalability(
    name: str,
    fractions: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 1.0),
    eps_values: Sequence[float] = (0.0, 0.01, 0.1),
    base_rows: int = 4000,
    max_cols: Optional[int] = 12,
    time_limit_s: float = 30.0,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Minimal-separator mining time vs #rows (10%..100% subsets)."""
    full = datasets.load(name, scale=1.0, max_rows=base_rows, max_cols=max_cols)
    rows_out: List[Dict[str, object]] = []
    for frac in fractions:
        k = max(32, int(round(full.n_rows * frac)))
        sub = full.sample_rows(k, seed=seed)
        for eps in eps_values:
            oracle = EngineSpec().make_oracle(sub)
            budget = SearchBudget(max_seconds=time_limit_s).start()
            t0 = time.perf_counter()
            seps = mine_all_min_seps(oracle, eps, budget=budget)
            elapsed = time.perf_counter() - t0
            n_seps = len({s for lst in seps.values() for s in lst})
            rows_out.append(
                {
                    "dataset": name,
                    "rows": sub.n_rows,
                    "frac": frac,
                    "eps": eps,
                    "runtime_s": round(elapsed, 3),
                    "min_seps": n_seps,
                    "queries": oracle.queries,
                    "evals": oracle.evals,
                    "timed_out": budget.exhausted,
                }
            )
    return rows_out


# --------------------------------------------------------------------- #
# Fig 14 — column scalability of minimal-separator mining
# --------------------------------------------------------------------- #

def column_scalability(
    name: str,
    col_counts: Sequence[int] = (5, 8, 11, 14),
    eps_values: Sequence[float] = (0.0, 0.01, 0.1),
    max_rows: int = 2000,
    time_limit_s: float = 30.0,
) -> List[Dict[str, object]]:
    """Runtime and #minimal separators vs #columns (prefix subsets)."""
    spec = datasets.spec(name)
    rows_out: List[Dict[str, object]] = []
    for n_cols in col_counts:
        cols = min(n_cols, spec.n_cols)
        relation = datasets.load(name, scale=1.0, max_rows=max_rows, max_cols=cols)
        for eps in eps_values:
            oracle = EngineSpec().make_oracle(relation)
            budget = SearchBudget(max_seconds=time_limit_s).start()
            t0 = time.perf_counter()
            seps = mine_all_min_seps(oracle, eps, budget=budget)
            elapsed = time.perf_counter() - t0
            n_seps = len({s for lst in seps.values() for s in lst})
            rows_out.append(
                {
                    "dataset": name,
                    "cols": cols,
                    "eps": eps,
                    "runtime_s": round(elapsed, 3),
                    "min_seps": n_seps,
                    "timed_out": budget.exhausted,
                }
            )
    return rows_out


# --------------------------------------------------------------------- #
# Exec subsystem — serial vs batched/parallel vs warm-cache mining
# --------------------------------------------------------------------- #

def exec_scalability(
    name: str = "Image",
    fractions: Sequence[float] = (0.5, 1.0),
    workers: Sequence[int] = (1, 2, 4),
    eps: float = 0.01,
    base_rows: int = 4000,
    max_cols: Optional[int] = 10,
    time_limit_s: float = 60.0,
    seed: int = 0,
    persist_dir: Optional[str] = None,
) -> Dict[str, object]:
    """The Fig. 13 row-scalability workload under the exec subsystem.

    Runs ``mine_all_min_seps`` on row fractions of a dataset for each
    worker count (``workers=1`` is the serial seed path) and, when
    ``persist_dir`` is given, once more serially against a warm on-disk
    entropy cache.  Returns a machine-readable payload (see
    :func:`write_bench_json`) with per-run wall time, the oracle's logical
    ``queries`` and engine ``evals`` counters, and serial-vs-parallel
    speedups per row fraction.  ``cpu_count`` is recorded because process
    pools cannot beat serial on single-core hosts.
    """
    full = datasets.load(name, scale=1.0, max_rows=base_rows, max_cols=max_cols)
    runs: List[Dict[str, object]] = []
    serial_time: Dict[float, float] = {}
    for frac in fractions:
        k = max(32, int(round(full.n_rows * frac)))
        sub = full.sample_rows(k, seed=seed)
        baseline = None  # the full pair -> separators map of the serial run
        for w in workers:
            oracle = EngineSpec(workers=w).make_oracle(sub)
            budget = SearchBudget(max_seconds=time_limit_s).start()
            t0 = time.perf_counter()
            seps = mine_all_min_seps(oracle, eps, budget=budget)
            elapsed = time.perf_counter() - t0
            oracle.close()
            n_seps = len({s for lst in seps.values() for s in lst})
            if w == 1:
                serial_time[frac] = elapsed
                baseline = seps
            runs.append(
                {
                    "mode": "parallel" if w > 1 else "serial",
                    "rows": sub.n_rows,
                    "frac": frac,
                    "workers": w,
                    "runtime_s": round(elapsed, 3),
                    "min_seps": n_seps,
                    "queries": oracle.queries,
                    "evals": oracle.evals,
                    "prefetched": getattr(oracle, "prefetched", 0),
                    "speedup_vs_serial": (
                        round(serial_time[frac] / elapsed, 3)
                        if frac in serial_time and elapsed > 0
                        else None
                    ),
                    # Exact parity: the same separators for the same pairs,
                    # not just the same count.
                    "matches_serial": None if baseline is None else seps == baseline,
                    "timed_out": budget.exhausted,
                }
            )
        if persist_dir is not None:
            # Cold run fills the on-disk cache, warm run measures the skip.
            for attempt in ("persist_cold", "persist_warm"):
                oracle = EngineSpec(persist=True, cache_dir=persist_dir).make_oracle(sub)
                budget = SearchBudget(max_seconds=time_limit_s).start()
                t0 = time.perf_counter()
                seps = mine_all_min_seps(oracle, eps, budget=budget)
                elapsed = time.perf_counter() - t0
                oracle.close()
                n_seps = len({s for lst in seps.values() for s in lst})
                runs.append(
                    {
                        "mode": attempt,
                        "rows": sub.n_rows,
                        "frac": frac,
                        "workers": 1,
                        "runtime_s": round(elapsed, 3),
                        "min_seps": n_seps,
                        "queries": oracle.queries,
                        "evals": oracle.evals,
                        "persist_hits": getattr(oracle, "persist_hits", 0),
                        "speedup_vs_serial": (
                            round(serial_time[frac] / elapsed, 3)
                            if frac in serial_time and elapsed > 0
                            else None
                        ),
                        "matches_serial": (
                            None if baseline is None else seps == baseline
                        ),
                        "timed_out": budget.exhausted,
                    }
                )
    best_parallel = {
        f"frac={frac:g}": max(
            (
                r["speedup_vs_serial"]
                for r in runs
                if r["mode"] == "parallel"
                and r["frac"] == frac
                and r["speedup_vs_serial"] is not None
            ),
            default=None,
        )
        for frac in fractions
    }
    return {
        "bench": "exec_scalability",
        "dataset": name,
        "eps": eps,
        "cpu_count": os.cpu_count(),
        "workers": list(workers),
        "runs": runs,
        "best_parallel_speedup": best_parallel,
        "note": (
            "speedup_vs_serial compares each run to the workers=1 seed path "
            "on the same rows; parallel speedup requires cpu_count > 1, "
            "persist_warm speedup requires a warm cache directory"
        ),
    }


# --------------------------------------------------------------------- #
# Serve subsystem — cold single-shot vs warm-session request latency
# --------------------------------------------------------------------- #

def serve_benchmark(
    name: str = "Image",
    scale: float = 1.0,
    max_rows: Optional[int] = 1500,
    max_cols: Optional[int] = 10,
    eps: float = 0.01,
    n_requests: int = 12,
    clients: Sequence[int] = (1, 2, 4),
    cold_runs: int = 3,
    budget_s: float = 60.0,
) -> Dict[str, object]:
    """Serving-layer latency: cold one-shot runs vs warm-session requests.

    The cold baseline repeats the full per-invocation bill of the one-shot
    CLI — load the dataset, build a fresh ``Maimon`` (engines, caches),
    mine, tear down.  The warm arm starts a real ``repro.serve`` HTTP
    server, uploads the dataset once, then measures end-to-end request
    latency (client → HTTP → job pool → warm session) for 1..k concurrent
    clients.  Returns a payload with requests/sec, p50/p95 latency per
    client count, and the warm-vs-cold speedup.
    """
    import csv as _csv
    import io as _io
    import threading

    from repro.serve import MiningService, ServeClient, start_background

    relation = datasets.load(name, scale=scale, max_rows=max_rows, max_cols=max_cols)

    cold_times: List[float] = []
    for _ in range(max(1, cold_runs)):
        t0 = time.perf_counter()
        fresh = datasets.load(name, scale=scale, max_rows=max_rows, max_cols=max_cols)
        maimon = EngineSpec().make_maimon(fresh)
        maimon.mine_mvds(eps, budget=SearchBudget(max_seconds=budget_s))
        maimon.close()
        cold_times.append(time.perf_counter() - t0)
    cold_mean = sum(cold_times) / len(cold_times)

    buf = _io.StringIO()
    writer = _csv.writer(buf)
    writer.writerow(relation.columns)
    writer.writerows([str(v) for v in row] for row in relation.rows())
    csv_text = buf.getvalue()

    service = MiningService(
        job_workers=max(clients), max_request_seconds=budget_s
    )
    server, _thread = start_background(service)
    base_url = f"http://127.0.0.1:{server.server_port}"
    warm_rows: List[Dict[str, object]] = []
    try:
        client = ServeClient(base_url)
        dataset_id = client.upload_csv(text=csv_text, name=name)["dataset_id"]
        client.mine(dataset_id, eps=eps)  # warm-up: fills session + MVD cache

        for c in clients:
            latencies: List[float] = []
            failures: List[BaseException] = []
            lock = threading.Lock()

            def issue(count: int) -> None:
                try:
                    local = ServeClient(base_url)
                    for _ in range(count):
                        t0 = time.perf_counter()
                        resp = local.mine(dataset_id, eps=eps)
                        dt = time.perf_counter() - t0
                        if resp.get("status") != "done":
                            raise RuntimeError(f"warm request failed: {resp}")
                        with lock:
                            latencies.append(dt)
                except BaseException as exc:
                    with lock:
                        failures.append(exc)

            shares = [
                n_requests // c + (1 if i < n_requests % c else 0) for i in range(c)
            ]
            threads = [
                threading.Thread(target=issue, args=(k,)) for k in shares if k
            ]
            t_start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            total = time.perf_counter() - t_start
            if failures:
                # Partial stats would silently misreport the bench.
                raise RuntimeError(
                    f"{len(failures)} warm request(s) failed with {c} "
                    f"client(s); first: {failures[0]}"
                ) from failures[0]
            lat = np.array(sorted(latencies))
            p50 = float(np.percentile(lat, 50))
            warm_rows.append(
                {
                    "mode": "warm",
                    "clients": c,
                    "requests": len(latencies),
                    "total_s": round(total, 4),
                    "rps": round(len(latencies) / total, 2) if total > 0 else None,
                    "p50_ms": round(p50 * 1000, 3),
                    "p95_ms": round(float(np.percentile(lat, 95)) * 1000, 3),
                    "mean_ms": round(float(lat.mean()) * 1000, 3),
                    "speedup_vs_cold": round(cold_mean / p50, 2) if p50 > 0 else None,
                }
            )

        obs = _serve_obs_section(client, dataset_id, eps, n_requests)
    finally:
        server.close()

    one_client = next((r for r in warm_rows if r["clients"] == 1), warm_rows[0])
    return {
        "bench": "serve_latency",
        "dataset": name,
        "rows": relation.n_rows,
        "cols": relation.n_cols,
        "eps": eps,
        "cpu_count": os.cpu_count(),
        "cold_single_shot": {
            "runs": [round(t, 4) for t in cold_times],
            "mean_s": round(cold_mean, 4),
        },
        "warm": warm_rows,
        "warm_speedup_vs_cold": one_client["speedup_vs_cold"],
        "obs": obs,
        "note": (
            "cold = load dataset + fresh Maimon + mine + teardown per request "
            "(the one-shot CLI bill); warm = end-to-end HTTP request latency "
            "against one warm repro.serve session (shared oracle memo, PLI "
            "caches and phase-1 result cache); obs = observability overhead "
            "(disabled-span micro-bench, traced vs plain warm p50) and the "
            "session-lock wait histogram scraped from /metrics"
        ),
    }


def _noop_span_overhead_ns(iterations: int = 200_000) -> float:
    """Per-call cost of ``span()`` while tracing is disabled, nanoseconds.

    The obs layer's contract is that disabled spans are near-free; this
    measures the actual bill (thread-local read + None check + shared
    no-op context manager) against an empty loop baseline.
    """
    from repro.obs.trace import span as _span

    r = range(iterations)
    t0 = time.perf_counter()
    for _ in r:
        pass
    baseline = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in r:
        with _span("x"):
            pass
    elapsed = time.perf_counter() - t0
    return max(0.0, elapsed - baseline) / iterations * 1e9


def _serve_obs_section(client, dataset_id: str, eps: float,
                       n_requests: int) -> Dict[str, object]:
    """Observability-cost arm of the serve bench (metrics + tracing on).

    Runs back-to-back single-client warm sweeps with tracing off and on
    (same session, same cached result — the delta is pure span overhead),
    measures the disabled-span fast path, and scrapes ``/metrics`` for
    the session-lock wait histogram the multi-client sweep just filled.
    """
    def sweep(**opts) -> float:
        times: List[float] = []
        for _ in range(max(4, n_requests)):
            t0 = time.perf_counter()
            resp = client.mine(dataset_id, eps=eps, **opts)
            dt = time.perf_counter() - t0
            if resp.get("status") != "done":
                raise RuntimeError(f"obs-arm request failed: {resp}")
            times.append(dt)
        return float(np.percentile(np.array(times), 50))

    plain_p50 = sweep()
    traced_p50 = sweep(trace=True)

    lock_count = 0.0
    lock_sum = 0.0
    for line in client.metrics().splitlines():
        if line.startswith("repro_session_lock_wait_seconds_count"):
            lock_count = float(line.split()[-1])
        elif line.startswith("repro_session_lock_wait_seconds_sum"):
            lock_sum = float(line.split()[-1])
    return {
        "noop_span_ns": round(_noop_span_overhead_ns(), 1),
        "warm_p50_ms": round(plain_p50 * 1000, 3),
        "traced_warm_p50_ms": round(traced_p50 * 1000, 3),
        "trace_overhead_pct": (
            round((traced_p50 / plain_p50 - 1.0) * 100.0, 2)
            if plain_p50 > 0 else None
        ),
        "lock_wait": {
            "count": lock_count,
            "sum_s": round(lock_sum, 6),
            "mean_ms": (
                round(lock_sum / lock_count * 1000, 3) if lock_count else None
            ),
        },
    }


def delta_append_benchmark(
    rows_list: Sequence[int] = (10_000, 50_000),
    n_cols: int = 8,
    eps: float = 0.0,
    batch: int = 200,
    appends: int = 3,
    seed: int = 7,
) -> Dict[str, object]:
    """Warm append+re-mine vs cold full re-mine (the ``repro.delta`` bench).

    For each base size N a markov-tree surrogate of ``N + appends*batch``
    rows is generated and its head mined once to warm a delta-tracking
    ``Maimon``.  Then, per arriving batch:

    * **warm** — ``append_rows`` (incremental dictionary encoding + memo
      patching) followed by a re-mine on the warm session;
    * **cold** — rebuild the concatenated relation from raw rows and mine
      it on a fresh ``Maimon`` (the full bill an evolution-unaware system
      pays per change).

    Both arms' results are compared per version (``parity``), and engine
    ``evals`` are recorded — the incremental path must do strictly fewer.
    """
    from repro import io as repro_io
    from repro.data.generators import markov_tree

    configs: List[Dict[str, object]] = []
    for n in rows_list:
        total = n + appends * batch
        full = markov_tree(n_cols, total, seed=seed, name=f"delta{n}")
        rows = full.rows()
        columns = full.columns

        base = Relation.from_rows(rows[:n], columns, name=full.name)
        t0 = time.perf_counter()
        warm = EngineSpec(track_deltas=True).make_maimon(base)
        warm.mine_mvds(eps)
        warm_setup_s = time.perf_counter() - t0
        warm_times: List[float] = []
        warm_evals: List[int] = []
        warm_payloads: List[dict] = []
        for v in range(appends):
            lo, hi = n + v * batch, n + (v + 1) * batch
            warm.reset_counters()
            t0 = time.perf_counter()
            warm.append_rows(rows[lo:hi])
            result = warm.mine_mvds(eps)
            warm_times.append(time.perf_counter() - t0)
            warm_evals.append(warm.counters()["oracle.evals"])
            warm_payloads.append(repro_io.miner_result_to_dict(result, columns))
        warm.close()

        cold_times: List[float] = []
        cold_evals: List[int] = []
        parity = True
        for v in range(appends):
            hi = n + (v + 1) * batch
            t0 = time.perf_counter()
            relation = Relation.from_rows(rows[:hi], columns, name=full.name)
            cold = EngineSpec().make_maimon(relation)
            result = cold.mine_mvds(eps)
            cold_times.append(time.perf_counter() - t0)
            cold_evals.append(cold.counters()["oracle.evals"])
            payload = repro_io.miner_result_to_dict(result, columns)
            parity = parity and (
                payload["mvds"] == warm_payloads[v]["mvds"]
                and payload["min_seps"] == warm_payloads[v]["min_seps"]
            )
            cold.close()

        warm_p50 = float(np.percentile(np.array(warm_times), 50))
        cold_p50 = float(np.percentile(np.array(cold_times), 50))
        configs.append(
            {
                "rows_base": n,
                "batch": batch,
                "appends": appends,
                "cols": n_cols,
                "warm_setup_s": round(warm_setup_s, 4),
                "warm_p50_s": round(warm_p50, 5),
                "cold_p50_s": round(cold_p50, 5),
                "speedup_p50": round(cold_p50 / warm_p50, 2) if warm_p50 > 0 else None,
                "warm_evals": warm_evals,
                "cold_evals": cold_evals,
                "parity": parity,
            }
        )
    return {
        "bench": "delta_append",
        "eps": eps,
        "cpu_count": os.cpu_count(),
        "runs": configs,
        "note": (
            "warm = append_rows (incremental encode + entropy memo patching "
            "via repro.delta) + re-mine on the warm session; cold = rebuild "
            "the concatenated relation + mine on a fresh Maimon; parity "
            "asserts identical mvds/min_seps payloads per version"
        ),
    }


def approx_scale_benchmark(
    rows_list: Sequence[int] = (100_000, 1_000_000, 10_000_000),
    n_cols: int = 8,
    eps: float = 0.1,
    sample_rows: int = 50_000,
    confidence: float = 0.95,
    seed: int = 7,
    domain_size: int = 3,
    fd_fraction: float = 0.5,
    determinism: float = 0.95,
) -> Dict[str, object]:
    """Approx-vs-exact mining at scale (the ``repro.approx`` bench).

    For each row count a markov-tree surrogate is mined twice at the same
    ε: once with ``engine="approx"`` (sampled decisions, exact
    escalation) and once with the exact PLI engine.  Per size the bench
    records wall time and rows/sec for both arms, the escalation
    counters, and ``agreement`` — whether the two arms returned the
    *identical* full MVDs and minimal separators, which is the whole
    point of escalation (``eps > 0`` is the regime that benefits: at
    ``eps = 0`` a "holds" verdict can never be certified from a sample,
    so every satisfied dependency escalates and the arms converge).

    Generator defaults are FD-rich / low-domain so attribute-set supports
    stay well under the sample size; that is the regime the paper's real
    datasets live in (entropies far below ``log2 N``).
    """
    from repro.core.maimon import Maimon
    from repro.data.generators import markov_tree

    runs: List[Dict[str, object]] = []
    for n in rows_list:
        relation = markov_tree(
            n_cols, n, seed=seed, domain_size=domain_size,
            fd_fraction=fd_fraction, determinism=determinism,
            name=f"approx{n}",
        )
        approx_spec = EngineSpec(
            engine="approx", sample_rows=sample_rows, confidence=confidence
        )
        t0 = time.perf_counter()
        approx = Maimon(relation, spec=approx_spec)
        approx_result = approx.mine_mvds(eps)
        approx_s = time.perf_counter() - t0
        counters = approx.counters()
        approx.close()

        t0 = time.perf_counter()
        exact = Maimon(relation)
        exact_result = exact.mine_mvds(eps)
        exact_s = time.perf_counter() - t0
        exact_counters = exact.counters()
        exact.close()

        agreement = sorted(exact_result.mvds) == sorted(approx_result.mvds) and {
            pair: sorted(seps) for pair, seps in exact_result.min_seps.items()
        } == {pair: sorted(seps) for pair, seps in approx_result.min_seps.items()}
        runs.append(
            {
                "rows": n,
                "cols": n_cols,
                "approx_s": round(approx_s, 3),
                "exact_s": round(exact_s, 3),
                "speedup": round(exact_s / approx_s, 2) if approx_s > 0 else None,
                "approx_rows_per_s": round(n / approx_s) if approx_s > 0 else None,
                "exact_rows_per_s": round(n / exact_s) if exact_s > 0 else None,
                "mvds": len(approx_result.mvds),
                "min_seps": sum(len(v) for v in approx_result.min_seps.values()),
                "agreement": agreement,
                "escalations": counters.get("approx.escalations", 0),
                "exact_evals": counters.get("approx.exact_evals", 0),
                "sampled_evals": counters["oracle.evals"],
                "exact_engine_evals": exact_counters["oracle.evals"],
            }
        )
    return {
        "bench": "approx_scale",
        "eps": eps,
        "sample_rows": sample_rows,
        "confidence": confidence,
        "generator": {
            "kind": "markov_tree",
            "seed": seed,
            "domain_size": domain_size,
            "fd_fraction": fd_fraction,
            "determinism": determinism,
        },
        "cpu_count": os.cpu_count(),
        "runs": runs,
        "note": (
            "approx = engine='approx' (decisions from a row sample via "
            "combination confidence intervals, boundary cases escalated to "
            "an exact PLI tier, see repro.approx); exact = the PLI engine "
            "on all rows; agreement asserts identical full MVDs and "
            "minimal separators"
        ),
    }


def kernel_benchmark(
    rows_list: Sequence[int] = (100_000, 1_000_000),
    n_cols: int = 8,
    eps: float = 0.1,
    seed: int = 7,
    domain_size: int = 3,
    fd_fraction: float = 0.5,
    determinism: float = 0.95,
    gate_margin: float = 1.10,
) -> Dict[str, object]:
    """Counts-first kernel throughput, gated against the legacy sort kernel.

    Per row count, on the same markov-tree surrogate the approx scale
    bench uses (so the numbers compose with BENCH_scale.json):

    * **micro arm** — every non-empty attribute subset evaluated once on
      a fresh dispatcher and once through the forced legacy sort
      (pairwise int64 compose + ``np.unique``).  Entropies must be
      bit-identical; per-arm throughput is ``rows * subsets / elapsed``.
    * **mining arm** — a full exact ``engine="pli"`` mine, reporting its
      time and the kernel dispatch counters it accrued.

    The **regression gate** fails (``gate.passed = False``, and the bench
    CLI exits non-zero) if the dispatched micro arm is slower than the
    forced legacy sort beyond ``gate_margin`` on any size, or if the two
    arms' entropies disagree — i.e. if dispatch ever picks a kernel that
    loses to the path it replaced on the reference workload.
    """
    import itertools

    from repro import kernels as kern
    from repro.core.maimon import Maimon
    from repro.data.generators import markov_tree

    runs: List[Dict[str, object]] = []
    gate_failures: List[str] = []
    for n in rows_list:
        relation = markov_tree(
            n_cols, n, seed=seed, domain_size=domain_size,
            fd_fraction=fd_fraction, determinism=determinism,
            name=f"kernel{n}",
        )
        subsets = [
            idx
            for size in range(1, n_cols + 1)
            for idx in itertools.combinations(range(n_cols), size)
        ]

        # Micro arm: dispatched vs forced-legacy evals.  One throwaway
        # eval first: lazy imports and first-touch ufunc setup would
        # otherwise be billed to whichever arm runs first.
        kern.GroupCounter(relation.codes, relation.radix).entropy(subsets[-1])
        dispatched = kern.GroupCounter(relation.codes, relation.radix)
        t0 = time.perf_counter()
        h_dispatch = [dispatched.entropy(idx) for idx in subsets]
        dispatch_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        h_legacy = []
        for idx in subsets:
            keys = relation.codes[:, idx[0]].astype(np.int64, copy=True)
            for j in idx[1:]:
                keys *= max(relation.radix[j], 1)
                keys += relation.codes[:, j]
            counts = np.unique(keys, return_counts=True)[1]
            h_legacy.append(kern.entropy_from_counts(counts, n))
        legacy_s = time.perf_counter() - t0

        if h_dispatch != h_legacy:
            gate_failures.append(f"rows={n}: dispatched entropies disagree")
        # +50ms absolute slack so sub-second smoke runs never flake on
        # scheduler noise; at benchmark scale the margin dominates.
        if dispatch_s > legacy_s * gate_margin + 0.05:
            gate_failures.append(
                f"rows={n}: dispatched evals {dispatch_s:.3f}s slower than "
                f"legacy sort {legacy_s:.3f}s (margin {gate_margin:g})"
            )

        # Mining arm: full exact mine, counts-first.
        t0 = time.perf_counter()
        maimon = Maimon(relation)
        result = maimon.mine_mvds(eps)
        mine_s = time.perf_counter() - t0
        kernel_counters = {
            k[len("kernel."):]: v
            for k, v in maimon.counters().items()
            if k.startswith("kernel.")
        }
        maimon.close()

        evals = len(subsets)
        runs.append(
            {
                "rows": n,
                "cols": n_cols,
                "subsets": evals,
                "dispatch_evals_s": round(dispatch_s, 3),
                "legacy_evals_s": round(legacy_s, 3),
                "dispatch_eval_rows_per_s": (
                    round(n * evals / dispatch_s) if dispatch_s > 0 else None
                ),
                "legacy_eval_rows_per_s": (
                    round(n * evals / legacy_s) if legacy_s > 0 else None
                ),
                "eval_speedup": (
                    round(legacy_s / dispatch_s, 2) if dispatch_s > 0 else None
                ),
                "mine_s": round(mine_s, 3),
                "exact_rows_per_s": round(n / mine_s) if mine_s > 0 else None,
                "mvds": len(result.mvds),
                "kernels": kernel_counters,
            }
        )
    return {
        "bench": "kernel_scale",
        "eps": eps,
        "generator": {
            "kind": "markov_tree",
            "seed": seed,
            "domain_size": domain_size,
            "fd_fraction": fd_fraction,
            "determinism": determinism,
        },
        "cpu_count": os.cpu_count(),
        "runs": runs,
        "gate": {
            "passed": not gate_failures,
            "margin": gate_margin,
            "failures": gate_failures,
        },
        "note": (
            "micro arm = every non-empty attribute subset evaluated once "
            "per arm (dispatched kernels vs forced legacy np.unique sort), "
            "entropies bit-identical; mining arm = full exact engine='pli' "
            "mine, counts-first; the gate fails when dispatch loses to "
            "legacy beyond the margin"
        ),
    }


# --------------------------------------------------------------------- #
# Out-of-core store vs in-memory mining (the ``repro.backends`` bench)
# --------------------------------------------------------------------- #

def _store_arm(cfg: Dict[str, object]) -> Dict[str, object]:
    """Run one ``repro.bench.store_arm`` mode in a fresh subprocess.

    Fresh processes are load-bearing: ``ru_maxrss`` is process-wide and
    monotonic, so the in-memory arm's parse would otherwise inflate the
    out-of-core arm's reported peak (or vice versa).
    """
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench.store_arm"],
        input=json.dumps(cfg), capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"store bench arm {cfg['mode']!r} failed:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def _counts_parity_sweep(
    n_rows: int = 20_000,
    n_cols: int = 6,
    seed: int = 3,
    chunk_rows_list: Sequence[int] = (997, 4096, 20_000),
) -> Dict[str, object]:
    """Chunked-vs-in-memory counts parity over every attribute subset.

    Same data, two count paths — the dense ``GroupCounter`` and a real
    on-disk store read back through :class:`ChunkedGroupCounter` at
    several chunk sizes (including one that doesn't divide the row count
    and one larger than it).  Counts vectors must be *array-identical*
    (same ascending key order) and entropies bit-identical.
    """
    import itertools
    import shutil
    import tempfile

    from repro import kernels as kern
    from repro.backends import open_store_relation, write_store
    from repro.data.generators import markov_tree

    relation = markov_tree(n_cols, n_rows, seed=seed, name="parity")
    dense = kern.GroupCounter(relation.codes, relation.radix)
    subsets = [
        idx
        for size in range(1, n_cols + 1)
        for idx in itertools.combinations(range(n_cols), size)
    ]
    tmp = tempfile.mkdtemp(prefix="store-parity-")
    mismatches: List[str] = []
    checked = 0
    try:
        store = os.path.join(tmp, "store")
        write_store(relation, store)
        for chunk in chunk_rows_list:
            chunked = open_store_relation(store, chunk_rows=chunk).kernels
            for idx in subsets:
                checked += 1
                a = dense.counts(idx)
                b = chunked.counts(idx)
                if not np.array_equal(a, b):
                    mismatches.append(f"chunk_rows={chunk} idx={idx}: counts")
                elif dense.entropy(idx) != chunked.entropy(idx):
                    mismatches.append(f"chunk_rows={chunk} idx={idx}: entropy")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "rows": n_rows,
        "cols": n_cols,
        "chunk_rows": list(chunk_rows_list),
        "subsets_checked": checked,
        "passed": not mismatches,
        "mismatches": mismatches[:5],
    }


def store_benchmark(
    rows_list: Sequence[int] = (200_000,),
    n_cols: int = 8,
    eps: float = 0.01,
    seed: int = 0,
    budget_mb: Optional[float] = None,
    chunk_rows: Optional[int] = None,
) -> Dict[str, object]:
    """Out-of-core store mining vs the in-memory pipeline, with gates.

    Per row count a markov-tree surrogate is written to CSV once, then
    both arms start from those bytes in separate subprocesses (see
    :mod:`repro.bench.store_arm`): the out-of-core arm ingests into a
    columnar store and mines through the chunk-streaming kernels; the
    in-memory arm parses the CSV into a ``Relation`` and mines as the
    CLI always has.  Gates:

    * **parity** — identical MVDs, minimal separators and relation
      fingerprints between the arms, on every size;
    * **memory** (only with ``budget_mb`` set) — at least one run's code
      matrix must be >= 4x the budget, and every such oversized run's
      out-of-core arm must keep peak RSS under the budget;
    * **counts parity** — the :func:`_counts_parity_sweep` subset sweep.
    """
    import shutil
    import tempfile

    from repro.backends import INGEST_CHUNK_ROWS

    chunk = int(chunk_rows or INGEST_CHUNK_ROWS)
    runs: List[Dict[str, object]] = []
    failures: List[str] = []
    workdir = tempfile.mkdtemp(prefix="store-bench-")
    try:
        for n in rows_list:
            csv_path = os.path.join(workdir, f"rows{n}.csv")
            store_path = os.path.join(workdir, f"rows{n}.store")
            gen = _store_arm({
                "mode": "gen", "rows": int(n), "cols": n_cols, "seed": seed,
                "csv": csv_path, "name": f"store{n}",
            })
            store = _store_arm({
                "mode": "store", "csv": csv_path, "store": store_path,
                "chunk_rows": chunk, "eps": eps,
            })
            memory = _store_arm({
                "mode": "memory", "csv": csv_path, "eps": eps,
            })
            parity = (
                store["mvds"] == memory["mvds"]
                and store["min_seps"] == memory["min_seps"]
                and store["fingerprint"] == memory["fingerprint"]
            )
            matrix_mb = gen["matrix_mb"]
            oversized = budget_mb is not None and matrix_mb >= 4 * budget_mb
            under = (
                store["peak_mb"] <= budget_mb if budget_mb is not None
                else None
            )
            if not parity:
                failures.append(f"rows={n}: arms disagree (parity)")
            if oversized and not under:
                failures.append(
                    f"rows={n}: out-of-core peak {store['peak_mb']} MB over "
                    f"the {budget_mb} MB budget (matrix {matrix_mb} MB)"
                )
            runs.append({
                "rows": int(n),
                "cols": n_cols,
                "matrix_mb": matrix_mb,
                "store_mb": round(store["store_bytes"] / 1e6, 2),
                "ingest_s": store["ingest_s"],
                "ingest_rows_per_s": (
                    round(n / store["ingest_s"]) if store["ingest_s"] > 0
                    else None
                ),
                "store_peak_mb": store["peak_mb"],
                "memory_peak_mb": memory["peak_mb"],
                "store_mine_s": store["mine_s"],
                "memory_mine_s": memory["mine_s"],
                "memory_load_s": memory["load_s"],
                "mvds": len(store["mvds"]),
                "fingerprint": store["fingerprint"],
                "oversized": oversized,
                "under_budget": under,
                "parity": parity,
                "chunked_counters": store["chunked"],
                "subprocess_baseline_mb": store["baseline_mb"],
            })
            os.remove(csv_path)
            shutil.rmtree(store_path, ignore_errors=True)
        if budget_mb is not None and not any(r["oversized"] for r in runs):
            failures.append(
                f"no run's code matrix reached 4x the {budget_mb} MB budget; "
                "pass larger --rows for an out-of-core proof"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    counts_parity = _counts_parity_sweep()
    if not counts_parity["passed"]:
        failures.append(
            "chunked counts disagree with in-memory kernels: "
            + "; ".join(counts_parity["mismatches"])
        )
    return {
        "bench": "store_out_of_core",
        "eps": eps,
        "seed": seed,
        "budget_mb": budget_mb,
        "ingest_chunk_rows": chunk,
        "runs": runs,
        "counts_parity": counts_parity,
        "gate": {"passed": not failures, "failures": failures},
        "note": (
            "store = ingest CSV into a columnar store directory + mine "
            "through repro.backends chunk-streaming kernels; memory = parse "
            "the same CSV into an in-memory Relation + mine; each arm is a "
            "fresh subprocess reporting its own ru_maxrss peak; parity "
            "asserts identical mvds/min_seps/fingerprints, and with a "
            "budget the out-of-core arm must stay under it on a workload "
            "whose code matrix is >= 4x the budget"
        ),
    }


#: Version of the shared BENCH_*.json envelope (the ``meta`` block below).
BENCH_SCHEMA_VERSION = 1


def bench_meta() -> Dict[str, object]:
    """The provenance block stamped into every BENCH_*.json.

    One shape for every bench file, so cross-bench tooling can tell *when*
    and *on what* a number was measured without per-bench parsing.
    """
    import platform

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def write_bench_json(payload: Dict[str, object], path: str = "BENCH_exec.json") -> str:
    """Write a bench payload as machine-readable JSON; returns the path.

    Every payload is stamped with the shared :func:`bench_meta` block
    (schema version, timestamp, python/numpy versions, CPU count) — the
    one place all BENCH_*.json provenance comes from.
    """
    payload = dict(payload)
    payload["meta"] = bench_meta()
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=False)
        f.write("\n")
    return path


# --------------------------------------------------------------------- #
# Fig 15 — schema quality vs threshold
# --------------------------------------------------------------------- #

def quality_sweep(
    relation: Relation,
    thresholds: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.3),
    schema_limit: int = 50,
    schema_budget_s: float = 8.0,
    mvd_budget_s: Optional[float] = 20.0,
) -> List[Dict[str, object]]:
    """Per threshold: #schemes, max #relations, min width, min intWidth."""
    maimon = EngineSpec().make_maimon(relation)
    rows = []
    for eps in thresholds:
        budget = SearchBudget(max_seconds=schema_budget_s)  # lazy start: clock begins after phase 1
        mvd_budget = (
            SearchBudget(max_seconds=mvd_budget_s).start()
            if mvd_budget_s is not None
            else None
        )
        n_schemes = 0
        max_m = 0
        min_width: Optional[int] = None
        min_intw: Optional[int] = None
        for ds in maimon.discover_schemas(
            eps,
            limit=schema_limit,
            schema_budget=budget,
            mvd_budget=mvd_budget,
            with_spurious=False,
        ):
            n_schemes += 1
            q = ds.quality
            max_m = max(max_m, q.n_relations)
            min_width = q.width if min_width is None else min(min_width, q.width)
            min_intw = (
                q.intersection_width
                if min_intw is None
                else min(min_intw, q.intersection_width)
            )
        rows.append(
            {
                "dataset": relation.name,
                "eps": eps,
                "n_schemes": n_schemes,
                "max_relations": max_m,
                "min_width": min_width,
                "min_intWidth": min_intw,
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Fig 18 — minimal separators to full MVDs
# --------------------------------------------------------------------- #

def full_mvd_rates(
    relation: Relation,
    thresholds: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5),
    time_limit_s: float = 10.0,
) -> List[Dict[str, object]]:
    """Per threshold: #minimal separators vs #full MVDs and the output rate.

    Mirrors Appendix 14: the separator sets are mined first; the reported
    runtime covers only the transition from separators to full MVDs.
    """
    rows = []
    for eps in thresholds:
        oracle = EngineSpec().make_oracle(relation)
        seps_budget = SearchBudget(max_seconds=time_limit_s * 3).start()
        seps_by_pair = mine_all_min_seps(oracle, eps, budget=seps_budget)
        budget = SearchBudget(max_seconds=time_limit_s).start()
        t0 = time.perf_counter()
        full = set()
        for pair, seps in seps_by_pair.items():
            for x in seps:
                if budget.exhausted:
                    break
                for phi in get_full_mvds(oracle, x, eps, pair=pair, budget=budget):
                    full.add(phi)
        elapsed = time.perf_counter() - t0
        n_seps = len({s for lst in seps_by_pair.values() for s in lst})
        rows.append(
            {
                "dataset": relation.name,
                "eps": eps,
                "min_seps": n_seps,
                "full_mvds": len(full),
                "runtime_s": round(elapsed, 3),
                "mvds_per_s": round(len(full) / elapsed, 1) if elapsed > 0 else None,
                "timed_out": budget.exhausted,
            }
        )
    return rows
