"""Tests for :mod:`repro.obs` — metrics registry, tracing, serve wiring.

Covers the observability contracts the rest of the system leans on:

* the registry's thread-safety, histogram bucket-edge semantics and
  Prometheus text exposition shape;
* span-tree nesting, aggregation-by-name and run-to-run determinism;
* the golden parity guarantee — artefacts with ``trace`` disabled are
  byte-identical to pre-trace output, and the trace block never leaks
  into provenance;
* the serve layer's ``/metrics`` endpoint, per-job timing fields,
  slow-request accounting and structured JSON request logs.
"""

import io
import json
import threading
import time

import pytest

from repro import api
from repro.api import DataSpec, EngineSpec, MineSpec, TaskRequest
from repro.core.maimon import Maimon
from repro.data.generators import paper_running_example
from repro.data.loaders import to_csv
from repro.obs.counters import flatten_counters
from repro.obs.logs import JsonLogger
from repro.obs.registry import (
    Counter,
    Histogram,
    MetricsRegistry,
    TimedLock,
)
from repro.obs.trace import ACTIVE, _NOOP, format_trace, span, start_trace


@pytest.fixture
def fig1_csv(tmp_path):
    path = str(tmp_path / "fig1.csv")
    to_csv(paper_running_example(), path)
    return path


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

class TestCounters:
    def test_inc_and_value(self):
        c = Counter("t_total", "help")
        c.inc()
        c.inc(2)
        assert c.value() == 3

    def test_labelled_children(self):
        c = Counter("t_total", "", labelnames=("task",))
        c.inc(task="mine")
        c.inc(task="mine")
        c.inc(task="schemas")
        assert c.value(task="mine") == 2
        assert c.value(task="schemas") == 1

    def test_wrong_label_set_is_an_error(self):
        c = Counter("t_total", "", labelnames=("task",))
        with pytest.raises(ValueError):
            c.inc(job="mine")
        with pytest.raises(ValueError):
            c.inc()

    def test_concurrent_increments_lose_nothing(self):
        c = Counter("t_total", "")
        n_threads, per_thread = 8, 2000

        def work():
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == n_threads * per_thread

    def test_set_total_absorbs_external_tallies(self):
        c = Counter("t_total", "", labelnames=("event",))
        c.set_total(41, event="hits")
        c.set_total(42, event="hits")
        assert c.value(event="hits") == 42


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        # Prometheus semantics: le is an inclusive upper bound, so a
        # value exactly on a boundary lands in that bucket.
        h = Histogram("h", "", buckets=(1.0, 2.0, 5.0))
        h.observe(1.0)
        h.observe(2.0)
        h.observe(2.0001)
        h.observe(7.0)  # above every finite bucket: +Inf only
        lines = h.sample_lines()
        by_le = {}
        for line in lines:
            if "_bucket" in line:
                le = line.split('le="')[1].split('"')[0]
                by_le[le] = int(line.split()[-1])
        assert by_le == {"1": 1, "2": 2, "5": 3, "+Inf": 4}

    def test_sum_and_count(self):
        h = Histogram("h", "", buckets=(1.0,))
        h.observe(0.5)
        h.observe(2.5)
        snap = h.snapshot()
        assert snap["count"] == 2
        assert snap["sum"] == pytest.approx(3.0)

    def test_buckets_are_sorted_and_required(self):
        h = Histogram("h", "", buckets=(5.0, 1.0, 2.0))
        assert h.buckets == (1.0, 2.0, 5.0)
        with pytest.raises(ValueError):
            Histogram("h2", "", buckets=())


class TestRegistryExposition:
    def test_families_render_headers_before_first_sample(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "first")
        reg.histogram("b_seconds", "second")
        text = reg.render()
        assert "# HELP a_total first" in text
        assert "# TYPE a_total counter" in text
        assert "# TYPE b_seconds histogram" in text
        assert text.endswith("\n")

    def test_full_exposition_shape(self):
        reg = MetricsRegistry()
        c = reg.counter("req_total", "requests", labelnames=("task",))
        g = reg.gauge("depth", "queue depth")
        h = reg.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        c.inc(task="mine")
        g.set(3)
        h.observe(0.05)
        h.observe(0.5)
        lines = reg.render().splitlines()
        assert 'req_total{task="mine"} 1' in lines
        assert "depth 3" in lines
        assert 'lat_seconds_bucket{le="0.1"} 1' in lines
        assert 'lat_seconds_bucket{le="1"} 2' in lines
        assert 'lat_seconds_bucket{le="+Inf"} 2' in lines
        assert "lat_seconds_sum 0.55" in lines
        assert "lat_seconds_count 2" in lines

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        c = reg.counter("e_total", "", labelnames=("name",))
        c.inc(name='we"ird\nname\\x')
        assert 'name="we\\"ird\\nname\\\\x"' in reg.render()

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "help", labelnames=("k",))
        b = reg.counter("x_total", "other help", labelnames=("k",))
        assert a is b

    def test_kind_and_label_mismatch_are_errors(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "")
        with pytest.raises(ValueError):
            reg.gauge("x_total", "")
        with pytest.raises(ValueError):
            reg.counter("x_total", "", labelnames=("task",))

    def test_callbacks_run_on_render(self):
        reg = MetricsRegistry()
        g = reg.gauge("swept", "")
        reg.register_callback(lambda: g.set(7))
        assert "swept 7" in reg.render()


class TestTimedLock:
    def test_plain_mutex_without_histogram(self):
        lock = TimedLock()
        with lock:
            assert lock.locked()
        assert not lock.locked()

    def test_wait_time_is_observed(self):
        h = Histogram("w_seconds", "", buckets=(0.001, 1.0))
        lock = TimedLock(h)
        hold_s = 0.05
        with lock:
            t = threading.Thread(target=lambda: lock.acquire() or lock.release())
            t.start()
            time.sleep(hold_s)
        t.join()
        snap = h.snapshot()
        # Two acquires total: the uncontended one (~0) and the waiter.
        assert snap["count"] == 2
        assert snap["sum"] >= hold_s * 0.5


# --------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------- #

def _traced_workload():
    with start_trace("job") as trace:
        with span("plan"):
            pass
        for _ in range(3):
            with span("batch"):
                for _ in range(2):
                    with span("kernel"):
                        pass
    return trace.to_dict()


class TestTrace:
    def test_disabled_span_is_the_shared_noop(self):
        assert ACTIVE.trace is None
        assert span("anything") is _NOOP
        with span("anything"):
            pass  # must be harmless

    def test_nesting_and_aggregation_by_name(self):
        tree = _traced_workload()
        assert tree["name"] == "job" and tree["count"] == 1
        names = [c["name"] for c in tree["children"]]
        assert names == ["plan", "batch"]
        batch = tree["children"][1]
        assert batch["count"] == 3  # aggregated, not three nodes
        [kernel] = batch["children"]
        assert kernel["name"] == "kernel" and kernel["count"] == 6
        assert kernel["parent_id"] == batch["id"]
        assert batch["parent_id"] == tree["id"] == 0

    def test_deterministic_structure_across_runs(self):
        def strip_times(node):
            return {
                "name": node["name"],
                "id": node["id"],
                "parent_id": node["parent_id"],
                "count": node["count"],
                "children": [strip_times(c) for c in node["children"]],
            }

        assert strip_times(_traced_workload()) == strip_times(_traced_workload())

    def test_active_trace_restored_after_block(self):
        assert ACTIVE.trace is None
        with start_trace("outer") as outer:
            assert ACTIVE.trace is outer
            with start_trace("inner") as inner:
                assert ACTIVE.trace is inner
            assert ACTIVE.trace is outer
        assert ACTIVE.trace is None

    def test_total_time_accumulates(self):
        with start_trace("t") as trace:
            with span("work"):
                time.sleep(0.01)
        tree = trace.to_dict()
        [work] = tree["children"]
        assert work["total_ms"] >= 5
        assert tree["total_ms"] >= work["total_ms"]

    def test_format_trace_renders_tree_and_summary(self):
        text = format_trace(_traced_workload(), top=2)
        assert text.startswith("trace: job")
        assert "kernel" in text and "x6" in text
        assert "top self-time:" in text
        # top=2 caps the summary table.
        summary = text.split("top self-time:")[1]
        assert len([ln for ln in summary.splitlines() if ln.strip()]) == 2


# --------------------------------------------------------------------- #
# Flat counter namespace
# --------------------------------------------------------------------- #

class TestFlattenCounters:
    def test_pli_maimon_namespace(self, fig1):
        with Maimon(fig1) as m:
            m.mine_mvds(0.0)
            counters = m.counters()
        assert counters["oracle.queries"] > 0
        assert set(counters) >= {
            "oracle.queries", "oracle.evals", "engine.fast_entropies",
        }
        assert not {"engine.products", "engine.cache_hits",
                    "engine.cache_misses", "kernel.hash"} & set(counters)
        assert all("." in k for k in counters)
        assert "delta.patched" not in counters  # deltas not tracked

    def test_delta_group_appears_only_when_tracked(self, fig1):
        with Maimon(fig1, track_deltas=True) as m:
            counters = m.counters()
        assert {"delta.patched", "delta.rebuilt", "delta.dropped"} <= set(counters)

    def test_extra_mapping_is_merged(self, fig1_oracle):
        out = flatten_counters(fig1_oracle, extra={"delta.rebuilt": 5})
        assert out["delta.rebuilt"] == 5


# --------------------------------------------------------------------- #
# Trace knob: golden parity + provenance exclusion
# --------------------------------------------------------------------- #

class TestTraceParity:
    def test_disabled_artefact_has_no_trace_key(self, fig1_csv):
        result = api.run(TaskRequest(
            task="mine", spec=MineSpec(eps=0.0),
            engine=EngineSpec(), data=DataSpec(csv=fig1_csv),
        ))
        assert "trace" not in result.payload

    def test_traced_artefact_is_byte_identical_modulo_trace(self, fig1_csv):
        plain = dict(api.run(TaskRequest(
            task="mine", spec=MineSpec(eps=0.0),
            engine=EngineSpec(), data=DataSpec(csv=fig1_csv),
        )).payload)
        traced = dict(api.run(TaskRequest(
            task="mine", spec=MineSpec(eps=0.0),
            engine=EngineSpec(trace=True), data=DataSpec(csv=fig1_csv),
        )).payload)
        block = traced.pop("trace")
        assert block["name"] == "mine" and block["count"] == 1
        assert {c["name"] for c in block["children"]} >= {"mine", "serialize"}
        # "elapsed" is wall-clock and differs run to run regardless of
        # tracing; everything else must match byte for byte.
        plain.pop("elapsed")
        traced.pop("elapsed")
        assert json.dumps(plain, sort_keys=True) == \
               json.dumps(traced, sort_keys=True)

    def test_trace_excluded_from_provenance(self, fig1_csv):
        request = TaskRequest(
            task="mine", spec=MineSpec(eps=0.0),
            engine=EngineSpec(trace=True), data=DataSpec(csv=fig1_csv),
        )
        assert "trace" not in request.provenance()["engine"]
        result = api.run(request)
        assert "trace" not in result.payload["spec"]["engine"]

    def test_trace_validates_as_boolean(self):
        with pytest.raises(api.SpecError):
            EngineSpec(trace="yes").validate()
        with pytest.raises(api.SpecError):
            EngineSpec.from_request({"trace": "yes"})
        assert EngineSpec.from_request({"trace": True}).trace is True


# --------------------------------------------------------------------- #
# Serve wiring
# --------------------------------------------------------------------- #

CSV = """A,B,C,D
a1,b1,c1,d1
a1,b1,c2,d1
a2,b2,c1,d2
a2,b2,c2,d2
"""


@pytest.fixture()
def serve_stack():
    from repro.serve import MiningService, ServeClient, start_background

    log = io.StringIO()
    service = MiningService(
        slow_ms=0.0,  # every request is "slow": the counter must move
        logger=JsonLogger(stream=log, component="serve"),
    )
    server, _ = start_background(service)
    client = ServeClient(f"http://127.0.0.1:{server.server_port}")
    try:
        yield service, client, log
    finally:
        server.close()


class TestServeObservability:
    def test_metrics_endpoint_and_job_timings(self, serve_stack):
        service, client, log = serve_stack
        ds = client.upload_csv(text=CSV, name="obs")["dataset_id"]
        resp = client.mine(ds, eps=0.0)
        assert resp["status"] == "done"
        assert resp["queued_ms"] >= 0
        assert resp["running_ms"] >= 0

        text = client.metrics()
        # Every registered family appears, even sample-less ones.
        for family in service.metrics.names():
            assert f"# TYPE {family} " in text, family
        assert 'repro_requests_total{task="mine",status="done"} 1' in text
        assert "repro_session_lock_wait_seconds_count 1" in text
        assert "repro_sessions 1" in text
        # Per-session mining counters republished as labelled series.
        assert 'counter="oracle.queries"' in text

        # slow_ms=0 marks everything slow, on metrics and the log.
        assert 'repro_slow_requests_total{task="mine"} 1' in text
        events = [json.loads(line) for line in log.getvalue().splitlines()]
        kinds = [e["event"] for e in events]
        assert "request" in kinds and "slow_request" in kinds
        request_log = next(e for e in events if e["event"] == "request")
        assert request_log["request_id"] == resp["job_id"]
        assert request_log["task"] == "mine"
        assert request_log["status"] == "done"

    def test_healthz_reports_cache_occupancy(self, serve_stack):
        _, client, _ = serve_stack
        health = client.healthz()
        assert {"sessions", "capacity"} <= set(health["sessions"])
        assert {"datasets", "capacity"} <= set(health["registry"])

    def test_trace_roundtrips_over_http(self, serve_stack):
        _, client, _ = serve_stack
        ds = client.upload_csv(text=CSV, name="obs")["dataset_id"]
        plain = client.mine(ds, eps=0.0)["result"]
        traced = dict(client.mine(ds, eps=0.0, trace=True)["result"])
        block = traced.pop("trace")
        assert block["name"] == "mine"
        assert json.dumps(plain, sort_keys=True) == \
               json.dumps(traced, sort_keys=True)

    def test_session_cache_events_are_absorbed(self, serve_stack):
        _, client, _ = serve_stack
        ds = client.upload_csv(text=CSV, name="obs")["dataset_id"]
        client.mine(ds, eps=0.0)
        client.mine(ds, eps=0.0)  # second request reuses the warm session
        text = client.metrics()
        assert 'repro_session_cache_events_total{event="hits"} 1' in text
        assert 'repro_session_cache_events_total{event="misses"} 1' in text


class TestJsonLogger:
    def test_one_json_line_per_event(self):
        out = io.StringIO()
        log = JsonLogger(stream=out, component="test")
        log.info("started", port=80)
        log.warning("slow_request", running_ms=12.5)
        lines = out.getvalue().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(ln) for ln in lines)
        assert first["event"] == "started" and first["port"] == 80
        assert first["component"] == "test" and first["level"] == "info"
        assert first["ts"].endswith("Z") or "+" in first["ts"]
        assert second["level"] == "warning"
