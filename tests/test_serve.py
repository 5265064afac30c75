"""Tests for the mining service layer (repro.serve).

Covers the registry/session/job building blocks directly, then drives the
real HTTP server end to end — including concurrent requests against one
warm session, whose responses must parity-match a direct ``Maimon`` run
and whose oracle counters must stay consistent under the session lock.
"""

import csv
import io
import json
import threading
import time
import urllib.request

import pytest

from repro import api
from repro.data.loaders import from_csv
from repro.data.relation import Relation
from repro.serve import (
    DatasetRegistry,
    JobManager,
    MiningService,
    RequestBudget,
    ServeAPIError,
    ServeClient,
    ServiceError,
    SessionCache,
    start_background,
)


def csv_text_of(relation) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(relation.columns)
    writer.writerows([str(v) for v in row] for row in relation.rows())
    return buf.getvalue()


@pytest.fixture(scope="module")
def fig1_csv_text(fig1):
    return csv_text_of(fig1)


@pytest.fixture(scope="module")
def fig1_reference(fig1_csv_text):
    """What a one-shot ``repro.api.run`` over the uploaded bytes produces.

    Served responses must match these payloads byte for byte (modulo the
    wall-clock field): the serving layer routes through the exact same
    task registry and stamps the exact same resolved spec + fingerprint.
    """
    relation = from_csv(io.StringIO(fig1_csv_text), name="fig1")
    mine = api.run(
        api.TaskRequest(task="mine", spec=api.MineSpec(eps=0.0)),
        relation=relation,
    ).payload
    schemas = api.run(
        api.TaskRequest(
            task="schemas",
            spec=api.SchemasSpec(eps=0.0, top=3, objective="relations"),
        ),
        relation=relation,
    ).payload
    profile = api.run(
        api.TaskRequest(task="profile", spec=api.ProfileSpec()),
        relation=relation,
    ).payload
    return {"relation": relation, "mine": mine, "schemas": schemas, "profile": profile}


def strip_clock(payload: dict) -> dict:
    """Drop the one wall-clock field; everything else must match exactly."""
    out = dict(payload)
    out.pop("elapsed", None)
    return out


# --------------------------------------------------------------------- #
# DatasetRegistry
# --------------------------------------------------------------------- #

class TestDatasetRegistry:
    def test_identical_uploads_dedupe_by_fingerprint(self, fig1_csv_text):
        reg = DatasetRegistry()
        a = reg.add_csv_text(fig1_csv_text, name="first")
        b = reg.add_csv_text(fig1_csv_text, name="second")
        assert a.dataset_id == b.dataset_id
        assert len(reg) == 1
        assert reg.entry(a.dataset_id).uploads == 2

    def test_fingerprint_matches_persist_layer(self, fig1):
        from repro.exec.persist import relation_fingerprint

        reg = DatasetRegistry()
        entry = reg.add(fig1)
        assert entry.dataset_id == relation_fingerprint(fig1)

    def test_lru_eviction(self):
        reg = DatasetRegistry(capacity=2)
        # Distinct *code structure* per relation (the fingerprint hashes
        # codes, not decoded values, so same-shaped data would dedupe).
        ids = [
            reg.add(
                Relation.from_rows([(j, 0) for j in range(i + 1)], ["a", "b"])
            ).dataset_id
            for i in range(3)
        ]
        assert len(reg) == 2
        assert ids[0] not in reg and ids[2] in reg
        assert reg.stats()["evictions"] == 1

    def test_unknown_id_raises(self):
        with pytest.raises(LookupError):
            DatasetRegistry().get("nope")

    def test_builtin(self):
        entry = DatasetRegistry().add_builtin("Bridges", scale=1.0, max_rows=50)
        assert entry.relation.n_rows > 0
        assert entry.source == "builtin:Bridges"


# --------------------------------------------------------------------- #
# SessionCache
# --------------------------------------------------------------------- #

class TestSessionCache:
    def test_same_config_reuses_warm_session(self, fig1):
        cache = SessionCache(capacity=2)
        try:
            s1 = cache.acquire("d1", fig1)
            cache.release(s1)
            s2 = cache.acquire("d1", fig1)
            cache.release(s2)
            assert s1 is s2
            assert cache.stats() == {
                "sessions": 1, "capacity": 2,
                "hits": 1, "misses": 1, "evictions": 0,
            }
        finally:
            cache.close()

    def test_different_engine_is_a_different_session(self, fig1):
        cache = SessionCache(capacity=4)
        try:
            with cache.lease("d1", fig1, engine="pli") as a:
                pass
            with cache.lease("d1", fig1, engine="approx") as b:
                pass
            assert a is not b and len(cache) == 2
        finally:
            cache.close()

    def test_lru_evicts_idle_sessions(self, fig1):
        cache = SessionCache(capacity=1)
        try:
            with cache.lease("d1", fig1):
                pass
            with cache.lease("d2", fig1):
                pass
            assert len(cache) == 1
            assert cache.stats()["evictions"] == 1
        finally:
            cache.close()

    def test_leased_session_never_evicted(self, fig1):
        cache = SessionCache(capacity=1)
        try:
            s1 = cache.acquire("d1", fig1)  # held: must survive the overflow
            with cache.lease("d2", fig1):
                pass
            assert s1._refs == 1
            assert any(d["dataset_id"] == "d1" for d in cache.list())
            cache.release(s1)
        finally:
            cache.close()

    def test_warm_session_keeps_mvd_cache(self, fig1):
        cache = SessionCache(capacity=2)
        try:
            with cache.lease("d1", fig1) as s:
                with s.lock:
                    r1 = s.maimon.mine_mvds(0.0)
            with cache.lease("d1", fig1) as s:
                with s.lock:
                    r2 = s.maimon.mine_mvds(0.0, budget=RequestBudget(max_seconds=30))
            assert r1 is r2  # budgeted request reuses the complete cached run
        finally:
            cache.close()


# --------------------------------------------------------------------- #
# JobManager
# --------------------------------------------------------------------- #

class TestJobManager:
    def test_success_and_polling(self):
        manager = JobManager(max_workers=1)
        try:
            job = manager.submit("mine", lambda j: {"answer": 42})
            done = manager.wait(job.id, timeout=10)
            assert done.status == "done"
            assert done.result == {"answer": 42}
            assert done.to_dict()["result"]["answer"] == 42
        finally:
            manager.shutdown()

    def test_error_is_reported_not_raised(self):
        manager = JobManager(max_workers=1)
        try:
            job = manager.submit("mine", lambda j: 1 / 0)
            done = manager.wait(job.id, timeout=10)
            assert done.status == "error"
            assert "ZeroDivisionError" in done.error
        finally:
            manager.shutdown()

    def test_cancel_queued_job(self):
        manager = JobManager(max_workers=1)
        release = threading.Event()
        try:
            blocker = manager.submit("mine", lambda j: release.wait(10) and {} or {})
            queued = manager.submit("mine", lambda j: {"ran": True})
            manager.cancel(queued.id)
            release.set()
            assert manager.wait(queued.id, timeout=10).status == "cancelled"
            assert manager.wait(blocker.id, timeout=10).status == "done"
        finally:
            manager.shutdown()

    def test_cancel_running_job_via_budget(self):
        manager = JobManager(max_workers=1)
        started = threading.Event()

        def spin(job):
            budget = job.budget(max_seconds=30)
            started.set()
            while not budget.exhausted:
                time.sleep(0.005)
            return {"partial": True}

        try:
            job = manager.submit("mine", spin)
            assert started.wait(10)
            manager.cancel(job.id)
            done = manager.wait(job.id, timeout=10)
            assert done.status == "cancelled"
            assert done.result == {"partial": True}  # partial result retained
        finally:
            manager.shutdown()

    def test_request_budget_deadline(self):
        budget = RequestBudget(max_seconds=0)
        assert budget.exhausted
        free = RequestBudget(max_seconds=None, cancel_event=threading.Event())
        assert not free.exhausted
        free.cancel_event.set()
        assert free.exhausted

    def test_unknown_job(self):
        manager = JobManager()
        try:
            with pytest.raises(LookupError):
                manager.get("nope")
        finally:
            manager.shutdown()


# --------------------------------------------------------------------- #
# MiningService (transport-free)
# --------------------------------------------------------------------- #

class TestMiningService:
    def test_mine_parity_with_direct_run(self, fig1_csv_text, fig1_reference):
        with MiningService(max_request_seconds=60) as service:
            ds = service.upload({"csv": fig1_csv_text, "name": "fig1"})
            job = service.submit_mine({"dataset_id": ds["dataset_id"], "eps": 0.0})
            done = service.jobs.wait(job.id, timeout=60)
            assert done.status == "done"
            assert strip_clock(done.result) == strip_clock(fig1_reference["mine"])

    def test_budget_zero_returns_empty_truncated(self, fig1_csv_text):
        with MiningService() as service:
            ds = service.upload({"csv": fig1_csv_text})
            job = service.submit_mine(
                {"dataset_id": ds["dataset_id"], "eps": 0.0, "budget": 0}
            )
            done = service.jobs.wait(job.id, timeout=60)
            assert done.status == "done"
            assert done.result["timed_out"] is True
            assert done.result["mvds"] == []

    def test_validation_errors(self, fig1_csv_text):
        with MiningService() as service:
            with pytest.raises(ServiceError, match="dataset_id"):
                service.submit_mine({"dataset_id": "missing"})
            with pytest.raises(ServiceError, match="csv"):
                service.upload({})
            with pytest.raises(ServiceError, match="engine"):
                ds = service.upload({"csv": fig1_csv_text})
                service.submit_mine({"dataset_id": ds["dataset_id"], "engine": "bogus"})
            with pytest.raises(ServiceError, match="eps"):
                service.submit_mine({"csv": fig1_csv_text, "eps": -1})


# --------------------------------------------------------------------- #
# HTTP end-to-end
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def http_serve():
    service = MiningService(max_request_seconds=60, job_workers=4)
    server, _ = start_background(service)
    client = ServeClient(f"http://127.0.0.1:{server.server_port}", timeout=120)
    yield client
    server.close()


class TestHTTPEndToEnd:
    def test_healthz(self, http_serve):
        health = http_serve.healthz()
        assert health["status"] == "ok"
        assert "sessions" in health and "jobs" in health

    def test_upload_and_listing(self, http_serve, fig1_csv_text):
        ds = http_serve.upload_csv(text=fig1_csv_text, name="fig1")
        assert ds["rows"] == 4 and ds["cols"] == 6
        listed = http_serve.datasets()["datasets"]
        assert any(d["dataset_id"] == ds["dataset_id"] for d in listed)

    def test_mine_schemas_profile_parity(
        self, http_serve, fig1_csv_text, fig1_reference
    ):
        ds = http_serve.upload_csv(text=fig1_csv_text, name="fig1")
        mine = http_serve.mine(ds["dataset_id"], eps=0.0)
        assert mine["status"] == "done"
        assert strip_clock(mine["result"]) == strip_clock(fig1_reference["mine"])

        schemas = http_serve.schemas(
            ds["dataset_id"], eps=0.0, top=3, objective="relations"
        )
        assert schemas["status"] == "done"
        assert schemas["result"] == fig1_reference["schemas"]

        profile = http_serve.profile(ds["dataset_id"])
        assert profile["status"] == "done"
        assert profile["result"] == fig1_reference["profile"]

    def test_async_submit_and_poll(self, http_serve, fig1_csv_text):
        ds = http_serve.upload_csv(text=fig1_csv_text)
        queued = http_serve.mine(ds["dataset_id"], eps=0.0, wait=False)
        assert "job_id" in queued
        done = http_serve.job(queued["job_id"], wait=60)
        assert done["status"] == "done"
        assert done["result"]["mvds"]

    def test_malformed_payload_gets_json_error_not_dead_socket(self, http_serve):
        """Payload-coercion failures must surface as 400 JSON errors."""
        with pytest.raises(ServeAPIError) as err:
            http_serve.request("POST", "/datasets", {"csv": 123})
        assert err.value.status == 400
        with pytest.raises(ServeAPIError) as err:
            http_serve.request("POST", "/schemas", {"csv": "A\n1\n", "top": "abc"})
        assert err.value.status == 400

    def test_profile_budget_zero_is_truncated(self, http_serve, fig1_csv_text):
        """Profile requests honour deadlines too (budget reaches TANE)."""
        ds = http_serve.upload_csv(text=fig1_csv_text)
        resp = http_serve.profile(ds["dataset_id"], budget=0)
        assert resp["status"] == "done"
        assert resp["result"]["truncated"] is True
        assert resp["result"]["fds"] == []
        assert len(resp["result"]["columns"]) == 6  # entropies still profiled

    def test_unknown_dataset_404(self, http_serve):
        with pytest.raises(ServeAPIError) as err:
            http_serve.mine("deadbeef", eps=0.0)
        assert err.value.status == 404

    def test_unknown_route_404(self, http_serve):
        with pytest.raises(ServeAPIError) as err:
            http_serve.request("GET", "/bogus")
        assert err.value.status == 404

    def test_raw_curl_style_request(self, http_serve, fig1_csv_text):
        """The documented curl flow: plain JSON POST, no client library."""
        body = json.dumps({"csv": fig1_csv_text, "name": "curl"}).encode()
        req = urllib.request.Request(
            http_serve.base_url + "/datasets",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            assert resp.status == 201
            assert json.loads(resp.read())["rows"] == 4


class TestConcurrentWarmSession:
    def test_concurrent_requests_parity_and_counters(self, fig1_reference):
        """N concurrent identical mines over ONE warm session.

        Every response must equal the direct one-shot run, and the
        session's oracle counters must equal a single run's counters
        afterwards: the lock serialized the first (cold) request and the
        phase-1 cache answered the rest without touching the oracle.
        """
        n_threads = 8
        service = MiningService(max_request_seconds=60, job_workers=4)
        server, _ = start_background(service)
        base = f"http://127.0.0.1:{server.server_port}"
        try:
            ds = ServeClient(base).upload_csv(
                text=csv_text_of(fig1_reference["relation"]), name="fig1"
            )
            results, errors = [], []

            def hit():
                try:
                    resp = ServeClient(base, timeout=120).mine(
                        ds["dataset_id"], eps=0.0
                    )
                    results.append(resp)
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)

            threads = [threading.Thread(target=hit) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len(results) == n_threads
            expected = strip_clock(fig1_reference["mine"])
            for resp in results:
                assert resp["status"] == "done"
                assert strip_clock(resp["result"]) == expected

            [session] = ServeClient(base).healthz()["session_list"]
            assert session["requests"] == n_threads
            # Counters consistent with exactly one cold run: concurrent
            # requests serialized on the session instead of double-counting.
            assert session["oracle.queries"] == expected["entropy_queries"]
            assert session["oracle.evals"] == expected["entropy_evals"]
        finally:
            server.close()

    def test_concurrent_requests_different_datasets(self, fig1, fig1_red):
        service = MiningService(max_request_seconds=60, job_workers=4)
        server, _ = start_background(service)
        base = f"http://127.0.0.1:{server.server_port}"
        try:
            client = ServeClient(base, timeout=120)
            ids = [
                client.upload_csv(text=csv_text_of(rel), name=f"r{i}")["dataset_id"]
                for i, rel in enumerate((fig1, fig1_red))
            ]
            out = {}

            def hit(dataset_id):
                out[dataset_id] = ServeClient(base, timeout=120).mine(
                    dataset_id, eps=0.0
                )

            threads = [threading.Thread(target=hit, args=(d,)) for d in ids]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(out[d]["status"] == "done" for d in ids)
            # fig1 satisfies exact MVDs, fig1_red loses some: distinct answers.
            assert out[ids[0]]["result"]["mvds"] != out[ids[1]]["result"]["mvds"]
            assert len(ServeClient(base).healthz()["session_list"]) == 2
        finally:
            server.close()
