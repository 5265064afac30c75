"""Serving-layer integration of repro.delta, plus the serve bugfix sweep.

Covers the append endpoint end to end (HTTP), registry lineage semantics,
warm-session carry-over on advance, the parse-outside-the-lock guarantee
of ``DatasetRegistry``, and the structured error envelopes for cancelling
finished jobs / polling unknown jobs.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve import (
    DatasetRegistry,
    JobManager,
    MiningService,
    ServeAPIError,
    ServeClient,
    ServiceError,
    SessionCache,
    start_background,
)
from repro.serve.jobs import JobFinishedError


ROWS_V1 = [
    ["a", "x", "1"], ["a", "y", "1"], ["b", "x", "2"], ["b", "y", "2"],
]
ROWS_V2 = [["c", "x", "3"], ["c", "y", "3"]]
COLUMNS = ["A", "B", "C"]


# --------------------------------------------------------------------- #
# Registry: lineage + lock hygiene
# --------------------------------------------------------------------- #

class TestRegistryEvolution:
    def test_append_creates_lineage_entry(self):
        registry = DatasetRegistry()
        parent = registry.add_rows(ROWS_V1, COLUMNS, name="ev")
        child, parent2, delta = registry.append_rows(parent.dataset_id, ROWS_V2)
        assert parent2 is parent
        assert child.parent_id == parent.dataset_id
        assert child.delta_digest == delta.digest
        assert child.dataset_id == delta.child_fingerprint(parent.dataset_id)
        assert child.relation.n_rows == len(ROWS_V1) + len(ROWS_V2)
        assert child.describe()["parent_id"] == parent.dataset_id
        assert child.dataset_id in registry

    def test_identical_append_dedupes_onto_same_child(self):
        registry = DatasetRegistry()
        parent = registry.add_rows(ROWS_V1, COLUMNS)
        c1, _, _ = registry.append_rows(parent.dataset_id, ROWS_V2)
        c2, _, _ = registry.append_rows(parent.dataset_id, ROWS_V2)
        assert c1 is c2
        assert c2.uploads == 2

    def test_append_to_unknown_dataset_raises(self):
        registry = DatasetRegistry()
        with pytest.raises(LookupError):
            registry.append_rows("nope", ROWS_V2)

    def test_slow_parse_does_not_hold_the_registry_lock(self, monkeypatch):
        """One giant CSV upload must not stall concurrent lookups.

        A slow-parse stub simulates the giant upload; a concurrent reader
        thread must get through ``entry()``/``list()`` while the parse is
        still running — i.e. parsing/fingerprinting happen outside the
        registry lock.
        """
        registry = DatasetRegistry()
        seeded = registry.add_rows(ROWS_V1, COLUMNS, name="seed")
        parse_started = threading.Event()
        release_parse = threading.Event()
        real_from_csv = __import__(
            "repro.data.loaders", fromlist=["from_csv"]
        ).from_csv

        def slow_from_csv(*args, **kwargs):
            parse_started.set()
            assert release_parse.wait(10), "reader never released the parse"
            return real_from_csv(*args, **kwargs)

        monkeypatch.setattr(
            "repro.serve.registry.from_csv", slow_from_csv
        )
        uploader = threading.Thread(
            target=registry.add_csv_text, args=("A,B,C\na,x,1\n",),
        )
        uploader.start()
        try:
            assert parse_started.wait(10)
            # The upload is mid-parse: lookups must not block on it.
            t0 = time.perf_counter()
            assert registry.entry(seeded.dataset_id) is seeded
            assert any(e["name"] == "seed" for e in registry.list())
            assert len(registry) == 1
            elapsed = time.perf_counter() - t0
            assert elapsed < 1.0, f"registry lookups stalled {elapsed:.2f}s"
        finally:
            release_parse.set()
            uploader.join(timeout=10)
        assert len(registry) == 2  # the slow upload landed eventually


# --------------------------------------------------------------------- #
# Session advance
# --------------------------------------------------------------------- #

class TestSessionAdvance:
    def _versions(self):
        registry = DatasetRegistry()
        parent = registry.add_rows(ROWS_V1, COLUMNS, name="ev")
        child, _, delta = registry.append_rows(parent.dataset_id, ROWS_V2)
        return parent, child, delta

    def test_warm_parent_is_rekeyed_and_patched(self):
        parent, child, delta = self._versions()
        cache = SessionCache(capacity=4)
        with cache.lease(parent.dataset_id, parent.relation) as s:
            with s.lock:
                s.maimon.mine_mvds(0.0)
            warm_maimon = s.maimon
        session, warm, stats = cache.advance(
            parent.dataset_id, child.dataset_id, child.relation, delta,
            engine="pli", persist=False, cache_dir=None,
        )
        try:
            assert warm is True
            assert session.maimon is warm_maimon  # same warm state, re-keyed
            assert session.dataset_id == child.dataset_id
            assert stats["patched"] > 0
            assert len(cache) == 1  # parent key is gone
        finally:
            cache.release(session)

    def test_no_warm_parent_starts_cold(self):
        parent, child, delta = self._versions()
        cache = SessionCache(capacity=4)
        session, warm, stats = cache.advance(
            parent.dataset_id, child.dataset_id, child.relation, delta,
            engine="pli", persist=False, cache_dir=None,
        )
        try:
            assert warm is False and stats == {}
            assert session.dataset_id == child.dataset_id
        finally:
            cache.release(session)

    def test_existing_child_session_is_joined_not_displaced(self):
        """advance() with a live child session pins it instead of racing it."""
        parent, child, delta = self._versions()
        cache = SessionCache(capacity=4)
        busy = cache.acquire(child.dataset_id, child.relation)
        try:
            session, warm, _ = cache.advance(
                parent.dataset_id, child.dataset_id, child.relation, delta,
                engine="pli", persist=False, cache_dir=None,
            )
            try:
                assert warm is False
                assert session is busy  # joined, not displaced
            finally:
                cache.release(session)
        finally:
            cache.release(busy)

    def test_unlinked_leased_session_closed_on_last_release(self):
        """A session displaced from the cache mid-lease must not leak.

        Displacement can only happen in the re-insert race window of
        :meth:`SessionCache.advance`; simulate it directly and assert the
        last release closes the orphaned session (never mid-request).
        """
        parent, child, _ = self._versions()
        cache = SessionCache(capacity=4)
        busy = cache.acquire(child.dataset_id, child.relation)
        closed = []
        orig_close = busy.maimon.close
        busy.maimon.close = lambda: (closed.append(True), orig_close())[1]
        with cache._lock:  # a racing warm advance takes over the key
            del cache._sessions[busy.key]
        assert not closed
        cache.release(busy)
        assert closed

    def test_leased_parent_is_left_alone(self):
        parent, child, delta = self._versions()
        cache = SessionCache(capacity=4)
        pinned = cache.acquire(parent.dataset_id, parent.relation)
        try:
            session, warm, _ = cache.advance(
                parent.dataset_id, child.dataset_id, child.relation, delta,
                engine="pli", persist=False, cache_dir=None,
            )
            try:
                assert warm is False
                assert session is not pinned
                # The old version keeps serving under its own key.
                assert pinned.dataset_id == parent.dataset_id
                assert pinned.relation.n_rows == len(ROWS_V1)
            finally:
                cache.release(session)
        finally:
            cache.release(pinned)


# --------------------------------------------------------------------- #
# HTTP end to end
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def http_serve():
    service = MiningService(max_request_seconds=60, job_workers=2)
    server, _ = start_background(service)
    client = ServeClient(f"http://127.0.0.1:{server.server_port}", timeout=120)
    yield client
    server.close()


class TestAppendEndpoint:
    def test_append_remines_and_diffs(self, http_serve):
        ds = http_serve.upload_rows(ROWS_V1, COLUMNS, name="evolve")
        first = http_serve.mine(ds["dataset_id"], eps=0.0)
        assert first["status"] == "done"
        resp = http_serve.append_rows(ds["dataset_id"], ROWS_V2, eps=0.0)
        assert resp["status"] == "done"
        result = resp["result"]
        assert result["parent_id"] == ds["dataset_id"]
        assert result["dataset_id"] != ds["dataset_id"]
        assert result["rows"] == len(ROWS_V1) + len(ROWS_V2)
        assert result["delta"]["n_rows"] == len(ROWS_V2)
        assert result["delta"]["new_domains"] == {"A": 1, "C": 1}
        assert result["advance"]["warm_session"] is True
        diff = result["diff"]
        assert diff["kind"] == "mine"
        assert isinstance(diff["mvds"]["added"], list)
        # The re-mined artefact equals a cold mine of the child version.
        cold = http_serve.mine(result["dataset_id"], eps=0.0)
        assert cold["result"]["mvds"] == result["result"]["mvds"]
        assert cold["result"]["min_seps"] == result["result"]["min_seps"]
        # The child is listed with its lineage.
        listed = {
            d["dataset_id"]: d for d in http_serve.datasets()["datasets"]
        }
        assert listed[result["dataset_id"]]["parent_id"] == ds["dataset_id"]

    def test_append_without_prior_mine_has_no_diff_baseline(self, http_serve):
        ds = http_serve.upload_rows(ROWS_V1, COLUMNS, name="nodiff")
        resp = http_serve.append_rows(ds["dataset_id"], ROWS_V2, eps=0.125)
        assert resp["status"] == "done"
        assert resp["result"]["diff"] is None

    def test_append_validation(self, http_serve):
        ds = http_serve.upload_rows(ROWS_V1, COLUMNS, name="val")
        with pytest.raises(ServeAPIError) as err:
            http_serve.append_rows(ds["dataset_id"], [])
        assert err.value.status == 400
        with pytest.raises(ServeAPIError) as err:
            http_serve.append_rows("missing-id", ROWS_V2)
        assert err.value.status == 404
        with pytest.raises(ServeAPIError) as err:
            http_serve.append_rows(ds["dataset_id"], [["wrong", "arity"]])
        assert err.value.status == 400


# --------------------------------------------------------------------- #
# Bugfix sweep: job error envelopes
# --------------------------------------------------------------------- #

class TestJobErrorEnvelopes:
    def test_cancel_finished_job_raises_job_finished(self):
        manager = JobManager(max_workers=1)
        try:
            job = manager.submit("t", lambda j: {"ok": True})
            manager.wait(job.id, timeout=10)
            assert job.status == "done"
            with pytest.raises(JobFinishedError) as err:
                manager.cancel(job.id)
            assert err.value.job is job
            # The finished result must stay unflagged by the late cancel.
            assert not job.cancel_event.is_set()
            assert job.to_dict()["cancel_requested"] is False
        finally:
            manager.shutdown()

    def test_service_maps_finished_cancel_to_409(self):
        with MiningService(max_request_seconds=10) as service:
            job = service.jobs.submit("t", lambda j: {"ok": True})
            service.jobs.wait(job.id, timeout=10)
            with pytest.raises(ServiceError) as err:
                service.cancel(job.id)
            assert err.value.status == 409
            assert err.value.extra["code"] == "job_finished"
            assert err.value.extra["job_status"] == "done"

    def test_service_maps_unknown_job_to_404(self):
        with MiningService(max_request_seconds=10) as service:
            with pytest.raises(ServiceError) as err:
                service.job_payload("missing")
            assert err.value.status == 404
            assert err.value.extra["code"] == "unknown_job"
            assert err.value.extra["job_id"] == "missing"

    def test_http_envelopes_are_structured(self, http_serve):
        # Unknown job over HTTP: 404 with code + job_id keys.
        import json
        import urllib.error
        import urllib.request

        base = http_serve.base_url
        try:
            urllib.request.urlopen(f"{base}/jobs/notthere", timeout=30)
            raise AssertionError("expected HTTP 404")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404
            payload = json.loads(exc.read().decode())
            assert payload["code"] == "unknown_job"
            assert payload["job_id"] == "notthere"
            assert "error" in payload
        # Cancel of a finished job over HTTP: 409 with the real status.
        ds = http_serve.upload_rows(ROWS_V1, COLUMNS, name="envelope")
        done = http_serve.mine(ds["dataset_id"], eps=0.0)
        req = urllib.request.Request(
            f"{base}/jobs/{done['job_id']}/cancel", data=b"", method="POST"
        )
        try:
            urllib.request.urlopen(req, timeout=30)
            raise AssertionError("expected HTTP 409")
        except urllib.error.HTTPError as exc:
            assert exc.code == 409
            payload = json.loads(exc.read().decode())
            assert payload["code"] == "job_finished"
            assert payload["job_status"] == "done"
