"""Warm mining sessions: one long-lived ``Maimon`` per dataset+config.

The whole point of the serving layer is that the expensive state — the
oracle memo, the kernels' composed-prefix cache, the exec worker pool and
the on-disk entropy cache — survives across requests.  A :class:`Session`
owns exactly that state (a configured :class:`~repro.core.maimon.Maimon`),
and the :class:`SessionCache` hands sessions out keyed by
``(dataset fingerprint, engine parameters)`` with LRU eviction.

Concurrency contract: the oracle's memo dict and query counters are not
thread-safe, so every request must run its mining work while holding
``session.lock`` — concurrent requests over the same dataset serialize on
the oracle instead of corrupting it.  Requests over *different* datasets
run fully in parallel (each session has its own lock).  Sessions are
refcounted while leased, so the evictor never closes a session mid-request.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

from repro.api.specs import EngineSpec
from repro.data.relation import Relation
from repro.obs.registry import Histogram, TimedLock

#: Hashable session key: dataset fingerprint + the EngineSpec knobs that
#: change oracle state (engine, workers, persistence location, and — for
#: the approx engine — estimator and sampling knobs; two configs that
#: could return different numbers must never share a warm oracle).
SessionKey = Tuple[
    str, str, int, bool, Optional[str],
    str, Optional[int], Optional[float], Optional[int],
]


class Session:
    """One warm ``Maimon`` instance plus its serialization lock.

    The lock is a :class:`~repro.obs.registry.TimedLock`: when the cache
    was given a wait-time histogram, every blocking acquire observes how
    long the request queued on the session — the metric that attributes
    the multi-client latency climb to lock contention rather than
    compute.  Without a histogram it degrades to a plain mutex.
    """

    def __init__(self, key: SessionKey, relation: Relation, maimon,
                 lock_histogram: Optional[Histogram] = None):
        self.key = key
        self.dataset_id = key[0]
        self.engine = key[1]
        self.relation = relation
        self.maimon = maimon
        self.lock = TimedLock(lock_histogram)
        self.created_at = time.time()
        self.last_used = self.created_at
        self.requests = 0
        self._refs = 0  # leases outstanding; guarded by the cache lock

    def describe(self) -> dict:
        counters = self.maimon.counters()
        return {
            "dataset_id": self.dataset_id,
            "name": self.relation.name or "input",
            "engine": self.engine,
            "requests": self.requests,
            "busy": self.lock.locked(),
            "age_s": round(time.time() - self.created_at, 3),
            **counters,
        }

    def close(self) -> None:
        self.maimon.close()


class SessionCache:
    """LRU cache of warm sessions with safe concurrent leasing.

    Parameters
    ----------
    capacity:
        Maximum number of warm sessions.  When exceeded, the least
        recently used *idle* session is closed; leased sessions are
        skipped (the cache may transiently exceed capacity while every
        session is busy).
    lock_wait_histogram:
        Optional :class:`~repro.obs.registry.Histogram` every session
        lock reports its acquisition wait into (the serve layer passes
        its ``repro_session_lock_wait_seconds`` family).
    """

    def __init__(self, capacity: int = 8, track_deltas: bool = True,
                 lock_wait_histogram: Optional[Histogram] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.lock_wait_histogram = lock_wait_histogram
        #: Serving sessions are long-lived by definition, so they record
        #: delta-maintenance state by default: appends then *patch* the
        #: warm oracle (see :meth:`advance`) instead of discarding it.
        self.track_deltas = track_deltas
        self._sessions: "OrderedDict[SessionKey, Session]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # Leasing
    # ------------------------------------------------------------------ #

    @staticmethod
    def _session_key(dataset_id: str, spec: EngineSpec) -> SessionKey:
        """The one place a :data:`SessionKey` is built (from an EngineSpec)."""
        return (dataset_id, spec.engine, spec.workers, spec.persist,
                spec.cache_dir, spec.estimator,
                spec.sample_rows, spec.confidence, spec.sample_seed)

    @staticmethod
    def _spec_of(spec: Optional[EngineSpec], config: dict) -> EngineSpec:
        """Accept either a validated spec or legacy keyword config.

        The kwargs path delegates straight to the ``EngineSpec``
        constructor so its defaults stay the single source of truth
        (unknown keys raise ``TypeError`` from the dataclass itself).
        """
        if spec is None:
            spec = EngineSpec(**config)
        elif config:
            raise TypeError(f"unknown session config keys: {sorted(config)}")
        return spec.validate()

    def acquire(
        self,
        dataset_id: str,
        relation: Relation,
        spec: Optional[EngineSpec] = None,
        **config,
    ) -> Session:
        """Get (or build) the warm session for a dataset+config and pin it.

        The config is an :class:`~repro.api.specs.EngineSpec` (preferred)
        or the equivalent keyword arguments (``engine``, ``workers``,
        ``persist``, ``cache_dir``).  Callers must pair
        this with :meth:`release`; prefer the :meth:`lease` context
        manager.  Building the ``Maimon`` happens outside any per-session
        lock, but under the cache lock — sessions are cheap to construct
        (engines build their caches lazily), and this keeps a concurrent
        burst of first requests from racing to create duplicate sessions.
        """
        spec = self._spec_of(spec, config)
        key = self._session_key(dataset_id, spec)
        with self._lock:
            session = self._sessions.get(key)
            if session is None:
                self.misses += 1
                # repro: allow[RPR002] deliberate (docstring above): construction is cheap, and holding the lock stops a first-request burst from racing to build duplicates
                maimon = spec.make_maimon(
                    relation, track_deltas=self.track_deltas
                )
                session = Session(key, relation, maimon,
                                  lock_histogram=self.lock_wait_histogram)
                self._sessions[key] = session
            else:
                self.hits += 1
            self._sessions.move_to_end(key)
            session._refs += 1
            session.last_used = time.time()
            evicted = self._evict_locked()
        self._close_evicted(evicted)
        return session

    def release(self, session: Session) -> None:
        with self._lock:
            session._refs = max(0, session._refs - 1)
            session.requests += 1
            # A session can be unlinked while leased (displaced by a warm
            # advance onto its key); the last lease to return closes it —
            # the evictor only sees linked sessions.
            unlinked = (
                session._refs == 0
                and self._sessions.get(session.key) is not session
            )
            evicted = self._evict_locked()
        if unlinked:
            session.close()
        self._close_evicted(evicted)

    def advance(
        self,
        parent_dataset_id: str,
        child_dataset_id: str,
        relation: Relation,
        delta,
        spec: Optional[EngineSpec] = None,
        **config,
    ) -> Tuple[Session, bool, dict]:
        """Carry the warm parent session over to an appended version.

        If an *idle* warm session exists for ``(parent dataset, config)``,
        it is unlinked from the parent key, its ``Maimon`` is advanced
        through delta maintenance (under the session lock), and it is
        re-inserted under the child key — the memo, engine and pool state
        survive the append.  A parent session that is currently leased (a
        request is mid-flight on the old version) is left alone and the
        child starts cold; the old version keeps serving consistently.

        Returns ``(session, warm, stats)`` with the session *pinned*
        (callers must :meth:`release` it) and ``warm`` telling whether the
        delta path was taken.
        """
        spec = self._spec_of(spec, config)
        key = self._session_key(parent_dataset_id, spec)
        child_key: SessionKey = (child_dataset_id,) + key[1:]
        with self._lock:
            session = self._sessions.get(key)
            if (
                child_key in self._sessions  # a warm child already exists
                or session is None
                or session._refs > 0
                or session.lock.locked()
            ):
                session = None
            else:
                del self._sessions[key]
        if session is None:
            return self.acquire(child_dataset_id, relation, spec=spec), False, {}
        with session.lock:
            stats = session.maimon.advance(relation, delta)
        session.key = child_key
        session.dataset_id = child_dataset_id
        session.relation = relation
        with self._lock:
            # A racing acquire() may have built a cold child session since
            # the check above; the advanced warm session wins the slot and
            # the displaced one is closed once idle (never mid-request).
            displaced = self._sessions.pop(child_key, None)
            self._sessions[child_key] = session
            self._sessions.move_to_end(child_key)
            session._refs += 1
            session.last_used = time.time()
            self.hits += 1
            evicted = self._evict_locked()
        if displaced is not None and displaced._refs == 0:
            displaced.close()
        self._close_evicted(evicted)
        return session, True, stats

    @contextmanager
    def lease(
        self,
        dataset_id: str,
        relation: Relation,
        spec: Optional[EngineSpec] = None,
        **config,
    ) -> Iterator[Session]:
        """``with sessions.lease(...) as s:`` — pinned for the block.

        The lease pins the session against eviction; it does NOT take
        ``s.lock`` (callers hold it only around the actual oracle work so
        queue time is observable separately from compute time).
        """
        session = self.acquire(dataset_id, relation, spec=spec, **config)
        try:
            yield session
        finally:
            self.release(session)

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #

    def list(self) -> list:
        with self._lock:
            return [s.describe() for s in self._sessions.values()]

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "sessions": len(self._sessions),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def close(self) -> None:
        """Close every session (stops pools, flushes persistent caches)."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for s in sessions:
            s.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _evict_locked(self) -> list:
        """Unlink least-recently-used idle sessions beyond capacity.

        Only the bookkeeping happens under the cache lock; the returned
        sessions are closed by the caller *after* releasing it — closing a
        Maimon can mean a process-pool shutdown and a cache flush, and
        holding the global lock through that would stall every other
        request (and /healthz) for the duration.
        """
        evicted = []
        if len(self._sessions) <= self.capacity:
            return evicted
        for key in list(self._sessions):
            if len(self._sessions) <= self.capacity:
                break
            session = self._sessions[key]
            if session._refs > 0:
                continue  # leased: never close a session mid-request
            del self._sessions[key]
            self.evictions += 1
            evicted.append(session)
        return evicted

    @staticmethod
    def _close_evicted(evicted: list) -> None:
        for session in evicted:
            session.close()
