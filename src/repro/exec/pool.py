"""Parallel entropy evaluation over a process pool.

Python's GIL rules out thread-level parallelism for the numpy-light
counting loops, so the evaluator uses a ``ProcessPoolExecutor``.  The
integer code matrix of the relation is shipped **once per worker**
through the pool initializer (inherited for free under ``fork``, pickled
once under ``spawn``); every worker then runs its own
:class:`~repro.entropy.plicache.PLICacheEngine`, so composed key prefixes
built for one shard are reused for lattice-adjacent sets of the same
shard (the planner keeps those together, see :mod:`repro.exec.plan`).

With ``workers <= 1`` no pool is created and evaluation runs serially in
the calling process, so results are bit-identical on every platform; the
parallel path agrees within :data:`repro.common.TOL` (float summation
order inside a partition may differ).

Besides entropies the pool evaluates batched ``g3`` FD errors, which is
what the level-wise TANE search hands over (see :mod:`repro.fd.tane`).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.relation import Relation
from repro.entropy.plicache import PLICacheEngine
from repro.exec.plan import shard
from repro.lattice import AttrSet
from repro.obs.trace import span

G3Request = Tuple[Tuple[int, ...], int]  # (lhs, rhs)

# Worker-process globals, set once by _init_worker.
_WORKER_RELATION: Optional[Relation] = None
_WORKER_ENGINE: Optional[PLICacheEngine] = None


def _init_worker(codes: np.ndarray, columns: Tuple[str, ...]) -> None:
    """Build the worker-local relation and engine (runs in the worker).

    Each worker's entropies run counts-first through the worker-local
    kernel dispatcher (:mod:`repro.kernels`), and since shards are
    contiguous slices of the containment-ordered plan, the dispatcher's
    composed-prefix cache is as effective per worker as it is serially.
    Worker-side kernel counters stay in the worker (not aggregated into
    the parent's ``kernel_stats``).
    """
    global _WORKER_RELATION, _WORKER_ENGINE
    _WORKER_RELATION = Relation(np.asarray(codes, dtype=np.int64), columns)
    _WORKER_ENGINE = PLICacheEngine(_WORKER_RELATION)


def _entropy_shard(attr_tuples: List[Tuple[int, ...]]) -> List[float]:
    """Evaluate one shard of entropy requests in the worker."""
    engine = _WORKER_ENGINE
    return [engine.entropy_of(frozenset(t)) for t in attr_tuples]


def _g3_shard(pairs: List[G3Request]) -> List[float]:
    """Evaluate one shard of g3(X -> A) requests in the worker."""
    from repro.fd.measures import g3_error

    relation = _WORKER_RELATION
    return [g3_error(relation, lhs, rhs) for lhs, rhs in pairs]


def _pick_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


class ParallelEvaluator:
    """Evaluates entropy / g3 batches across worker-local engines.

    Parameters
    ----------
    relation:
        The input relation; only its code matrix and column names travel to
        the workers.
    workers:
        Number of worker processes.  ``<= 1`` disables the pool entirely
        (serial evaluation on a local engine).

    The pool is created lazily on first parallel batch and torn down by
    :meth:`close` (also a context manager).  Any pool failure — e.g. an
    environment that forbids subprocesses — degrades permanently to the
    serial path rather than failing the computation.
    """

    def __init__(self, relation: Relation, workers: int = 1):
        self.relation = relation
        self.workers = max(1, int(workers))
        self._pool: Optional[ProcessPoolExecutor] = None
        self._local_engine: Optional[PLICacheEngine] = None
        self.parallel_batches = 0
        self.serial_batches = 0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def entropies(self, attr_sets: Sequence[AttrSet]) -> Dict[AttrSet, float]:
        """``H`` of every set; parallel when the pool is enabled."""
        attr_sets = list(attr_sets)
        if not attr_sets:
            return {}
        if self.workers <= 1 or len(attr_sets) == 1:
            self.serial_batches += 1
            engine = self._engine()
            return {a: engine.entropy_of(a) for a in attr_sets}
        shards = shard(attr_sets, self.workers)
        payloads = [
            [tuple(a) if type(a) is AttrSet else tuple(sorted(a)) for a in piece]
            for piece in shards
        ]
        # Worker wall time shows up under the parent's "pool" span; the
        # workers are separate interpreters and keep no traces of their own.
        with span("pool"):
            results = self._map(_entropy_shard, payloads)
        if results is None:  # pool unavailable: degrade to serial
            return self.entropies(attr_sets)
        self.parallel_batches += 1
        out: Dict[AttrSet, float] = {}
        for piece, values in zip(shards, results):
            out.update(zip(piece, values))
        return out

    def g3_errors(self, pairs: Sequence[G3Request]) -> Dict[G3Request, float]:
        """Batched ``g3(lhs -> rhs)`` errors (the TANE level workload)."""
        pairs = [(tuple(sorted(lhs)), int(rhs)) for lhs, rhs in pairs]
        if not pairs:
            return {}
        if self.workers <= 1 or len(pairs) == 1:
            self.serial_batches += 1
            from repro.fd.measures import g3_error

            return {p: g3_error(self.relation, p[0], p[1]) for p in pairs}
        chunk = max(1, (len(pairs) + self.workers - 1) // self.workers)
        shards = [pairs[i : i + chunk] for i in range(0, len(pairs), chunk)]
        with span("pool"):
            results = self._map(_g3_shard, shards)
        if results is None:
            return self.g3_errors(pairs)
        self.parallel_batches += 1
        out: Dict[G3Request, float] = {}
        for piece, values in zip(shards, results):
            out.update(zip(piece, values))
        return out

    def close(self) -> None:
        if self._pool is not None:
            # wait=True: the pool is idle between batches, so this is
            # instant, and it keeps the interpreter-exit hook from poking
            # an already-closed pipe ("Bad file descriptor" at shutdown).
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _engine(self) -> PLICacheEngine:
        if self._local_engine is None:
            self._local_engine = PLICacheEngine(self.relation)
        return self._local_engine

    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        if self.workers <= 1:
            return None
        if self._pool is None:
            ctx = multiprocessing.get_context(_pick_start_method())
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(self.relation.codes, self.relation.columns),
            )
        return self._pool

    def _map(self, fn, payloads: List[list]) -> Optional[List[list]]:
        """Run ``fn`` over payload shards; ``None`` means "pool unusable"."""
        try:
            pool = self._ensure_pool()
            if pool is None:
                return None
            return list(pool.map(fn, payloads))
        except Exception:
            # Subprocesses unavailable (sandbox, broken pool, ...): never
            # fail the computation, just stop trying to parallelise.
            self.close()
            self.workers = 1
            return None
