"""``BatchEntropyOracle``: planned, parallel, persistent entropy service.

Drop-in subclass of :class:`~repro.entropy.oracle.EntropyOracle` — every
mining algorithm that accepts an oracle accepts this one unchanged — that
upgrades the batched entry points:

* :meth:`entropies` / :meth:`mutual_informations` run the request batch
  through the planner (dedupe + containment ordering,
  :mod:`repro.exec.plan`), resolve what it can from the in-memory memo and
  the optional on-disk cache (:mod:`repro.exec.persist`), and evaluate the
  rest — across the worker pool (:mod:`repro.exec.pool`) when ``workers >
  1`` and the batch is worth shipping, serially on the oracle's own engine
  otherwise;
* :meth:`prefetch` evaluates *speculative* sets in parallel without
  advancing the ``queries`` counter, so adaptive searches can overlap
  engine work with their own control flow;
* ``queries``/``evals`` accounting matches the serial oracle exactly:
  queries = logical ``H()`` requests, evals = sets actually computed.

With ``workers <= 1`` and no persistent cache this class behaves
bit-identically to the base oracle (same engine, same evaluation order on
single requests); the acceptance tests pin that equivalence.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.data.relation import Relation
from repro.entropy.oracle import AttrsLike, EntropyOracle, MITriple
from repro.entropy.plicache import PLICacheEngine
from repro.exec.persist import PersistentEntropyCache
from repro.exec.plan import mi_entropy_sets, plan_entropy_requests
from repro.exec.pool import ParallelEvaluator
from repro.lattice import AttrSet
from repro.obs.trace import span

#: Smallest number of *missing* sets worth a round-trip to the pool; tiny
#: batches are cheaper on the local engine than on the wire.
MIN_PARALLEL_BATCH = 4


class BatchEntropyOracle(EntropyOracle):
    """Entropy oracle with batched, parallel and persistent evaluation.

    Parameters
    ----------
    relation:
        The input relation R.
    engine:
        Front-end engine for serial evaluation (default: a fresh
        :class:`~repro.entropy.plicache.PLICacheEngine`).  Workers always
        run PLI engines regardless of this choice.
    workers:
        Process-pool width; ``<= 1`` keeps everything in-process.
    persist:
        Enable the on-disk entropy cache; ``cache_dir`` overrides its
        location (see :mod:`repro.exec.persist`).
    """

    def __init__(
        self,
        relation: Relation,
        engine=None,
        workers: int = 1,
        persist: bool = False,
        cache_dir: Optional[str] = None,
    ):
        if engine is None:
            engine = PLICacheEngine(relation)
        super().__init__(relation, engine)
        self.workers = max(1, int(workers))
        self._evaluator: Optional[ParallelEvaluator] = None
        self._persist: Optional[PersistentEntropyCache] = None
        if persist:
            # Fingerprint by the *actual* front-end engine so caches of
            # different engines never mix.  Engines that carry an
            # estimator (repro.entropy.estimators) fold it in too — MLE
            # and corrected caches must never mix.
            params = (type(engine).__name__,)
            if getattr(engine, "estimator", None) is not None:
                params += (engine.estimator,)
            self._persist = PersistentEntropyCache(
                relation,
                cache_dir=cache_dir,
                params=params,
            )
        self.persist_hits = 0
        self.prefetched = 0

    # ------------------------------------------------------------------ #
    # Single-request path (adds the persistent tier)
    # ------------------------------------------------------------------ #

    def _compute(self, attrs: AttrSet) -> float:
        if self._persist is not None:
            cached = self._persist.get(attrs)
            if cached is not None:
                self.persist_hits += 1
                return cached
        self.evals += 1
        if self._tracker is not None:
            value = self._tracker.entropy_of_mask(attrs.mask)
        else:
            value = self.engine.entropy_of(attrs)
        if self._persist is not None:
            self._persist.put(attrs, value)
        return value

    # ------------------------------------------------------------------ #
    # Batched paths
    # ------------------------------------------------------------------ #

    @property
    def prefers_batches(self) -> bool:
        """Hot paths should collect whole batches when the pool is on."""
        return self.workers > 1

    def entropies(self, requests: Iterable[AttrsLike]) -> Dict[AttrSet, float]:
        """``H`` of every requested set (see base class for accounting)."""
        with span("batch"):
            plan = plan_entropy_requests(requests)
            self.queries += plan.logical
            missing = self._resolve_missing(plan.unique)
            if missing:
                self._evaluate(missing)
            return {a: self._memo[a.mask] for a in plan.unique}

    def mutual_informations(self, triples: Sequence[MITriple]) -> List[float]:
        """``I(Y; Z | X)`` per triple, through one planned entropy batch."""
        expanded = [mi_entropy_sets(ys, zs, xs) for ys, zs, xs in triples]
        flat: List[AttrSet] = [s for quad in expanded for s in quad]
        hs = self.entropies(flat)
        return [
            hs[xy] + hs[xz] - hs[xyz] - hs[x] for (xy, xz, xyz, x) in expanded
        ]

    def prefetch(self, requests: Iterable[AttrsLike]) -> int:
        """Evaluate likely-needed sets in parallel; no ``queries`` impact.

        A no-op without a pool: speculative evaluation only pays off when
        it overlaps with other work.
        """
        if self.workers <= 1:
            return 0
        with span("prefetch"):
            plan = plan_entropy_requests(requests)
            missing = self._resolve_missing(plan.unique)
            if len(missing) < MIN_PARALLEL_BATCH:
                return 0
            self._evaluate(missing)
            self.prefetched += len(missing)
            return len(missing)

    # ------------------------------------------------------------------ #
    # Lifecycle / stats
    # ------------------------------------------------------------------ #

    def evaluator(self) -> Optional[ParallelEvaluator]:
        """The shared worker pool (building it on first use); None if serial."""
        if self.workers <= 1:
            return None
        return self._pool()

    def advance(self, new_relation: Relation, delta=None):
        """Move to an appended version (see base class), plus exec state.

        The worker pool is shut down — workers hold engines over the old
        relation and respawn lazily against the new one.  The persistent
        cache forks along the lineage: a new store keyed by the chained
        fingerprint (``parent + delta digest``, no O(N) re-hash), seeded
        with every entropy that survived the advance and recording its
        parent, so on-disk caches of successive versions form a chain
        instead of unrelated blobs.
        """
        stats = super().advance(new_relation, delta)
        if self._evaluator is not None:
            self._evaluator.close()
            self._evaluator = None
        if self._persist is not None:
            self._persist.flush()
            parent_fp = self._persist.fingerprint
            if delta is not None:
                from repro.delta.builder import chained_fingerprint

                child_fp = chained_fingerprint(parent_fp, delta.digest)
            else:
                child_fp = None  # content-hash the new relation instead
            self._persist = PersistentEntropyCache(
                new_relation,
                cache_dir=self._persist.cache_dir,
                params=self._persist.params,
                fingerprint=child_fp,
                parent=parent_fp,
            )
            self._persist.seed(self._memo)
        return stats

    def reset_stats(self) -> None:
        super().reset_stats()
        self.persist_hits = 0
        self.prefetched = 0

    def flush(self) -> None:
        """Persist any new entropies to disk (no-op without persistence)."""
        if self._persist is not None:
            self._persist.flush()

    def close(self) -> None:
        """Shut down the worker pool and flush the persistent cache."""
        if self._evaluator is not None:
            self._evaluator.close()
            self._evaluator = None
        self.flush()

    def __repr__(self) -> str:
        return (
            f"<BatchEntropyOracle over {self.relation!r} "
            f"engine={type(self.engine).__name__} workers={self.workers} "
            f"persist={self._persist is not None} "
            f"queries={self.queries} evals={self.evals}>"
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _resolve_missing(self, unique: Sequence[AttrSet]) -> List[AttrSet]:
        """Fill the memo from the persistent tier; return what remains."""
        missing: List[AttrSet] = []
        for a in unique:
            if a.mask in self._memo:
                continue
            if self._persist is not None:
                cached = self._persist.get(a)
                if cached is not None:
                    self.persist_hits += 1
                    self._memo[a.mask] = cached
                    continue
            missing.append(a)
        return missing

    def _evaluate(self, missing: Sequence[AttrSet]) -> None:
        """Compute missing sets (pool when worthwhile) into the memo.

        ``missing`` preserves the plan's containment order (size, then
        lexicographic), so the serial loop below walks lattice-adjacent
        sets back to back — exactly the access pattern the kernel
        dispatcher's composed-prefix LRU (:mod:`repro.kernels.dispatch`)
        is keyed for: each set re-uses the composed key column of the
        sibling before it and only extends by the trailing attribute.
        """
        if self._tracker is not None:
            # Delta tracking records evolving state per evaluated set;
            # pool workers cannot contribute to it, so tracked oracles
            # evaluate batches in-process (serving sessions run workers=1
            # by default — evolution and fan-out are rarely combined).
            values = {a: self._tracker.entropy_of_mask(a.mask) for a in missing}
        elif self.workers > 1 and len(missing) >= MIN_PARALLEL_BATCH:
            values = self._pool().entropies(missing)
            # The evaluator degrades itself to serial when subprocesses are
            # unavailable; mirror that here so prefers_batches flips off
            # and we stop paying for speculative batches we run serially.
            self.workers = self._evaluator.workers
        else:
            values = {a: self.engine.entropy_of(a) for a in missing}
        self.evals += len(missing)
        self._memo.update((a.mask, v) for a, v in values.items())
        if self._persist is not None:
            # No flush here: PersistentEntropyCache batches disk writes
            # (flush_every); close()/flush() persists the tail.
            self._persist.update(values)

    def _pool(self) -> ParallelEvaluator:
        if self._evaluator is None:
            self._evaluator = ParallelEvaluator(
                self.relation, workers=self.workers
            )
        return self._evaluator
