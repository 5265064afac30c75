"""The Maimon system facade: ε in, ranked approximate acyclic schemas out.

Ties the two phases together exactly as Section 4 describes: the user
provides ε >= 0; phase 1 (``MVDMiner``) enumerates the full ε-MVDs with
minimal separators; phase 2 (``ASMiner``) enumerates acyclic schemas whose
support comes from that set.  Because a schema with ``m`` relations stacks
``m - 1`` support MVDs, phase 2 reports schemas with ``J(S) <= (m-1) ε``
(Corollary 5.2); callers can post-filter on the exact ``J`` which every
:class:`DiscoveredSchema` carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.asminer import ASMiner
from repro.core.budget import SearchBudget
from repro.core.jointree import JoinTree
from repro.core.miner import MinerResult, MVDMiner
from repro.core.mvd import MVD
from repro.core.schema import Schema
from repro.data.relation import Relation
from repro.delta.builder import Delta
from repro.entropy.oracle import EntropyOracle
from repro.quality.metrics import SchemaQuality, evaluate_schema


@dataclass
class DiscoveredSchema:
    """A schema discovered by Maimon, with provenance and quality numbers."""

    schema: Schema
    join_tree: JoinTree
    support_set: Tuple[MVD, ...]
    j_measure: float
    quality: SchemaQuality

    def format(self, columns: Sequence[str] = ()) -> str:
        q = self.quality
        e = "n/a" if q.spurious_pct is None else f"{q.spurious_pct:.2f}%"
        return (
            f"{self.schema.format(columns)}  "
            f"J={self.j_measure:.4f} m={q.n_relations} width={q.width} "
            f"S={q.savings_pct:.2f}% E={e}"
        )


class Maimon:
    """End-to-end discovery of approximate acyclic schemas.

    The engine-shaped keyword arguments (``engine``, ``persist``,
    ``cache_dir``, ``track_deltas``) are a thin shim over
    :class:`repro.api.specs.EngineSpec` — the system-wide declarative
    engine contract shared by the CLI, the HTTP serving layer and config
    files.  Passing ``spec=EngineSpec(...)`` directly is equivalent and
    preferred for new code; either way the spec is validated in one place
    (e.g. an unknown engine or ``cache_dir`` without ``persist`` is
    rejected with a field-naming error) and recorded as ``self.spec``.

    Parameters
    ----------
    relation:
        The input relation R.
    optimized:
        Use the pairwise-consistency pruning in the full-MVD search.
    spec:
        An :class:`~repro.api.specs.EngineSpec`; overrides the individual
        engine keyword arguments below when given.
    engine, persist, cache_dir, track_deltas:
        See :class:`~repro.api.specs.EngineSpec` for meanings, defaults
        and the validation rules.
    oracle:
        A pre-built :class:`~repro.entropy.oracle.EntropyOracle` to mine
        with, bypassing ``spec.make_oracle`` — for engines the spec does
        not model, e.g. the Section 6.3 SQL reference engine or a
        brute-force counting engine in differential tests.  The spec (or
        the engine keywords) is still validated and recorded, so sessions
        report a coherent configuration.

    Example
    -------
    >>> maimon = Maimon(relation)
    >>> result = maimon.mine_mvds(eps=0.01)
    >>> for ds in maimon.discover_schemas(eps=0.01, limit=10):
    ...     print(ds.format(relation.columns))
    """

    def __init__(
        self,
        relation: Relation,
        engine: str = "pli",
        optimized: bool = True,
        persist: bool = False,
        cache_dir=None,
        track_deltas: bool = False,
        spec=None,
        oracle: Optional[EntropyOracle] = None,
    ):
        # Imported here: repro.api builds on this module (io -> maimon).
        from repro.api.specs import EngineSpec

        if spec is None:
            spec = EngineSpec(
                engine=engine,
                persist=persist,
                cache_dir=cache_dir,
                track_deltas=track_deltas,
            )
        self.spec: "EngineSpec" = spec.validate()
        self.relation = relation
        self.oracle: EntropyOracle = (
            oracle if oracle is not None else self.spec.make_oracle(relation)
        )
        if self.spec.track_deltas:
            self.oracle.enable_delta_tracking()
        self.optimized = optimized
        self._miner = MVDMiner(self.oracle, optimized=optimized)
        self._mvd_cache: dict = {}
        self._prev_mvd_cache: dict = {}  # results of the pre-append version
        # Cumulative delta-advance totals; the oracle keeps "patched"
        # itself but reports rebuilt/dropped only per advance.
        self._delta_rebuilt = 0
        self._delta_dropped = 0

    # ------------------------------------------------------------------ #
    # Phase 1
    # ------------------------------------------------------------------ #

    def mine_mvds(
        self, eps: float, budget: Optional[SearchBudget] = None
    ) -> MinerResult:
        """Run (or reuse) phase 1 for a threshold.

        Complete results are cached per ε and reused even by budgeted
        calls — a finished result trivially satisfies any time limit, which
        is what lets a warm serving session answer budgeted requests
        instantly.  Budget-limited runs that time out are partial and are
        never cached.
        """
        cached = self._mvd_cache.get(eps)
        if cached is not None:
            return cached
        result = self._miner.mine(eps, budget=budget)
        if budget is None or not result.timed_out:
            self._mvd_cache[eps] = result
        return result

    def peek_mvds(self, eps: float) -> Optional[MinerResult]:
        """The cached complete phase-1 result for ``eps``, if any (no work)."""
        return self._mvd_cache.get(eps)

    def previous_mvds(self, eps: float) -> Optional[MinerResult]:
        """Phase-1 result of the *previous* dataset version for ``eps``.

        Populated by :meth:`advance` from whatever was cached at
        append time; this is the baseline the serving layer diffs warm
        re-mines against."""
        return self._prev_mvd_cache.get(eps)

    # ------------------------------------------------------------------ #
    # Dataset evolution (repro.delta)
    # ------------------------------------------------------------------ #

    def append_rows(self, rows) -> Delta:
        """Append decoded rows and advance the warm state (see repro.delta).

        The relation is extended via incremental dictionary encoding, the
        oracle's memoised entropies are patched in place where delta
        maintenance can prove them (``track_deltas=True``; otherwise they
        are invalidated), and cached phase-1 results move to the
        *previous-version* slot for diffing.  Returns the
        :class:`~repro.delta.builder.Delta` record.
        """
        from repro.delta.builder import append_rows as _append_rows

        new_relation, delta = _append_rows(self.relation, rows)
        self.advance(new_relation, delta)
        return delta

    def advance(self, new_relation: Relation, delta=None) -> dict:
        """Move to an appended version of the relation.

        Lower-level sibling of :meth:`append_rows` for callers that built
        the new relation (and its delta record) themselves, e.g. the
        serving layer's dataset registry.  Returns the oracle's advance
        stats (``patched`` / ``rebuilt`` / ``dropped`` memo entries).
        """
        stats = self.oracle.advance(new_relation, delta)
        self.relation = new_relation
        self._prev_mvd_cache = self._mvd_cache
        self._mvd_cache = {}
        self._delta_rebuilt += stats.get("rebuilt", 0)
        self._delta_dropped += stats.get("dropped", 0)
        return stats

    # ------------------------------------------------------------------ #
    # Phase 2
    # ------------------------------------------------------------------ #

    def discover_schemas(
        self,
        eps: float,
        limit: Optional[int] = None,
        mvd_budget: Optional[SearchBudget] = None,
        schema_budget: Optional[SearchBudget] = None,
        with_spurious: bool = True,
        max_j: Optional[float] = None,
    ) -> Iterator[DiscoveredSchema]:
        """Stream discovered schemas for a threshold.

        Parameters
        ----------
        eps:
            Approximation threshold handed to both phases.
        limit:
            Stop after this many schemas.
        mvd_budget, schema_budget:
            Wall-clock/step budgets for the two phases (the paper's
            timeout-then-enumerate mode).
        with_spurious:
            Compute the spurious-tuple percentage per schema (may be costly
            for very fragmented schemas).
        max_j:
            Optional exact-J filter, e.g. ``max_j=eps`` keeps only schemas
            that are ε-schemas in the strict sense of Definition 4.1.
        """
        mined = self.mine_mvds(eps, budget=mvd_budget)
        asminer = ASMiner(mined.mvds, self.oracle.omega)
        produced = 0
        for cand in asminer.enumerate(
            oracle=self.oracle, budget=schema_budget, dedupe=True
        ):
            j = cand.j_measure if cand.j_measure is not None else 0.0
            if max_j is not None and j > max_j + 1e-9:
                continue
            quality = evaluate_schema(
                self.relation,
                cand.schema,
                oracle=None,
                with_spurious=with_spurious,
            )
            quality.j_measure = j
            yield DiscoveredSchema(
                schema=cand.schema,
                join_tree=cand.join_tree,
                support_set=cand.support_set,
                j_measure=j,
                quality=quality,
            )
            produced += 1
            if limit is not None and produced >= limit:
                return

    def discover(
        self,
        eps: float,
        limit: Optional[int] = None,
        **kwargs,
    ) -> List[DiscoveredSchema]:
        """Eager version of :meth:`discover_schemas`."""
        return list(self.discover_schemas(eps, limit=limit, **kwargs))

    # ------------------------------------------------------------------ #
    # Reuse / lifecycle hooks (used by the serving layer, repro.serve)
    # ------------------------------------------------------------------ #

    def counters(self) -> dict:
        """Current instrumentation in the flat ``group.counter`` namespace.

        One key shape for every engine — ``oracle.queries``,
        ``exec.persist_hits``, ``approx.escalations``, ``kernel.bincount``
        and so on; the full catalogue lives in :mod:`repro.obs.counters`.
        ``oracle.*`` is always present; other groups appear only when the
        underlying oracle/engine tracks them.  Warm serving sessions
        expose these per session (``/healthz``) and republish them on
        ``/metrics`` as the ``counter`` label of ``repro_session_counter``.
        """
        from repro.obs.counters import flatten_counters

        extra = None
        if self.oracle.tracks_deltas:
            extra = {
                "delta.rebuilt": self._delta_rebuilt,
                "delta.dropped": self._delta_dropped,
            }
        return flatten_counters(self.oracle, extra=extra)

    def reset_counters(self) -> None:
        """Zero the oracle's query/eval counters (memo contents are kept).

        For long-lived holders that want per-window stats instead of
        lifetime totals."""
        self.oracle.reset_stats()
        self._delta_rebuilt = 0
        self._delta_dropped = 0

    def clear_cache(self) -> None:
        """Drop cached phase-1 results (oracle memo stays warm).

        For long-lived holders that need a forced re-mine — e.g. after
        changing tolerance-sensitive engine settings — without paying to
        rebuild the oracle."""
        self._mvd_cache.clear()

    def close(self) -> None:
        """Release oracle resources (persistent cache)."""
        self.oracle.close()

    def __enter__(self) -> "Maimon":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
