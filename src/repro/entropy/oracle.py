"""The ``getEntropyR`` oracle used by all mining algorithms.

Wraps an entropy *engine* (by default the exact counts-first
:class:`~repro.entropy.plicache.PLICacheEngine`) and exposes the derived
information measures the paper needs:

* ``H(X)`` — joint entropy of an attribute set (Eq. 5);
* ``H(Y | X)`` — conditional entropy;
* ``I(Y; Z | X)`` — conditional mutual information (Eq. 2), which is the
  J-measure of a standard MVD ``X ->> Y | Z``.

The oracle also counts queries, which the scalability benches report (the
paper: "the most expensive operation of Maimon is the computation of the
entropy H(X)").  Two counters are kept with distinct meanings:

* ``queries`` — **logical** ``H()`` requests, i.e. every entropy a caller
  asked for, whether or not it was served from a cache.  Batched requests
  (:meth:`EntropyOracle.entropies`) count one per requested set, duplicates
  included, so serial and batched runs of the same algorithm report the
  same number.
* ``evals`` — **engine evaluations**, i.e. requests that missed the
  oracle-level memo and were handed to the engine (or, for the batched
  subclass, to the persistent cache).  ``queries - evals``
  is the work saved by memoisation and deduplication.

Internally the memo is keyed by the raw :class:`~repro.lattice.AttrSet`
bitmask — a plain int, the cheapest dict key CPython has — and the hot
measure formulas (:meth:`entropy_mask`, :meth:`mutual_information`) work
directly on masks, so the per-query cost is a few int ops plus one dict
probe.  All entry points still accept any iterable of column indices.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.common import TOL
from repro.data.relation import Relation
from repro.entropy.plicache import PLICacheEngine
from repro.lattice import AttrSet, attrset, mask_of

AttrsLike = Union[AttrSet, Iterable[int]]
#: An ``I(Y; Z | X)`` request: ``(ys, zs, xs)`` attribute sets.
MITriple = Tuple[AttrsLike, AttrsLike, AttrsLike]


class EntropyOracle:
    """Caching facade over an entropy engine.

    The mining algorithms call this object millions of times with heavily
    overlapping attribute sets; engines cache partitions, the oracle keeps a
    memo of finished entropies (so ``evals`` can be counted consistently)
    and centralises the measure formulas and instrumentation.

    Subclasses (notably :class:`repro.exec.batch.BatchEntropyOracle`) keep
    the exact same serial semantics and add planned and persistent
    evaluation behind the same interface; all mining code is written against
    this class only.
    """

    def __init__(self, relation: Relation, engine=None):
        self.relation = relation
        self.engine = engine if engine is not None else PLICacheEngine(relation)
        self.queries = 0  # logical H() requests (cache hits included)
        self.evals = 0    # requests that reached the engine (memo misses)
        self.patched = 0  # memo entries updated in place by delta advances
        self._memo: Dict[int, float] = {}  # keyed by AttrSet bitmask
        #: Fig. 16 consistency closures of the full-MVD search, per
        #: (ε, key mask); see :meth:`consistency_memo`.
        self._consistency: Dict[Tuple[float, int], Dict[Tuple[int, ...], Tuple[int, ...]]] = {}
        self._omega = AttrSet.full(relation.n_cols)
        self._tracker = None  # delta-maintenance state (repro.delta)

    # ------------------------------------------------------------------ #
    # Core measures
    # ------------------------------------------------------------------ #

    def entropy(self, attrs: AttrsLike) -> float:
        """``H(attrs)`` in bits under the empirical distribution of R."""
        self.queries += 1
        m = attrs.mask if type(attrs) is AttrSet else mask_of(attrs)
        value = self._memo.get(m)
        if value is None:
            value = self._compute(AttrSet.from_mask(m))
            self._memo[m] = value
        return value

    def entropy_mask(self, m: int) -> float:
        """``H`` of the set encoded by the bitmask ``m`` (hot-path entry).

        Same accounting as :meth:`entropy`; exists so inner search loops
        can do their set algebra as int arithmetic and skip object
        construction on memo hits entirely.
        """
        self.queries += 1
        value = self._memo.get(m)
        if value is None:
            value = self._compute(AttrSet.from_mask(m))
            self._memo[m] = value
        return value

    def _compute(self, attrs: AttrSet) -> float:
        """Evaluate one memo-missing set (hook for batched subclasses)."""
        self.evals += 1
        if self._tracker is not None:
            return self._tracker.entropy_of_mask(attrs.mask)
        return self.engine.entropy_of(attrs)

    def cond_entropy(self, ys: AttrsLike, xs: AttrsLike) -> float:
        """``H(Y | X) = H(XY) - H(X)``."""
        ym, xm = mask_of(ys), mask_of(xs)
        return self.entropy_mask(xm | ym) - self.entropy_mask(xm)

    def mutual_information(self, ys: AttrsLike, zs: AttrsLike, xs: AttrsLike = ()) -> float:
        """``I(Y; Z | X) = H(XY) + H(XZ) - H(XYZ) - H(X)`` (Eq. 2).

        Non-negative up to float noise; callers compare against thresholds
        with the shared tolerance :data:`repro.common.TOL`.
        """
        ym, zm, xm = mask_of(ys), mask_of(zs), mask_of(xs)
        return (
            self.entropy_mask(xm | ym)
            + self.entropy_mask(xm | zm)
            - self.entropy_mask(xm | ym | zm)
            - self.entropy_mask(xm)
        )

    # ------------------------------------------------------------------ #
    # Decision interface (threshold comparisons)
    # ------------------------------------------------------------------ #
    #
    # The miners never consume raw measure *values* on their control
    # paths — they compare against ε.  Routing those comparisons through
    # the oracle lets engines that answer from estimates (repro.approx)
    # decide confidently where they can and re-evaluate exactly where
    # they cannot, while every exact engine keeps the bit-identical
    # semantics of the inline comparison these methods replace.

    def mi_exceeds(self, ys: AttrsLike, zs: AttrsLike, xs: AttrsLike, eps: float) -> bool:
        """Decide ``I(Y; Z | X) > eps`` (with the shared TOL slack)."""
        return self.mutual_information(ys, zs, xs) > eps + TOL

    def mis_exceed(self, triples: Sequence[MITriple], eps: float) -> List[bool]:
        """Batched :meth:`mi_exceeds`, one verdict per triple, in order."""
        return [mi > eps + TOL for mi in self.mutual_informations(triples)]

    def j_le(self, key_mask: int, deps: Sequence[int], eps: float) -> bool:
        """Decide ``R |=ε X ->> Y1|...|Ym``: is ``J <= eps`` (+TOL)?

        ``key_mask`` encodes ``X`` and ``deps`` the dependents' bitmasks,
        in the MVD's canonical (lowest-bit) order.  Same formula as
        :func:`repro.core.measures.j_measure`, on raw masks: this is the
        innermost decision of the full-MVD DFS.
        """
        total = 0.0
        everything = key_mask
        for dm in deps:
            total += self.entropy_mask(key_mask | dm)
            everything |= dm
        total -= (len(deps) - 1) * self.entropy_mask(key_mask)
        total -= self.entropy_mask(everything)
        return total <= eps + TOL

    def consistency_memo(
        self, eps: float, key_mask: int
    ) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
        """The full-MVD search's memo of Fig. 16 closures for (ε, key).

        Maps a tuple of dependent masks to a later state on its
        forced-merge path (:mod:`repro.core.fullmvd`).  The entries follow
        from this oracle's verdicts alone, so they live as long as the
        entropy memo and are dropped by :meth:`advance`.
        """
        memo = self._consistency.get((eps, key_mask))
        if memo is None:
            memo = self._consistency[(eps, key_mask)] = {}
        return memo

    # ------------------------------------------------------------------ #
    # Batched interface (serial reference implementations)
    # ------------------------------------------------------------------ #

    def entropies(self, requests: Iterable[AttrsLike]) -> Dict[AttrSet, float]:
        """``H`` of every requested set, as ``{attr set: bits}``.

        Keys are :class:`~repro.lattice.AttrSet` (equal and hash-equal to
        the corresponding frozensets).  Duplicate requests collapse onto
        one dict key but each still counts as one logical query, keeping
        ``queries`` comparable between serial and batched runs of the same
        algorithm.
        """
        return {a: self.entropy(a) for a in map(attrset, requests)}

    def mutual_informations(self, triples: Sequence[MITriple]) -> List[float]:
        """``I(Y; Z | X)`` for every ``(ys, zs, xs)`` triple, in order."""
        return [self.mutual_information(ys, zs, xs) for ys, zs, xs in triples]

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #

    @property
    def n_attrs(self) -> int:
        return self.relation.n_cols

    @property
    def omega(self) -> AttrSet:
        """The full attribute set ``Omega`` as column indices."""
        return self._omega

    # ------------------------------------------------------------------ #
    # Dataset evolution (repro.delta)
    # ------------------------------------------------------------------ #

    @property
    def tracks_deltas(self) -> bool:
        """Is delta maintenance recording evolving state for this oracle?"""
        return self._tracker is not None

    def enable_delta_tracking(self) -> None:
        """Record evolving grouping state alongside every evaluation.

        From this point on, memo-missing sets are grouped through a
        :class:`~repro.delta.tracker.DeltaTracker` (bit-identical
        entropies, see there), which is what lets :meth:`advance` *patch*
        the memo after an append instead of clearing it.  Costs memory
        proportional to the distinct groups per evaluated set; one-shot
        runs should leave it off.

        Engines whose values are not the plug-in entropy (bias-corrected
        estimators, sampled estimates) decline tracking: the tracker
        maintains *plug-in* entropies, so patching their memo with it
        would silently change the estimator.  Appends on such oracles
        fall back to rebuild-on-advance.
        """
        if not getattr(self.engine, "tracker_compatible", True):
            return
        # Store-backed relations (repro.backends.BackendRelation) are
        # read-only; tracking would materialise them just to maintain
        # partitions for appends that can never arrive.
        if not getattr(self.relation, "supports_delta_tracking", True):
            return
        if self._tracker is None:
            from repro.delta.tracker import DeltaTracker

            self._tracker = DeltaTracker(self.relation)

    def advance(self, new_relation: Relation, delta=None) -> Dict[str, int]:
        """Move the oracle to an appended version of its relation.

        With delta tracking on and a :class:`~repro.delta.builder.Delta`
        supplied, every memoised entropy the tracker can maintain is
        updated in place (``patched``; ``rebuilt`` counts the
        cardinality-jump fallbacks) and only untrackable or
        tracker-bypassing entries are dropped.  Otherwise the memo is
        cleared wholesale.  The engine is advanced too, so either way the
        oracle never serves a stale value.
        """
        if new_relation.n_cols != self.relation.n_cols:
            raise ValueError(
                f"cannot advance across a column change "
                f"({self.relation.n_cols} -> {new_relation.n_cols} columns)"
            )
        stats = {"patched": 0, "rebuilt": 0, "dropped": 0}
        self._consistency.clear()  # closures follow the old verdicts
        if self._tracker is not None and delta is not None:
            patched, stats = self._tracker.advance(new_relation, delta)
            kept = {m: patched[m] for m in self._memo if m in patched}
            stats = dict(stats)
            stats["dropped"] = len(self._memo) - len(kept)
            self._memo = kept
            self.patched += stats["patched"]
        else:
            stats["dropped"] = len(self._memo)
            self._memo.clear()
            if self._tracker is not None:
                # No delta record: the tracker's state is unverifiable.
                from repro.delta.tracker import DeltaTracker

                self._tracker = DeltaTracker(new_relation)
        self.relation = new_relation
        self._omega = AttrSet.full(new_relation.n_cols)
        if hasattr(self.engine, "advance"):
            self.engine.advance(new_relation)
        else:  # pragma: no cover - every shipped engine has advance
            self.engine = type(self.engine)(new_relation)
        return stats

    def kernel_stats(self) -> Dict[str, int]:
        """Dispatch counters of the counts-first kernel layer, if any.

        Engines that route entropies through :mod:`repro.kernels`
        (the exact engine, the approx sample tier) expose the
        relation's :class:`~repro.kernels.GroupCounter` counters —
        which kernel answered how many queries, densifications, prefix
        cache hits.  Engines that never touch the kernel layer yield
        an empty dict.
        """
        stats = getattr(self.engine, "kernel_stats", None)
        if stats is None:
            return {}
        return dict(stats)

    def reset_stats(self) -> None:
        self.queries = 0
        self.evals = 0
        self.patched = 0
        if hasattr(self.engine, "reset_stats"):
            self.engine.reset_stats()

    def close(self) -> None:
        """Release external resources (cache files).

        The serial oracle holds none; exists so callers can treat every
        oracle uniformly."""

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} over {self.relation!r} "
            f"engine={type(self.engine).__name__} queries={self.queries}>"
        )


def make_oracle(
    relation: Relation,
    engine: str = "pli",
    persist: bool = False,
    cache_dir=None,
    estimator: str = "mle",
    sample_rows=None,
    confidence=None,
    sample_seed=None,
) -> EntropyOracle:
    """Construct an oracle with a named engine.

    ``"pli"`` (default) — exact entropies, counts-first through the
    relation's grouping kernels (:class:`~repro.entropy.plicache.
    PLICacheEngine`);
    ``"approx"`` — sampled estimates with confidence intervals and exact
    escalation at decision boundaries (:mod:`repro.approx`).

    The keyword arguments are a shim over
    :class:`repro.api.specs.EngineSpec`: the spec is where engine/knob
    combinations are validated system-wide, so e.g. ``sample_rows`` with
    ``engine="pli"`` raises here with the same message the CLI and the
    serving layer give.

    Parameters
    ----------
    persist:
        Cache entropies on disk keyed by a fingerprint of the relation, so
        repeated runs on the same data skip recomputation (a
        :class:`repro.exec.batch.BatchEntropyOracle` is returned).
        ``cache_dir`` overrides the default cache location (see
        :mod:`repro.exec.persist`).  For ``engine="approx"`` persistence
        applies to the exact escalation tier (sampled estimates are cheap
        and never cached on disk).
    estimator:
        Estimator centring the ``approx`` intervals (see
        :data:`repro.entropy.estimators.ESTIMATORS`).
    sample_rows, confidence, sample_seed:
        ``approx``-only knobs: sample size, decision confidence level and
        sampling seed (see :class:`repro.approx.engine.ApproxEntropyEngine`
        for defaults).
    """
    # Imported lazily: repro.api.specs compiles back down to this function.
    from repro.api.specs import EngineSpec

    EngineSpec(
        engine=engine,
        persist=persist,
        cache_dir=cache_dir,
        estimator=estimator,
        sample_rows=sample_rows,
        confidence=confidence,
        sample_seed=sample_seed,
    ).validate()
    if engine == "approx":
        # The approx engine is itself an oracle (it owns a sampled tier
        # plus an exact escalation tier built through this function).
        from repro.approx.engine import ApproxEntropyEngine

        return ApproxEntropyEngine(
            relation,
            sample_rows=sample_rows,
            confidence=confidence,
            estimator=estimator,
            sample_seed=sample_seed,
            persist=persist,
            cache_dir=cache_dir,
        )
    eng = PLICacheEngine(relation)
    if persist:
        # Imported lazily: repro.exec builds on this module.
        from repro.exec.batch import BatchEntropyOracle

        return BatchEntropyOracle(
            relation,
            engine=eng,
            persist=persist,
            cache_dir=cache_dir,
        )
    return EntropyOracle(relation, eng)
