"""``ApproxEntropyEngine``: decide on the sample, escalate at the boundary.

A drop-in :class:`~repro.entropy.oracle.EntropyOracle` whose point values
come from a deterministic row sample (:mod:`repro.approx.sampler`) and
whose *decisions* — the ``> eps`` / ``<= eps`` comparisons that actually
drive the miners — are made through the confidence intervals of
:mod:`repro.approx.bounds`:

* interval entirely above the threshold  -> decide "exceeds" on the sample;
* interval entirely below (or touching)  -> decide "holds" on the sample;
* interval straddles the threshold, or any involved projection is
  *saturated* (support or Good-Turing missing mass too large for the
  interval model to hold; see :data:`SATURATION_SUPPORT`) -> **escalate**:
  re-evaluate that one comparison on an exact tier (a PLI oracle over the
  full relation, batchable over a worker pool and persistable on disk,
  built through ``make_oracle``) and decide on the exact value.

Escalation makes the mined output exact — every verdict the miners see is
either interval-certain (and the interval contains the exact value with
the configured confidence) or literally the exact engine's verdict — while
the sample answers the bulk of comparisons in O(sample) time.  Confidence
is *per decision*: ``confidence=0.95`` means each individual comparison
that is decided on the sample is decided on an interval that covers the
exact value with probability >= 0.95; a wrong interval costs correctness
only when it also clears the threshold on the wrong side, and lowering
``confidence`` trades escalation rate for that risk.

Point *values* (``entropy()``, ``mutual_information()``, reported J's)
remain sampled estimates — callers that need exact values should use an
exact engine; this one exists so the ε-comparisons scale.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common import TOL
from repro.data.relation import Relation
from repro.entropy.estimators import (
    LN2,
    EntropySample,
    EstimatedEntropyEngine,
    sample_moments,
)
from repro.entropy.oracle import AttrsLike, EntropyOracle, MITriple, make_oracle
from repro.approx.bounds import BOUND_METHODS, decision_interval
from repro.approx.sampler import get_sample
from repro.lattice import AttrSet, mask_of

#: Default sample size: large enough that interval widths sit well under
#: typical ε gaps on real data, small enough that a sampled ``H`` is
#: hundreds of times cheaper than an exact one at 10M+ rows.
DEFAULT_SAMPLE_ROWS = 100_000
#: Default per-decision confidence level.
DEFAULT_CONFIDENCE = 0.95
#: Default sampling seed (results are deterministic for a fixed seed).
DEFAULT_SAMPLE_SEED = 0

#: Saturation guards.  The delta-method variance and the signed
#: Miller-Madow centring both assume the sample dwarfs each term's
#: support (``n >> K``): when a projection of the sample has support
#: approaching ``n``, the row-wise information vector flattens (variance
#: collapses towards zero), the chi-square bias model breaks, and the
#: interval becomes confidently wrong precisely in the regime where
#: sampling fabricates dependencies (the paper's N1 obstacle).  A
#: decision is therefore *not sample-certifiable* — it escalates
#: unconditionally — when any involved term trips either guard:
#: support fraction ``K/n`` above ``SATURATION_SUPPORT``, or Good-Turing
#: missing mass (singleton fraction ``f1/n``, the estimated probability
#: of unseen tuples) above ``SATURATION_SINGLETONS``.  Well-sampled
#: regimes sit orders of magnitude below both (e.g. ``K/n < 0.005`` at
#: the bench defaults) so the guards cost nothing there.
SATURATION_SUPPORT = 0.10
SATURATION_SINGLETONS = 0.02


class ApproxEntropyEngine(EntropyOracle):
    """Sampled-estimate oracle with exact escalation at decision boundaries.

    Parameters
    ----------
    relation:
        The full input relation R.
    sample_rows, sample_seed:
        Sample size and seed (defaults above).  A sample covering the
        whole relation degenerates gracefully: estimates are exact,
        intervals have zero width, nothing ever escalates.
    confidence:
        Per-decision confidence level in (0, 1).
    estimator:
        Estimator centring the intervals (:data:`ESTIMATORS`); the
        bias-corrected ones narrow the one-sided bias allowance's job,
        ``mle`` is the default and what the bounds are stated for.
    bound:
        Deviation radius: ``"clt"`` (default, tight) or ``"mcdiarmid"``
        (distribution-free, wide — escalates far more).
    sample_method:
        ``"uniform"`` (default) or ``"stratified"`` row draw.
    workers, persist, cache_dir:
        Configuration of the exact escalation tier, passed through to
        ``make_oracle(engine="pli", ...)``; the tier is built lazily on
        the first escalation, so sample-decided runs never pay for it.

    Counters: ``queries``/``evals`` follow the oracle contract (logical
    requests / sampled-tier evaluations); ``escalations`` counts
    threshold comparisons re-decided exactly and ``exact_evals`` the
    full-relation entropy evaluations those triggered.
    """

    def __init__(
        self,
        relation: Relation,
        sample_rows: Optional[int] = None,
        confidence: Optional[float] = None,
        estimator: str = "mle",
        sample_seed: Optional[int] = None,
        bound: str = "clt",
        sample_method: str = "uniform",
        workers: int = 1,
        persist: bool = False,
        cache_dir: Optional[str] = None,
    ):
        self.sample_rows = (
            DEFAULT_SAMPLE_ROWS if sample_rows is None else int(sample_rows)
        )
        self.confidence = (
            DEFAULT_CONFIDENCE if confidence is None else float(confidence)
        )
        self.sample_seed = (
            DEFAULT_SAMPLE_SEED if sample_seed is None else int(sample_seed)
        )
        if self.sample_rows < 1:
            raise ValueError(f"sample_rows must be >= 1, got {self.sample_rows}")
        if not (0.0 < self.confidence < 1.0):
            raise ValueError(
                f"confidence must be in (0, 1), got {self.confidence!r}"
            )
        if bound not in BOUND_METHODS:
            raise ValueError(
                f"unknown bound method {bound!r}; expected one of {BOUND_METHODS}"
            )
        self.bound = bound
        self.sample_method = sample_method
        self.estimator = estimator
        self._delta = 1.0 - self.confidence
        self._exact_config = dict(
            workers=workers, persist=persist, cache_dir=cache_dir
        )
        sample = get_sample(
            relation, self.sample_rows, seed=self.sample_seed, method=sample_method
        )
        #: Sample covers R: estimates are exact, intervals collapse.
        self._exhaustive = sample.n_rows >= relation.n_rows
        effective = "mle" if self._exhaustive else estimator
        super().__init__(relation, EstimatedEntropyEngine(sample, estimator=effective))
        self.sample = sample
        self._sample_memo: Dict[int, EntropySample] = {}  # parallel to _memo
        #: Singleton fraction ``f1/n`` per mask (Good-Turing missing mass).
        self._f1_memo: Dict[int, float] = {}
        #: Per-row information vectors ``-log2 p_hat(proj_mask(row))`` over
        #: the sample, the raw material of combination intervals.  Capped
        #: (each is ``sample_rows`` floats); evicted vectors recompute.
        self._info_memo: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._info_capacity = 512
        #: Verdict memo keyed by the decision itself (masks + threshold).
        #: The miners repeat many comparisons verbatim (separator probes
        #: share candidates across pairs); the exact oracle absorbs those
        #: repeats in its entropy memo, whereas recomputing a sample-sized
        #: combination vector per repeat would dominate the sampled tier.
        self._decision_memo: Dict[Tuple, bool] = {}
        self._exact: Optional[EntropyOracle] = None
        self.escalations = 0

    # ------------------------------------------------------------------ #
    # Sampled tier
    # ------------------------------------------------------------------ #

    def _compute(self, attrs: AttrSet) -> float:
        self.evals += 1
        s, _ = self._materialise(attrs.mask)
        return s.value

    def _materialise(self, m: int) -> Tuple[EntropySample, np.ndarray]:
        """Group the sample on mask ``m``: count statistics + info vector.

        One grouping pass yields both products; the info vector may have
        been evicted while the (tiny) ``EntropySample`` survived, in which
        case only the vector is rebuilt.
        """
        n = self.sample.n_rows
        info = self._info_memo.get(m)
        stats = self._sample_memo.get(m)
        if info is not None and stats is not None:
            self._info_memo.move_to_end(m)
            return stats, info
        if n == 0 or m == 0:
            counts = np.full(1 if n else 0, n, dtype=np.int64)
            ids = np.zeros(n, dtype=np.int64)
        else:
            # Fused kernel call: dense ids and group counts from one
            # grouping pass (the counts are needed for the moments, the
            # ids for the per-row info vector — no separate bincount).
            idx = self.sample.col_indices(AttrSet.from_mask(m))
            ids, counts = self.sample.kernels.ids_and_counts(idx)
        info = -np.log2(counts[ids] / n) if n else np.zeros(0)
        if stats is None:
            stats = sample_moments(counts, n, self.engine.estimator)
            self._sample_memo[m] = stats
            self._f1_memo[m] = float((counts == 1).sum()) / n if n else 0.0
            self._memo.setdefault(m, stats.value)
        self._info_memo[m] = info
        while len(self._info_memo) > self._info_capacity:
            self._info_memo.popitem(last=False)
        return stats, info

    def _stats_of(self, m: int) -> Tuple[EntropySample, np.ndarray]:
        """Decision-path access to mask ``m`` (one logical query)."""
        self.queries += 1
        info = self._info_memo.get(m)
        stats = self._sample_memo.get(m)
        if info is not None and stats is not None:
            self._info_memo.move_to_end(m)
            return stats, info
        if stats is None:
            self.evals += 1  # eviction-rebuilds of the vector are not evals
        return self._materialise(m)

    def _interval(self, terms: Sequence[Tuple[int, float]]):
        """Decision interval for ``sum coeff * H(mask)`` over the sample."""
        lo, hi, _ = self._interval_full(terms)
        return lo, hi

    def _interval_full(self, terms: Sequence[Tuple[int, float]]):
        """``(lo, hi, saturated)`` — the interval plus the saturation flag.

        ``saturated`` is True when any term's projection trips the
        support/missing-mass guards (see :data:`SATURATION_SUPPORT`),
        i.e. the interval's variance and bias model are not to be
        trusted and the decision must escalate regardless of it.
        """
        n = self.sample.n_rows
        if n == 0:
            return (0.0, 0.0, False)
        combo = None
        mm = 0.0
        spread = 0.0
        saturated = False
        for m, coeff in terms:
            stats, info = self._stats_of(m)
            part = coeff * info
            combo = part if combo is None else combo + part
            mm += coeff * (stats.support - 1)
            spread += abs(coeff)
            if (stats.support > SATURATION_SUPPORT * n
                    or self._f1_memo.get(m, 0.0) > SATURATION_SINGLETONS):
                saturated = True
        mm /= 2.0 * n * LN2
        est = float(combo.mean())
        var = float(combo.var())
        lo, hi = decision_interval(
            est, var, n, mm, self._delta, self.bound, spread=spread
        )
        return lo, hi, saturated

    # ------------------------------------------------------------------ #
    # Exact escalation tier
    # ------------------------------------------------------------------ #

    @property
    def exact_evals(self) -> int:
        """Full-relation entropy evaluations performed by escalations."""
        return self._exact.evals if self._exact is not None else 0

    def exact_oracle(self) -> EntropyOracle:
        """The escalation tier (a PLI oracle over R), built on first use."""
        if self._exact is None:
            self._exact = make_oracle(self.relation, engine="pli", **self._exact_config)
        return self._exact

    # ------------------------------------------------------------------ #
    # Decision interface: interval first, exact when straddling
    # ------------------------------------------------------------------ #

    def mi_exceeds(self, ys: AttrsLike, zs: AttrsLike, xs: AttrsLike, eps: float) -> bool:
        return self.mis_exceed([(ys, zs, xs)], eps)[0]

    def mis_exceed(self, triples: Sequence[MITriple], eps: float) -> List[bool]:
        """Decide ``I(Y; Z | X) > eps`` per triple; straddlers go exact.

        Escalated triples are re-evaluated as **one** batched call on the
        exact tier, so a parallel/persistent tier amortises them the same
        way :class:`~repro.exec.batch.BatchEntropyOracle` amortises any
        MI batch.
        """
        if self._exhaustive:
            return super().mis_exceed(triples, eps)
        threshold = eps + TOL
        verdicts: List[Optional[bool]] = []
        pending: List[Tuple[int, MITriple]] = []
        pending_keys: List[Tuple] = []
        for triple in triples:
            ys, zs, xs = triple
            ym, zm, xm = mask_of(ys), mask_of(zs), mask_of(xs)
            key = (ym, zm, xm, threshold)
            cached = self._decision_memo.get(key)
            if cached is not None:
                self.queries += 4  # same logical-query count as a fresh ask
                verdicts.append(cached)
                continue
            lo, hi, saturated = self._interval_full([
                (xm | ym, 1.0),
                (xm | zm, 1.0),
                (xm | ym | zm, -1.0),
                (xm, -1.0),
            ])
            lo = max(0.0, lo)  # I >= 0 by Shannon inequality
            if saturated or not (lo > threshold or hi <= threshold):
                pending.append((len(verdicts), triple))
                pending_keys.append(key)
                verdicts.append(None)
            else:
                verdict = lo > threshold
                self._decision_memo[key] = verdict
                verdicts.append(verdict)
        if pending:
            self.escalations += len(pending)
            exact = self.exact_oracle().mutual_informations([t for _, t in pending])
            for (i, _), key, mi in zip(pending, pending_keys, exact):
                verdicts[i] = mi > threshold
                self._decision_memo[key] = verdicts[i]
        return verdicts  # type: ignore[return-value]

    def j_le(self, mvd, eps: float) -> bool:
        """Decide ``J(mvd) <= eps``; straddling intervals go exact.

        The J combination has ``m + 2`` entropy terms (key-extended
        dependents, the ``(m-1)``-weighted key, the union); escalation
        ships them as one batched ``entropies`` call on the exact tier.
        """
        if self._exhaustive:
            return super().j_le(mvd, eps)
        threshold = eps + TOL
        key_mask = mvd.key.mask
        memo_key = (
            key_mask, tuple(sorted(d.mask for d in mvd.dependents)), threshold
        )
        cached = self._decision_memo.get(memo_key)
        if cached is not None:
            self.queries += mvd.m + 2  # same logical count as a fresh ask
            return cached
        everything = key_mask
        masks = []
        for d in mvd.dependents:
            m = key_mask | d.mask
            masks.append(m)
            everything |= d.mask
        terms = [(m, 1.0) for m in masks]
        terms.append((key_mask, -(mvd.m - 1.0)))
        terms.append((everything, -1.0))
        lo, hi, saturated = self._interval_full(terms)
        lo = max(0.0, lo)  # J >= 0 (a sum of conditional MIs)
        if not saturated:
            if hi <= threshold:
                self._decision_memo[memo_key] = True
                return True
            if lo > threshold:
                self._decision_memo[memo_key] = False
                return False
        self.escalations += 1
        sets = [AttrSet.from_mask(m) for m in masks]
        sets.append(AttrSet.from_mask(key_mask))
        sets.append(AttrSet.from_mask(everything))
        hs = self.exact_oracle().entropies(sets)
        total = sum(hs[s] for s in sets[:-2])
        total -= (mvd.m - 1) * hs[sets[-2]]
        total -= hs[sets[-1]]
        verdict = total <= threshold
        self._decision_memo[memo_key] = verdict
        return verdict

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def enable_delta_tracking(self) -> None:
        """No-op: sampled estimates cannot be patched by the delta tracker.

        The tracker maintains plug-in entropies of the *full* relation;
        this oracle's memo holds sampled estimates.  Appends resample
        (see :meth:`advance`)."""

    def advance(self, new_relation: Relation, delta=None):
        """Move to an appended version: resample, drop estimates, advance
        the exact tier (which chains its persistent cache as usual)."""
        if new_relation.n_cols != self.relation.n_cols:
            raise ValueError(
                f"cannot advance across a column change "
                f"({self.relation.n_cols} -> {new_relation.n_cols} columns)"
            )
        stats = {"patched": 0, "rebuilt": 0, "dropped": len(self._memo)}
        self._memo.clear()
        self._sample_memo.clear()
        self._f1_memo.clear()
        self._info_memo.clear()
        self._decision_memo.clear()
        self.relation = new_relation
        self._omega = AttrSet.full(new_relation.n_cols)
        sample = get_sample(
            new_relation, self.sample_rows,
            seed=self.sample_seed, method=self.sample_method,
        )
        self._exhaustive = sample.n_rows >= new_relation.n_rows
        effective = "mle" if self._exhaustive else self.estimator
        self.engine = EstimatedEntropyEngine(sample, estimator=effective)
        self.sample = sample
        if self._exact is not None:
            self._exact.advance(new_relation, delta)
        return stats

    def kernel_stats(self) -> Dict[str, int]:
        """Merged kernel-dispatch counters of both tiers.

        The sampled tier groups the sample relation, the exact
        escalation tier groups the full relation — both through
        :mod:`repro.kernels`; their counters are summed key-wise.
        Each tier reports per-engine deltas, so other holders of the
        same relations keep independent stats."""
        stats = dict(self.engine.kernel_stats)
        if self._exact is not None:
            for k, v in self._exact.kernel_stats().items():
                stats[k] = stats.get(k, 0) + v
        return stats

    def reset_stats(self) -> None:
        # super() re-baselines the sampled tier's kernel deltas via
        # self.engine.reset_stats(); the shared dispatcher counters are
        # deliberately left untouched.
        super().reset_stats()
        self.escalations = 0
        if self._exact is not None:
            self._exact.reset_stats()

    def close(self) -> None:
        if self._exact is not None:
            self._exact.close()

    def __repr__(self) -> str:
        return (
            f"<ApproxEntropyEngine over {self.relation!r} "
            f"sample={self.sample.n_rows} confidence={self.confidence} "
            f"estimator={self.estimator} queries={self.queries} "
            f"escalations={self.escalations}>"
        )
