"""Entropy estimators beyond the plug-in (MLE) estimate.

The paper evaluates dependencies under the *empirical* distribution — the
plug-in (maximum-likelihood) entropy.  A practical pain point it highlights
(Section 1) is that MVDs "don't hold on subsets of the data", so row
sampling — the trick FD miners exploit — is unsound for MVDs; our Fig. 13
reproduction indeed shows small samples fabricating exact dependencies
(EXPERIMENTS.md, nuance N1), precisely because the plug-in estimator is
biased *downward* on samples (it under-estimates conditional entropies,
making independences look stronger).

This module provides classic bias-corrected estimators so the effect can be
measured and mitigated:

* ``mle`` — the plug-in estimate (what the paper and the rest of this
  package use);
* ``miller_madow`` — adds the first-order bias correction
  ``(K - 1) / (2N ln 2)`` with ``K`` the number of observed distinct values;
* ``jackknife`` — the leave-one-out jackknife estimate
  ``N * H_mle - (N - 1) * mean(H_loo)``, computed in closed form from the
  count vector.

:class:`EstimatedEntropyEngine` exposes any of them through the modern
engine interface (mask-keyed memo, batch evaluation, ``advance`` /
``reset_stats``); the approximate subsystem (:mod:`repro.approx`) runs it
over a row sample as its estimate tier, reachable as
``EngineSpec(engine="approx", estimator=...)``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, NamedTuple

import numpy as np

from repro.data.relation import Relation
from repro.lattice import AttrSet, mask_of

LN2 = math.log(2.0)


def mle_entropy(counts: np.ndarray, n: int) -> float:
    """Plug-in (maximum likelihood) entropy in bits from a count vector."""
    if n <= 0:
        return 0.0
    counts = counts[counts > 0].astype(np.float64)
    p = counts / n
    return float(max(0.0, -np.dot(p, np.log2(p))))


def miller_madow_entropy(counts: np.ndarray, n: int) -> float:
    """Miller–Madow corrected entropy: ``H_mle + (K - 1) / (2 N ln 2)``."""
    if n <= 0:
        return 0.0
    k = int((counts > 0).sum())
    return mle_entropy(counts, n) + (k - 1) / (2.0 * n * LN2)


def jackknife_entropy(counts: np.ndarray, n: int) -> float:
    """Leave-one-out jackknife entropy, closed form over distinct counts.

    ``H_jk = N * H_mle - (N - 1) * sum_c (c / N) * H_loo(c)`` where
    ``H_loo(c)`` is the plug-in entropy after removing one tuple from a
    cluster of size ``c``.  Clusters with equal size share the same
    ``H_loo``, so the computation is linear in the number of distinct
    cluster sizes times the number of clusters.
    """
    if n <= 1:
        return 0.0
    counts = counts[counts > 0].astype(np.int64)
    h_mle = mle_entropy(counts, n)
    m = n - 1
    # Base sum over unchanged clusters: S = sum c*log2(c).  Removing one
    # tuple from a cluster of size c changes its term to (c-1)log2(c-1).
    clog = counts * np.log2(np.maximum(counts, 1))
    s_total = float(clog.sum())
    loo_mean = 0.0
    for c in np.unique(counts):
        c = int(c)
        term_old = c * math.log2(c) if c > 0 else 0.0
        term_new = (c - 1) * math.log2(c - 1) if c - 1 > 0 else 0.0
        s_loo = s_total - term_old + term_new
        h_loo = max(0.0, math.log2(m) - s_loo / m)
        weight = (counts == c).sum() * c / n  # prob. the removed tuple had size c
        loo_mean += weight * h_loo
    return max(0.0, n * h_mle - (n - 1) * loo_mean)


ESTIMATORS: Dict[str, Callable[[np.ndarray, int], float]] = {
    "mle": mle_entropy,
    "miller_madow": miller_madow_entropy,
    "jackknife": jackknife_entropy,
}


class EntropySample(NamedTuple):
    """One estimated entropy plus the count-vector statistics bounds need.

    ``value`` is the chosen estimator's output; ``h_mle`` the plain plug-in
    estimate on the same counts; ``support`` the observed number of
    distinct values ``K``; ``n`` the rows the counts were taken over; and
    ``var`` the plug-in variance proxy ``sum p*log2(p)^2 - H_mle^2`` that
    the CLT-style deviation radius in :mod:`repro.approx.bounds` uses.
    """

    value: float
    h_mle: float
    support: int
    n: int
    var: float


def sample_moments(counts: np.ndarray, n: int, estimator: str = "mle") -> EntropySample:
    """Full :class:`EntropySample` of a count vector under an estimator."""
    fn = ESTIMATORS[estimator]
    if n <= 0:
        return EntropySample(0.0, 0.0, 0, 0, 0.0)
    positive = counts[counts > 0].astype(np.float64)
    p = positive / n
    log2p = np.log2(p)
    h_mle = float(max(0.0, -np.dot(p, log2p)))
    var = float(max(0.0, np.dot(p, log2p * log2p) - h_mle * h_mle))
    value = h_mle if estimator == "mle" else fn(counts, n)
    return EntropySample(value, h_mle, int(len(positive)), int(n), var)


class EstimatedEntropyEngine:
    """Entropy engine applying a bias-corrected estimator per query.

    Groups rows through the relation's counting kernels but feeds the full
    count vector (singletons included — the corrections need the observed
    support size) to the chosen estimator.  Implements the modern engine
    interface (mask-keyed memo, :meth:`entropies_of` batch, ``advance`` /
    ``reset_stats``) as the sampled estimate tier of
    :class:`repro.approx.engine.ApproxEntropyEngine`.

    The mining theory (Shannon inequalities) holds exactly only for the
    MLE estimate, so corrected engines are for diagnostics and for
    interval centring, not guarantees.  A non-MLE engine also declares
    ``tracker_compatible = False`` — the delta tracker maintains *plug-in*
    entropies, so patching a corrected memo with it would silently change
    the estimator under the caller.
    """

    def __init__(self, relation: Relation, estimator: str = "miller_madow"):
        try:
            self._fn = ESTIMATORS[estimator]
        except KeyError:
            known = ", ".join(sorted(ESTIMATORS))
            raise ValueError(f"unknown estimator {estimator!r}; known: {known}") from None
        self.relation = relation
        self.estimator = estimator
        #: Delta tracking maintains plug-in entropies; only the MLE arm
        #: matches them (see repro.entropy.oracle.enable_delta_tracking).
        self.tracker_compatible = estimator == "mle"
        self._memo: Dict[int, EntropySample] = {}  # keyed by AttrSet bitmask
        self.evals = 0  # count-vector evaluations (memo misses)
        # Kernel counters are relation-level and shared across engines;
        # this engine reports deltas against a private baseline.
        self._kernel_baseline = relation.kernels.snapshot()

    def estimate_of(self, attrs) -> EntropySample:
        """Estimate plus count statistics for ``attrs`` (memoised)."""
        m = attrs.mask if type(attrs) is AttrSet else mask_of(attrs)
        cached = self._memo.get(m)
        if cached is not None:
            return cached
        self.evals += 1
        n = self.relation.n_rows
        if n == 0 or m == 0:
            sample = EntropySample(0.0, 0.0, 1 if n else 0, n, 0.0)
        else:
            counts = self.relation.group_sizes(AttrSet.from_mask(m))
            sample = sample_moments(counts, n, self.estimator)
        self._memo[m] = sample
        return sample

    def entropy_of(self, attrs) -> float:
        """Estimated entropy in bits of the attribute set ``attrs``."""
        return self.estimate_of(attrs).value

    def entropies_of(self, requests: Iterable) -> Dict[AttrSet, float]:
        """Batch form of :meth:`entropy_of` (one dict, duplicates collapse)."""
        out: Dict[AttrSet, float] = {}
        for attrs in requests:
            a = attrs if type(attrs) is AttrSet else AttrSet.from_mask(mask_of(attrs))
            out[a] = self.estimate_of(a).value
        return out

    @property
    def kernel_stats(self) -> Dict[str, int]:
        """Dispatch counters of the kernel layer grouping this relation.

        Count vectors come from :meth:`Relation.group_sizes`, which runs
        counts-first through :mod:`repro.kernels`; exposed so oracle
        stats show which kernels served the estimates.  Reported as
        deltas since construction / :meth:`reset_stats` — the counters
        themselves are shared per relation."""
        return self.relation.kernels.snapshot_since(self._kernel_baseline)

    def reset_stats(self) -> None:
        self.evals = 0
        self._kernel_baseline = self.relation.kernels.snapshot()

    def advance(self, new_relation: Relation) -> None:
        """Move to a new version of the relation, dropping every estimate.

        Count vectors are row-bound state; the contract under evolution is
        simply to never serve a stale estimate."""
        self.relation = new_relation
        self._memo.clear()
        self._kernel_baseline = new_relation.kernels.snapshot()
