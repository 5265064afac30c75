"""Confidence intervals for sampled plug-in entropies and their measures.

Every decision the miners make is a threshold comparison of a *linear
combination* of entropies — ``I(Y;Z|X) = H(XY) + H(XZ) - H(XYZ) - H(X)``,
``J(X ->> Y1|..|Ym) = sum H(XYi) - (m-1) H(X) - H(XY1..Ym)`` — so this
module bounds linear combinations directly: hand :func:`combine_interval`
the per-term :class:`~repro.entropy.estimators.EntropySample` statistics
and coefficients, get back an interval that contains the population value
with the requested confidence.

Two error sources are treated separately, because they behave differently:

**Deviation** (symmetric).  The plug-in entropy of an i.i.d. sample
fluctuates around its expectation.  Two interchangeable radii:

* ``clt`` (default) — the delta-method / CLT radius
  ``z * sqrt(var / n)`` with ``var = sum p log2(p)^2 - H^2`` the estimated
  variance of ``-log2 p(X)`` and ``z = sqrt(2 ln(2/delta))`` a
  sub-Gaussian quantile proxy (>= the normal quantile for every delta, so
  the radius errs conservative).  Tight in practice; asymptotic in theory.
* ``mcdiarmid`` — a finite-sample bounded-differences radius
  ``log2(n) * sqrt(2 ln(2/delta) / n)``: replacing one of ``n`` sample
  rows moves the plug-in entropy by at most ``c ~ 2 log2(n)/n``, and
  McDiarmid's inequality gives ``P(|H_hat - E H_hat| > t) <= 2
  exp(-2t^2/(n c^2))``.  Distribution-free but much wider; use it when the
  guarantee matters more than the escalation rate.

**Bias** (one-sided).  ``E[H_plugin] <= H`` always — the sample *under*-
estimates entropy, which is exactly why naive sampling fabricates MVDs
(nuance N1).  The first-order deficit is ``(K-1)/(2 n ln 2)`` (the
Miller–Madow term, with ``K`` the *population* support).  We allow
``(K_obs - 1)/(n ln 2)`` — twice the first-order term at the observed
support — on the side where the truth can exceed the estimate, and nothing
on the other side.  The interval is therefore **asymmetric**:

``H in [H_hat - dev,  H_hat + dev + bias]``

and a combination ``sum c_i H_i`` inherits the asymmetry per the sign of
each coefficient.  Running a bias-corrected estimator (``miller_madow``,
``jackknife``) as the centre shrinks the gap the allowance has to cover
but never removes the need for it.

A combination of ``t`` terms splits the failure probability ``delta``
across them (union bound), so the stated confidence is per *decision*, the
unit the engine escalates on.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from repro.entropy.estimators import LN2, EntropySample

#: Interval endpoints as ``(lo, hi)``.
Interval = Tuple[float, float]

BOUND_METHODS = ("clt", "mcdiarmid")


def deviation_radius(
    sample: EntropySample, delta: float, method: str = "clt"
) -> float:
    """Symmetric deviation radius of one sampled entropy at level ``delta``.

    Zero when the "sample" is the whole population proxy (``var == 0``,
    e.g. single-group or empty sets) or when there is nothing to deviate
    (``n <= 1``).
    """
    n = sample.n
    if n <= 1:
        return 0.0
    z2 = 2.0 * math.log(2.0 / delta)
    if method == "clt":
        if sample.var <= 0.0:
            return 0.0
        return math.sqrt(z2 * sample.var / n)
    if method == "mcdiarmid":
        return math.log2(n) * math.sqrt(z2 / n)
    raise ValueError(
        f"unknown bound method {method!r}; expected one of {BOUND_METHODS}"
    )


def bias_allowance(sample: EntropySample) -> float:
    """One-sided allowance for the downward plug-in bias, in bits.

    ``(K_obs - 1) / (n ln 2)``: twice the Miller–Madow first-order term at
    the observed support, covering the support truncation the observed
    ``K`` itself suffers.  Zero for degenerate samples.
    """
    if sample.n <= 0 or sample.support <= 1:
        return 0.0
    return (sample.support - 1) / (sample.n * LN2)


def combine_interval(
    terms: Sequence[Tuple[EntropySample, float]],
    delta: float,
    method: str = "clt",
    nonneg: bool = False,
) -> Interval:
    """Confidence interval for ``sum coeff * H_term`` at level ``delta``.

    ``terms`` is a sequence of ``(EntropySample, coefficient)``; ``delta``
    is the total failure probability, union-bounded across the terms.  With
    ``H_i in [h_i - dev_i, h_i + dev_i + bias_i]`` (bias one-sided, see
    module docstring), the combination's endpoints take each term at the
    end its coefficient points to:

    * ``hi = est + sum |c_i| dev_i + sum_{c_i > 0} c_i * bias_i``
    * ``lo = est - sum |c_i| dev_i - sum_{c_i < 0} |c_i| * bias_i``

    ``nonneg=True`` clamps ``lo`` at 0 for measures that are non-negative
    by Shannon inequality (I, J) — population knowledge the sample can't
    contradict.
    """
    terms = list(terms)
    if not terms:
        return (0.0, 0.0)
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta!r}")
    per_term = delta / len(terms)
    est = 0.0
    up = 0.0
    down = 0.0
    for sample, coeff in terms:
        est += coeff * sample.value
        dev = abs(coeff) * deviation_radius(sample, per_term, method)
        bias = bias_allowance(sample)
        if coeff > 0:
            up += dev + coeff * bias
            down += dev
        else:
            up += dev
            down += dev + (-coeff) * bias
    lo = est - down
    if nonneg:
        lo = max(0.0, lo)
    return (lo, est + up)


def entropy_interval(
    sample: EntropySample, delta: float, method: str = "clt"
) -> Interval:
    """Interval for a single sampled entropy (lo clamped at 0)."""
    lo, hi = combine_interval([(sample, 1.0)], delta, method)
    return (max(0.0, lo), hi)


def decision_interval(
    est: float,
    var: float,
    n: int,
    mm: float,
    delta: float,
    method: str = "clt",
    spread: float = 4.0,
) -> Interval:
    """Interval for a measure whose *combination* moments are known.

    :func:`combine_interval` treats each entropy term as an independent
    unknown, which is sound but cripplingly loose for I and J: their H
    terms are evaluated on the *same* sample rows and their sampling
    errors mostly cancel (``H(XY) + H(XZ) - H(XYZ) - H(X)`` — a row that
    lands in a rare XYZ group lands in the corresponding XY/XZ/X groups
    too).  The engine therefore takes the moments of the combination
    itself: with ``d(r) = sum_i c_i * (-log2 p_hat_i(proj_i(r)))`` the
    per-row information combination, ``est = mean(d)`` is exactly the
    plug-in measure and ``var = var(d)`` its delta-method variance —
    typically orders of magnitude below the per-term sum.  ``d`` is
    constant on the groups of the combination's top term (the union of
    its masks), so the engine computes both as count-weighted sums over
    those groups (``est = w.d / n``, ``var = w.(d - est)^2 / n``), never
    a sample-length vector.  This function turns those moments into the
    decision interval:

    * deviation — ``z * sqrt(var / n)`` (``clt``; one combination, one
      quantile, no union bound) or the bounded-differences radius
      ``spread * log2(n) * sqrt(2 ln(2/delta) / n)`` (``mcdiarmid``,
      ``spread = sum |c_i|``);
    * centring — ``mm = sum_i c_i * (K_i - 1) / (2 n ln 2)``, the
      *signed* Miller–Madow combination: per-term downward biases cancel
      through the coefficients, and at a true independence the residue
      equals the classic ``df / (2 n ln 2)`` chi-square mean, making the
      centred estimate first-order unbiased exactly where naive sampling
      fabricates dependencies (nuance N1);
    * slack — ``|mm| / 2 + 1 / (n ln 2)``, a symmetric allowance for the
      second-order remainder of that correction; large exactly when the
      sample is too sparse for the sets involved, which is what routes
      the saturated regime to escalation instead of to a wrong answer.
    """
    if n <= 1:
        return (est, est)
    z2 = 2.0 * math.log(2.0 / delta)
    if method == "clt":
        dev = math.sqrt(z2 * var / n) if var > 0.0 else 0.0
    elif method == "mcdiarmid":
        dev = spread * math.log2(n) * math.sqrt(z2 / n)
    else:
        raise ValueError(
            f"unknown bound method {method!r}; expected one of {BOUND_METHODS}"
        )
    slack = 0.5 * abs(mm) + 1.0 / (n * LN2)
    centre = est + mm
    return (centre - dev - slack, centre + dev + slack)
