"""``repro.approx``: error-bounded sampled entropy with exact escalation.

The scalability wall of exact mining is the entropy oracle: every ``H(X)``
groups all N rows (PLI partitions are O(N) per set).  Sampling fixes the
cost but — as the paper stresses and nuance N1 reproduces — naively mining
on a sample *fabricates* dependencies, because the plug-in entropy is
biased downward on samples.

This subsystem makes sampling sound for *decisions* instead of values:

* :mod:`repro.approx.sampler` draws a deterministic row sample once per
  relation (fingerprint-keyed cache) — uniform or stratified;
* :mod:`repro.approx.bounds` turns sampled count statistics into
  asymmetric confidence intervals for H, I and J (deviation radius plus a
  one-sided allowance for the known-downward plug-in bias);
* :mod:`repro.approx.engine` exposes :class:`ApproxEntropyEngine`, a full
  :class:`~repro.entropy.oracle.EntropyOracle` that answers every ε
  comparison from the sample when the interval clears the threshold and
  **escalates** the comparison to an exact (PLI, batchable, persistable)
  tier when the interval straddles it.

Escalation is what keeps the output exact: the miners' verdicts — and
hence the mined minimal separators, full MVDs and schemas — match the
exact engine's, while the overwhelming majority of comparisons are decided
on the sample, in time linear in the groups of the comparison's top term.
Reached as ``engine="approx"`` from ``make_oracle`` / ``Maimon`` / the
CLI / the serving layer.
"""

from repro.approx.bounds import (
    bias_allowance,
    combine_interval,
    deviation_radius,
    entropy_interval,
)
from repro.approx.engine import (
    DEFAULT_CONFIDENCE,
    DEFAULT_SAMPLE_ROWS,
    DEFAULT_SAMPLE_SEED,
    SATURATION_SINGLETONS,
    SATURATION_SUPPORT,
    ApproxEntropyEngine,
)
from repro.approx.sampler import clear_sample_cache, get_sample, stratified_sample

__all__ = [
    "ApproxEntropyEngine",
    "DEFAULT_CONFIDENCE",
    "DEFAULT_SAMPLE_ROWS",
    "DEFAULT_SAMPLE_SEED",
    "SATURATION_SINGLETONS",
    "SATURATION_SUPPORT",
    "bias_allowance",
    "clear_sample_cache",
    "combine_interval",
    "deviation_radius",
    "entropy_interval",
    "get_sample",
    "stratified_sample",
]
