"""Ablation — why row sampling is unsound for MVD mining (Section 1 / N1).

The paper's first stated challenge: MVDs "don't hold on subsets of the
data", so the sampling tricks FD miners use (FastFD's pairs, HyFD's focused
samples) cannot be applied.  Our Fig. 13 reproduction surfaces the dual
effect: *sub-sampling fabricates dependencies* — small samples satisfy exact
MVDs the full data violates, because the plug-in entropy estimate is biased
downward on samples.

This bench quantifies both effects on a planted-structure relation:

* exact (ε = 0) minimal-separator counts at several sample sizes vs the
  full data — small samples report *more* separators (fabricated ones);
* the mean absolute error of H(Ω) under the MLE vs Miller–Madow vs
  jackknife estimators across samples — the corrections shrink the bias
  that causes the fabrication.

The mitigation lives in :mod:`repro.approx` (``--engine approx``): instead
of mining on a sample and inheriting the fabricated dependencies measured
here, the sampled engine answers *decision questions* with confidence
intervals (signed Miller–Madow centring cancels exactly this bias) and
escalates every near-boundary comparison to an exact tier — identical
output to exact mining, with the sample deciding only the clear-cut
comparisons.  ``benchmarks/bench_approx_scale.py`` / ``repro approx-bench``
measure that path.
"""

import numpy as np
import pytest

from benchmarks.conftest import scaled
from repro.bench.harness import Table
from repro.core.minsep import mine_all_min_seps
from repro.data.generators import markov_tree
from repro.entropy.estimators import (
    jackknife_entropy,
    miller_madow_entropy,
    mle_entropy,
)
from repro.entropy.oracle import make_oracle


@pytest.fixture(scope="module")
def relation():
    return markov_tree(
        7, scaled(4000), seed=91, fd_fraction=0.2, determinism=0.9,
        name="sampling-ablation",
    )


def count_exact_seps(rel) -> int:
    oracle = make_oracle(rel)
    seps = mine_all_min_seps(oracle, 0.0)
    return len({s for lst in seps.values() for s in lst})


def test_ablation_sampling_fabricates_dependencies(benchmark, relation):
    sizes = [100, 400, relation.n_rows]

    def run():
        return [
            (k, count_exact_seps(relation.sample_rows(k, seed=5)))
            for k in sizes
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        "Sampling ablation - exact minimal separators vs sample size",
        ["rows", "min_seps_exact"],
    )
    for k, c in rows:
        table.add({"rows": k, "min_seps_exact": c})
    table.show()
    # Shape: the smallest sample reports at least as many exact separators
    # as the full data (fabrication), typically strictly more.
    assert rows[0][1] >= rows[-1][1]


def test_ablation_estimator_bias(relation):
    """Bias of H(Omega) estimates across row samples, per estimator."""
    omega = frozenset(range(relation.n_cols))
    # "True" reference: the full-data plug-in entropy.
    h_true = make_oracle(relation).entropy(omega)
    rng = np.random.default_rng(0)
    records = {"mle": [], "miller_madow": [], "jackknife": []}
    for trial in range(10):
        sample = relation.sample_rows(250, seed=int(rng.integers(1e6)))
        counts = sample.group_sizes(omega)
        n = sample.n_rows
        records["mle"].append(mle_entropy(counts, n))
        records["miller_madow"].append(miller_madow_entropy(counts, n))
        records["jackknife"].append(jackknife_entropy(counts, n))
    table = Table(
        f"Estimator bias for H(Omega) (true={h_true:.3f} bits, 250-row samples)",
        ["estimator", "mean", "bias"],
    )
    biases = {}
    for name, values in records.items():
        mean = float(np.mean(values))
        biases[name] = abs(mean - h_true)
        table.add({"estimator": name, "mean": round(mean, 3),
                   "bias": round(mean - h_true, 3)})
    table.show()
    # Shape: plug-in is biased downward; corrections reduce absolute bias.
    assert np.mean(records["mle"]) < h_true
    assert biases["miller_madow"] < biases["mle"]
