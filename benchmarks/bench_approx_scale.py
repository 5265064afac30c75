"""Scale bench — the ``repro.approx`` engine vs exact mining (BENCH_scale).

Mines markov-tree surrogates at growing row counts twice per size: with
``engine="approx"`` (sampled entropy decisions, exact escalation at the
decision boundary) and with the exact PLI engine, both at the same
ε.  Committed results live in ``BENCH_scale.json`` (produced by
``python -m repro approx-bench`` at 100k/1M/10M rows); this wrapper runs
the same harness at CI-sized row counts so the quality gates — output
agreement and a live escalation path — are exercised on every run.

Expected shape:

* *agreement* — the approx arm returns the **identical** full MVDs and
  minimal separators at every size; the confidence intervals only decide
  clear-cut comparisons, everything near the ε boundary escalates to the
  exact tier (this is the contract, not a statistical aspiration);
* *escalation is live* — at least one size reports ``escalations > 0``;
  a bench where nothing escalates is testing the sample, not the
  escalation machinery;
* *sub-linear exact work* — the exact tier evaluates far fewer attribute
  sets than the exact arm does, which is where the speedup at paper-scale
  row counts comes from (the committed 1M-row run shows >3×; at CI sizes
  the fixed sampling overhead dominates, so wall-clock speedup is
  reported but not asserted).

The ε here is 0.1 (a paper-grid value): ``eps > 0`` is the regime where
sampling pays — at ``eps = 0`` a "holds" verdict can never be certified
from a sample and every satisfied dependency escalates (see the N1
discussion in ``benchmarks/bench_ablation_sampling.py``).
"""

import pytest

from benchmarks.conftest import scaled
from repro.bench.harness import Table, approx_scale_benchmark, kernel_benchmark


@pytest.fixture(scope="module")
def payload():
    return approx_scale_benchmark(
        rows_list=(scaled(30_000), scaled(100_000)),
        n_cols=8,
        eps=0.1,
        sample_rows=scaled(8_000),
        confidence=0.95,
        seed=7,
    )


def test_approx_scale(benchmark, payload):
    runs = benchmark.pedantic(lambda: payload["runs"], rounds=1, iterations=1)
    table = Table(
        "repro.approx - sampled mining vs exact (scaled)",
        ["rows", "approx_s", "exact_s", "speedup", "escalations",
         "exact_evals", "agreement"],
    )
    for r in runs:
        table.add(r)
    table.show()

    assert runs, "benchmark produced no runs"
    # Contract: identical output at every size.
    for r in runs:
        assert r["agreement"], (
            f"approx/exact disagreement at {r['rows']} rows: "
            f"mvds={r['mvds']} min_seps={r['min_seps']}"
        )
    # The escalation path must actually fire somewhere.
    assert any(r["escalations"] > 0 for r in runs), (
        "no run escalated - the bench is not exercising the exact tier"
    )
    # The escalation tier should do strictly less entropy work than the
    # exact arm did (else sampling bought nothing).
    for r in runs:
        assert r["exact_evals"] < r["exact_engine_evals"]


@pytest.fixture(scope="module")
def kernel_payload():
    return kernel_benchmark(
        rows_list=(scaled(30_000), scaled(100_000)),
        n_cols=8,
        eps=0.1,
        seed=7,
    )


def test_kernel_scale(benchmark, kernel_payload):
    """Counts-first kernels: parity + no-regression vs the legacy sort.

    The committed 100k/1M numbers live under the ``kernels`` key of
    ``BENCH_scale.json`` (``python -m repro kernel-bench``); this wrapper
    re-runs the same harness at CI-sized row counts so the bit-parity and
    regression gates fire on every run.
    """
    runs = benchmark.pedantic(lambda: kernel_payload["runs"], rounds=1,
                              iterations=1)
    table = Table(
        "repro.kernels - dispatched counts vs legacy sort (scaled)",
        ["rows", "dispatch_evals_s", "legacy_evals_s", "eval_speedup",
         "mine_s", "exact_rows_per_s", "mvds"],
    )
    for r in runs:
        table.add(r)
    table.show()

    assert runs, "benchmark produced no runs"
    # Contract: bit-identical entropies per size, dispatch never slower.
    gate = kernel_payload["gate"]
    assert gate["passed"], f"kernel gate failures: {gate['failures']}"
    for r in runs:
        # The dispatcher must actually be choosing the O(n + K) kernel on
        # this dense surrogate, not silently falling back to the sort path.
        assert r["kernels"].get("bincount", 0) > 0
