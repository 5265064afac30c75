"""Exec subsystem — batched and persistent entropy execution.

Not a paper figure: this bench tracks the performance of the
``repro.exec`` execution service introduced on top of the entropy engines.
It reruns the Fig. 13 row-scalability workload (``mine_all_min_seps``)
three ways:

* ``serial`` — the plain in-memory oracle (baseline);
* ``persist_cold`` — against an empty on-disk entropy cache, filling it;
* ``persist_warm`` — against the now-warm on-disk entropy cache.

Expected shape: the cold run costs about as much as the serial one; the
warm-cache run does no engine evaluations at all (``evals == 0``) and is
near-instant.  The payload is also written to ``BENCH_exec.json`` so the
perf trajectory is tracked across PRs.
"""

import os

from benchmarks.conftest import scaled
from repro.bench.harness import Table, exec_scalability, write_bench_json


def test_exec_scalability(benchmark, tmp_path):
    payload = benchmark.pedantic(
        exec_scalability,
        kwargs=dict(
            name="Image",
            fractions=(0.5, 1.0),
            eps=0.01,
            base_rows=scaled(1500),
            max_cols=10,
            time_limit_s=scaled(30.0),
            persist_dir=str(tmp_path / "cache"),
        ),
        rounds=1,
        iterations=1,
    )
    table = Table(
        f"Exec scalability (Image, cpus={payload['cpu_count']})",
        ["mode", "rows", "runtime_s", "min_seps", "queries", "evals",
         "speedup_vs_serial"],
    )
    for r in payload["runs"]:
        table.add(r)
    table.show()
    write_bench_json(payload, os.path.join(os.path.dirname(__file__), "..", "BENCH_exec.json"))

    runs = payload["runs"]
    # Every mode finds the same separators as the serial run.
    assert all(r["matches_serial"] for r in runs)
    # Counter semantics: logical queries never undercount engine evals.
    assert all(r["queries"] >= r["evals"] for r in runs)
    # The warm persistent cache eliminates engine evaluations entirely.
    warm = [r for r in runs if r["mode"] == "persist_warm" and not r["timed_out"]]
    assert warm and all(r["evals"] == 0 for r in warm)
