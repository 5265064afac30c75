"""Ablation — the entropy engine (Section 6.3 design choice).

The paper computes H(X) by combining cached, singleton-stripped CNT/TID
tables with SQL joins, keeping tables per block of L attributes.  This
bench times the two formulations the repository keeps on the same mining
workload:

* pli — counts-first: mixed-radix keys composed from the code matrix and
        counted by the dispatched kernels (:mod:`repro.kernels`), no
        tables at all;
* sql — the Section 6.3 CNT/TID queries on the mini SQL row store (the
        literal H2 rendering, block_size = 10, the paper's L).

The row store's cost grows with rows as per-tuple Python, so both arms
mine a 250-row sample of the workload.  Expected shape: identical MVDs and
minimal separators, with the counts-first arm faster already at this size
and the gap widening with rows — which is why ``pli`` is the runtime
engine and ``sql`` only the fidelity reference.
"""

import pytest

from benchmarks.conftest import scaled
from repro.bench.harness import Table
from repro.core.miner import MVDMiner
from repro.data.generators import markov_tree
from repro.entropy.oracle import EntropyOracle
from repro.entropy.plicache import PLICacheEngine
from repro.entropy.sqlengine import SQLEntropyEngine

ENGINES = {"pli": PLICacheEngine, "sql": SQLEntropyEngine}


@pytest.fixture(scope="module")
def sample():
    relation = markov_tree(8, scaled(3000), seed=55, fd_fraction=0.3,
                           name="ablation")
    return relation.sample_rows(250, seed=1)


def mine(engine_name, relation):
    oracle = EntropyOracle(relation, ENGINES[engine_name](relation))
    return MVDMiner(oracle).mine(0.05), oracle


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_ablation_entropy_engine(benchmark, engine_name, sample):
    result, oracle = benchmark.pedantic(
        mine, args=(engine_name, sample), rounds=1, iterations=1
    )
    table = Table(
        f"Entropy ablation ({engine_name})",
        ["engine", "mvds", "queries", "evals", "elapsed_s"],
    )
    table.add(
        {
            "engine": engine_name,
            "mvds": result.n_mvds,
            "queries": oracle.queries,
            "evals": oracle.evals,
            "elapsed_s": round(result.elapsed, 3),
        }
    )
    table.show()
    assert oracle.queries > 0


def test_ablation_engines_agree(sample):
    """Both formulations mine identical MVDs and minimal separators."""
    counts, _ = mine("pli", sample)
    sql, _ = mine("sql", sample)
    assert sorted(counts.mvds) == sorted(sql.mvds)
    assert {p: sorted(v) for p, v in counts.min_seps.items()} == {
        p: sorted(v) for p, v in sql.min_seps.items()
    }
