"""End-to-end parity: miner output is identical across the representation
change from frozensets to bitmask attribute sets.

``tests/data/lattice_parity_golden.json`` was captured by running the
pre-``repro.lattice`` (frozenset-era) implementation — commit 96ed8e5 — on
two seeded datasets, recording every minimal separator, every mined full
MVD, the discovered schemas with their exact J-measures, and the logical
``queries``/``evals`` counter values.  These tests recompute all of it on
the current code and require bit-identical separators, MVDs, schemas and
engine evaluations.  Logical queries may only fall: the full-MVD search
memoises its Fig. 16 consistency closures on the oracle, so repeated
closures issue no queries, while every entropy it needs is still
evaluated once.
"""

import json
import os

import pytest

from repro.core.maimon import Maimon
from repro.core.minsep import mine_all_min_seps
from repro.data.generators import decomposable, markov_tree
from repro.entropy.oracle import make_oracle

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "lattice_parity_golden.json")


def _dataset(name):
    if name == "markov8":
        return markov_tree(n_cols=8, n_rows=400, seed=7, noise=0.02, name="markov8")
    return decomposable(
        [["A", "B", "C"], ["B", "C", "D"], ["C", "E"], ["E", "F"]],
        n_rows=300,
        seed=3,
        noise_rows=25,
        name="decomp6",
    )


with open(GOLDEN_PATH) as f:
    GOLDEN = json.load(f)


@pytest.mark.parametrize("name", sorted(GOLDEN))
class TestLatticeParity:
    def test_min_seps_and_query_counts(self, name):
        g = GOLDEN[name]
        r = _dataset(name)
        assert (r.n_rows, r.n_cols) == (g["n_rows"], g["n_cols"])
        oracle = make_oracle(r)
        seps = mine_all_min_seps(oracle, g["eps"])
        got = {f"{a},{b}": [sorted(s) for s in v] for (a, b), v in seps.items()}
        assert got == g["min_seps"]
        # The memoised consistency closure skips repeated MI queries, so
        # logical queries may fall below the golden count; engine
        # evaluations may not change.
        assert oracle.queries <= g["minsep_queries"]
        assert oracle.evals == g["minsep_evals"]

    def test_full_mvds_and_schemas(self, name):
        g = GOLDEN[name]
        maimon = Maimon(_dataset(name))
        mined = maimon.mine_mvds(g["eps"])
        assert [phi.format() for phi in mined.mvds] == g["mvds"]
        assert mined.entropy_queries <= g["miner_queries"]
        schemas = maimon.discover(g["eps"], limit=8, with_spurious=False)
        got = [
            {"schema": ds.schema.format(), "j": round(ds.j_measure, 9)}
            for ds in schemas
        ]
        assert got == g["schemas"]
