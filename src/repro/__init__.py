"""Maimon — Mining Approximate Acyclic Schemes from Relations.

A complete Python reproduction of the SIGMOD 2020 paper by Kenig, Mundra,
Prasad, Salimi and Suciu.  See README.md for a quickstart and the
architecture map.

Quickstart::

    from repro import Relation, Maimon

    r = Relation.from_rows(rows, columns=["A", "B", "C", "D"])
    maimon = Maimon(r)
    mvds = maimon.mine_mvds(eps=0.01)
    for ds in maimon.discover(eps=0.01, limit=10):
        print(ds.format(r.columns))

Or declaratively, through the request contract every front end (CLI,
HTTP serving, config files) shares — see :mod:`repro.api`::

    from repro import api

    result = api.run(api.TaskRequest(
        task="mine", spec=api.MineSpec(eps=0.01),
        data=api.DataSpec(csv="data.csv"),
    ))
"""

from repro import api
from repro.common import TOL
from repro.data.relation import Relation
from repro.data.loaders import from_csv, from_rows, from_columns
from repro.entropy import (
    EntropyOracle,
    PLICacheEngine,
    StrippedPartition,
    make_oracle,
)
from repro.exec import BatchEntropyOracle, PersistentEntropyCache
from repro.delta import (
    Delta,
    RelationBuilder,
    append_rows,
    chained_fingerprint,
    diff_payloads,
)
from repro.core import (
    MVD,
    ASMiner,
    DiscoveredSchema,
    JoinTree,
    Maimon,
    MVDMiner,
    Schema,
    SearchBudget,
    build_acyclic_schema,
    compatible,
    enumerate_schemas,
    get_full_mvds,
    incompatible,
    j_measure,
    j_of_join_tree,
    j_of_schema,
    key_separates,
    mine_min_seps,
    mine_mvds,
    reduce_min_sep,
    satisfies,
)
from repro.quality import (
    evaluate_schema,
    join_row_count,
    spurious_tuple_count,
    spurious_tuple_pct,
    storage_savings_pct,
)
from repro.storage import DecomposedStore

__version__ = "1.0.0"

__all__ = [
    "TOL",
    "api",
    "Relation",
    "from_csv",
    "from_rows",
    "from_columns",
    "EntropyOracle",
    "PLICacheEngine",
    "StrippedPartition",
    "make_oracle",
    "BatchEntropyOracle",
    "PersistentEntropyCache",
    "Delta",
    "RelationBuilder",
    "append_rows",
    "chained_fingerprint",
    "diff_payloads",
    "MVD",
    "ASMiner",
    "DiscoveredSchema",
    "JoinTree",
    "Maimon",
    "MVDMiner",
    "Schema",
    "SearchBudget",
    "build_acyclic_schema",
    "compatible",
    "enumerate_schemas",
    "get_full_mvds",
    "incompatible",
    "j_measure",
    "j_of_join_tree",
    "j_of_schema",
    "key_separates",
    "mine_min_seps",
    "mine_mvds",
    "reduce_min_sep",
    "satisfies",
    "evaluate_schema",
    "join_row_count",
    "spurious_tuple_count",
    "spurious_tuple_pct",
    "storage_savings_pct",
    "DecomposedStore",
    "__version__",
]
