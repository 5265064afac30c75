"""JSON serialisation of mining results.

Lets users persist and reload the artefacts Maimon produces — MVDs, schemas,
join trees, full miner results and discovered schemas — in a stable, human-
readable format.  Attribute sets are serialised as sorted column-name lists
when a column tuple is supplied (recommended), else as indices.

The same payload builders back both the one-shot CLI (``--json`` outputs)
and the mining service (:mod:`repro.serve`), so a served response is
byte-compatible with the corresponding CLI artefact.
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence, Union

from repro.core.jointree import JoinTree
from repro.core.maimon import DiscoveredSchema
from repro.core.miner import MinerResult
from repro.core.mvd import MVD
from repro.core.schema import Schema

Columns = Sequence[str]


def _attrs_out(attrs, columns: Optional[Columns]) -> List[Union[int, str]]:
    idx = sorted(attrs)
    if columns is not None:
        return [columns[j] for j in idx]
    return idx


def _attrs_in(values, columns: Optional[Columns]) -> frozenset:
    if columns is not None:
        index = {c: j for j, c in enumerate(columns)}
        return frozenset(index[v] if isinstance(v, str) else int(v) for v in values)
    return frozenset(int(v) for v in values)


# --------------------------------------------------------------------- #
# MVDs
# --------------------------------------------------------------------- #

def mvd_to_dict(mvd: MVD, columns: Optional[Columns] = None) -> dict:
    return {
        "key": _attrs_out(mvd.key, columns),
        "dependents": [_attrs_out(d, columns) for d in mvd.dependents],
    }


def mvd_from_dict(data: dict, columns: Optional[Columns] = None) -> MVD:
    return MVD(
        _attrs_in(data["key"], columns),
        [_attrs_in(d, columns) for d in data["dependents"]],
    )


# --------------------------------------------------------------------- #
# Schemas / join trees
# --------------------------------------------------------------------- #

def schema_to_dict(schema: Schema, columns: Optional[Columns] = None) -> dict:
    return {"bags": [_attrs_out(b, columns) for b in schema.bags]}


def schema_from_dict(data: dict, columns: Optional[Columns] = None) -> Schema:
    return Schema([_attrs_in(b, columns) for b in data["bags"]])


def join_tree_to_dict(tree: JoinTree, columns: Optional[Columns] = None) -> dict:
    return {
        "bags": [_attrs_out(b, columns) for b in tree.bags],
        "edges": [list(e) for e in tree.edges],
    }


def join_tree_from_dict(data: dict, columns: Optional[Columns] = None) -> JoinTree:
    return JoinTree(
        [_attrs_in(b, columns) for b in data["bags"]],
        [tuple(e) for e in data["edges"]],
    )


# --------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------- #

def miner_result_to_dict(result: MinerResult, columns: Optional[Columns] = None) -> dict:
    return {
        "eps": result.eps,
        "mvds": [mvd_to_dict(m, columns) for m in result.mvds],
        "min_seps": [
            {
                "pair": _attrs_out(pair, columns),
                "separators": [_attrs_out(s, columns) for s in seps],
            }
            for pair, seps in sorted(result.min_seps.items())
        ],
        "elapsed": result.elapsed,
        "timed_out": result.timed_out,
        "pairs_done": result.pairs_done,
        "pairs_total": result.pairs_total,
        "entropy_queries": result.entropy_queries,
        "entropy_evals": result.entropy_evals,
    }


def miner_result_from_dict(data: dict, columns: Optional[Columns] = None) -> MinerResult:
    min_seps = {}
    for entry in data.get("min_seps", []):
        pair = tuple(sorted(_attrs_in(entry["pair"], columns)))
        min_seps[pair] = [_attrs_in(s, columns) for s in entry["separators"]]
    return MinerResult(
        eps=data["eps"],
        mvds=[mvd_from_dict(m, columns) for m in data["mvds"]],
        min_seps=min_seps,
        elapsed=data.get("elapsed", 0.0),
        timed_out=data.get("timed_out", False),
        pairs_done=data.get("pairs_done", 0),
        pairs_total=data.get("pairs_total", 0),
        entropy_queries=data.get("entropy_queries", 0),
        entropy_evals=data.get("entropy_evals", 0),
    )


def discovered_schema_to_dict(
    ds: DiscoveredSchema, columns: Optional[Columns] = None
) -> dict:
    q = ds.quality
    return {
        "schema": schema_to_dict(ds.schema, columns),
        "join_tree": join_tree_to_dict(ds.join_tree, columns),
        "support": [mvd_to_dict(m, columns) for m in ds.support_set],
        "j_measure": ds.j_measure,
        "quality": {
            "n_relations": q.n_relations,
            "width": q.width,
            "intersection_width": q.intersection_width,
            "savings_pct": q.savings_pct,
            "spurious_pct": q.spurious_pct,
        },
    }


# --------------------------------------------------------------------- #
# Deltas (dataset evolution, repro.delta)
# --------------------------------------------------------------------- #

def delta_to_dict(delta, columns: Optional[Columns] = None) -> dict:
    """Serialise a :class:`~repro.delta.builder.Delta` record.

    ``new_domains`` maps only the columns whose dictionary actually grew
    (the cardinality jumps that force partition-maintenance fallbacks);
    quiet columns are omitted.
    """
    counts = delta.new_domain_counts
    if columns is not None:
        new_domains = {columns[j]: c for j, c in enumerate(counts) if c}
    else:
        new_domains = {str(j): c for j, c in enumerate(counts) if c}
    return {
        "start_row": delta.start_row,
        "n_rows": delta.n_rows,
        "digest": delta.digest,
        "new_domains": new_domains,
    }


# --------------------------------------------------------------------- #
# Command payloads (shared between the CLI --json outputs and repro.serve)
# --------------------------------------------------------------------- #

def schemas_payload(eps: float, schemas, columns: Optional[Columns] = None) -> dict:
    """The ``schemas`` artefact: a threshold plus serialised schemas.

    Accepts :class:`~repro.core.maimon.DiscoveredSchema` items or anything
    carrying one under ``.discovered`` (e.g.
    :class:`~repro.core.ranking.RankedSchema`), in ranked order.
    """
    out = []
    for s in schemas:
        ds = getattr(s, "discovered", s)
        out.append(discovered_schema_to_dict(ds, columns))
    return {"eps": eps, "schemas": out}


def profile_to_dict(
    relation,
    oracle,
    fd_lhs: int = 2,
    budget=None,
) -> dict:
    """The ``profile`` artefact: per-column entropies plus minimal FDs.

    Computes ``H`` through the supplied oracle (so a warm serving session
    reuses its memo) and mines exact FDs up to ``fd_lhs`` attributes on the
    left-hand side.  An optional :class:`~repro.core.budget.SearchBudget`
    bounds the FD search (serving-layer deadlines/cancellation); when it
    trips, the profile is returned with the completed FD levels and
    ``truncated: true``.
    """
    import math

    from repro.fd.tane import mine_fds

    cols = []
    for j, c in enumerate(relation.columns):
        h = oracle.entropy({j})
        hmax = math.log2(max(relation.cardinality(j), 2))
        cols.append(
            {
                "column": c,
                "distinct": relation.cardinality(j),
                "H_bits": round(h, 3),
                "H_norm": round(h / hmax, 3) if hmax else 0.0,
            }
        )
    fds = [
        fd.format(relation.columns)
        for fd in mine_fds(relation, max_lhs=fd_lhs, budget=budget)
        if fd.lhs
    ]
    return {
        "name": relation.name or "input",
        "rows": relation.n_rows,
        "cols": relation.n_cols,
        "columns": cols,
        "fd_lhs": fd_lhs,
        "fds": fds,
        "truncated": bool(budget is not None and budget.exhausted),
    }


# --------------------------------------------------------------------- #
# File helpers
# --------------------------------------------------------------------- #

def save_json(obj: dict, path: str) -> None:
    """Write a serialised artefact with stable formatting."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)
