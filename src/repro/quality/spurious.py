"""Spurious tuples: the data-quality cost of an approximate decomposition.

Decomposing R into ``S = {Omega_1, ..., Omega_m}`` and joining back yields
``R' = R[Omega_1] ⋈ ... ⋈ R[Omega_m] ⊇ R``; the extra rows are *spurious*.
The paper reports ``E = (|R'| - |R|) / |R|`` as a percentage (Section 8.1)
and studies its empirical relationship to ``J(S)`` (Section 8.2; the exact
connection is Lee's theorem: ``J(S) = 0`` iff ``E = 0``).

For acyclic schemas the join size can be computed *without materialising the
join* via Yannakakis-style message passing over a join tree: every bag
relation sends to its parent, per separator value, the number of its tuples
joinable with the subtree below.  Cost is linear in the sizes of the
projections, which is what makes E computable even for schemas whose join
would have billions of rows (the paper's "each attribute its own relation"
schema on Nursery joins to 64 800 rows from 12 960 — but wider examples
explode combinatorially).

The pass runs on dense group ids, never on tuples.  A bag's distinct
tuples are the groups of the relation's kernel grouping over the bag
(one representative unit each, see
:meth:`~repro.kernels.dispatch.GroupCounter.unit_ids_and_counts`: a
distinct tuple of R when R packs, else a row) and a separator value is
its group id, so a message is an int64 array indexed by separator id:
children scatter-add their weights into it, parents gather and multiply.
A join count depends only on the distinct projections, so grouping the
packed tuples instead of the rows changes nothing but the cost, and a
packed store is counted without loading it.  Counts stay exact: an array
is promoted to Python ints whenever a bound check shows int64 could
overflow.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.jointree import JoinTree
from repro.core.schema import Schema
from repro.data.relation import Relation
from repro.kernels import representatives

_INT64_MAX = int(np.iinfo(np.int64).max)

#: ``edge_ids(parent, child) -> (at_parent, at_child, k)``: the separator
#: id of every parent tuple and of every child tuple, in one dense id
#: space ``0..k-1``.
EdgeIds = Callable[[int, int], Tuple[np.ndarray, np.ndarray, int]]


def _rooted_children(m: int, edges: Sequence[Tuple[int, int]], root: int = 0):
    """Orient a tree: returns (children lists, post-order traversal)."""
    adj: List[List[int]] = [[] for _ in range(m)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    children: List[List[int]] = [[] for _ in range(m)]
    order: List[int] = []
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                children[u].append(w)
                stack.append(w)
    order.reverse()  # post-order: children before parents
    return children, order


def _exact(w: np.ndarray, factor: int) -> np.ndarray:
    """``w``, as Python ints when ``max(w) * factor`` could overflow int64."""
    if w.dtype == object or int(w.max(initial=0)) * int(factor) <= _INT64_MAX:
        return w
    return w.astype(object)


def _scatter_add(ids: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """Exact per-id sums of ``w`` over the ids ``0..k-1``."""
    w = _exact(w, len(w))
    out = np.zeros(k, dtype=w.dtype)
    np.add.at(out, ids, w)
    return out


def count_join(tree: JoinTree, weights: Sequence[np.ndarray], edge_ids: EdgeIds) -> int:
    """Weighted ``|join|`` by one leaf-to-root pass over dense separator ids.

    ``weights[u]`` gives each distinct tuple of bag ``u`` a non-negative
    integer weight; the result sums, over the rows of the join, the
    product of the weights of their bag tuples (all ones: the join size).
    ``edge_ids`` gives each tree edge's separator ids (see
    :data:`EdgeIds`).  Children scatter-add their subtree weights per
    separator id, parents gather and multiply.  Arrays are int64 until a
    bound check (``max * max`` for a product, ``max * len`` for a sum)
    shows int64 could overflow, then Python ints, so the result is exact.
    """
    children, order = _rooted_children(len(weights), tree.edges)
    below: Dict[int, np.ndarray] = {}
    for u in order:  # post-order: children first
        w = weights[u]
        for c in children[u]:
            at_u, at_c, k = edge_ids(u, c)
            msg = _scatter_add(at_c, below.pop(c), k)
            w = _exact(w, msg.max(initial=0)) * msg[at_u]
        below[u] = w
    root = below[order[-1]]
    return int(_exact(root, len(root)).sum())


def join_row_count(relation: Relation, schema: Schema) -> int:
    """Exact ``|R[Omega_1] ⋈ ... ⋈ R[Omega_m]|`` for an acyclic schema.

    Counts by message passing over a join tree (:func:`count_join`); never
    materialises the join or the projections.  A bag's tuples are the
    groups of ``relation.kernels.unit_ids_and_counts(bag)``; an edge's
    separator ids are the same grouping of the separator, read at one
    unit per bag group.  Combinatorial explosions beyond int64 are
    returned exactly.
    """
    tree = schema.join_tree()
    kernels = relation.kernels

    def grouping(attrs) -> Tuple[np.ndarray, int]:
        """Dense group id per unit and the number of groups."""
        ids, counts = kernels.unit_ids_and_counts(relation.col_indices(attrs))
        return ids, len(counts)

    reps = [representatives(*grouping(bag)) for bag in tree.bags]

    def edge_ids(u: int, c: int) -> Tuple[np.ndarray, np.ndarray, int]:
        ids, k = grouping(tree.bags[u] & tree.bags[c])
        return ids[reps[u]], ids[reps[c]], k

    return count_join(tree, [np.ones(len(r), dtype=np.int64) for r in reps], edge_ids)


def spurious_tuple_count(relation: Relation, schema: Schema) -> int:
    """``|join| - |distinct(R)|`` — always >= 0 for lossless-by-containment."""
    base = relation.distinct_count(range(relation.n_cols))
    return join_row_count(relation, schema) - base


def spurious_tuple_pct(relation: Relation, schema: Schema) -> float:
    """The paper's ``E``: spurious tuples as a percentage of ``|R|``."""
    base = relation.distinct_count(range(relation.n_cols))
    if base == 0:
        return 0.0
    return 100.0 * (join_row_count(relation, schema) - base) / base


def materialized_join_rows(relation: Relation, schema: Schema) -> set:
    """Brute-force join of the bag projections (testing aid; small inputs).

    Returns the set of full-width code tuples.  Works for any schema order;
    joins bags with maximum overlap first to keep intermediates small.
    """
    bags = [tuple(sorted(b)) for b in schema.bags]
    tables: List[Tuple[Tuple[int, ...], set]] = []
    for attrs in bags:
        rows = {tuple(int(v) for v in row) for row in relation.codes[:, attrs]}
        tables.append((attrs, rows))
    attrs0, acc = tables[0]
    remaining = tables[1:]
    acc_attrs = list(attrs0)
    acc_rows = {tuple(r) for r in acc}
    while remaining:
        # Pick the table with the largest attribute overlap with acc.
        remaining.sort(key=lambda t: -len(set(t[0]) & set(acc_attrs)))
        attrs, rows = remaining.pop(0)
        shared = [a for a in attrs if a in acc_attrs]
        new_attrs = [a for a in attrs if a not in acc_attrs]
        # Index the new table by shared attribute values.
        idx = defaultdict(list)
        a_pos = {a: k for k, a in enumerate(attrs)}
        for r in rows:
            key = tuple(r[a_pos[a]] for a in shared)
            idx[key].append(tuple(r[a_pos[a]] for a in new_attrs))
        out = set()
        acc_pos = {a: k for k, a in enumerate(acc_attrs)}
        for r in acc_rows:
            key = tuple(r[acc_pos[a]] for a in shared)
            for ext in idx.get(key, ()):
                out.add(r + ext)
        acc_attrs = acc_attrs + new_attrs
        acc_rows = out
    # Normalise column order to ascending attribute index.
    order = sorted(range(len(acc_attrs)), key=lambda k: acc_attrs[k])
    return {tuple(r[k] for k in order) for r in acc_rows}
