"""Yannakakis-style evaluation over a decomposed acyclic schema.

The paper's opening motivation for acyclic schemas is Yannakakis' linear
time query evaluation: once a relation is decomposed into an acyclic join
``R[Omega_1] ⋈ ... ⋈ R[Omega_m]``, queries run over the small projections
instead of the wide table.  This module implements the classic pipeline on
our join trees:

* :func:`full_reducer` — the semijoin program (leaf-to-root then
  root-to-leaf passes) that makes every bag globally consistent;
* :func:`iter_join_rows` — stream the join without materialising it
  (backtracking over the reduced bags, output-linear after reduction);
* :func:`count_query` / :func:`sum_query` — aggregate evaluation by message
  passing (no tuple enumeration at all): the spurious-tuple join count
  itself, run on the bags' current rows, with weighted tuples for sums.

These run on the deduplicated bag code matrices of :class:`DecomposedBags`
(semijoins and counts over dense separator ids), so they also serve as an
executable demonstration that a Maimon schema is a usable storage/query
layout, not just a structural artefact.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.core.jointree import JoinTree
from repro.core.schema import Schema
from repro.data.relation import Relation
from repro.kernels import GroupCounter
from repro.quality.spurious import _rooted_children, count_join


class DecomposedBags:
    """The bag projections of a relation under an acyclic schema.

    Each bag holds distinct tuples over its (sorted) attribute indices.
    This is the materialised decomposition that the storage-savings metric
    S prices, and the input to the Yannakakis operators below.
    """

    def __init__(self, relation: Relation, schema: Schema):
        self.schema = schema
        self.tree: JoinTree = schema.join_tree()
        self.attrs: List[Tuple[int, ...]] = [tuple(sorted(b)) for b in self.tree.bags]
        self.rows: List[np.ndarray] = [relation.project(a).codes for a in self.attrs]
        self.columns = relation.columns

    @property
    def m(self) -> int:
        return len(self.attrs)

    def total_cells(self) -> int:
        return sum(r.shape[0] * r.shape[1] for r in self.rows)

    def bag_table(self, u: int) -> List[tuple]:
        return [tuple(int(v) for v in row) for row in self.rows[u]]

    def separator_ids(self, u: int, v: int) -> Tuple[np.ndarray, np.ndarray, int]:
        """Separator ids of bag ``u``'s and bag ``v``'s current tuples.

        Both sides' separator columns are grouped together by one
        :class:`~repro.kernels.GroupCounter`, so equal separator values
        get equal dense ids ``0..k-1`` — read from :attr:`rows` as they
        are now, after any reduction or edit.
        """
        sep = self.tree.bags[u] & self.tree.bags[v]
        cols_u = [k for k, a in enumerate(self.attrs[u]) if a in sep]
        cols_v = [k for k, a in enumerate(self.attrs[v]) if a in sep]
        stacked = np.concatenate([self.rows[u][:, cols_u], self.rows[v][:, cols_v]])
        radix = stacked.max(axis=0) + 1 if len(stacked) else [0] * len(cols_u)
        ids, k = GroupCounter(stacked, radix).ids(tuple(range(len(cols_u))))
        n_u = len(self.rows[u])
        return ids[:n_u], ids[n_u:], k


def full_reducer(bags: DecomposedBags) -> DecomposedBags:
    """Run the two semijoin passes; returns ``bags`` with rows filtered.

    After reduction, every remaining bag tuple participates in at least one
    full join result — the precondition for output-linear enumeration.
    """
    children, order = _rooted_children(bags.m, bags.tree.edges)

    def semijoin(u: int, v: int) -> None:
        """Filter bag u to tuples whose separator value appears in bag v."""
        at_u, at_v, k = bags.separator_ids(u, v)
        present = np.zeros(k, dtype=bool)
        present[at_v] = True
        bags.rows[u] = bags.rows[u][present[at_u]]

    # Pass 1 (leaf to root): parent ⋉ child.
    for u in order:  # post-order: children first
        for c in children[u]:
            semijoin(u, c)
    # Pass 2 (root to leaf): child ⋉ parent.
    for u in reversed(order):  # pre-order
        for c in children[u]:
            semijoin(c, u)
    return bags


def iter_join_rows(bags: DecomposedBags, reduce_first: bool = True) -> Iterator[tuple]:
    """Stream the distinct rows of the acyclic join, widest-schema order.

    Output columns are the sorted attribute indices of the schema.  With
    ``reduce_first`` (default) a full reducer runs first, so enumeration
    does no dead-end backtracking.
    """
    if reduce_first:
        full_reducer(bags)
    tree = bags.tree
    m = bags.m
    children, order = _rooted_children(m, tree.edges)
    visit = list(reversed(order))  # pre-order from the root
    all_attrs = sorted(set(a for attrs in bags.attrs for a in attrs))

    # Index each non-root bag by its parent separator for O(1) extension.
    parent_sep_index: Dict[int, Dict[tuple, List[np.ndarray]]] = {}
    parent_of: Dict[int, int] = {}
    for u in range(m):
        for c in children[u]:
            parent_of[c] = u
    for c, u in parent_of.items():
        sep = tuple(sorted(tree.bags[u] & tree.bags[c]))
        pos_c = {a: k for k, a in enumerate(bags.attrs[c])}
        sep_pos = [pos_c[a] for a in sep]
        index: Dict[tuple, List[np.ndarray]] = defaultdict(list)
        for row in bags.rows[c]:
            index[tuple(int(row[k]) for k in sep_pos)].append(row)
        parent_sep_index[c] = index

    def extend(assignment: Dict[int, int], i: int) -> Iterator[Dict[int, int]]:
        if i == len(visit):
            yield assignment
            return
        u = visit[i]
        if u == visit[0]:
            for row in bags.rows[u]:
                new = dict(assignment)
                for a, v in zip(bags.attrs[u], row):
                    new[a] = int(v)
                yield from extend(new, i + 1)
        else:
            p = parent_of[u]
            sep = tuple(sorted(tree.bags[p] & tree.bags[u]))
            key = tuple(assignment[a] for a in sep)
            for row in parent_sep_index[u].get(key, ()):
                new = dict(assignment)
                consistent = True
                for a, v in zip(bags.attrs[u], row):
                    v = int(v)
                    if a in new and new[a] != v:
                        consistent = False
                        break
                    new[a] = v
                if consistent:
                    yield from extend(new, i + 1)

    for assignment in extend({}, 0):
        yield tuple(assignment[a] for a in all_attrs)


def count_query(bags: DecomposedBags) -> int:
    """``SELECT count(*)`` over the acyclic join by message passing.

    The same pass as :func:`~repro.quality.spurious.join_row_count`
    (:func:`~repro.quality.spurious.count_join`), on the bags' current
    rows.
    """
    ones = [np.ones(len(r), dtype=np.int64) for r in bags.rows]
    return count_join(bags.tree, ones, bags.separator_ids)


def sum_query(bags: DecomposedBags, attr: int) -> int:
    """``SELECT sum(attr)`` over the join, evaluated by message passing.

    The count pass with one bag containing ``attr`` weighting each tuple
    by its ``attr`` code instead of 1, so every join row contributes its
    ``attr`` value once (a join row agrees with every bag holding
    ``attr``, so any one of them can carry it).
    """
    owner = next(u for u in range(bags.m) if attr in bags.attrs[u])
    weights = [np.ones(len(r), dtype=np.int64) for r in bags.rows]
    weights[owner] = bags.rows[owner][:, bags.attrs[owner].index(attr)]
    return count_join(bags.tree, weights, bags.separator_ids)
