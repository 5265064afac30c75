"""Shared fixtures: the paper's worked examples and small random relations."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.data.generators import (
    lemma54_example,
    nursery,
    paper_running_example,
)
from repro.data.relation import Relation
from repro.entropy.oracle import make_oracle
from repro.kernels import representatives


@pytest.fixture(scope="session")
def fig1():
    """The 4-row relation of Fig. 1 (exact acyclic schema holds)."""
    return paper_running_example()


@pytest.fixture(scope="session")
def fig1_red():
    """Fig. 1 with the red 5th tuple (schema only approximate)."""
    return paper_running_example(with_red_tuple=True)


@pytest.fixture(scope="session")
def lemma54():
    """The 2-tuple X A B C relation of Section 5.2."""
    return lemma54_example()


@pytest.fixture(scope="session")
def fig1_oracle(fig1):
    return make_oracle(fig1)


@pytest.fixture(scope="session")
def fig1_red_oracle(fig1_red):
    return make_oracle(fig1_red)


@pytest.fixture(scope="session")
def lemma54_oracle(lemma54):
    return make_oracle(lemma54)


@pytest.fixture(scope="session")
def nursery_small():
    """A 1500-row sample of the reconstructed Nursery (kept small for CI)."""
    return nursery().sample_rows(1500, seed=7)


def random_relation(n_cols: int, n_rows: int, seed: int, max_domain: int = 3) -> Relation:
    """Small dense random relation for property tests."""
    rng = np.random.default_rng(seed)
    domains = rng.integers(1, max_domain + 1, size=n_cols)
    codes = rng.integers(0, domains, size=(n_rows, n_cols))
    return Relation.from_codes(codes, [f"A{j}" for j in range(n_cols)])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


#: Raw cell values of the wide columns of :func:`packing_relations`.  A
#: column holding 2**20 + 3 has a radix past the bincount limit of small
#: relations, and two columns holding 2**40 a radix product past int64,
#: so the densify, sort and row-tuple lanes all run.
RAW_VALUES = (0, 1, 2, 5, 2**20 + 3, 2**31 + 7, 2**40)


@st.composite
def packing_relations(draw, max_rows: int = 40):
    """Relations of 1-7 raw-coded columns and 0-``max_rows`` rows.

    Three shapes: a few distinct rows repeated many times (they pack),
    all-distinct rows (packing declines) and independent random cells.
    Some columns draw from :data:`RAW_VALUES`, the others small codes.
    Built with ``Relation(codes, ...)`` so the raw codes are kept.
    """
    n_cols = draw(st.integers(1, 7))
    n_rows = draw(st.integers(0, max_rows))
    shape = draw(st.sampled_from(["repeated", "distinct", "random"]))
    n_raw = draw(st.integers(0, n_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def cells(j, size):
        if j < n_raw:
            return rng.choice(RAW_VALUES, size)
        return rng.integers(0, int(rng.integers(1, 5)), size)

    if shape == "repeated":
        k = draw(st.integers(1, 4))
        base = np.column_stack([cells(j, k) for j in range(n_cols)])
        codes = base[rng.integers(0, k, n_rows)]
    else:
        codes = np.column_stack([cells(j, n_rows) for j in range(n_cols)])
        if shape == "distinct":
            j = int(rng.integers(0, n_cols))
            codes[:, j] = rng.permutation(n_rows) * int(rng.choice([1, 2**33]))
    codes = codes.reshape(n_rows, n_cols).astype(np.int64)
    return Relation(codes, [f"c{j}" for j in range(n_cols)])


def unit_codes(counter, codes: np.ndarray) -> np.ndarray:
    """Code matrix of ``counter``'s units, once it has grouped them: its
    packed tuples, else its rows (a store counter that declined groups
    through its dense fallback, which may pack on its own)."""
    packed = counter._packed
    if not packed:
        dense = getattr(counter, "_dense", None)
        packed = dense._packed if dense is not None else False
    return packed.tuples.codes if packed else codes


def check_unit_grouping(counter, codes: np.ndarray) -> None:
    """``counter.unit_ids_and_counts`` against ``np.unique`` over the rows.

    For the empty subset and every other: the counts are ``np.unique``'s
    over the rows, the units at the representatives projected onto the
    subset are its distinct rows, and two units share an id iff their
    codes agree on the subset (the ids are the ranks of the units'
    projections).  An empty subset puts every unit in one group of all
    the rows; every other call counts as one ``bincount`` or ``sort``.
    """
    n, n_cols = codes.shape
    ids, counts = counter.unit_ids_and_counts(())
    units = unit_codes(counter, codes)
    assert ids.dtype == np.int64 and counts.dtype == np.int64
    assert np.array_equal(ids, np.zeros(len(units), dtype=np.int64))
    assert counts.tolist() == ([n] if n else [])

    def kernel_calls():
        snap = counter.snapshot()
        return snap["bincount"] + snap["sort"]

    for size in range(1, n_cols + 1):
        for idx in itertools.combinations(range(n_cols), size):
            cols = list(idx)
            distinct, want = np.unique(codes[:, cols], axis=0, return_counts=True)
            calls = kernel_calls()
            ids, counts = counter.unit_ids_and_counts(idx)
            assert kernel_calls() == calls + 1, idx
            assert counts.dtype == np.int64
            assert np.array_equal(counts, want), idx
            assert len(ids) == len(units), idx
            reps = representatives(ids, len(counts))
            assert np.array_equal(units[reps][:, cols], distinct), idx
            _, ranks = np.unique(units[:, cols], axis=0, return_inverse=True)
            assert np.array_equal(ids, ranks.reshape(-1)), idx
