"""Parity suite for the counts-first kernel layer (repro.kernels).

Every kernel must be *bit-identical* — not approximately equal — to the
legacy ``np.unique`` sort path: identical counts, identical dense ids,
identical entropies, identical partition layouts.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.maimon import Maimon
from repro.data import datasets
from repro.data.relation import Relation
from repro.entropy.oracle import EntropyOracle
from repro.entropy.partitions import StrippedPartition, combine_codes
from repro.entropy.plicache import PLICacheEngine
from repro.kernels import (
    GroupCounter,
    bincount_counts,
    bincount_ids,
    bincount_ids_and_counts,
    bincount_limit,
    entropy_from_counts,
    grouping_order,
    key_counts,
    sort_counts,
    sort_ids,
    sort_ids_and_counts,
)
from repro.reference import counting_oracle
from conftest import random_relation


def legacy_group_ids(codes, radix, idx):
    """The pre-kernel Relation.group_ids: pairwise compose + np.unique."""
    ids = codes[:, idx[0]]
    card = max(radix[idx[0]], 1)
    for j in idx[1:]:
        cj = max(radix[j], 1)
        if card > (2**62) // max(cj, 1):
            uniq, ids = np.unique(ids, return_inverse=True)
            card = len(uniq)
        ids = ids * cj + codes[:, j]
        card = card * cj
    uniq, dense = np.unique(ids, return_inverse=True)
    return dense.reshape(-1).astype(np.int64, copy=False), len(uniq)


def legacy_combine_codes(codes, idx, radix):
    """The pre-kernel combine_codes with its unconditional int64 copy."""
    keys = codes[:, idx[0]].astype(np.int64, copy=True)
    for pos in range(1, len(idx)):
        keys *= radix[pos]
        keys += codes[:, idx[pos]]
    return keys


def keys_strategy(max_key=40, max_len=300):
    return st.lists(st.integers(0, max_key), min_size=1, max_size=max_len).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    )


class TestCountingKernels:
    """bincount and sort answer identically on arbitrary keys."""

    @settings(max_examples=60, deadline=None)
    @given(keys=keys_strategy())
    def test_counts_kernels_identical(self, keys):
        ref = sort_counts(keys)
        assert np.array_equal(bincount_counts(keys), ref)

    @settings(max_examples=60, deadline=None)
    @given(keys=keys_strategy())
    def test_ids_kernels_identical(self, keys):
        ref_ids, ref_n = sort_ids(keys)
        got_ids, got_n = bincount_ids(keys)
        assert got_n == ref_n
        assert np.array_equal(got_ids, ref_ids)

    @settings(max_examples=60, deadline=None)
    @given(keys=keys_strategy())
    def test_fused_ids_and_counts_identical(self, keys):
        ref_ids, ref_counts = sort_ids_and_counts(keys)
        got_ids, got_counts = bincount_ids_and_counts(keys)
        assert np.array_equal(got_ids, ref_ids)
        assert np.array_equal(got_counts, ref_counts)

    @settings(max_examples=60, deadline=None)
    @given(keys=keys_strategy())
    def test_entropy_bit_identical_across_kernels(self, keys):
        n = len(keys)
        h_sort = entropy_from_counts(sort_counts(keys), n)
        h_bin = entropy_from_counts(bincount_counts(keys), n)
        assert h_bin == h_sort  # bitwise, not approx

    @settings(max_examples=40, deadline=None)
    @given(keys=keys_strategy(max_key=10_000_000))
    def test_key_counts_sparse_keys(self, keys):
        uniq_ref, counts_ref = np.unique(keys, return_counts=True)
        uniq, counts = key_counts(keys, None, len(keys))
        assert np.array_equal(uniq, uniq_ref)
        assert np.array_equal(counts, counts_ref)

    def test_key_counts_bincount_branch(self):
        keys = np.array([3, 1, 3, 0, 1, 3], dtype=np.int64)
        uniq, counts = key_counts(keys, 4, len(keys))
        assert np.array_equal(uniq, [0, 1, 3])
        assert np.array_equal(counts, [1, 2, 3])


class TestGroupingOrder:
    """Counting sort == np.argsort(kind='stable'), element for element."""

    @settings(max_examples=60, deadline=None)
    @given(keys=keys_strategy())
    def test_order_matches_stable_argsort(self, keys):
        ids, n_groups = sort_ids(keys)
        counts = np.bincount(ids, minlength=n_groups)
        order = grouping_order(ids, counts)
        assert np.array_equal(order, np.argsort(ids, kind="stable"))

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 120),
        cols=st.integers(1, 4),
        seed=st.integers(0, 1000),
    )
    def test_from_group_ids_layout_identical_to_legacy(self, rows, cols, seed):
        r = random_relation(cols, rows, seed=seed)
        ids, n_groups = r.group_ids(range(cols))
        part = StrippedPartition.from_group_ids(ids, n_groups, rows)
        # Legacy reference: comparison argsort.
        counts = np.bincount(ids, minlength=n_groups)
        order = np.argsort(ids, kind="stable")
        keep = counts[ids[order]] >= 2
        ref_tids = order[keep]
        sizes = counts[counts >= 2]
        ref_offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        assert np.array_equal(part.tids, ref_tids)
        assert np.array_equal(part.offsets, ref_offsets)

    def test_many_groups_wide_dtype_lane(self):
        # > uint16 groups exercises the uint32 cast branch.
        n = 70_000
        ids = np.arange(n, dtype=np.int64) // 2  # 35k groups of 2
        counts = np.bincount(ids)
        assert np.array_equal(
            grouping_order(ids, counts), np.argsort(ids, kind="stable")
        )


class TestCompose:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 150),
        cols=st.integers(2, 5),
        seed=st.integers(0, 1000),
    )
    def test_combine_codes_matches_legacy(self, rows, cols, seed):
        r = random_relation(cols, rows, seed=seed)
        idx = tuple(range(cols))
        radix = tuple(max(r.radix[j], 1) for j in idx)
        got = combine_codes(r.codes, idx, radix)
        want = legacy_combine_codes(r.codes, idx, radix)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_combine_codes_single_column_is_view(self):
        r = random_relation(3, 20, seed=1)
        keys = combine_codes(r.codes, (1,), (max(r.radix[1], 1),))
        assert np.shares_memory(keys, r.codes)
        assert np.array_equal(keys, r.codes[:, 1])

    def test_combine_codes_does_not_mutate_codes(self):
        r = random_relation(3, 30, seed=2)
        before = r.codes.copy()
        combine_codes(r.codes, (0, 1, 2), tuple(max(x, 1) for x in r.radix))
        assert np.array_equal(r.codes, before)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 150),
        cols=st.integers(1, 5),
        seed=st.integers(0, 2000),
    )
    def test_group_ids_matches_legacy(self, rows, cols, seed):
        r = random_relation(cols, rows, seed=seed)
        for size in range(1, cols + 1):
            for idx in itertools.combinations(range(cols), size):
                got_ids, got_n = r.group_ids(idx)
                want_ids, want_n = legacy_group_ids(r.codes, r.radix, idx)
                assert got_n == want_n
                assert np.array_equal(got_ids, want_ids)

    def test_group_ids_huge_radix_densify_matches_legacy(self):
        # Radix product beyond 2^62 forces the mid-compose densify on
        # both paths; results must still match.
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 2**22, size=(500, 3)).astype(np.int64)
        r = Relation.from_codes(codes)
        sparse = r.take_rows(rng.choice(500, size=400, replace=False))
        # take_rows keeps loose radix: force an artificial huge radix by
        # grouping repeated wide columns.
        wide = Relation(
            np.hstack([sparse.codes] * 2),
            [f"c{i}" for i in range(6)],
        )
        got_ids, got_n = wide.group_ids(range(6))
        want_ids, want_n = legacy_group_ids(wide.codes, wide.radix, tuple(range(6)))
        assert got_n == want_n
        assert np.array_equal(got_ids, want_ids)

    def test_group_sizes_matches_bincount_of_ids(self):
        r = random_relation(4, 200, seed=5)
        for idx in ((0,), (1, 3), (0, 1, 2, 3), ()):
            ids, n_groups = r.group_ids(idx)
            assert np.array_equal(
                r.group_sizes(idx), np.bincount(ids, minlength=n_groups)
            )


class TestDispatcher:
    def test_bincount_selected_for_small_radix(self):
        r = random_relation(4, 5000, seed=0)
        gc = r.kernels
        gc.reset_stats()
        gc.counts((0, 1, 2, 3))
        assert gc.stats["bincount"] == 1 and gc.stats["sort"] == 0

    def test_sort_selected_for_sparse_keys(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 10**6, size=(800, 3)).astype(np.int64)
        gc = GroupCounter(codes, [int(codes[:, j].max()) + 1 for j in range(3)])
        gc.counts((0,))
        assert gc.stats["sort"] == 1 and gc.stats["bincount"] == 0

    def test_prefix_cache_hits_on_lattice_order(self):
        r = random_relation(6, 1000, seed=2)
        gc = r.kernels
        gc.reset_stats()
        gc.clear_cache()
        gc.counts((0, 1, 2))
        assert gc.stats["prefix_hits"] == 0
        gc.counts((0, 1, 3))  # shares composed (0, 1)
        assert gc.stats["prefix_hits"] == 1
        # Sibling reuse must not change results.
        fresh = GroupCounter(r.codes, r.radix, prefix_budget=0)
        assert np.array_equal(gc.counts((0, 1, 3)), fresh.counts((0, 1, 3)))
        assert fresh.stats["prefix_hits"] == 0

    def test_prefix_cache_budget_evicts(self):
        r = random_relation(6, 100, seed=3)
        gc = GroupCounter(r.codes, r.radix, prefix_budget=150)  # ~1 entry
        for idx in itertools.combinations(range(6), 3):
            gc.counts(idx)
        assert gc._prefix_elems <= 150

    def test_wide_key_ids_and_counts_match_sort(self):
        # A single sparse column keeps the composed bound above the
        # bincount limit, forcing the sort lane; the fused ids/counts
        # (and the ids-only form) must equal the legacy sort kernel
        # bit-for-bit.
        rng = np.random.default_rng(6)
        codes = rng.integers(0, 10**6, size=(700, 1)).astype(np.int64)
        gc = GroupCounter(codes, [int(codes[:, 0].max()) + 1])
        keys, bound = gc.compose_keys((0,))
        assert bound > gc.limit
        ref_ids, ref_counts = sort_ids_and_counts(keys)
        got_ids, got_counts = gc.ids_and_counts((0,))
        assert np.array_equal(got_ids, ref_ids)
        assert np.array_equal(got_counts, ref_counts)
        got_ids2, got_n = gc.ids((0,))
        assert np.array_equal(got_ids2, ref_ids)
        assert got_n == len(ref_counts)
        assert gc.stats["sort"] == 2 and gc.stats["bincount"] == 0

    def test_bincount_limit_scales(self):
        assert bincount_limit(10) == 1 << 16
        assert bincount_limit(10**6) == 4 * 10**6
        assert bincount_limit(10**9) == 1 << 24

    def test_stats_reset_and_snapshot(self):
        r = random_relation(3, 50, seed=4)
        gc = r.kernels
        gc.counts((0, 1))
        snap = gc.snapshot()
        assert sum(snap.values()) > 0
        snap["bincount"] = 999  # copies do not alias
        gc.reset_stats()
        assert sum(gc.snapshot().values()) == 0

    def test_snapshot_since_reports_deltas(self):
        r = random_relation(3, 50, seed=4)
        gc = r.kernels
        gc.counts((0, 1))
        baseline = gc.snapshot()
        assert sum(gc.snapshot_since(baseline).values()) == 0
        gc.counts((0, 2))
        delta = gc.snapshot_since(baseline)
        assert sum(delta.values()) > 0
        # Absolute counters include the pre-baseline activity.
        assert sum(gc.snapshot().values()) > sum(delta.values())


class TestEnginesUseKernels:
    def test_pli_equals_uncached_dispatcher_bitwise(self):
        # The engine memo and the composed-prefix cache change cost,
        # never bits: a prefix-free dispatcher gives the same floats.
        r = random_relation(5, 300, seed=7)
        pli = PLICacheEngine(r)
        fresh = GroupCounter(r.codes, r.radix, prefix_budget=0)
        for size in range(0, 6):
            for idx in itertools.combinations(range(5), size):
                assert pli.entropy_of(frozenset(idx)) == fresh.entropy(idx)

    def test_oracle_kernel_stats_surface(self):
        r = random_relation(4, 100, seed=9)
        oracle = EntropyOracle(r)
        oracle.entropy(frozenset({0, 1}))
        stats = oracle.kernel_stats()
        assert stats["bincount"] + stats["sort"] >= 1

    def test_maimon_counters_include_kernels(self):
        r = random_relation(4, 200, seed=10)
        r.kernels.reset_stats()
        m = Maimon(r)
        m.mine_mvds(0.1)
        counters = m.counters()
        kernel = {k: v for k, v in counters.items() if k.startswith("kernel.")}
        assert kernel
        assert sum(kernel.values()) > 0

    def test_entropy_from_counts_matches_partition_entropy(self):
        r = random_relation(4, 150, seed=11)
        for idx in ((0,), (1, 2), (0, 1, 2, 3)):
            ids, n_groups = r.group_ids(idx)
            part = StrippedPartition.from_group_ids(ids, n_groups, r.n_rows)
            counts = np.bincount(ids, minlength=n_groups)
            assert entropy_from_counts(counts, r.n_rows) == part.entropy()

    def test_empty_relation_and_empty_set(self):
        r = Relation(np.zeros((0, 2), dtype=np.int64), ["a", "b"])
        assert r.kernels.entropy((0, 1)) == 0.0
        assert r.kernels.entropy(()) == 0.0
        assert len(r.group_sizes([0])) == 0
        full = random_relation(3, 10, seed=0)
        assert full.kernels.entropy(()) == 0.0
        assert np.array_equal(full.group_sizes([]), [10])

    def test_pli_fast_path_out_of_range_raises(self):
        r = random_relation(3, 20, seed=0)
        eng = PLICacheEngine(r)
        with pytest.raises(IndexError):
            eng.entropy_of(frozenset({0, 99}))


class TestGoldenMiningParity:
    """End-to-end: counts-first mining equals brute-force counting."""

    @pytest.mark.parametrize("name,eps", [
        ("Bridges", 0.1),
        ("Breast_Cancer", 0.05),
        ("Abalone", 0.1),
    ])
    def test_minseps_mvds_schemas_identical(self, name, eps):
        relation = datasets.load(name, scale=1.0, max_rows=1200, max_cols=7)
        reference = Maimon(relation, oracle=counting_oracle(relation))
        want = reference.mine_mvds(eps)
        fast = Maimon(relation)
        got = fast.mine_mvds(eps)
        assert sorted(want.mvds) == sorted(got.mvds)
        assert {p: sorted(v) for p, v in want.min_seps.items()} == \
               {p: sorted(v) for p, v in got.min_seps.items()}
        want_schemas = [d.schema for d in reference.discover(eps, limit=5)]
        got_schemas = [d.schema for d in fast.discover(eps, limit=5)]
        assert want_schemas == got_schemas
        # The production run really ran counts-first.
        assert fast.counters()["kernel.bincount"] > 0
