"""repro.delta: append-aware relations, delta maintenance, warm re-mining.

The contract under test is *equivalence*: a relation evolved through
``append_rows`` must be indistinguishable — decoded rows, entropies over
arbitrary attribute sets, mined minimal separators and MVDs — from one
built from scratch over the concatenated rows, including when appended
batches grow column dictionaries (the cardinality-jump fallback).  On top
of that, the incremental path must actually be incremental: warm re-mines
must do strictly fewer engine evaluations than cold ones.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api.specs import EngineSpec
from repro.core.maimon import Maimon
from repro.data.relation import Relation
from repro import reference
from repro.delta import (
    Delta,
    DeltaTracker,
    RelationBuilder,
    append_rows,
    chained_fingerprint,
    diff_miner_results,
    diff_payloads,
    diff_schemas_payloads,
    summarize_diff,
)
from repro.entropy import partitions
from repro.entropy.oracle import EntropyOracle
from repro.entropy.partitions import EvolvingBatch, EvolvingPartition, StrippedPartition
from repro.exec.batch import BatchEntropyOracle
from repro.exec.persist import relation_fingerprint
from repro import io as repro_io


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #

@st.composite
def row_batches(draw, n_cols=None, alphabet=("a", "b", "c", "d")):
    """A base batch and an append batch over the same columns.

    Values come from a tiny alphabet so appended batches mix repeats of
    known values with genuinely new ones (dictionary growth).
    """
    n = n_cols if n_cols is not None else draw(st.integers(1, 4))
    cell = st.sampled_from(alphabet)
    row = st.tuples(*[cell] * n)
    base = draw(st.lists(row, min_size=0, max_size=12))
    extra = draw(st.lists(row, min_size=0, max_size=8))
    return base, extra


def _columns(n):
    return [f"A{j}" for j in range(n)]


# --------------------------------------------------------------------- #
# Builder: incremental dictionary encoding
# --------------------------------------------------------------------- #

class TestAppendRows:
    @settings(max_examples=60, deadline=None)
    @given(row_batches())
    def test_append_is_code_identical_to_scratch_build(self, batches):
        base_rows, extra = batches
        n = len(base_rows[0]) if base_rows else (len(extra[0]) if extra else 2)
        base = Relation.from_rows(base_rows, _columns(n))
        appended, delta = append_rows(base, extra)
        scratch = Relation.from_rows(base_rows + extra, _columns(n))
        assert appended.rows() == scratch.rows()
        assert np.array_equal(appended.codes, scratch.codes)
        assert appended.domains == scratch.domains
        assert delta.start_row == len(base_rows)
        assert delta.n_rows == len(extra)

    @settings(max_examples=40, deadline=None)
    @given(row_batches())
    def test_append_preserves_content_fingerprint(self, batches):
        """Dense parents: appended == scratch even at the byte level."""
        base_rows, extra = batches
        n = len(base_rows[0]) if base_rows else (len(extra[0]) if extra else 2)
        base = Relation.from_rows(base_rows, _columns(n))
        appended, _ = append_rows(base, extra)
        scratch = Relation.from_rows(base_rows + extra, _columns(n))
        assert relation_fingerprint(appended) == relation_fingerprint(scratch)

    def test_builder_chains_appends_and_deltas(self):
        base = Relation.from_rows([("x", "1")], ["A", "B"])
        builder = RelationBuilder(base)
        r1, d1 = builder.append([("x", "2"), ("y", "1")])
        r2, d2 = builder.append([("z", "3")])
        assert builder.relation is r2
        assert builder.deltas == [d1, d2]
        assert (d1.start_row, d1.n_rows) == (1, 2)
        assert (d2.start_row, d2.n_rows) == (3, 1)
        assert d1.new_domain_counts == (1, 1)  # y and 2 are new
        assert d2.new_domain_counts == (1, 1)  # z and 3 are new
        assert d1.grew_domains and d2.grew_domains
        scratch = Relation.from_rows(
            [("x", "1"), ("x", "2"), ("y", "1"), ("z", "3")], ["A", "B"]
        )
        assert r2.rows() == scratch.rows()

    def test_no_new_values_means_no_domain_growth(self):
        base = Relation.from_rows([("x", "1"), ("y", "2")], ["A", "B"])
        _, delta = append_rows(base, [("y", "1")])
        assert delta.new_domain_counts == (0, 0)
        assert not delta.grew_domains

    def test_arity_mismatch_rejected(self):
        base = Relation.from_rows([("x", "1")], ["A", "B"])
        with pytest.raises(ValueError, match="fields"):
            append_rows(base, [("only-one",)])

    def test_append_to_identity_coded_relation(self):
        """Relations without decode tables get one materialised."""
        base = Relation(np.array([[0, 1], [1, 0]]), ["A", "B"])
        appended, delta = append_rows(base, [(1, 2)])
        assert appended.rows() == [(0, 1), (1, 0), (1, 2)]
        assert delta.new_domain_counts == (0, 1)

    def test_chained_fingerprint_is_order_sensitive(self):
        base = Relation.from_rows([("x",), ("y",)], ["A"])
        _, d1 = append_rows(base, [("z",)])
        _, d2 = append_rows(base, [("w",)])
        fp = relation_fingerprint(base)
        assert d1.child_fingerprint(fp) == chained_fingerprint(fp, d1.digest)
        assert d1.child_fingerprint(fp) != d2.child_fingerprint(fp)
        assert d1.child_fingerprint(fp) != fp


# --------------------------------------------------------------------- #
# EvolvingPartition: incremental stripped-partition maintenance
# --------------------------------------------------------------------- #

def batch_append(part, block):
    """Append ``block`` to one set through the batched pass; False on a jump."""
    _, jumped = EvolvingBatch([part]).append_block(block)
    return not jumped


class TestEvolvingPartition:
    @settings(max_examples=60, deadline=None)
    @given(row_batches(alphabet=("a", "b", "c")), st.data())
    def test_appended_entropy_is_bit_identical(self, batches, data):
        base_rows, extra = batches
        n = len(base_rows[0]) if base_rows else (len(extra[0]) if extra else 2)
        base = Relation.from_rows(base_rows, _columns(n))
        whole = Relation.from_rows(base_rows + extra, _columns(n))
        attrs = tuple(
            data.draw(
                st.lists(
                    st.integers(0, n - 1), unique=True, min_size=0, max_size=n
                )
            )
        )
        part = EvolvingPartition.build(base, attrs)
        assert part is not None
        if batch_append(part, whole.codes[len(base_rows):]):
            expected = StrippedPartition.from_relation(whole, attrs)
            assert part.entropy() == expected.entropy()  # exact, not approx
            assert part.n_rows == whole.n_rows
        else:
            # Fallback demanded: some appended code broke the radix bound.
            rebuilt = EvolvingPartition.build(whole, attrs)
            expected = StrippedPartition.from_relation(whole, attrs)
            assert rebuilt.entropy() == expected.entropy()

    def test_cardinality_jump_forces_fallback(self):
        base = Relation.from_rows([("x",), ("y",)], ["A"])
        appended, _ = append_rows(base, [("brand-new",)])
        part = EvolvingPartition.build(base, (0,))
        assert batch_append(part, appended.codes[2:]) is False
        # The partition must be left untouched by the refused append.
        assert part.n_rows == 2

    def test_untrackable_when_radix_product_overflows(self):
        # 8 columns x radix 2^8 => key space 2^64 > the dense-radix bound.
        codes = np.zeros((2, 8), dtype=np.int64)
        codes[1, :] = 255
        rel = Relation(codes, _columns(8))  # raw ctor keeps radix 256
        assert EvolvingPartition.build(rel, tuple(range(8))) is None

    def test_empty_attribute_set(self):
        base = Relation.from_rows([("x",), ("y",)], ["A"])
        part = EvolvingPartition.build(base, ())
        assert part.entropy() == 0.0
        assert batch_append(part, np.array([[0]], dtype=np.int64))
        assert part.n_rows == 3
        assert part.entropy() == 0.0

    def test_empty_set_entropy_is_exactly_zero(self):
        """H(∅) is 0.0 as the engines give it, not log2 n - n log2 n / n."""
        for n in range(1, 401):
            rel = Relation.from_codes(np.zeros((n, 1), dtype=np.int64), ["A"])
            expected = EntropyOracle(rel).entropy_mask(0)
            assert DeltaTracker(rel).entropy_of_mask(0) == expected == 0.0
            assert StrippedPartition.from_relation(rel, ()).entropy() == expected
            assert reference.advance_per_set(
                {0: EvolvingPartition.build(rel, ())}, rel, rel.codes[:0]
            )[0] == {0: expected}
        # Appends that land on row counts where the residue is not 0.
        rows = [("a",)] * 10
        oracle = EntropyOracle(Relation.from_rows(rows, ["A"]))
        oracle.enable_delta_tracking()
        oracle.entropy_mask(0)
        oracle.entropy_mask(1)
        for n in (11, 13, 29, 47):
            new_rel, delta = append_rows(oracle.relation, [("b",)] * (n - oracle.relation.n_rows))
            oracle.advance(new_rel, delta)
            assert oracle._memo[0] == EntropyOracle(new_rel).entropy_mask(0)
            assert oracle.entropy_mask(0) == 0.0


# --------------------------------------------------------------------- #
# The batched append against the per-set path of repro.reference
# --------------------------------------------------------------------- #

#: Codes of a "large" column: its radix 2^31 puts the key space of two
#: such columns at the dense-radix bound, and of three past it.
LARGE_CODE = 2**31 - 1


@st.composite
def tracked_appends(draw):
    """A raw-coded relation, 1-3 appended blocks and the masks to track.

    Large columns make some sets untrackable and split the batch into
    several runs of shifted keys; ``grow`` appends a code past one
    column's radix, which forces its sets to rebuild.
    """
    n_cols = draw(st.integers(1, 6))
    cells = st.integers(0, 2)
    n_rows = draw(st.integers(0, 10))
    base = np.array(
        draw(st.lists(st.lists(cells, min_size=n_cols, max_size=n_cols),
                      min_size=n_rows, max_size=n_rows)),
        dtype=np.int64,
    ).reshape(n_rows, n_cols)
    large = draw(st.lists(st.integers(0, n_cols - 1), unique=True, max_size=4))
    if n_rows and large:
        base[0, large] = LARGE_CODE
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 8))
        block = np.array(
            draw(st.lists(st.lists(cells, min_size=n_cols, max_size=n_cols),
                          min_size=k, max_size=k)),
            dtype=np.int64,
        )
        grow = draw(st.none() | st.integers(0, n_cols - 1))
        if grow is not None:
            seen = np.concatenate([base] + blocks)[:, grow]
            block[0, grow] = int(seen.max()) + 1 if len(seen) else 1
        blocks.append(block)
    full = (1 << n_cols) - 1
    extra = draw(st.lists(st.integers(0, full), max_size=6))
    masks = [0, full] + [1 << j for j in range(n_cols)] + extra
    return base, blocks, list(dict.fromkeys(masks))


class TestBatchedAppend:
    @settings(max_examples=150, deadline=None)
    @given(tracked_appends(), st.sampled_from([partitions.APPEND_KEYS, 1, 5]))
    @example(  # three large columns: two runs of shifted keys, {0,1,2} untrackable
        (np.array([[LARGE_CODE] * 3, [0, 1, 2]], dtype=np.int64),
         [np.array([[1, 1, 1], [0, 2, 0]], dtype=np.int64)],
         [0, 7, 1, 2, 4, 3, 5, 6]),
        partitions.APPEND_KEYS,
    )
    @example(  # growing a large column pushes {0,1} past the bound on rebuild
        (np.array([[LARGE_CODE, LARGE_CODE], [0, 1]], dtype=np.int64),
         [np.array([[LARGE_CODE + 1, 0]], dtype=np.int64)],
         [0, 3, 1, 2]),
        partitions.APPEND_KEYS,
    )
    def test_batched_pass_matches_per_set_path(self, case, append_keys):
        """``append_keys`` below the block's keys merges it in row chunks."""
        with mock.patch.object(partitions, "APPEND_KEYS", append_keys):
            self._check(*case)

    def _check(self, base, blocks, masks):
        columns = _columns(base.shape[1])
        relation = Relation(base, columns)
        batched = DeltaTracker(relation)
        per_set = DeltaTracker(relation)
        for mask in masks:
            assert batched.entropy_of_mask(mask) == per_set.entropy_of_mask(mask)
        codes = base
        for block in blocks:
            start = codes.shape[0]
            codes = np.concatenate([codes, block])
            new_rel = Relation(codes, columns)
            delta = Delta(start, len(block), (0,) * len(columns), "")
            patched, stats = batched.advance(new_rel, delta)
            want, want_stats = reference.advance_per_set(per_set._parts, new_rel, block)
            per_set.relation = new_rel
            assert stats == want_stats
            assert patched == want
            fresh = EntropyOracle(new_rel)
            for mask in masks:
                got, ref = batched._parts[mask], per_set._parts[mask]
                assert (got is None) == (ref is None)
                assert batched.entropy_of_mask(mask) == fresh.entropy_mask(mask)
                if got is None:
                    continue
                assert np.array_equal(got.keys, ref.keys)
                assert np.array_equal(got.counts, ref.counts)
                assert got.n_rows == ref.n_rows == new_rel.n_rows
                assert got.entropy() == ref.entropy()


# --------------------------------------------------------------------- #
# Tracker + oracle advance
# --------------------------------------------------------------------- #

#: Appends whose warm re-mine goes wrong on either engine when the
#: full-MVD search's consistency-closure memo survives ``advance``
#: (found by random search over 4-6 binary columns).
STALE_CLOSURE_EXAMPLES = [
    (
        [("a", "a", "a", "b", "b"), ("b", "b", "a", "a", "b"),
         ("b", "b", "a", "a", "b")],
        [("b", "a", "a", "a", "b"), ("a", "b", "a", "b", "b"),
         ("b", "b", "b", "b", "b")],
        0.2,
    ),
    (
        [("b", "b", "b", "a"), ("b", "a", "b", "a"), ("b", "a", "b", "b"),
         ("b", "a", "a", "b"), ("a", "a", "a", "a"), ("b", "a", "a", "b"),
         ("a", "a", "b", "a"), ("b", "a", "a", "a"), ("b", "b", "a", "b"),
         ("a", "a", "a", "b"), ("b", "b", "b", "b"), ("b", "a", "a", "a")],
        [("a", "b", "a", "b"), ("a", "b", "b", "a"), ("a", "a", "a", "b")],
        0.1,
    ),
    (
        [("b", "b", "b", "b", "b", "b"), ("a", "a", "a", "a", "b", "b"),
         ("a", "b", "b", "b", "b", "b"), ("b", "b", "a", "a", "a", "b"),
         ("a", "a", "a", "a", "b", "a"), ("a", "b", "a", "a", "b", "a")],
        [("a", "a", "a", "a", "b", "a"), ("b", "b", "b", "a", "a", "b")],
        0.1,
    ),
]

#: A base batch and an append over 4-6 binary columns.
wide_row_batches = st.integers(4, 6).flatmap(
    lambda n: row_batches(n_cols=n, alphabet=("a", "b"))
)


def stale_closure_examples(test):
    for base_rows, extra, eps in STALE_CLOSURE_EXAMPLES:
        test = example(batches=(base_rows, extra), eps=eps)(test)
    return test


class TestDeltaTracking:
    def _mined_pair(self, rows, split, n_cols, eps=0.0, spec=None):
        columns = _columns(n_cols)
        base = Relation.from_rows(rows[:split], columns)
        whole = Relation.from_rows(rows, columns)
        warm = Maimon(base, spec=spec or EngineSpec(track_deltas=True))
        warm.mine_mvds(eps)
        warm.append_rows(rows[split:])
        warm_result = warm.mine_mvds(eps)
        cold = Maimon(whole, spec=spec)
        cold_result = cold.mine_mvds(eps)
        return warm, warm_result, cold, cold_result

    def _check_warm_equals_cold(self, batches, eps, spec=None):
        base_rows, extra = batches
        rows = base_rows + extra
        if not base_rows or not extra:
            return
        warm, warm_result, cold, cold_result = self._mined_pair(
            rows, len(base_rows), len(rows[0]), eps, spec
        )
        assert warm_result.mvds == cold_result.mvds
        assert warm_result.min_seps == cold_result.min_seps

    @settings(max_examples=25, deadline=None)
    @given(batches=wide_row_batches, eps=st.sampled_from([0.0, 0.1, 0.2]))
    @stale_closure_examples
    def test_warm_remine_equals_cold_mine(self, batches, eps):
        self._check_warm_equals_cold(batches, eps)

    @settings(max_examples=25, deadline=None)
    @given(batches=wide_row_batches, eps=st.sampled_from([0.0, 0.1, 0.2]))
    @stale_closure_examples
    def test_warm_remine_equals_cold_mine_approx(self, batches, eps):
        # A sample far below the row count: most decisions escalate, and
        # ApproxEntropyEngine.advance (not the base class's) runs.
        spec = EngineSpec(engine="approx", sample_rows=6)
        self._check_warm_equals_cold(batches, eps, spec)

    def test_oracle_memo_is_patched_not_cleared(self):
        rng = np.random.default_rng(5)
        codes = rng.integers(0, 3, size=(300, 5))
        whole = Relation.from_codes(codes, _columns(5))
        rows = whole.rows()
        base = Relation.from_rows(rows[:250], _columns(5))
        maimon = Maimon(base, track_deltas=True)
        maimon.mine_mvds(0.0)
        evals_before = maimon.oracle.evals
        assert evals_before > 0
        new_rel, delta = append_rows(maimon.relation, rows[250:])
        stats = maimon.advance(new_rel, delta)
        assert stats["patched"] == evals_before  # every memo entry kept
        assert stats["dropped"] == 0
        maimon.mine_mvds(0.0)
        assert maimon.oracle.evals == evals_before  # warm re-mine: 0 new evals
        # Patched values must agree with a fresh oracle on the new data.
        fresh = EntropyOracle(new_rel)
        for mask, value in maimon.oracle._memo.items():
            assert value == fresh.entropy_mask(mask)

    def test_cardinality_jump_rebuilds_only_affected_sets(self):
        base = Relation.from_rows(
            [("a", "x"), ("b", "y"), ("a", "y"), ("b", "x")], ["A", "B"]
        )
        oracle = EntropyOracle(base)
        oracle.enable_delta_tracking()
        oracle.entropy((0,))
        oracle.entropy((1,))
        oracle.entropy((0, 1))
        new_rel, delta = append_rows(base, [("a", "NEW")])  # B's domain grows
        stats = oracle.advance(new_rel, delta)
        # Sets touching B must rebuild; {A} alone patches.
        assert stats["rebuilt"] == 2
        assert stats["patched"] == 1
        fresh = EntropyOracle(new_rel)
        for attrs in [(0,), (1,), (0, 1)]:
            assert oracle.entropy(attrs) == fresh.entropy(attrs)

    def test_advance_without_tracking_invalidates(self):
        base = Relation.from_rows([("a",), ("b",), ("a",)], ["A"])
        oracle = EntropyOracle(base)
        oracle.entropy((0,))
        new_rel, delta = append_rows(base, [("c",)])
        stats = oracle.advance(new_rel, delta)
        assert stats == {"patched": 0, "rebuilt": 0, "dropped": 1}
        assert oracle.entropy((0,)) == EntropyOracle(new_rel).entropy((0,))

    def test_advance_rejects_column_change(self):
        base = Relation.from_rows([("a",)], ["A"])
        other = Relation.from_rows([("a", "b")], ["A", "B"])
        with pytest.raises(ValueError, match="column change"):
            EntropyOracle(base).advance(other)

    def test_tracker_advance_rejects_misaligned_delta(self):
        base = Relation.from_rows([("a",), ("b",)], ["A"])
        tracker = DeltaTracker(base)
        tracker.entropy_of_mask(1)
        new_rel, delta = append_rows(base, [("a",)])
        bigger, delta2 = append_rows(new_rel, [("b",)])
        with pytest.raises(ValueError, match="starts at row"):
            tracker.advance(bigger, delta2)


# --------------------------------------------------------------------- #
# Persist lineage (chained fingerprints on disk)
# --------------------------------------------------------------------- #

class TestPersistLineage:
    def test_advance_forks_cache_along_the_chain(self, tmp_path):
        base = Relation.from_rows(
            [("a", "x"), ("b", "y"), ("a", "y"), ("b", "x")], ["A", "B"],
            name="lineage",
        )
        oracle = BatchEntropyOracle(base, persist=True, cache_dir=str(tmp_path))
        oracle.enable_delta_tracking()
        oracle.entropy((0,))
        oracle.entropy((0, 1))
        parent_fp = oracle._persist.fingerprint
        new_rel, delta = append_rows(base, [("a", "x")])
        oracle.advance(new_rel, delta)
        child = oracle._persist
        assert child.fingerprint == chained_fingerprint(parent_fp, delta.digest)
        assert child.parent == parent_fp
        # The fork is seeded with every patched entropy and flushes with
        # its lineage recorded.
        assert len(child) == 2
        oracle.close()
        import json

        with open(child.path) as f:
            payload = json.load(f)
        assert payload["parent"] == parent_fp
        assert payload["fingerprint"] == child.fingerprint

    def test_patched_values_match_cold_persist_oracle(self, tmp_path):
        base = Relation.from_rows(
            [("a", "x"), ("b", "y"), ("a", "y")], ["A", "B"], name="pv"
        )
        oracle = BatchEntropyOracle(base, persist=True, cache_dir=str(tmp_path))
        oracle.enable_delta_tracking()
        new_rel, delta = append_rows(base, [("b", "x")])
        oracle.entropies([(0,), (1,), (0, 1)])
        oracle.advance(new_rel, delta)
        cold = EntropyOracle(new_rel)
        for attrs in [(0,), (1,), (0, 1)]:
            assert oracle.entropy(attrs) == cold.entropy(attrs)
        oracle.close()


# --------------------------------------------------------------------- #
# Result diffing
# --------------------------------------------------------------------- #

class TestDiffing:
    def _mine_payload(self, rows, columns, eps=0.0):
        maimon = Maimon(Relation.from_rows(rows, columns))
        return repro_io.miner_result_to_dict(maimon.mine_mvds(eps), columns)

    def test_identical_results_diff_empty(self, fig1):
        maimon = Maimon(fig1)
        payload = repro_io.miner_result_to_dict(
            maimon.mine_mvds(0.0), fig1.columns
        )
        diff = diff_miner_results(payload, payload)
        assert not diff["changed"]
        assert diff["mvds"]["n_common"] == len(payload["mvds"])
        assert "mvds: +0 -0" in summarize_diff(diff)

    def test_added_and_dropped_mvds_detected(self):
        cols = ["A", "B", "C", "D"]
        old = self._mine_payload(
            [("a", "x", "1", "p"), ("a", "y", "1", "p"),
             ("b", "x", "2", "q"), ("b", "y", "2", "q")], cols
        )
        new = self._mine_payload(
            [("a", "x", "1", "p"), ("a", "y", "2", "q"),
             ("b", "x", "2", "p"), ("b", "y", "1", "q")], cols
        )
        diff = diff_miner_results(old, new)
        assert diff["changed"]
        reverse = diff_miner_results(new, old)
        assert [m for m in diff["mvds"]["added"]] == reverse["mvds"]["dropped"]

    def test_no_baseline_counts_everything_added(self, fig1):
        payload = self._mine_payload(fig1.rows(), list(fig1.columns))
        diff = diff_miner_results(None, payload)
        assert len(diff["mvds"]["added"]) == len(payload["mvds"])
        assert diff["mvds"]["n_common"] == 0

    def test_schema_shift_detection(self):
        entry = {
            "schema": {"bags": [["A", "B"], ["B", "C"]]},
            "j_measure": 0.0,
            "quality": {"savings_pct": 10.0, "spurious_pct": None},
        }
        moved = {
            "schema": {"bags": [["B", "C"], ["A", "B"]]},  # same bags, reordered
            "j_measure": 0.25,
            "quality": {"savings_pct": 10.0, "spurious_pct": None},
        }
        other = {
            "schema": {"bags": [["A", "C"], ["C", "B"]]},
            "j_measure": 0.0,
            "quality": {"savings_pct": 5.0, "spurious_pct": None},
        }
        diff = diff_schemas_payloads(
            {"schemas": [entry]}, {"schemas": [moved, other]}
        )
        assert len(diff["schemas"]["added"]) == 1
        assert len(diff["schemas"]["shifted"]) == 1
        assert diff["schemas"]["shifted"][0]["scores"]["j_measure"] == {
            "old": 0.0, "new": 0.25,
        }
        assert "schemas: +1" in summarize_diff(diff)

    def test_dispatch(self):
        assert diff_payloads(None, {"mvds": [], "min_seps": []})["kind"] == "mine"
        assert diff_payloads(None, {"schemas": []})["kind"] == "schemas"
        with pytest.raises(ValueError, match="unrecognised"):
            diff_payloads(None, {"something": 1})

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError, match="different kinds"):
            diff_payloads({"mvds": [], "min_seps": []}, {"schemas": []})
        with pytest.raises(ValueError, match="different kinds"):
            diff_payloads({"schemas": []}, {"mvds": [], "min_seps": []})


# --------------------------------------------------------------------- #
# End-to-end acceptance: warm serve append == cold mine, fewer evals
# --------------------------------------------------------------------- #

class TestEndToEndIncrement:
    def test_serve_append_remine_byte_identical_to_cold_mine(self):
        from repro.data.generators import markov_tree
        from repro.serve import MiningService

        surrogate = markov_tree(6, 700, seed=11, name="evolve")
        rows = [[str(v) for v in row] for row in surrogate.rows()]
        columns = list(surrogate.columns)
        split = 550

        with MiningService(max_request_seconds=60) as service:
            base = service.registry.add_rows(rows[:split], columns, name="evolve")
            first = service.submit_mine({"dataset_id": base.dataset_id, "eps": 0.0})
            service.jobs.wait(first.id, timeout=60)
            assert first.status == "done"

            job = service.submit_append(
                {"rows": rows[split:], "eps": 0.0}, dataset_id=base.dataset_id
            )
            service.jobs.wait(job.id, timeout=60)
            assert job.status == "done", job.error
            warm = job.result
            assert warm["advance"]["warm_session"] is True
            assert warm["advance"]["patched"] > 0
            assert warm["diff"] is not None and warm["diff"]["kind"] == "mine"
            assert warm["parent_id"] == base.dataset_id

            # Cold mine of the concatenated dataset, same service machinery.
            cold_entry = service.registry.add_rows(rows, columns, name="evolve2")
            cold_job = service.submit_mine(
                {"dataset_id": cold_entry.dataset_id, "eps": 0.0}
            )
            service.jobs.wait(cold_job.id, timeout=60)
            assert cold_job.status == "done"

            # Byte-identical artefacts (entropy_queries/evals/elapsed are
            # run-dependent instrumentation, not mined content).
            content = ("eps", "mvds", "min_seps", "timed_out",
                       "pairs_done", "pairs_total")
            for key in content:
                assert warm["result"][key] == cold_job.result[key]
            import json

            assert json.dumps(
                {k: warm["result"][k] for k in ("mvds", "min_seps")},
                sort_keys=True,
            ) == json.dumps(
                {k: cold_job.result[k] for k in ("mvds", "min_seps")},
                sort_keys=True,
            )
            # Strictly fewer engine evals on the incremental path.
            assert warm["result"]["entropy_evals"] < cold_job.result["entropy_evals"]

    def test_maimon_append_with_domain_growth_matches_cold(self):
        cols = ["A", "B", "C"]
        base_rows = [("a", "x", "1"), ("b", "y", "2"), ("a", "y", "1")]
        extra = [("c", "x", "3"), ("a", "z", "1")]  # every column grows
        warm = Maimon(Relation.from_rows(base_rows, cols), track_deltas=True)
        warm.mine_mvds(0.0)
        delta = warm.append_rows(extra)
        assert delta.grew_domains
        warm_result = warm.mine_mvds(0.0)
        cold = Maimon(Relation.from_rows(base_rows + extra, cols))
        cold_result = cold.mine_mvds(0.0)
        assert warm_result.mvds == cold_result.mvds
        assert warm_result.min_seps == cold_result.min_seps
