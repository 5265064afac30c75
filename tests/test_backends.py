"""repro.backends: stores, chunked kernels, parity and wiring.

The backend seam's whole contract is *bit-identity*: a relation mined
off a store directory (or any other backend) must produce the same
entropies, the same fingerprint and the same artefacts as the in-memory
path.  These tests pin that contract at every layer — raw merge
kernels, the chunk-stream driver, the store round trip, DataSpec/CLI/
serve wiring, and the golden datasets end to end.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro import kernels as kern
from repro.api import DataSpec, EngineSpec, MineSpec, SpecError, TaskRequest
from repro.backends import (
    BackendRelation,
    ChunkedGroupCounter,
    MmapBackend,
    NumpyBackend,
    StoreError,
    have_duckdb,
    ingest_csv,
    open_backend,
    open_store_relation,
    read_manifest,
    write_store,
)
from repro.data import datasets
from repro.data.generators import markov_tree
from repro.data.loaders import from_csv
from repro.data.relation import Relation
from repro.exec import persist
from repro.kernels import count as kcount
from repro.kernels import dispatch, narrow_dtype
from tests.conftest import check_unit_grouping, packing_relations


def subsets(n_cols, max_size=None):
    top = max_size or n_cols
    return [
        idx
        for size in range(1, top + 1)
        for idx in itertools.combinations(range(n_cols), size)
    ]


@pytest.fixture
def rel():
    return markov_tree(5, 400, seed=2, name="backend-test")


@pytest.fixture
def store(rel, tmp_path):
    path = str(tmp_path / "rel.store")
    write_store(rel, path)
    return path


# --------------------------------------------------------------------- #
# Merge kernels (kernels/count.py)
# --------------------------------------------------------------------- #

class TestMergeKernels:
    def test_merge_key_counts_matches_unique(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 50, 300).astype(np.int64)
        b = rng.integers(20, 90, 200).astype(np.int64)
        ka, ca = np.unique(a, return_counts=True)
        kb, cb = np.unique(b, return_counts=True)
        keys, counts = kcount.merge_key_runs([(ka, ca), (kb, cb)])
        want_k, want_c = np.unique(np.concatenate([a, b]), return_counts=True)
        assert np.array_equal(keys, want_k)
        assert np.array_equal(counts, want_c)

    def test_lex_row_counts_is_lexicographic(self):
        rng = np.random.default_rng(1)
        rows = rng.integers(0, 4, (500, 3)).astype(np.int64)
        keys, counts = kcount.lex_row_counts(rows)
        # Ascending lexicographic == ascending mixed-radix over the same
        # radix vector: compose and compare against the sort path.
        composed = (keys[:, 0] * 4 + keys[:, 1]) * 4 + keys[:, 2]
        assert np.all(np.diff(composed) > 0)
        flat = (rows[:, 0] * 4 + rows[:, 1]) * 4 + rows[:, 2]
        want_k, want_c = np.unique(flat, return_counts=True)
        assert np.array_equal(composed, want_k)
        assert np.array_equal(counts, want_c)

    def test_chunked_drivers_match_whole_array(self):
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 1000, 5000).astype(np.int64)
        want_keys, want = np.unique(keys, return_counts=True)  # ascending
        chunks = [keys[i:i + 777] for i in range(0, len(keys), 777)]
        for got_keys, got in (
            kcount.chunked_bincount_keys(iter(chunks), 1000),
            kcount.chunked_merge_keys(iter(chunks)),
        ):
            assert np.array_equal(got_keys, want_keys)
            assert np.array_equal(got, want)

    def test_runs_fold_lazily_and_stop_at_the_cap(self):
        # 64 chunks of fresh keys, as mostly-distinct rows give.  Merging
        # each chunk into the growing run would merge ~208k keys; the
        # fold merges each key a bounded number of times.
        runs = [(np.arange(i * 100, (i + 1) * 100), np.ones(100, dtype=np.int64))
                for i in range(64)]
        merged = []

        def merge(parts):
            merged.append(sum(len(k) for k, _ in parts))
            return kcount.merge_key_runs(parts)

        keys, counts = kcount._fold_runs(iter(runs), merge, None, None)
        assert np.array_equal(keys, np.arange(6400))
        assert np.array_equal(counts, np.ones(6400))
        assert sum(merged) <= 2 * 6400
        # Capped, the fold gives up at the first run that takes the
        # distinct keys past the cap and reads no further.
        read = []
        for cap in (99, 250, 6399):
            read.clear()
            gen = (read.append(run) or run for run in runs)
            assert kcount._fold_runs(gen, merge, cap, None) is None
            assert len(read) == cap // 100 + 1


# --------------------------------------------------------------------- #
# stream_counts lanes (kernels/dispatch.py)
# --------------------------------------------------------------------- #

class TestStreamCounts:
    def _stream(self, codes, radix, chunk_rows):
        stats = {k: 0 for k in dispatch._STAT_KEYS}
        cols = tuple(range(codes.shape[1]))
        chunks = (
            [codes[i:i + chunk_rows, j] for j in range(codes.shape[1])]
            for i in range(0, len(codes), chunk_rows)
        )
        counts = dispatch.stream_counts(
            chunks, [int(r) for r in radix],
            kcount.bincount_limit(len(codes)), stats,
        )
        return counts, stats

    def _dense_counts(self, codes, radix):
        dense = kern.GroupCounter(np.ascontiguousarray(codes), list(radix))
        return dense.counts(tuple(range(codes.shape[1])))

    def test_bincount_lane(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 5, (4000, 3)).astype(np.int64)
        counts, stats = self._stream(codes, [5, 5, 5], 1000)
        assert stats["chunked_bincount"] == 1
        assert stats["chunked_chunks"] == 4
        assert np.array_equal(counts, self._dense_counts(codes, [5, 5, 5]))

    def test_merge_lane(self):
        # Key bound above CHUNK_TABLE_CAP but inside int64: sorted-run
        # merge, exact integer adds.
        rng = np.random.default_rng(4)
        codes = np.column_stack([
            rng.integers(0, 5000, 3000),
            rng.integers(0, 5000, 3000),
        ]).astype(np.int64)
        radix = [5000, 5000]  # bound 25e6 > CHUNK_TABLE_CAP (4Mi)
        counts, stats = self._stream(codes, radix, 700)
        assert stats["chunked_merge"] == 1
        assert np.array_equal(counts, self._dense_counts(codes, radix))

    def test_wide_lane_beyond_int64(self):
        # Radix product above 2^62: the lexsort row-tuple lane.
        rng = np.random.default_rng(5)
        big = 1 << 21
        codes = np.column_stack([
            rng.integers(0, big, 2000) for _ in range(3)
        ]).astype(np.int64)
        radix = [big, big, big]  # 2^63 > INT64_KEY_BOUND
        counts, stats = self._stream(codes, radix, 600)
        assert stats["chunked_wide"] == 1
        dense = self._dense_counts(codes, radix)
        assert np.array_equal(counts, dense)

    @pytest.mark.parametrize("chunk_rows", [1, 7, 100, 399, 400, 4096])
    def test_counts_chunked_parity_hook(self, rel, chunk_rows):
        dense = kern.GroupCounter(rel.codes, list(rel.radix))
        for idx in subsets(rel.n_cols, 3):
            want = dense.counts(idx)
            got = dense.counts_chunked(idx, chunk_rows=chunk_rows)
            assert np.array_equal(want, got), idx


class TestStoreChunkContract:
    """Backends hand out narrow blocks; counting them matches memory."""

    @pytest.fixture
    def narrow_rel(self):
        rng = np.random.default_rng(17)
        radices = (200, 3000, 70_000)  # uint8, uint16, int32 columns
        codes = np.column_stack(
            [rng.integers(0, r, 400) for r in radices]
        ).astype(np.int64)
        codes[0] = [r - 1 for r in radices]
        return Relation(codes, ["u8", "u16", "i32"], name="narrow")

    @pytest.fixture
    def narrow_store(self, narrow_rel, tmp_path):
        path = str(tmp_path / "narrow-store")
        write_store(narrow_rel, path)
        return path

    def test_chunks_come_in_manifest_dtypes(self, narrow_rel, narrow_store):
        dtypes = read_manifest(narrow_store)["dtypes"]
        assert dtypes == ["uint8", "uint16", "int32"]
        for back in (MmapBackend(narrow_store), NumpyBackend(narrow_rel)):
            blocks = list(back.iter_chunks((0, 1, 2), 64))
            assert sum(len(b[0]) for b in blocks) == narrow_rel.n_rows
            for block in blocks:
                assert [a.dtype.name for a in block] == dtypes
                assert all(a.flags.c_contiguous for a in block)

    def test_fingerprint_unchanged(self, narrow_rel, narrow_store):
        want = persist.relation_fingerprint(narrow_rel)
        assert MmapBackend(narrow_store).fingerprint() == want
        # Streamed from the narrow files, hashed as int64 bytes.
        assert persist.relation_fingerprint(open_store_relation(narrow_store)) == want

    @pytest.mark.parametrize("chunk_rows", [1, 7, None])
    def test_store_counts_match_memory(self, narrow_rel, narrow_store, chunk_rows):
        stored = open_store_relation(
            narrow_store, chunk_rows=chunk_rows or narrow_rel.n_rows
        )
        for idx in subsets(3):
            want = narrow_rel.kernels.counts(idx)
            assert np.array_equal(stored.kernels.counts(idx), want), idx
        stats = stored.kernels.snapshot()
        assert stats["chunked_bincount"] > 0 and stats["chunked_merge"] > 0


class TestPackedStore:
    """A store packs in one streamed pass, within one chunk's rows."""

    #: Stats of every answer a counter gives: in memory or packed, a
    #: ``bincount``/``sort``; streamed, one of the chunk lanes.
    ANSWERS = ("bincount", "sort", "chunked_bincount", "chunked_merge",
               "chunked_wide")

    @settings(max_examples=60, deadline=None)
    @given(r=packing_relations(), data=st.data())
    def test_every_subset_matches_unique_rows(self, r, data):
        codes, n = r.codes, r.n_rows
        chunk_rows = data.draw(st.integers(1, max(n, 1)), label="chunk_rows")
        cap = min(kcount.pack_cap(n), chunk_rows)
        n_tuples = len(np.unique(codes, axis=0))
        n_chunks = math.ceil(n / chunk_rows)
        # The pass reads until the distinct tuples exceed the cap.
        probe_chunks = next(
            (k for k in range(1, n_chunks + 1)
             if len(np.unique(codes[:k * chunk_rows], axis=0)) > cap),
            n_chunks,
        )
        packs = n_tuples <= cap
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "store")
            write_store(r, path)
            counter = open_store_relation(path, chunk_rows=chunk_rows).kernels
            stats = counter.stats
            for size in range(1, r.n_cols + 1):
                for idx in itertools.combinations(range(r.n_cols), size):
                    _, want_ids, want = np.unique(
                        codes[:, list(idx)], axis=0,
                        return_inverse=True, return_counts=True,
                    )
                    answers = sum(stats[k] for k in self.ANSWERS)
                    got = counter.counts(idx)
                    assert sum(stats[k] for k in self.ANSWERS) == answers + 1
                    assert np.array_equal(got, want), (idx, chunk_rows)
                    assert counter.entropy(idx) == kern.entropy_from_counts(want, n)
                    ids, n_groups = counter.ids(idx)
                    assert n_groups == len(want)
                    assert np.array_equal(ids, want_ids.reshape(-1)), idx
            assert stats["packs"] == int(packs)
            assert stats["pack_declines"] == int(not packs)
            if packs:
                # One pass, then every count from memory.
                assert counter._packed.tuples.n_rows == n_tuples <= cap
                assert stats["chunked_chunks"] == n_chunks
            else:
                assert counter._packed is False
                streamed = sum(stats[k] for k in self.ANSWERS[2:])
                assert stats["chunked_chunks"] == probe_chunks + streamed * n_chunks

    @settings(max_examples=60, deadline=None)
    @given(r=packing_relations(), data=st.data())
    def test_unit_grouping_matches_unique_rows(self, r, data):
        # A packed store groups its packed tuples without loading
        # itself; one that declined groups through the dense fallback.
        codes, n = r.codes, r.n_rows
        chunk_rows = data.draw(st.integers(1, max(n, 1)), label="chunk_rows")
        packs = len(np.unique(codes, axis=0)) <= min(kcount.pack_cap(n), chunk_rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "store")
            write_store(r, path)
            counter = open_store_relation(path, chunk_rows=chunk_rows).kernels
            check_unit_grouping(counter, codes)
            assert counter.stats["packs"] == int(packs)
            assert counter.stats["chunked_materialized"] == int(not packs)

    def test_pushdown_backend_units_are_the_dense_fallbacks(self, rel):
        counter = ChunkedGroupCounter(NumpyBackend(rel),
                                      materialize=lambda: rel.kernels)
        check_unit_grouping(counter, rel.codes)
        assert counter.stats["chunked_materialized"] == 1
        assert counter._packed is None

    def test_table_never_exceeds_one_chunk(self):
        # 40 distinct tuples over 4,000 rows pack in memory, but a store
        # read 32 rows at a time declines: its cap is one chunk's rows.
        rng = np.random.default_rng(8)
        base = rng.integers(0, 6, (40, 4))
        rel = Relation.from_codes(base[rng.permutation(4000) % 40])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "store")
            write_store(rel, path)
            for chunk_rows, packs in ((32, False), (40, True), (4000, True)):
                counter = open_store_relation(path, chunk_rows=chunk_rows).kernels
                want = rel.kernels.counts((0, 2))
                assert np.array_equal(counter.counts((0, 2)), want)
                assert counter.stats["packs"] == int(packs)
                if packs:
                    assert counter._packed.tuples.n_rows == 40
                else:
                    # The pass stopped after two chunks, the first whose
                    # rows hold more than 32 distinct tuples; the count
                    # then streamed all 125.
                    assert counter.stats["chunked_chunks"] == 2 + 125
        assert rel.kernels.stats["packs"] == 1


# --------------------------------------------------------------------- #
# Store round trip + manifest validation
# --------------------------------------------------------------------- #

class TestStore:
    def test_narrow_dtype_thresholds(self):
        assert narrow_dtype(2) == np.dtype(np.uint8)
        assert narrow_dtype(256) == np.dtype(np.uint8)
        assert narrow_dtype(257) == np.dtype(np.uint16)
        assert narrow_dtype(1 << 16) == np.dtype(np.uint16)
        assert narrow_dtype((1 << 16) + 1) == np.dtype(np.int32)
        assert narrow_dtype(1 << 40) == np.dtype(np.int64)

    def test_write_store_round_trip(self, rel, store):
        back = MmapBackend(store)
        assert back.n_rows == rel.n_rows
        assert list(back.columns) == list(rel.columns)
        assert list(back.radix) == [int(r) for r in rel.radix]
        assert back.fingerprint() == persist.relation_fingerprint(rel)
        assert back.to_relation() == rel
        assert back.store_bytes() > 0

    def test_write_store_refuses_overwrite(self, rel, store):
        with pytest.raises(StoreError, match="already exists"):
            write_store(rel, store)
        write_store(rel, store, force=True)  # force replaces

    def test_read_manifest_rejects_missing(self, tmp_path):
        with pytest.raises(StoreError):
            read_manifest(str(tmp_path / "nope"))

    def test_read_manifest_rejects_corrupt(self, store):
        with open(os.path.join(store, "store.json"), "w") as f:
            f.write("{not json")
        with pytest.raises(StoreError):
            read_manifest(store)

    def test_mmap_rejects_truncated_column(self, store):
        manifest = read_manifest(store)
        col0 = os.path.join(store, "col_00000.bin")
        with open(col0, "r+b") as f:
            f.truncate(os.path.getsize(col0) - 1)
        with pytest.raises(StoreError, match="bytes"):
            MmapBackend(store)
        assert manifest["n_rows"] > 0

    def test_open_backend_unknown_name(self, store):
        with pytest.raises(StoreError, match="unknown store backend"):
            open_backend(store, backend="csv")


class TestIngest:
    CSV = (
        "city,temp,wind\n"
        " aa ,1,x\n"
        "bb,,y\n"
        "cc,3\n"            # short row: padded with <null>
        "dd,4,z,EXTRA\n"    # long row: truncated
        "aa,1,x\n"
    )

    def test_round_trip_matches_from_csv(self, tmp_path):
        import io
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(self.CSV)
        out = str(tmp_path / "t.store")
        manifest = ingest_csv(str(csv_path), out, chunk_rows=2)
        mem = from_csv(io.StringIO(self.CSV), name="t.csv")
        assert manifest["fingerprint"] == persist.relation_fingerprint(mem)
        assert MmapBackend(out).to_relation() == mem

    def test_fingerprint_stable_across_reingest(self, tmp_path):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(self.CSV)
        a = ingest_csv(str(csv_path), str(tmp_path / "a.store"), chunk_rows=1)
        b = ingest_csv(str(csv_path), str(tmp_path / "b.store"), chunk_rows=64)
        assert a["fingerprint"] == b["fingerprint"]

    def test_max_rows_and_headerless(self, tmp_path):
        import io
        text = "1,2\n3,4\n5,6\n"
        csv_path = tmp_path / "h.csv"
        csv_path.write_text(text)
        manifest = ingest_csv(
            str(csv_path), str(tmp_path / "h.store"),
            has_header=False, max_rows=2,
        )
        mem = from_csv(io.StringIO(text), has_header=False, max_rows=2,
                       name="h.csv")
        assert manifest["n_rows"] == 2
        assert manifest["columns"] == ["A0", "A1"]
        assert manifest["fingerprint"] == persist.relation_fingerprint(mem)

    def test_refuses_existing_without_force(self, tmp_path):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(self.CSV)
        out = str(tmp_path / "t.store")
        ingest_csv(str(csv_path), out)
        with pytest.raises(StoreError, match="already exists"):
            ingest_csv(str(csv_path), out)
        ingest_csv(str(csv_path), out, force=True)


# --------------------------------------------------------------------- #
# Backend parity (hypothesis) + BackendRelation surface
# --------------------------------------------------------------------- #

class TestBackendParity:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_rows=st.integers(1, 120),
        n_cols=st.integers(1, 4),
        card=st.integers(1, 9),
        chunk=st.integers(1, 130),
    )
    def test_mmap_entropies_bit_identical(
        self, tmp_path_factory, seed, n_rows, n_cols, card, chunk
    ):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, card, (n_rows, n_cols)).astype(np.int64)
        rel = Relation(codes, [f"c{j}" for j in range(n_cols)])
        out = str(tmp_path_factory.mktemp("hyp") / "s.store")
        write_store(rel, out)
        mem = NumpyBackend(rel)
        disk = BackendRelation(MmapBackend(out), chunk_rows=chunk)
        dense = rel.kernels
        for idx in subsets(n_cols):
            assert np.array_equal(
                mem.key_counts(idx), dense.counts(idx)
            )
            assert dense.entropy(idx) == disk.kernels.entropy(idx)

    def test_numpy_backend_pushes_down(self, rel):
        back = NumpyBackend(rel)
        counter = ChunkedGroupCounter(back)
        want = rel.kernels.counts((0, 2))
        assert np.array_equal(counter.counts((0, 2)), want)
        assert counter.stats["chunked_pushdown"] == 1

    def test_ids_materialize_hook(self, store, rel):
        brel = open_store_relation(store)
        ids, n_groups = brel.kernels.ids((0, 1))
        want_ids, want_groups = rel.kernels.ids((0, 1))
        assert n_groups == want_groups
        assert np.array_equal(ids, want_ids)
        assert brel.kernels.stats["chunked_materialized"] >= 1

    def test_ids_without_hook_raises(self, store):
        counter = ChunkedGroupCounter(MmapBackend(store))
        with pytest.raises(RuntimeError):
            counter.ids((0,))

    def test_backend_relation_surface(self, store, rel):
        brel = open_store_relation(store)
        assert len(brel) == rel.n_rows
        assert brel.n_cells == rel.n_cells
        assert brel.col_index(rel.columns[1]) == 1
        assert brel.cardinality(0) == rel.cardinality(0)
        assert not brel.supports_delta_tracking
        assert brel == rel  # materializing equality
        assert brel.group_sizes((0,)).sum() == rel.n_rows
        with pytest.raises(TypeError):
            hash(brel)

    def test_delta_tracking_silently_disabled(self, store):
        brel = open_store_relation(store)
        maimon = EngineSpec(track_deltas=True).make_maimon(brel)
        try:
            result = maimon.mine_mvds(0.1)
            assert result is not None
            assert not maimon.oracle.tracks_deltas
        finally:
            maimon.close()

    def test_chunked_counters_reach_flat_namespace(self, store):
        brel = open_store_relation(store)
        maimon = EngineSpec().make_maimon(brel)
        try:
            maimon.mine_mvds(0.05)
            counters = maimon.counters()
        finally:
            maimon.close()
        chunked = {k: v for k, v in counters.items()
                   if k.startswith("kernel.chunked")}
        assert chunked, counters
        assert sum(chunked.values()) > 0


# --------------------------------------------------------------------- #
# Streaming fingerprint (satellite: exec.persist)
# --------------------------------------------------------------------- #

class TestStreamingFingerprint:
    def test_matches_single_shot_reference(self, rel):
        import hashlib
        h = hashlib.sha256()
        h.update(f"v{persist.CACHE_FORMAT}:{rel.n_rows}x{rel.n_cols}".encode())
        for j, name in enumerate(rel.columns):
            h.update(b"\x00" + str(name).encode())
            h.update(np.ascontiguousarray(
                rel.codes[:, j], dtype=np.int64).tobytes())
        assert persist.relation_fingerprint(rel) == h.hexdigest()[:40]

    def test_chunk_size_invariant(self, rel, monkeypatch):
        want = persist.relation_fingerprint(rel)
        monkeypatch.setattr(persist, "FINGERPRINT_CHUNK_ROWS", 17)
        # A fresh relation: ``rel`` keeps its hash state.
        fresh = rel.take_rows(np.arange(rel.n_rows))
        assert persist.relation_fingerprint(fresh) == want

    def test_large_file_tripwire(self, monkeypatch):
        """Fingerprinting must stream: no chunk may exceed the row bound.

        A duck-typed relation stands in for a store too large to slice
        whole; its chunk iterator records every block it hands out, so a
        regression to whole-column hashing shows up as an oversized (or
        bypassed) read.
        """
        monkeypatch.setattr(persist, "FINGERPRINT_CHUNK_ROWS", 64)
        base = markov_tree(3, 1000, seed=9, name="big")
        seen = []

        class SpyRelation:
            name = "big"
            n_rows = base.n_rows
            n_cols = base.n_cols
            columns = base.columns

            def iter_column_chunks(self, j, chunk_rows):
                assert chunk_rows <= 64
                for start in range(0, base.n_rows, chunk_rows):
                    block = base.codes[start:start + chunk_rows, j]
                    seen.append(block.nbytes)
                    yield block

        got = persist.relation_fingerprint(SpyRelation())
        assert got == persist.relation_fingerprint(base)
        assert seen and max(seen) <= 64 * 8


# --------------------------------------------------------------------- #
# DataSpec store/backend validation + load
# --------------------------------------------------------------------- #

class TestDataSpecStore:
    def test_store_is_exclusive_with_csv(self, store):
        with pytest.raises(SpecError, match="exactly one"):
            DataSpec(csv="x.csv", store=store).validate()

    def test_store_rejects_max_rows(self, store):
        with pytest.raises(SpecError, match="re-ingest") as err:
            DataSpec(store=store, max_rows=10).validate()
        assert err.value.field == "max_rows"

    def test_store_rejects_sample(self, store):
        with pytest.raises(SpecError):
            DataSpec(store=store, sample=10).validate()

    def test_backend_requires_store(self):
        with pytest.raises(SpecError, match="backend"):
            DataSpec(csv="x.csv", backend="mmap").validate()

    def test_numpy_backend_invalid_for_store(self, store):
        with pytest.raises(SpecError, match="backend"):
            DataSpec(store=store, backend="numpy").validate()

    def test_load_bad_path_is_spec_error(self, tmp_path):
        with pytest.raises(SpecError) as err:
            DataSpec(store=str(tmp_path / "missing")).load()
        assert err.value.field == "store"

    @pytest.mark.skipif(have_duckdb(), reason="duckdb installed")
    def test_load_duckdb_missing_is_spec_error(self, store):
        with pytest.raises(SpecError) as err:
            DataSpec(store=store, backend="duckdb").load()
        assert err.value.field == "backend"

    def test_api_run_store_parity(self, rel, store):
        request = TaskRequest(
            task="mine", spec=MineSpec(eps=0.01), engine=EngineSpec(),
            data=DataSpec(store=store),
        )
        got = api.run(request)
        want = api.run(
            TaskRequest(task="mine", spec=MineSpec(eps=0.01)), relation=rel
        )
        assert got.payload["mvds"] == want.payload["mvds"]
        assert got.payload["min_seps"] == want.payload["min_seps"]
        assert got.fingerprint == want.fingerprint


# --------------------------------------------------------------------- #
# Golden datasets end to end
# --------------------------------------------------------------------- #

class TestGoldenParity:
    @pytest.mark.parametrize("name", ["Bridges", "Breast_Cancer", "Abalone"])
    def test_store_mines_identically(self, name, tmp_path):
        rel = datasets.load(name, scale=1.0, max_rows=300, max_cols=9)
        out = str(tmp_path / f"{name}.store")
        write_store(rel, out)
        request = TaskRequest(
            task="mine", spec=MineSpec(eps=0.01), engine=EngineSpec(),
            data=DataSpec(store=out),
        )
        got = api.run(request)
        want = api.run(
            TaskRequest(task="mine", spec=MineSpec(eps=0.01)), relation=rel
        )
        assert got.payload["mvds"] == want.payload["mvds"]
        assert got.payload["min_seps"] == want.payload["min_seps"]
        assert got.fingerprint == want.fingerprint


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #

class TestCLIStore:
    @pytest.fixture
    def csv_path(self, rel, tmp_path):
        from repro.data.loaders import to_csv
        path = str(tmp_path / "rel.csv")
        to_csv(rel, path)
        return path

    def test_ingest_then_mine(self, csv_path, tmp_path, capsys):
        from repro.cli import main
        out = str(tmp_path / "cli.store")
        assert main(["ingest", csv_path, "--out", out, "--trace"]) == 0
        text = capsys.readouterr().out
        assert "fingerprint" in text and "ingest" in text
        assert main(["mine", "--store", out, "--no-persist",
                     "--eps", "0.05"]) == 0

    def test_ingest_missing_csv(self, tmp_path):
        from repro.cli import main
        with pytest.raises(SystemExit, match="ingest failed"):
            main(["ingest", str(tmp_path / "no.csv"),
                  "--out", str(tmp_path / "x.store")])

    def test_mine_store_with_max_rows_rejected(self, csv_path, tmp_path):
        from repro.cli import main
        out = str(tmp_path / "cli2.store")
        assert main(["ingest", csv_path, "--out", out]) == 0
        with pytest.raises(SystemExit, match="invalid request"):
            main(["mine", "--store", out, "--max-rows", "5",
                  "--no-persist"])

    def test_help_lists_new_commands(self, capsys):
        from repro.cli import build_parser
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        assert "ingest" in out and "store-bench" in out


# --------------------------------------------------------------------- #
# Serve wiring
# --------------------------------------------------------------------- #

class TestServeStore:
    @pytest.fixture
    def service(self):
        from repro.serve.service import MiningService
        svc = MiningService()
        yield svc
        svc.close()

    def test_upload_mine_and_gauge(self, service, rel, store):
        desc = service.upload({"store": store})
        assert desc["source"] == "store:mmap"
        assert desc["store_bytes"] > 0
        assert desc["dataset_id"] == persist.relation_fingerprint(rel)
        job = service.submit_mine({"dataset_id": desc["dataset_id"],
                                   "eps": 0.05})
        service.jobs.wait(job.id, timeout=60)
        assert service.jobs.get(job.id).status == "done"
        body = service.metrics_text()
        assert f'repro_store_bytes{{dataset_id="{desc["dataset_id"]}"}}' in body

    def test_append_rejected_read_only(self, service, store):
        from repro.serve.service import ServiceError
        desc = service.upload({"store": store})
        with pytest.raises(ServiceError) as err:
            service.submit_append({"dataset_id": desc["dataset_id"],
                                   "rows": [["a", "b", "c", "d", "e"]]})
        assert err.value.status == 400
        assert err.value.extra.get("code") == "store_readonly"

    def test_bad_store_structured_400(self, service, tmp_path):
        from repro.serve.service import ServiceError
        with pytest.raises(ServiceError) as err:
            service.upload({"store": str(tmp_path / "nope")})
        assert err.value.status == 400
        assert err.value.extra.get("code") == "invalid_store"

    def test_upload_shape_error_mentions_store(self, service):
        from repro.serve.service import ServiceError
        with pytest.raises(ServiceError, match="'store'"):
            service.upload({})


# --------------------------------------------------------------------- #
# Loaders: one-pass parse semantics
# --------------------------------------------------------------------- #

class TestLoaderOnePass:
    def test_ragged_pad_truncate_parity(self):
        import io
        text = "a,b,c\n1,2,3\n4,5\n6,7,8,9\n , ,\n"
        rel = from_csv(io.StringIO(text))
        assert rel.rows() == [
            ("1", "2", "3"),
            ("4", "5", "<null>"),
            ("6", "7", "8"),
            ("<null>", "<null>", "<null>"),
        ]

    def test_max_rows_stops_the_parse(self):
        """The cap bounds *reading*, not just the result."""
        consumed = []

        class SpyLines:
            def __init__(self, lines):
                self._it = iter(lines)

            def __iter__(self):
                return self

            def __next__(self):
                line = next(self._it)
                consumed.append(line)
                return line

        lines = ["a,b\n"] + [f"{i},{i}\n" for i in range(1000)]
        rel = from_csv(SpyLines(lines), max_rows=5)
        assert rel.n_rows == 5
        assert len(consumed) == 6  # header + exactly max_rows lines

    def test_headerless_width_from_first_row(self):
        import io
        rel = from_csv(io.StringIO("1,2\n3,4,5\n6\n"), has_header=False)
        assert rel.columns == ("A0", "A1")
        assert rel.rows() == [("1", "2"), ("3", "4"), ("6", "<null>")]


# --------------------------------------------------------------------- #
# DuckDB pushdown (optional dependency)
# --------------------------------------------------------------------- #

class TestDuckDB:
    @pytest.fixture(autouse=True)
    def _need_duckdb(self):
        pytest.importorskip("duckdb")

    def test_counts_parity_and_order(self, rel, store):
        from repro.backends.duckdb_backend import DuckDBBackend
        back = DuckDBBackend(MmapBackend(store))
        try:
            dense = rel.kernels
            for idx in subsets(rel.n_cols, 3):
                assert np.array_equal(back.key_counts(idx),
                                      dense.counts(idx)), idx
        finally:
            back.close()

    def test_mining_parity(self, rel, store):
        brel = open_store_relation(store, backend="duckdb")
        try:
            got = EngineSpec().make_maimon(brel)
            want = EngineSpec().make_maimon(rel)
            a = got.mine_mvds(0.01)
            b = want.mine_mvds(0.01)
            assert sorted(a.mvds) == sorted(b.mvds)
            got.close()
            want.close()
        finally:
            brel.backend.close()
