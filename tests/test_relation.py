"""Unit tests for the columnar relation engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.relation import Relation, _factorize, _factorize_object
from tests.conftest import random_relation


class TestFactorize:
    def test_first_appearance_order(self):
        codes, domain = _factorize(["b", "a", "b", "c"])
        assert list(codes) == [0, 1, 0, 2]
        assert domain == ["b", "a", "c"]

    def test_empty(self):
        codes, domain = _factorize([])
        assert len(codes) == 0
        assert domain == []

    def test_mixed_hashables(self):
        codes, domain = _factorize([1, "1", 1, (2,)])
        assert list(codes) == [0, 1, 0, 2]


class TestFactorizeVectorizedAgreement:
    """The np.unique fast path must agree with the reference dict walk.

    Agreement means identical codes AND identical domains — values *and*
    their Python types — so decoded relations are indistinguishable
    whichever path an input takes (ndarray/numeric inputs vectorise;
    strings, mixed and otherwise unrepresentable inputs fall back).
    """

    def _assert_agree(self, values):
        codes, domain = _factorize(values)
        ref_codes, ref_domain = _factorize_object(values)
        assert list(codes) == list(ref_codes)
        assert domain == ref_domain
        assert [type(v) for v in domain] == [type(v) for v in ref_domain]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(max_size=4)))
    def test_strings(self, values):
        self._assert_agree(values)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-(2**62), 2**62)))
    def test_ints(self, values):
        self._assert_agree(values)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False)))
    def test_floats(self, values):
        self._assert_agree(values)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.one_of(st.text(max_size=3), st.integers(0, 9),
                              st.booleans())))
    def test_mixed_type_columns_fall_back(self, values):
        self._assert_agree(values)

    def test_huge_ints_fall_back(self):
        self._assert_agree([10**30, 1, 10**30, 2])

    def test_nan_falls_back_to_identity_semantics(self):
        nan = float("nan")
        codes, domain = _factorize([nan, 1.0, nan])
        # Same NaN object: dict semantics give it one code.
        assert list(codes) == [0, 1, 0]

    def test_bool_vs_int_not_coerced(self):
        # numpy would collapse True and 1; the dict walk also treats them
        # equal (hash-equal) but keeps the first-seen *object* in the
        # domain — the fallback must preserve that.
        self._assert_agree([True, 1, 0, False])

    def test_ndarray_input_uses_fast_path(self):
        arr = np.array([3, 1, 3, 2])
        codes, domain = _factorize(arr)
        assert list(codes) == [0, 1, 0, 2]
        assert domain == [3, 1, 2]


class TestConstruction:
    def test_from_rows_roundtrip(self):
        rows = [("x", 1), ("y", 2), ("x", 2)]
        r = Relation.from_rows(rows, ["s", "n"])
        assert r.n_rows == 3
        assert r.n_cols == 2
        assert r.rows() == [("x", 1), ("y", 2), ("x", 2)]

    def test_from_columns(self):
        r = Relation.from_columns({"a": [1, 1, 2], "b": ["u", "v", "u"]})
        assert r.columns == ("a", "b")
        assert r.cardinality("a") == 2

    def test_from_columns_length_mismatch(self):
        with pytest.raises(ValueError, match="differing lengths"):
            Relation.from_columns({"a": [1], "b": [1, 2]})

    def test_from_rows_width_mismatch(self):
        with pytest.raises(ValueError, match="fields"):
            Relation.from_rows([(1, 2), (3,)], ["a", "b"])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Relation.from_rows([(1, 2)], ["a", "a"])

    def test_from_codes_densifies(self):
        codes = np.array([[5, 0], [7, 0], [5, 1]])
        r = Relation.from_codes(codes)
        assert r.cardinality(0) == 2
        assert r.cardinality(1) == 2
        assert set(r.row_set()) == {(0, 0), (1, 0), (0, 1)}

    def test_codes_must_be_2d(self):
        with pytest.raises(ValueError):
            Relation(np.zeros(3, dtype=np.int64), ["a"])

    def test_empty_relation(self):
        r = Relation.from_rows([], ["a", "b"])
        assert r.n_rows == 0
        assert r.n_cells == 0
        assert r.distinct_count([0, 1]) == 0


class TestColumnResolution:
    def test_by_name_and_index(self, fig1):
        assert fig1.col_index("A") == 0
        assert fig1.col_index(3) == 3
        assert fig1.col_indices(["D", "B"]) == (1, 3)

    def test_unknown_name(self, fig1):
        with pytest.raises(KeyError, match="unknown column"):
            fig1.col_index("Z")

    def test_index_out_of_range(self, fig1):
        with pytest.raises(IndexError):
            fig1.col_index(99)

    def test_single_attr_spec(self, fig1):
        assert fig1.col_indices("A") == (0,)
        assert fig1.col_indices(2) == (2,)

    def test_attr_names(self, fig1):
        assert fig1.attr_names([3, 0]) == ("A", "D")


class TestGrouping:
    def test_group_ids_single_column(self):
        r = Relation.from_rows([(1,), (2,), (1,)], ["a"])
        ids, n = r.group_ids([0])
        assert n == 2
        assert ids[0] == ids[2] != ids[1]

    def test_group_ids_multi_column(self, fig1):
        ids, n = fig1.group_ids(["A", "D"])
        # Fig 1 has AD values: (a1,d1),(a2,d1),(a2,d2),(a1,d2) - all distinct.
        assert n == 4

    def test_group_ids_empty_attrs(self, fig1):
        ids, n = fig1.group_ids([])
        assert n == 1
        assert (ids == 0).all()

    def test_group_sizes(self):
        r = Relation.from_rows([(1, 1), (1, 2), (1, 1)], ["a", "b"])
        sizes = sorted(r.group_sizes(["a", "b"]))
        assert sizes == [1, 2]

    def test_distinct_count_matches_set(self):
        r = random_relation(4, 60, seed=3)
        for attrs in ([0], [1, 3], [0, 1, 2, 3]):
            expected = len({tuple(row) for row in r.codes[:, attrs]})
            assert r.distinct_count(attrs) == expected

    def test_group_ids_overflow_safe(self):
        # Many columns with moderate cardinality would overflow naive
        # mixed-radix encoding; group_ids must re-densify.
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 1000, size=(200, 12))
        r = Relation.from_codes(codes)
        ids, n = r.group_ids(range(12))
        expected = len({tuple(row) for row in r.codes})
        assert n == expected


class TestRelationalOps:
    def test_project_dedups(self, fig1):
        p = fig1.project(["A", "F"])
        assert p.n_rows == 2  # (a1,f1), (a2,f2)
        assert p.columns == ("A", "F")

    def test_project_no_dedup(self, fig1):
        p = fig1.project(["A"], dedup=False)
        assert p.n_rows == fig1.n_rows

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(0, 40),
        n_cols=st.integers(1, 6),
        high=st.sampled_from([1, 3, 1000, 10**6]),
        resample=st.booleans(),
        data=st.data(),
    )
    def test_project_rows_match_np_unique(
        self, seed, n_rows, n_cols, high, resample, data
    ):
        """Deduplicated rows, and their order, are ``np.unique``'s."""
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, high, size=(n_rows, n_cols))
        r = Relation(codes, [f"A{j}" for j in range(n_cols)])
        if resample and n_rows:
            r = r.take_rows(rng.integers(0, n_rows, size=n_rows))
        idx = sorted(data.draw(st.sets(st.integers(0, n_cols - 1), min_size=1)))
        want = np.unique(r.codes[:, idx], axis=0)
        got = r.project(idx).codes
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_project_zero_rows(self):
        r = Relation(np.zeros((0, 3), dtype=np.int64), ["a", "b", "c"])
        for idx in ([0], [0, 2], [0, 1, 2]):
            want = np.unique(r.codes[:, idx], axis=0)
            got = r.project(idx).codes
            assert got.shape == want.shape == (0, len(idx))

    def test_distinct(self):
        r = Relation.from_rows([(1, 2), (1, 2), (3, 4)], ["a", "b"])
        assert r.distinct().n_rows == 2

    def test_take_rows(self, fig1):
        sub = fig1.take_rows([0, 2])
        assert sub.n_rows == 2
        assert sub.rows()[0] == fig1.rows()[0]
        assert sub.rows()[1] == fig1.rows()[2]

    def test_head(self, fig1):
        assert fig1.head(2).n_rows == 2
        assert fig1.head(100).n_rows == fig1.n_rows

    def test_sample_rows_deterministic(self):
        r = random_relation(3, 100, seed=1)
        s1 = r.sample_rows(10, seed=42)
        s2 = r.sample_rows(10, seed=42)
        assert s1.rows() == s2.rows()
        assert s1.n_rows == 10

    def test_sample_rows_all_copies(self):
        # k >= n_rows must return a full *copy*, never alias self: callers
        # (repro.approx's sampler cache) mutate/cache samples independently.
        r = random_relation(3, 10, seed=1)
        sample = r.sample_rows(100, seed=0)
        assert sample is not r
        assert sample.n_rows == r.n_rows
        assert (sample.codes == r.codes).all()
        assert sample.codes is not r.codes

    def test_sample_rows_seed_deterministic(self):
        r = random_relation(3, 200, seed=1)
        a = r.sample_rows(50, seed=9)
        b = r.sample_rows(50, seed=9)
        c = r.sample_rows(50, seed=10)
        assert (a.codes == b.codes).all()
        assert a.n_rows == c.n_rows == 50
        assert not (a.codes == c.codes).all()

    def test_rename(self, fig1):
        renamed = fig1.rename({"A": "alpha"})
        assert renamed.columns[0] == "alpha"
        assert renamed.columns[1:] == fig1.columns[1:]

    def test_column_values(self):
        r = Relation.from_rows([("x",), ("y",), ("x",)], ["c"])
        assert r.column_values("c") == ["x", "y", "x"]


class TestDunder:
    def test_len(self, fig1):
        assert len(fig1) == 4

    def test_equality_set_semantics(self):
        r1 = Relation.from_rows([(1, 2), (3, 4)], ["a", "b"])
        r2 = Relation.from_rows([(3, 4), (1, 2)], ["a", "b"])
        assert r1 == r2

    def test_inequality_different_columns(self):
        r1 = Relation.from_rows([(1,)], ["a"])
        r2 = Relation.from_rows([(1,)], ["b"])
        assert r1 != r2

    def test_not_hashable(self, fig1):
        with pytest.raises(TypeError):
            hash(fig1)

    def test_repr_and_pretty(self, fig1):
        assert "4x6" in repr(fig1)
        text = fig1.pretty(limit=2)
        assert "A" in text and "more rows" in text


class TestZeroColumnRows:
    def test_rows_of_zero_column_relation(self):
        import numpy as np

        r = Relation(np.empty((5, 0), dtype=np.int64), [])
        assert r.rows() == [()] * 5
        assert len(r.rows()) == r.n_rows


class TestNonDenseCardinality:
    """Regression: ``cardinality`` must count distinct values, not codes+1.

    Row subsetting (``take_rows``/``head``/``sample_rows``) keeps the
    original decode tables, so codes can be non-dense; ``max(code) + 1``
    then overcounts (user-visible in ``repro profile``'s distinct/H_norm
    columns).  The dense-radix bound stays internal to ``group_ids``.
    """

    def test_issue_example(self):
        r = Relation.from_rows(
            [(1, "a"), (2, "b"), (3, "a"), (4, "b")], ["id", "x"]
        ).take_rows([0, 3])
        assert r.cardinality("id") == 2  # was 4: codes {0, 3}, max+1
        assert r.cardinality("x") == 2

    def test_head_and_sample(self):
        r = Relation.from_rows([(i, i % 3) for i in range(9)], ["id", "m"])
        assert r.head(2).cardinality("id") == 2
        assert r.sample_rows(4, seed=1).cardinality("id") == 4

    def test_group_ids_unaffected(self):
        r = Relation.from_rows(
            [(1, "a"), (2, "b"), (3, "a"), (4, "b")], ["id", "x"]
        ).take_rows([0, 3])
        ids, n_groups = r.group_ids(["id", "x"])
        assert n_groups == 2
        assert r.distinct_count("x") == 2

    def test_matches_decoded_values(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=50, deadline=None)
        @given(
            rows=st.lists(
                st.tuples(st.integers(0, 9), st.integers(0, 4)),
                min_size=1,
                max_size=20,
            ),
            data=st.data(),
        )
        def check(rows, data):
            full = Relation.from_rows(rows, ["a", "b"])
            keep = data.draw(
                st.lists(
                    st.integers(0, full.n_rows - 1),
                    min_size=1,
                    max_size=full.n_rows,
                    unique=True,
                )
            )
            sub = full.take_rows(keep)
            for col in ("a", "b"):
                truth = len(set(sub.column_values(col)))
                assert sub.cardinality(col) == truth
                assert sub.distinct_count(col) == truth

        check()
