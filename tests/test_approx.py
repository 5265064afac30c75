"""repro.approx: sampler determinism, interval coverage, escalation parity.

Three layers of assurance, mirroring the subsystem's structure:

* the **sampler** is deterministic, cached per relation fingerprint, and
  stratified allocation is proportional;
* the **bounds** cover the exact (full-relation) entropy / measure at no
  less than the stated confidence, measured empirically over many seeds
  (the statistical guarantee the engine's sample-side decisions rest on);
* the **engine** reproduces the exact miner's output bit-for-bit on the
  Table 2 surrogates — *with a deliberately small sample*, so the parity
  comes from escalation actually firing, not from the sample being the
  whole relation;
* its group-wise decision intervals match the row-wise reference
  (:func:`repro.reference.rowwise_interval`) on hypothesis relations, and
  so do whole runs of decisions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx.bounds import (
    bias_allowance,
    combine_interval,
    decision_interval,
    deviation_radius,
    entropy_interval,
)
from repro.approx.engine import ApproxEntropyEngine
from repro.approx.sampler import clear_sample_cache, get_sample, stratified_sample
from repro.common import TOL
from repro.core.maimon import Maimon
from repro.api.specs import EngineSpec
from repro.data import datasets
from repro.data.generators import markov_tree
from repro.data.relation import Relation
from repro.entropy.estimators import EntropySample, sample_moments
from repro.entropy.oracle import make_oracle
from repro.lattice import attrset
from repro.reference import rowwise_interval

from conftest import random_relation


# --------------------------------------------------------------------- #
# Sampler
# --------------------------------------------------------------------- #


class TestSampler:
    def setup_method(self):
        clear_sample_cache()

    def test_deterministic_and_cached(self):
        r = random_relation(4, 500, seed=3)
        a = get_sample(r, 100, seed=5)
        b = get_sample(r, 100, seed=5)
        assert a is b  # cache hit: same materialised object
        clear_sample_cache()
        c = get_sample(r, 100, seed=5)
        assert c is not a
        assert (c.codes == a.codes).all()  # but identical content

    def test_cache_keys_are_content_and_knobs(self):
        r = random_relation(4, 500, seed=3)
        same_content = r.take_rows(np.arange(r.n_rows))
        assert get_sample(r, 100, seed=5) is get_sample(same_content, 100, seed=5)
        assert get_sample(r, 100, seed=5) is not get_sample(r, 100, seed=6)
        assert get_sample(r, 100, seed=5) is not get_sample(r, 101, seed=5)

    def test_full_sample_is_copy(self):
        r = random_relation(3, 50, seed=1)
        s = get_sample(r, 500, seed=0)
        assert s is not r and s.n_rows == r.n_rows

    def test_stratified_proportional(self):
        # One dominant column value (~90%): proportional allocation must
        # keep roughly that share, and the draw must stay deterministic.
        rng = np.random.default_rng(0)
        col0 = (rng.random(2000) < 0.9).astype(np.int64)
        col1 = rng.integers(0, 50, size=2000)
        codes = np.stack([col0, col1], axis=1)
        r = Relation(codes, ["a", "b"], domains=None)
        s = stratified_sample(r, 200, seed=4, column=0)
        assert s.n_rows == 200
        share = (s.codes[:, 0] == col0.max()).mean()
        full_share = (col0 == col0.max()).mean()
        assert abs(share - full_share) < 0.02  # proportional, not lucky
        s2 = stratified_sample(r, 200, seed=4, column=0)
        assert (s.codes == s2.codes).all()

    def test_unknown_method_rejected(self):
        r = random_relation(3, 50, seed=1)
        with pytest.raises(ValueError, match="method"):
            get_sample(r, 10, method="bogus")


# --------------------------------------------------------------------- #
# Bounds: structural properties
# --------------------------------------------------------------------- #


entropy_samples = st.builds(
    EntropySample,
    value=st.floats(0.0, 20.0),
    h_mle=st.floats(0.0, 20.0),
    support=st.integers(1, 10_000),
    n=st.integers(2, 1_000_000),
    var=st.floats(0.0, 50.0),
)


class TestBoundsProperties:
    @given(entropy_samples, st.floats(1e-6, 0.5), st.floats(1e-6, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_radius_monotone_in_delta(self, s, d1, d2):
        lo_d, hi_d = sorted((d1, d2))
        for method in ("clt", "mcdiarmid"):
            # Smaller failure probability -> wider radius.
            assert deviation_radius(s, lo_d, method) >= deviation_radius(
                s, hi_d, method
            )

    @given(entropy_samples)
    @settings(max_examples=100, deadline=None)
    def test_bias_allowance_nonnegative_and_shrinks_in_n(self, s):
        b = bias_allowance(s)
        assert b >= 0.0
        bigger = EntropySample(s.value, s.h_mle, s.support, s.n * 2, s.var)
        assert bias_allowance(bigger) <= b

    @given(st.lists(st.tuples(entropy_samples, st.floats(-3, 3)), max_size=5),
           st.floats(1e-4, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_combine_contains_point_estimate(self, terms, delta):
        lo, hi = combine_interval(terms, delta)
        est = sum(c * s.value for s, c in terms)
        assert lo <= est + 1e-9 and est - 1e-9 <= hi

    @given(entropy_samples, st.floats(1e-4, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_entropy_interval_ordered_and_clamped(self, s, delta):
        lo, hi = entropy_interval(s, delta)
        assert 0.0 <= lo <= hi

    @given(st.floats(0, 10), st.floats(0, 20), st.integers(2, 10**6),
           st.floats(-1, 1), st.floats(1e-4, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_decision_interval_centres_on_corrected_estimate(
        self, est, var, n, mm, delta
    ):
        lo, hi = decision_interval(est, var, n, mm, delta)
        assert lo <= est + mm <= hi
        # Tightening confidence (smaller delta) can only widen it.
        lo2, hi2 = decision_interval(est, var, n, mm, delta / 2)
        assert lo2 <= lo and hi2 >= hi

    def test_bad_delta_rejected(self):
        s = EntropySample(1.0, 1.0, 4, 100, 1.0)
        with pytest.raises(ValueError, match="delta"):
            combine_interval([(s, 1.0)], 0.0)
        with pytest.raises(ValueError, match="method"):
            deviation_radius(s, 0.1, method="bogus")


# --------------------------------------------------------------------- #
# Bounds: empirical coverage of the exact value
# --------------------------------------------------------------------- #


class TestCoverage:
    CONFIDENCE = 0.90

    def test_entropy_interval_covers_exact(self):
        """Per-term H intervals cover the full-relation entropy >= 1-delta.

        200 independent (relation, sample-seed) draws; the empirical
        coverage rate must not undershoot the stated confidence by more
        than binomial noise (3 sigma ~ 0.06 at n=200, p=0.9).
        """
        delta = 1.0 - self.CONFIDENCE
        hits = trials = 0
        for seed in range(40):
            full = random_relation(4, 4000, seed=seed, max_domain=4)
            for sample_seed in range(5):
                sub = full.sample_rows(400, seed=sample_seed)
                for attrs in ({0, 1}, {0, 1, 2, 3}):
                    exact = make_oracle(full).entropy(attrs)
                    counts = sub.group_sizes(attrset(attrs))
                    s = sample_moments(counts, sub.n_rows)
                    lo, hi = entropy_interval(s, delta)
                    trials += 1
                    hits += lo - 1e-9 <= exact <= hi + 1e-9
        assert hits / trials >= self.CONFIDENCE - 0.06, (hits, trials)

    def test_decision_interval_covers_exact_mi(self):
        """Combination intervals cover the exact I(Y;Z|X) >= 1-delta."""
        delta = 1.0 - self.CONFIDENCE
        hits = trials = 0
        for seed in range(25):
            full = markov_tree(5, 5000, seed=seed, domain_size=3,
                               fd_fraction=0.4, determinism=0.9)
            exact = make_oracle(full)
            for sample_seed in range(4):
                engine = ApproxEntropyEngine(
                    full, sample_rows=500, confidence=self.CONFIDENCE,
                    sample_seed=sample_seed,
                )
                for (ys, zs, xs) in (({0}, {1}, {2}), ({3}, {4}, {0, 1})):
                    true_mi = exact.mutual_information(ys, zs, xs)
                    ym = attrset(ys).mask
                    zm = attrset(zs).mask
                    xm = attrset(xs).mask
                    lo, hi = engine._interval([
                        (xm | ym, 1.0), (xm | zm, 1.0),
                        (xm | ym | zm, -1.0), (xm, -1.0),
                    ])
                    trials += 1
                    hits += lo - 1e-9 <= true_mi <= hi + 1e-9
        assert hits / trials >= self.CONFIDENCE - 0.07, (hits, trials)


# --------------------------------------------------------------------- #
# Engine mechanics
# --------------------------------------------------------------------- #


class TestEngine:
    def test_exhaustive_sample_never_escalates(self):
        r = random_relation(4, 200, seed=2)
        eng = ApproxEntropyEngine(r, sample_rows=10_000)
        exact = make_oracle(r)
        for eps in (0.0, 0.05, 0.5):
            got = eng.mis_exceed([({0}, {1}, {2}), ({0}, {2}, ())], eps)
            want = exact.mis_exceed([({0}, {1}, {2}), ({0}, {2}, ())], eps)
            assert got == want
        assert eng.escalations == 0
        assert eng.exact_evals == 0

    def test_query_accounting_matches_exact_oracle(self):
        r = random_relation(4, 400, seed=5)
        eng = ApproxEntropyEngine(r, sample_rows=100)
        exact = make_oracle(r)
        triples = [({0}, {1}, {2}), ({1}, {3}, {0})]
        eng.mis_exceed(triples, 0.01)
        exact.mis_exceed(triples, 0.01)
        assert eng.queries == exact.queries  # 4 logical H's per decision

    def test_point_values_come_from_the_sample(self):
        r = random_relation(4, 1000, seed=6)
        eng = ApproxEntropyEngine(r, sample_rows=100, sample_seed=1)
        sampled = make_oracle(eng.sample)
        assert eng.entropy({0, 1}) == pytest.approx(sampled.entropy({0, 1}))

    def test_escalation_counter_and_exact_tier(self):
        r = markov_tree(5, 3000, seed=11, domain_size=3)
        eng = ApproxEntropyEngine(r, sample_rows=60, sample_seed=0)
        exact = make_oracle(r)
        triples = [
            ({a}, {b}, set(range(5)) - {a, b})
            for a in range(5) for b in range(a + 1, 5)
        ]
        got = eng.mis_exceed(triples, 0.0)
        want = exact.mis_exceed(triples, 0.0)
        assert got == want  # escalation preserves the exact verdicts
        assert eng.escalations > 0  # tiny sample: boundary cases exist
        assert eng.exact_evals > 0

    def test_saturated_sample_escalates(self):
        """Near-unique rows: the sample cannot certify any decision (the
        paper's N1 obstacle), so the saturation guard must escalate every
        comparison instead of trusting a degenerate interval."""
        r = random_relation(4, 300, seed=12, max_domain=50)
        eng = ApproxEntropyEngine(r, sample_rows=80, confidence=0.9)
        exact = make_oracle(r)
        triples = [({0}, {1}, {2}), ({1}, {2}, {3})]
        got = eng.mis_exceed(triples, 0.05)
        assert got == exact.mis_exceed(triples, 0.05)
        assert eng.escalations == len(triples)

    def test_delta_tracking_declined(self):
        r = random_relation(3, 100, seed=7)
        eng = ApproxEntropyEngine(r, sample_rows=10)
        eng.enable_delta_tracking()
        assert not eng.tracks_deltas

    def test_advance_resamples_and_resets(self):
        full = random_relation(3, 400, seed=8)
        head = full.head(200)
        eng = ApproxEntropyEngine(head, sample_rows=50, sample_seed=2)
        eng.entropy({0, 1})
        old_sample = eng.sample
        stats = eng.advance(full)
        assert stats["dropped"] >= 1
        assert eng.sample is not old_sample
        assert eng.relation is full
        fresh = ApproxEntropyEngine(full, sample_rows=50, sample_seed=2)
        assert eng.entropy({0, 1}) == pytest.approx(fresh.entropy({0, 1}))

    def test_constructor_validation(self):
        r = random_relation(3, 50, seed=9)
        with pytest.raises(ValueError, match="confidence"):
            ApproxEntropyEngine(r, confidence=1.5)
        with pytest.raises(ValueError, match="sample_rows"):
            ApproxEntropyEngine(r, sample_rows=0)
        with pytest.raises(ValueError, match="bound"):
            ApproxEntropyEngine(r, bound="bogus")


# --------------------------------------------------------------------- #
# Group-wise intervals against the row-wise reference
# --------------------------------------------------------------------- #


class RowwiseApproxEngine(ApproxEntropyEngine):
    """The engine with :func:`rowwise_interval` as its interval.

    Each term still goes through ``_stats_of``, so queries and evals are
    counted as the group-wise engine counts them."""

    def _interval_full(self, terms):
        for m, _ in terms:
            self._stats_of(m)
        return rowwise_interval(self.sample, terms, self._delta, self.bound)


def _mi_terms(ym, zm, xm):
    return [(xm | ym, 1.0), (xm | zm, 1.0), (xm | ym | zm, -1.0), (xm, -1.0)]


def _j_terms(key, deps):
    everything = key
    for dm in deps:
        everything |= dm
    terms = [(key | dm, 1.0) for dm in deps]
    return terms + [(key, -(len(deps) - 1.0)), (everything, -1.0)]


def _split(rng, n_cols, parts, empty_first):
    """``parts`` disjoint masks over the columns; all but the first
    non-empty (None when the columns do not stretch that far)."""
    owner = rng.integers(0, parts + 1, size=n_cols)  # ``parts`` = unused
    if empty_first:
        owner[owner == 0] = parts
    masks = [0] * parts
    for j, o in enumerate(owner):
        if o < parts:
            masks[o] |= 1 << j
    if not all(masks[1:]):
        return None
    return masks


def _decisions(rng, n_cols, count):
    """Random ``mis_exceed`` batches and ``j_le`` calls, with repeats."""
    pool = []
    while len(pool) < count:
        empty = rng.random() < 0.3  # empty X / empty key
        eps = float(rng.choice([0.0, 0.01, 0.1, 0.5]))
        if rng.random() < 0.5:
            triples = []
            for _ in range(int(rng.integers(1, 4))):
                masks = _split(rng, n_cols, 3, empty)
                if masks is not None:
                    xm, ym, zm = masks
                    triples.append((ym, zm, xm))
            if triples:
                pool.append(("mi", triples, eps))
        else:
            masks = _split(rng, n_cols, int(rng.integers(3, 5)), empty)
            if masks is not None:
                pool.append(("j", (masks[0], masks[1:]), eps))
    picks = rng.integers(0, len(pool), size=count + count // 2)
    return [pool[i] for i in picks]


def _bits(m):
    return {j for j in range(m.bit_length()) if m >> j & 1}


@st.composite
def approx_setups(draw):
    """A relation of <= 7 attributes with duplicate rows, a sample size
    (down to one row) and the interval knobs."""
    n_cols = draw(st.integers(2, 7))
    shape = draw(st.sampled_from(["sampled", "tiny", "one-row"]))
    seed = draw(st.integers(0, 2**32 - 1))
    bound = draw(st.sampled_from(["clt", "mcdiarmid"]))
    confidence = draw(st.sampled_from([0.95, 0.9, 0.5]))
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(2, 13) if shape == "tiny" else rng.integers(40, 401))
    if shape == "one-row":
        sample_rows = 1
    else:
        sample_rows = int(rng.integers(max(1, n_rows // 4), n_rows))
    distinct = int(rng.integers(1, 13))
    domains = rng.integers(1, 5, size=n_cols)
    base = rng.integers(0, domains, size=(distinct, n_cols))
    codes = base[rng.integers(0, distinct, size=n_rows)]
    relation = Relation.from_codes(codes)
    return relation, sample_rows, seed, bound, confidence


class TestGroupwiseInterval:
    """``_interval_full`` against the row-wise reference, then whole runs
    of decisions on a row-wise engine.  Small samples of few distinct
    rows cover unequal group weights, saturated and unsaturated terms,
    empty X / key masks and the 1-row sample."""

    @given(approx_setups())
    @settings(max_examples=80, deadline=None)
    def test_matches_rowwise_reference(self, setup):
        relation, k, seed, bound, confidence = setup
        clear_sample_cache()
        eng = ApproxEntropyEngine(relation, sample_rows=k, confidence=confidence,
                                  sample_seed=seed % 7, bound=bound)
        rng = np.random.default_rng(seed)
        for kind, args, _ in _decisions(rng, relation.n_cols, 8):
            if kind == "mi":
                all_terms = [_mi_terms(*t) for t in args]
            else:
                all_terms = [_j_terms(*args)]
            for terms in all_terms:
                got = eng._interval_full(terms)
                want = rowwise_interval(eng.sample, terms, eng._delta, bound)
                assert got[2] == want[2], (terms, got, want)
                assert got[0] == pytest.approx(want[0], rel=0, abs=1e-9), terms
                assert got[1] == pytest.approx(want[1], rel=0, abs=1e-9), terms

    @given(approx_setups())
    @settings(max_examples=60, deadline=None)
    def test_decision_runs_match_rowwise_engine(self, setup):
        relation, k, seed, bound, confidence = setup
        clear_sample_cache()
        knobs = dict(sample_rows=k, confidence=confidence,
                     sample_seed=seed % 7, bound=bound)
        eng = ApproxEntropyEngine(relation, **knobs)
        ref = RowwiseApproxEngine(relation, **knobs)
        rng = np.random.default_rng(seed)
        for kind, args, eps in _decisions(rng, relation.n_cols, 10):
            threshold = eps + TOL
            if kind == "mi":
                all_terms = [_mi_terms(*t) for t in args]
            else:
                all_terms = [_j_terms(*args)]
            for terms in all_terms:
                lo, hi, _ = rowwise_interval(eng.sample, terms, eng._delta, bound)
                if min(abs(max(0.0, lo) - threshold), abs(hi - threshold)) < 1e-9:
                    return  # a float-rounding tie may decide either way
            if kind == "mi":
                triples = [(_bits(y), _bits(z), _bits(x)) for y, z, x in args]
                got = eng.mis_exceed(triples, eps)
                want = ref.mis_exceed(triples, eps)
            else:
                got = eng.j_le(args[0], args[1], eps)
                want = ref.j_le(args[0], args[1], eps)
            assert got == want, (kind, args, eps)
            assert (eng.queries, eng.evals, eng.escalations) == (
                ref.queries, ref.evals, ref.escalations)


# --------------------------------------------------------------------- #
# Groupings of the packed sample's tuples against its rows
# --------------------------------------------------------------------- #


def _record_intervals(engine):
    """Log every ``_interval_full`` result of ``engine``."""
    log = []
    inner = engine._interval_full

    def recorded(terms):
        out = inner(terms)
        log.append(out)
        return out

    engine._interval_full = recorded
    return log


def _tally(engine):
    return (engine.queries, engine.evals, engine.escalations, engine.exact_evals)


class TestPackedSample:
    """A sample whose counter packs is grouped over its distinct tuples;
    every interval, verdict and counter equals the one grouped over its
    rows (the same engine with the sample counter's ``_packed = False``).
    Each engine gets its own sample object, so the two counters are
    separate."""

    @given(approx_setups())
    @settings(max_examples=60, deadline=None)
    def test_intervals_equal_row_groupings(self, setup):
        relation, k, seed, bound, confidence = setup
        knobs = dict(sample_rows=k, confidence=confidence,
                     sample_seed=seed % 7, bound=bound)
        clear_sample_cache()
        eng = ApproxEntropyEngine(relation, **knobs)
        clear_sample_cache()
        ref = ApproxEntropyEngine(relation, **knobs)
        ref.sample.kernels._packed = False
        got, want = _record_intervals(eng), _record_intervals(ref)
        rng = np.random.default_rng(seed)
        for kind, args, eps in _decisions(rng, relation.n_cols, 10):
            if kind == "mi":
                triples = [(_bits(y), _bits(z), _bits(x)) for y, z, x in args]
                assert eng.mis_exceed(triples, eps) == ref.mis_exceed(triples, eps)
            else:
                assert eng.j_le(args[0], args[1], eps) == ref.j_le(args[0], args[1], eps)
            assert got == want, (kind, args, eps)
            assert _tally(eng) == _tally(ref)

    def test_tall_mine_equals_row_groupings(self):
        relation = markov_tree(8, 60_000, seed=3)
        spec = EngineSpec(engine="approx", sample_rows=12_000)
        clear_sample_cache()
        packed = Maimon(relation, spec=spec)
        clear_sample_cache()
        rows = Maimon(relation, spec=spec)
        rows.oracle.sample.kernels._packed = False
        got, want = _record_intervals(packed.oracle), _record_intervals(rows.oracle)
        a, b = packed.mine_mvds(0.1), rows.mine_mvds(0.1)
        sample = packed.oracle.sample.kernels
        assert sample._packed and sample._packed.tuples.n_rows * 10 < sample.n_rows
        assert sorted(a.mvds) == sorted(b.mvds)
        assert a.min_seps == b.min_seps
        assert len(got) > 500 and got == want
        assert _tally(packed.oracle) == _tally(rows.oracle)
        assert packed.oracle.escalations > 0


# --------------------------------------------------------------------- #
# Golden parity on the Table 2 surrogates
# --------------------------------------------------------------------- #


class TestGoldenParity:
    @pytest.mark.parametrize("name,eps", [
        ("Bridges", 0.1),
        ("Breast_Cancer", 0.05),
        ("Abalone", 0.1),
    ])
    def test_minsep_and_mvd_parity_with_small_sample(self, name, eps):
        """engine='approx' with a *small* sample reproduces exact mining.

        sample_rows is far below the relation size, so agreement cannot
        come from the sample covering the data — the interval logic (and,
        at these tiny samples, the saturation guard: supports approach the
        sample size, so most decisions are not sample-certifiable) must
        route boundary decisions to escalation.  The nonzero escalation
        counter asserts the exact tier really was exercised.  Columns are
        capped because *exact* full-MVD search at these ε values blows up
        combinatorially on the wide surrogates — a property of the search
        space, not of sampling.
        """
        relation = datasets.load(name, scale=1.0, max_rows=1200, max_cols=7)
        exact = Maimon(relation)
        want = exact.mine_mvds(eps)
        approx = Maimon(relation, spec=EngineSpec(
            engine="approx", sample_rows=max(60, relation.n_rows // 10),
            confidence=0.9,
        ))
        got = approx.mine_mvds(eps)
        assert sorted(want.mvds) == sorted(got.mvds)
        assert {p: sorted(v) for p, v in want.min_seps.items()} == \
               {p: sorted(v) for p, v in got.min_seps.items()}
        counters = approx.counters()
        assert counters["approx.escalations"] > 0
        assert counters["approx.exact_evals"] > 0
