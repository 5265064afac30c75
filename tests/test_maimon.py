"""End-to-end tests for the Maimon facade."""

import pytest

from repro.core.budget import SearchBudget
from repro.core.maimon import Maimon
from repro.core.schema import Schema
from repro.reference import counting_oracle


class TestFig1EndToEnd:
    def test_discover_exact_schemas(self, fig1):
        maimon = Maimon(fig1)
        out = maimon.discover(0.0)
        assert out
        for ds in out:
            assert ds.j_measure == pytest.approx(0.0, abs=1e-6)
            assert ds.quality.spurious_pct == pytest.approx(0.0, abs=1e-9)
            assert ds.schema.attributes == frozenset(range(6))

    def test_mvd_cache_reused(self, fig1):
        maimon = Maimon(fig1)
        r1 = maimon.mine_mvds(0.0)
        r2 = maimon.mine_mvds(0.0)
        assert r1 is r2

    def test_budgeted_run_not_cached(self, fig1):
        maimon = Maimon(fig1)
        budget = SearchBudget(max_steps=1).start()
        budget.tick()
        partial = maimon.mine_mvds(0.1, budget=budget)
        assert partial.timed_out
        fresh = maimon.mine_mvds(0.1)
        assert not fresh.timed_out
        assert fresh.n_mvds >= partial.n_mvds

    def test_limit(self, fig1):
        maimon = Maimon(fig1)
        assert len(maimon.discover(0.0, limit=3)) == 3

    def test_max_j_filter(self, fig1_red):
        maimon = Maimon(fig1_red)
        eps = 0.4
        strict = maimon.discover(eps, max_j=eps)
        for ds in strict:
            assert ds.j_measure <= eps + 1e-9

    def test_discovered_schema_format(self, fig1):
        maimon = Maimon(fig1)
        ds = maimon.discover(0.0, limit=1)[0]
        text = ds.format(fig1.columns)
        assert "J=" in text and "S=" in text and "E=" in text

    def test_without_spurious(self, fig1):
        maimon = Maimon(fig1)
        ds = maimon.discover(0.0, limit=1, with_spurious=False)[0]
        assert ds.quality.spurious_pct is None


class TestRedTupleStory:
    """Section 2's narrative, end to end — with one correction.

    The paper's prose says that after adding the red tuple "the first two
    MVDs no longer hold, only A ->> F|BCDE still holds".  Direct computation
    (and the materialised join, see test_spurious.py) shows BD ->> E|ACF
    indeed fails, but AD ->> CF|BE *still holds exactly*: in the only
    non-singleton AD-group (a1, d2), the CF projection is constant.  The
    tests below assert the mathematically verified behaviour.
    """

    def test_bd_no_longer_a_separator(self, fig1_red):
        maimon = Maimon(fig1_red)
        exact = maimon.mine_mvds(0.0)
        assert all(phi.key != frozenset({1, 3}) for phi in exact.mvds)

    def test_fig1_schema_not_exact_but_refinement_is(self, fig1_red):
        maimon = Maimon(fig1_red)
        paper_schema = Schema(
            [
                frozenset({0, 5}),
                frozenset({0, 2, 3}),
                frozenset({0, 1, 3}),
                frozenset({1, 3, 4}),
            ]
        )
        assert paper_schema.j_measure(maimon.oracle) > 0.01
        exact_schemas = {ds.schema for ds in maimon.discover(0.0)}
        # AD ->> B|C|E|F still holds, so {ABD, ACD, ADE, AF} is exact.
        assert (
            Schema(
                [
                    frozenset({0, 1, 3}),
                    frozenset({0, 2, 3}),
                    frozenset({0, 3, 4}),
                    frozenset({0, 5}),
                ]
            )
            in exact_schemas
        )

    def test_approximation_recovers_paper_schema(self, fig1_red):
        """With eps > 0 the original Fig. 1 schema becomes admissible."""
        maimon = Maimon(fig1_red)
        paper_schema = Schema(
            [
                frozenset({0, 5}),
                frozenset({0, 2, 3}),
                frozenset({0, 1, 3}),
                frozenset({1, 3, 4}),
            ]
        )
        j = paper_schema.j_measure(maimon.oracle)
        assert 0 < j < 1.0
        # Its support MVDs are all eps-MVDs for eps = j (Corollary 5.2(1)).
        from repro.core.measures import satisfies

        for phi in paper_schema.support():
            assert satisfies(maimon.oracle, phi, j)


class TestEngines:
    def test_counting_reference_same_results(self, fig1):
        schemas_pli = {ds.schema for ds in Maimon(fig1, engine="pli").discover(0.0)}
        reference = Maimon(fig1, oracle=counting_oracle(fig1))
        assert schemas_pli == {ds.schema for ds in reference.discover(0.0)}

    def test_nursery_no_exact_decomposition(self, nursery_small):
        """Fig. 10(a): at J = 0 Nursery admits no decomposition (m = 1).

        The sampled subset keeps the class attribute's functional link to
        all eight inputs, so no exact MVD can exist."""
        maimon = Maimon(nursery_small)
        result = maimon.mine_mvds(0.0)
        assert result.n_mvds == 0
        out = maimon.discover(0.0)
        assert len(out) == 1
        assert out[0].schema.m == 1


class TestServingHooks:
    """The reuse/lifecycle hooks long-lived holders (repro.serve) rely on."""

    def test_counters_and_reset(self, fig1):
        with Maimon(fig1) as maimon:
            maimon.mine_mvds(0.0)
            counters = maimon.counters()
            assert counters["oracle.queries"] > 0
            assert 0 < counters["oracle.evals"] <= counters["oracle.queries"]
            # One flat namespace: every key is "group.counter".
            assert all("." in key for key in counters)
            maimon.reset_counters()
            reset = maimon.counters()
            assert set(reset) >= {"oracle.queries", "oracle.evals"}
            assert all(v == 0 for v in reset.values())
            # The memo survives the counter reset: re-mining is all hits.
            maimon.clear_cache()
            maimon.mine_mvds(0.0)
            after = maimon.counters()
            assert after["oracle.queries"] > 0 and after["oracle.evals"] == 0

    def test_clear_cache_forces_remine(self, fig1):
        maimon = Maimon(fig1)
        r1 = maimon.mine_mvds(0.0)
        maimon.clear_cache()
        r2 = maimon.mine_mvds(0.0)
        assert r1 is not r2
        assert r1.mvds == r2.mvds

    def test_budgeted_call_reuses_complete_cached_result(self, fig1):
        maimon = Maimon(fig1)
        full = maimon.mine_mvds(0.0)
        budget = SearchBudget(max_seconds=0).start()
        assert maimon.mine_mvds(0.0, budget=budget) is full
