"""Cross-module integration tests: the whole pipeline on planted data."""

import pytest

from repro.common import TOL
from repro.core.maimon import Maimon
from repro.core.schema import Schema
from repro.data.generators import decomposable, markov_tree
from repro.entropy.oracle import make_oracle
from repro.quality.metrics import storage_savings_pct
from repro.quality.spurious import spurious_tuple_count, spurious_tuple_pct
from repro.reference import counting_oracle


class TestPlantedSchemaRecovery:
    """Plant an exact acyclic schema; Maimon must recover it (or a
    refinement) at eps = 0."""

    @pytest.mark.parametrize(
        "bag_specs",
        [
            [["A", "B"], ["B", "C"]],
            [["A", "B"], ["B", "C"], ["C", "D"]],
            [["A", "B", "C"], ["C", "D"], ["C", "E"]],
        ],
    )
    def test_recovery(self, bag_specs):
        r = decomposable(bag_specs, 500, seed=13, domain_size=5)
        planted = Schema([frozenset(r.col_indices(b)) for b in bag_specs])
        maimon = Maimon(r)
        discovered = maimon.discover(0.0)
        assert discovered, "no exact schema found for decomposable data"
        # Every discovered schema is exact and lossless.
        for ds in discovered:
            assert ds.j_measure <= 1e-6
            assert spurious_tuple_count(r, ds.schema) == 0
        # Some discovered schema decomposes at least as finely as planted.
        best_m = max(ds.schema.m for ds in discovered)
        assert best_m >= planted.m
        best_width = min(
            ds.schema.width for ds in discovered if ds.schema.m >= planted.m
        )
        assert best_width <= planted.width

    def test_planted_j_zero(self):
        bag_specs = [["A", "B"], ["B", "C"], ["C", "D"]]
        r = decomposable(bag_specs, 400, seed=21)
        planted = Schema([frozenset(r.col_indices(b)) for b in bag_specs])
        o = make_oracle(r)
        assert planted.j_measure(o) == pytest.approx(0.0, abs=TOL)


class TestNoiseAndApproximation:
    """Noise destroys exact schemas; raising eps wins them back (the
    paper's core thesis)."""

    def test_noise_kills_exact_discovery(self):
        bag_specs = [["A", "B"], ["B", "C"], ["C", "D"]]
        noisy = decomposable(bag_specs, 300, seed=5, noise_rows=80)
        maimon = Maimon(noisy)
        exact_best = max((ds.schema.m for ds in maimon.discover(0.0)), default=1)
        approx_best = max(ds.schema.m for ds in maimon.discover(0.6, limit=40))
        assert approx_best >= exact_best
        assert approx_best >= 2  # approximation recovers a real decomposition

    def test_eps_monotone_schema_j(self):
        """Discovered schemas at small eps have smaller J than the extra
        ones admitted at larger eps (weak sanity check of thresholds)."""
        r = markov_tree(5, 600, seed=17, fd_fraction=0.0, determinism=0.9)
        maimon = Maimon(r)
        js_small = [ds.j_measure for ds in maimon.discover(0.01, limit=20)]
        js_large = [ds.j_measure for ds in maimon.discover(0.3, limit=20)]
        if js_small and js_large:
            assert min(js_small) <= min(js_large) + 1e-9
            assert max(js_large) >= max(js_small) - 1e-9


class TestTradeoffShape:
    """The S/E trade-off of Section 8.1: more decomposition -> more savings
    and (weakly) more spurious tuples."""

    def test_markov_tree_tradeoff(self):
        r = markov_tree(6, 800, seed=23, fd_fraction=0.3, determinism=0.9)
        maimon = Maimon(r)
        rows = []
        for eps in (0.0, 0.1, 0.4):
            for ds in maimon.discover(eps, limit=15):
                rows.append(
                    (
                        ds.schema.m,
                        storage_savings_pct(r, ds.schema),
                        spurious_tuple_pct(r, ds.schema),
                    )
                )
        assert rows
        singles = [row for row in rows if row[0] == 1]
        for _m, s, e in singles:
            assert s == pytest.approx(0.0)
            assert e == pytest.approx(0.0)
        multis = [row for row in rows if row[0] >= 3]
        if multis:
            # Fragmented schemas on tree-structured data compress.
            assert max(s for _, s, __ in multis) > 0


class TestConsistencyAcrossEngines:
    def test_pipeline_engine_invariance(self):
        r = markov_tree(5, 300, seed=31)
        out_pli = {ds.schema for ds in Maimon(r, engine="pli").discover(0.05, limit=25)}
        reference = Maimon(r, oracle=counting_oracle(r))
        out_reference = {ds.schema for ds in reference.discover(0.05, limit=25)}
        assert out_pli == out_reference

    def test_pipeline_optimization_invariance(self):
        r = markov_tree(5, 300, seed=37)
        out_opt = {
            ds.schema for ds in Maimon(r, optimized=True).discover(0.05, limit=25)
        }
        out_plain = {
            ds.schema for ds in Maimon(r, optimized=False).discover(0.05, limit=25)
        }
        assert out_opt == out_plain
