"""API-surface tests for the ``approx`` engine arm.

The engine itself (sampling, bounds, escalation) is covered by
``test_approx.py``; this module pins the *plumbing*: how the sampling
knobs flow through :class:`repro.api.specs.EngineSpec`,
:func:`repro.entropy.oracle.make_oracle`, the CLI flags, the serving
layer's session keying and :class:`repro.api.specs.DataSpec` sampling.
"""

import json

import pytest

from repro.api.specs import DataSpec, EngineSpec, SpecError
from repro.approx import ApproxEntropyEngine
from repro.approx.engine import (
    DEFAULT_CONFIDENCE,
    DEFAULT_SAMPLE_ROWS,
    DEFAULT_SAMPLE_SEED,
)
from repro.cli import build_parser, main
from repro.data.generators import paper_running_example
from repro.data.loaders import to_csv
from repro.entropy.estimators import EstimatedEntropyEngine
from repro.entropy.oracle import make_oracle
from tests.conftest import random_relation


@pytest.fixture
def fig1_csv(tmp_path):
    path = str(tmp_path / "fig1.csv")
    to_csv(paper_running_example(), path)
    return path


# --------------------------------------------------------------------- #
# EngineSpec validation
# --------------------------------------------------------------------- #


class TestEngineSpecValidation:
    def test_approx_spec_validates(self):
        spec = EngineSpec(engine="approx", sample_rows=5000,
                          confidence=0.9, sample_seed=3,
                          estimator="miller_madow")
        assert spec.validate() is spec

    def test_approx_defaults_are_none(self):
        spec = EngineSpec(engine="approx").validate()
        assert spec.sample_rows is None
        assert spec.confidence is None
        assert spec.sample_seed is None

    @pytest.mark.parametrize("field,value", [
        ("sample_rows", 1000),
        ("confidence", 0.9),
        ("sample_seed", 1),
    ])
    def test_sampling_knobs_rejected_for_pli(self, field, value):
        spec = EngineSpec(engine="pli", **{field: value})
        with pytest.raises(SpecError) as exc:
            spec.validate()
        assert exc.value.field == field
        assert "approx" in str(exc.value)

    def test_estimator_rejected_for_pli(self):
        with pytest.raises(SpecError) as exc:
            EngineSpec(engine="pli", estimator="miller_madow").validate()
        assert exc.value.field == "estimator"

    def test_estimator_allowed_for_approx(self):
        EngineSpec(engine="approx", estimator="jackknife").validate()

    def test_unknown_estimator_rejected(self):
        with pytest.raises(SpecError) as exc:
            EngineSpec(engine="approx", estimator="banana").validate()
        assert exc.value.field == "estimator"

    @pytest.mark.parametrize("field,value", [
        ("sample_rows", 0),
        ("sample_rows", -1),
        ("sample_rows", 1.5),
        ("sample_rows", True),
        ("confidence", 0.0),
        ("confidence", 1.0),
        ("confidence", -0.5),
        ("confidence", True),
        ("sample_seed", -1),
        ("sample_seed", 2.5),
    ])
    def test_bad_knob_values_rejected(self, field, value):
        with pytest.raises(SpecError) as exc:
            EngineSpec(engine="approx", **{field: value}).validate()
        assert exc.value.field == field

    @pytest.mark.parametrize("engine", ["pli", "approx"])
    def test_workers_allowed_with_every_engine(self, engine):
        # For approx, workers feed the exact escalation tier.
        EngineSpec(engine=engine, workers=2).validate()

    def test_round_trip_preserves_sampling_knobs(self):
        spec = EngineSpec(engine="approx", sample_rows=777,
                          confidence=0.99, sample_seed=5)
        again = EngineSpec.from_json(spec.to_json())
        assert again == spec


class TestEngineSpecFromRequest:
    def test_coerces_numeric_strings(self):
        spec = EngineSpec.from_request({
            "engine": "approx",
            "sample_rows": "5000",
            "confidence": "0.9",
            "sample_seed": "2",
        })
        assert spec.sample_rows == 5000
        assert spec.confidence == 0.9
        assert spec.sample_seed == 2

    def test_rejects_bool_sample_rows(self):
        with pytest.raises(SpecError) as exc:
            EngineSpec.from_request({"engine": "approx", "sample_rows": True})
        assert exc.value.field == "sample_rows"

    def test_rejects_fractional_sample_rows(self):
        with pytest.raises(SpecError) as exc:
            EngineSpec.from_request({"engine": "approx", "sample_rows": 10.5})
        assert exc.value.field == "sample_rows"

    def test_knobs_for_wrong_engine_rejected_after_merge(self):
        with pytest.raises(SpecError) as exc:
            EngineSpec.from_request({"engine": "pli", "sample_rows": 100})
        assert exc.value.field == "sample_rows"


class TestEngineSpecProvenance:
    def test_approx_resolves_defaults(self):
        prov = EngineSpec(engine="approx").provenance()
        assert prov["sample_rows"] == DEFAULT_SAMPLE_ROWS
        assert prov["confidence"] == DEFAULT_CONFIDENCE
        assert prov["sample_seed"] == DEFAULT_SAMPLE_SEED
        assert prov["estimator"] == "mle"

    def test_approx_keeps_explicit_knobs(self):
        prov = EngineSpec(engine="approx", sample_rows=123,
                          confidence=0.8, sample_seed=9).provenance()
        assert prov["sample_rows"] == 123
        assert prov["confidence"] == 0.8
        assert prov["sample_seed"] == 9

    def test_exact_engines_omit_sampling_knobs(self):
        prov = EngineSpec(engine="pli").provenance()
        for key in ("estimator", "sample_rows", "confidence", "sample_seed"):
            assert key not in prov


# --------------------------------------------------------------------- #
# make_oracle dispatch
# --------------------------------------------------------------------- #


class TestMakeOracleDispatch:
    def test_estimator_reaches_the_sample_tier(self):
        r = random_relation(3, 50, seed=1)
        oracle = make_oracle(r, engine="approx", estimator="miller_madow",
                             sample_rows=20)
        assert isinstance(oracle.engine, EstimatedEntropyEngine)
        assert oracle.engine.estimator == "miller_madow"

    def test_approx_arm(self):
        r = paper_running_example()
        oracle = make_oracle(r, engine="approx", sample_rows=4,
                             confidence=0.9, sample_seed=1)
        assert isinstance(oracle, ApproxEntropyEngine)
        assert oracle.relation is r

    def test_approx_arm_via_spec(self):
        r = paper_running_example()
        spec = EngineSpec(engine="approx", sample_rows=4)
        oracle = spec.make_oracle(r)
        assert isinstance(oracle, ApproxEntropyEngine)

    def test_sampling_knobs_with_pli_raise(self):
        r = paper_running_example()
        with pytest.raises(ValueError, match="sample_rows"):
            make_oracle(r, engine="pli", sample_rows=100)


# --------------------------------------------------------------------- #
# CLI flags -> spec
# --------------------------------------------------------------------- #


class TestCliFlags:
    def test_flags_parse(self):
        args = build_parser().parse_args([
            "mine", "x.csv", "--engine", "approx",
            "--sample-rows", "5000", "--confidence", "0.9",
            "--sample-seed", "3", "--estimator", "miller_madow",
        ])
        from repro.cli import _engine_spec

        spec = _engine_spec(args)
        assert spec.engine == "approx"
        assert spec.sample_rows == 5000
        assert spec.confidence == 0.9
        assert spec.sample_seed == 3
        assert spec.estimator == "miller_madow"

    def test_dump_config_round_trip(self, fig1_csv, tmp_path):
        cfg = str(tmp_path / "job.json")
        assert main([
            "mine", fig1_csv, "--engine", "approx",
            "--sample-rows", "6", "--confidence", "0.9",
            "--dump-config", cfg,
        ]) == 0
        data = json.loads(open(cfg).read())
        engine = data["engine"]
        assert engine["engine"] == "approx"
        assert engine["sample_rows"] == 6
        assert engine["confidence"] == 0.9

    def test_mine_with_approx_engine_runs(self, fig1_csv, capsys):
        assert main([
            "mine", fig1_csv, "--eps", "0.0",
            "--engine", "approx", "--sample-rows", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "->>" in out

    def test_data_sample_flags(self, fig1_csv, capsys):
        assert main([
            "mine", fig1_csv, "--eps", "0.0", "--sample", "6", "--seed", "1",
        ]) == 0

    def test_approx_bench_help_lists_knobs(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["approx-bench", "--help"])
        out = capsys.readouterr().out
        assert "--sample-rows" in out and "--confidence" in out


# --------------------------------------------------------------------- #
# Serving layer: session keying
# --------------------------------------------------------------------- #


class TestSessionKeying:
    def test_session_key_distinguishes_sampling_knobs(self):
        from repro.serve.session import SessionCache

        base = EngineSpec(engine="approx")
        keys = {
            SessionCache._session_key("d", base),
            SessionCache._session_key("d", base.replace(sample_rows=100)),
            SessionCache._session_key("d", base.replace(confidence=0.9)),
            SessionCache._session_key("d", base.replace(sample_seed=1)),
            SessionCache._session_key(
                "d", base.replace(estimator="miller_madow")),
        }
        assert len(keys) == 5

    def test_session_key_stable_for_equal_specs(self):
        from repro.serve.session import SessionCache

        a = EngineSpec(engine="approx", sample_rows=100)
        b = EngineSpec(engine="approx", sample_rows=100)
        assert (SessionCache._session_key("d", a)
                == SessionCache._session_key("d", b))


# --------------------------------------------------------------------- #
# DataSpec sampling
# --------------------------------------------------------------------- #


class TestDataSpecSampling:
    def test_sample_validation(self):
        DataSpec(dataset="Bridges", sample=100, seed=2).validate()
        with pytest.raises(SpecError) as exc:
            DataSpec(dataset="Bridges", sample=0).validate()
        assert exc.value.field == "sample"
        with pytest.raises(SpecError) as exc:
            DataSpec(dataset="Bridges", seed=-1).validate()
        assert exc.value.field == "seed"

    def test_seed_without_sample_rejected(self):
        with pytest.raises(SpecError) as exc:
            DataSpec(dataset="Bridges", seed=3).validate()
        assert exc.value.field == "seed"

    def test_load_applies_sample(self, fig1_csv):
        full = DataSpec(csv=fig1_csv).load()
        sampled = DataSpec(csv=fig1_csv, sample=4, seed=1).load()
        assert sampled.n_rows == 4
        assert sampled.n_cols == full.n_cols

    def test_load_sample_deterministic(self, fig1_csv):
        a = DataSpec(csv=fig1_csv, sample=4, seed=1).load()
        b = DataSpec(csv=fig1_csv, sample=4, seed=1).load()
        assert a.rows() == b.rows()

    def test_load_sample_ge_rows_is_full(self, fig1_csv):
        full = DataSpec(csv=fig1_csv).load()
        sampled = DataSpec(csv=fig1_csv, sample=10_000, seed=0).load()
        assert sampled.n_rows == full.n_rows
