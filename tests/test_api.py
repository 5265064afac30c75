"""Tests for the declarative request API (:mod:`repro.api`).

Three layers of guarantees:

1. **Round-trips** — hypothesis property tests pin
   ``from_dict(to_dict(spec)) == spec`` (through a real JSON encode) for
   every spec and for the :class:`~repro.api.TaskRequest` envelope.
2. **Validation in one place** — engine/knob combos that used to be
   silently ignored now fail with clear, field-naming errors at every
   entry point (specs, ``Maimon``, ``make_oracle``, the serving layer's
   structured 400s, the CLI's ``SystemExit``).
3. **Golden parity** — the same spec executed through the library
   (``api.run``), the CLI (``--json``) and HTTP (``POST /<task>``)
   yields byte-identical artefacts (modulo the wall-clock field),
   stamped with the same resolved spec and relation fingerprint.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.api import (
    DataSpec,
    DiffSpec,
    EngineSpec,
    MineSpec,
    ProfileSpec,
    SchemasSpec,
    SpecError,
    TaskRequest,
)
from repro.cli import main
from repro.core.maimon import Maimon
from repro.data.generators import paper_running_example
from repro.data.loaders import to_csv


@pytest.fixture
def fig1_csv(tmp_path):
    path = str(tmp_path / "fig1.csv")
    to_csv(paper_running_example(), path)
    return path


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #

_budgets = st.none() | st.floats(min_value=0, max_value=1e6, allow_nan=False)
_eps = st.floats(min_value=0, max_value=10, allow_nan=False)
_tops = st.integers(min_value=0, max_value=100)

engine_specs = st.builds(
    EngineSpec,
    engine=st.sampled_from(api.ENGINES),
    persist=st.booleans(),
    cache_dir=st.none() | st.text(min_size=1, max_size=24),
    track_deltas=st.booleans(),
)

#: Engine specs that also pass validate() (for TaskRequest round-trips).
valid_engine_specs = st.builds(
    EngineSpec,
    persist=st.booleans(),
).map(lambda s: s if s.persist else s.replace(cache_dir=None))

data_specs = st.one_of(
    st.builds(DataSpec, csv=st.text(min_size=1, max_size=40),
              max_rows=st.none() | st.integers(min_value=1, max_value=10**6)),
    st.builds(DataSpec, dataset=st.sampled_from(["Image", "Bridges", "Census"]),
              scale=st.floats(min_value=1e-3, max_value=2.0, allow_nan=False)),
)

mine_specs = st.builds(MineSpec, eps=_eps, budget=_budgets, top=_tops)
schemas_specs = st.builds(
    SchemasSpec, eps=_eps, budget=_budgets, top=_tops,
    objective=st.sampled_from(["balanced", "relations", "width", "savings"]),
    spurious=st.booleans(),
)
profile_specs = st.builds(
    ProfileSpec, fd_lhs=st.integers(min_value=1, max_value=6), budget=_budgets
)
diff_specs = st.builds(
    DiffSpec, top=_tops,
    tol=st.floats(min_value=0, max_value=1.0, allow_nan=False),
)


# --------------------------------------------------------------------- #
# Round-trips
# --------------------------------------------------------------------- #

class TestRoundTrips:
    @settings(max_examples=60)
    @given(spec=st.one_of(engine_specs, data_specs, mine_specs,
                          schemas_specs, profile_specs, diff_specs))
    def test_dict_roundtrip_through_json(self, spec):
        """from_dict(to_dict(spec)) == spec, across a real JSON encode."""
        wire = json.loads(json.dumps(spec.to_dict(), sort_keys=True))
        assert type(spec).from_dict(wire) == spec

    @settings(max_examples=60)
    @given(spec=st.one_of(engine_specs, mine_specs, schemas_specs,
                          profile_specs, diff_specs))
    def test_json_roundtrip(self, spec):
        assert type(spec).from_json(spec.to_json()) == spec

    @settings(max_examples=40)
    @given(
        engine=valid_engine_specs,
        task_and_spec=st.one_of(
            st.tuples(st.just("mine"), mine_specs),
            st.tuples(st.just("schemas"), schemas_specs),
            st.tuples(st.just("profile"), profile_specs),
        ),
        data=st.none() | data_specs,
    )
    def test_task_request_roundtrip(self, engine, task_and_spec, data):
        task, spec = task_and_spec
        request = TaskRequest(task=task, spec=spec, engine=engine, data=data)
        wire = json.loads(json.dumps(request.to_dict(), sort_keys=True))
        assert TaskRequest.from_dict(wire) == request

    def test_from_dict_defaults_missing_fields(self):
        assert MineSpec.from_dict({}) == MineSpec()
        assert EngineSpec.from_dict({"persist": True}) == EngineSpec(persist=True)


# --------------------------------------------------------------------- #
# Validation — one place, clear errors, every entry point
# --------------------------------------------------------------------- #

class TestValidation:
    def test_sampling_knobs_require_approx(self):
        with pytest.raises(SpecError, match="sample_rows"):
            EngineSpec(engine="pli", sample_rows=100).validate()
        with pytest.raises(SpecError, match="confidence"):
            EngineSpec(engine="pli", persist=True, confidence=0.9).validate()

    def test_cache_dir_requires_persist(self):
        with pytest.raises(SpecError, match="cache_dir"):
            EngineSpec(persist=False, cache_dir="/tmp/x").validate()
        EngineSpec(persist=True, cache_dir="/tmp/x").validate()

    def test_unknown_engine(self):
        with pytest.raises(SpecError, match="engine"):
            EngineSpec(engine="bogus").validate()

    def test_maimon_and_make_oracle_shims_validate(self, fig1):
        from repro.entropy.oracle import make_oracle

        with pytest.raises(SpecError, match="engine"):
            Maimon(fig1, engine="naive")
        with pytest.raises(SpecError, match="sample_rows"):
            make_oracle(fig1, engine="pli", sample_rows=100)
        with pytest.raises(SpecError, match="cache_dir"):
            Maimon(fig1, persist=False, cache_dir="/tmp/x")

    def test_maimon_records_its_spec(self, fig1):
        maimon = Maimon(fig1, engine="pli")
        assert maimon.spec == EngineSpec()
        maimon.close()

    def test_task_spec_field_errors(self):
        with pytest.raises(SpecError, match="eps"):
            MineSpec(eps=-1).validate()
        with pytest.raises(SpecError, match="budget"):
            MineSpec(budget=-5).validate()
        with pytest.raises(SpecError, match="objective"):
            SchemasSpec(objective="bogus").validate()
        with pytest.raises(SpecError, match="fd_lhs"):
            ProfileSpec(fd_lhs=0).validate()
        with pytest.raises(SpecError, match="csv"):
            DataSpec().validate()
        with pytest.raises(SpecError, match="csv"):
            DataSpec(csv="a.csv", dataset="Image").validate()

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="epz"):
            MineSpec.from_dict({"epz": 0.1})
        with pytest.raises(SpecError, match="unknown field"):
            EngineSpec.from_dict({"enginez": "pli"})
        with pytest.raises(SpecError, match="task"):
            TaskRequest.from_dict({"task": "bogus"})

    def test_spec_error_names_the_field(self):
        with pytest.raises(SpecError) as err:
            EngineSpec(engine="pli", sample_rows=100).validate()
        assert err.value.field == "sample_rows"

    def test_serve_rejects_invalid_specs_structurally(self, fig1):
        """The serving layer turns SpecError into a structured 400."""
        from repro.serve import MiningService, ServiceError

        with MiningService() as service:
            ds = service.registry.add(fig1)
            for payload, field in [
                ({"sample_rows": 100}, "sample_rows"),
                ({"eps": -1}, "eps"),
                ({"sample_seed": "abc"}, "sample_seed"),
                ({"eps": True}, "eps"),       # bools never coerce to numbers
                ({"sample_rows": 2.9}, "sample_rows"),  # no silent truncation
            ]:
                with pytest.raises(ServiceError) as err:
                    service.submit_mine(
                        {"dataset_id": ds.dataset_id, **payload}
                    )
                assert err.value.status == 400
                assert err.value.extra["code"] == "invalid_spec"
                assert err.value.extra["field"] == field

    def test_serve_rejects_client_supplied_cache_dir(self, fig1, tmp_path):
        """cache_dir is server-owned: a remote client must not be able to
        point the service's cache writes at an arbitrary path."""
        from repro.serve import MiningService, ServiceError

        with MiningService() as service:
            ds = service.registry.add(fig1)
            with pytest.raises(ServiceError) as err:
                service.submit_mine({
                    "dataset_id": ds.dataset_id,
                    "persist": True,
                    "cache_dir": str(tmp_path / "attacker"),
                })
            assert err.value.status == 400
            assert err.value.extra["field"] == "cache_dir"

    def test_from_request_rejects_stringly_typed_persist(self):
        """bool('false') is True — strings must be rejected, not coerced
        into silently enabling server disk writes."""
        with pytest.raises(SpecError, match="persist"):
            EngineSpec.from_request({"persist": "false"})
        assert EngineSpec.from_request({"persist": False}).persist is False

    def test_cli_config_errors_are_clean(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["mine", "--config", str(tmp_path / "missing.json")])
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["mine", "--config", str(bad)])

    def test_cli_rejects_invalid_combo_with_clear_error(self, fig1_csv):
        with pytest.raises(SystemExit, match="sample_rows") as err:
            main(["mine", fig1_csv, "--sample-rows", "100"])
        assert err.value.code == 2
        with pytest.raises(SystemExit, match="cache_dir"):
            main(["mine", fig1_csv, "--no-persist", "--cache-dir", "/tmp/x"])


#: Engine knobs removed from the request contract, as a config file or an
#: HTTP body might still carry them: (engine fields, offending field).
REMOVED_KNOBS = [
    ({"block_size": 10}, "block_size"),
    ({"engine": "naive"}, "engine"),
    ({"workers": 2}, "workers"),
]


class TestRemovedEngineKnobs:
    """Knobs of the deleted engine arms fail loudly at every front door."""

    @pytest.mark.parametrize("engine,field", REMOVED_KNOBS)
    def test_library_names_the_field(self, engine, field):
        data = {"task": "mine", "spec": {"eps": 0.0}, "engine": engine}
        with pytest.raises(SpecError) as err:
            TaskRequest.from_dict(data).validate()
        assert err.value.field == field

    @pytest.mark.parametrize("engine,field", REMOVED_KNOBS)
    def test_cli_config_exits_2(self, fig1_csv, tmp_path, engine, field):
        config = tmp_path / "job.json"
        config.write_text(json.dumps({
            "task": "mine", "spec": {"eps": 0.0}, "engine": engine,
            "data": {"csv": fig1_csv},
        }))
        with pytest.raises(SystemExit, match=field) as err:
            main(["mine", "--config", str(config)])
        assert err.value.code == 2

    @pytest.mark.parametrize("engine,field", REMOVED_KNOBS)
    def test_http_body_is_a_structured_400(self, served, engine, field):
        import urllib.error
        import urllib.request

        body = json.dumps({"dataset_id": served["dataset_id"], **engine})
        req = urllib.request.Request(
            f"http://127.0.0.1:{served['port']}/mine",
            data=body.encode("utf-8"),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=60)
        assert err.value.code == 400
        reply = json.loads(err.value.read().decode("utf-8"))
        assert reply["code"] == "invalid_spec"
        assert reply["field"] == field


# --------------------------------------------------------------------- #
# The runner + envelopes
# --------------------------------------------------------------------- #

class TestRunner:
    def test_run_resolves_data_spec(self, fig1_csv):
        request = TaskRequest(
            task="mine", spec=MineSpec(eps=0.0),
            engine=EngineSpec(),
            data=DataSpec(csv=fig1_csv),
        )
        result = api.run(request)
        assert result.task == "mine"
        assert result.payload["mvds"]
        assert result.payload["fingerprint"] == result.fingerprint
        assert result.payload["spec"] == request.provenance()
        assert result.counters["oracle.queries"] > 0
        assert result.raw.mvds  # the in-memory MinerResult rides along

    def test_result_envelope_to_dict(self, fig1):
        result = api.run(
            TaskRequest(task="profile", spec=ProfileSpec()), relation=fig1
        )
        wire = result.to_dict()
        assert wire["task"] == "profile"
        assert wire["payload"] == result.payload
        assert "raw" not in wire
        assert TaskRequest.from_dict(wire["request"]) == result.request

    def test_run_requires_some_data(self):
        with pytest.raises(SpecError, match="data"):
            api.run(TaskRequest(task="mine", spec=MineSpec()))

    def test_execute_task_rejects_mismatched_spec(self, fig1):
        with Maimon(fig1) as maimon:
            with pytest.raises(SpecError, match="MineSpec"):
                api.execute_task("mine", maimon, SchemasSpec())

    def test_provenance_excludes_content_irrelevant_knobs(self, fig1):
        request = TaskRequest(
            task="mine", spec=MineSpec(top=5),
            engine=EngineSpec(track_deltas=True, persist=True,
                              cache_dir="/somewhere/host/local"),
            data=DataSpec(csv="somewhere.csv"),
        )
        prov = request.provenance()
        assert "data" not in prov  # the fingerprint stands in for the input
        assert "track_deltas" not in prov["engine"]  # session-lifetime knob
        assert "cache_dir" not in prov["engine"]  # host-local path
        assert "persist" not in prov["engine"]  # caching knob, not content
        assert "top" not in prov["mine"]  # listing cap; artefact is full

    def test_identical_results_stamp_identically(self, fig1_csv, tmp_path):
        """Knobs that cannot change the artefact must not change the stamp.

        ``--top`` caps only the human listing and ``--cache-dir`` only
        locates the cache, so runs differing in them produce byte-identical
        artefacts (and ``repro diff`` stays quiet on them).
        """
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["mine", fig1_csv, "--top", "5", "--no-persist",
                     "--json", a]) == 0
        assert main(["mine", fig1_csv, "--top", "20", "--no-persist",
                     "--json", b]) == 0
        assert _strip_clock(json.load(open(a))) == _strip_clock(json.load(open(b)))

        c, d = str(tmp_path / "c.json"), str(tmp_path / "d.json")
        assert main(["mine", fig1_csv, "--cache-dir",
                     str(tmp_path / "cache1"), "--json", c]) == 0
        assert main(["mine", fig1_csv, "--cache-dir",
                     str(tmp_path / "cache2"), "--json", d]) == 0
        assert _strip_clock(json.load(open(c))) == _strip_clock(json.load(open(d)))
        # persist on (c) vs off (a) likewise never changes the stamp
        assert _strip_clock(json.load(open(a))) == _strip_clock(json.load(open(c)))


# --------------------------------------------------------------------- #
# Golden three-way parity: library == CLI == HTTP, byte for byte
# --------------------------------------------------------------------- #

def _strip_clock(payload: dict) -> dict:
    out = dict(payload)
    out.pop("elapsed", None)
    return out


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A background ``repro serve`` with the running example uploaded."""
    from repro.serve import MiningService, ServeClient, start_background

    csv_path = str(tmp_path_factory.mktemp("parity") / "fig1.csv")
    to_csv(paper_running_example(), csv_path)
    service = MiningService(max_request_seconds=60)
    server, _ = start_background(service)
    client = ServeClient(
        f"http://127.0.0.1:{server.server_port}", timeout=120
    )
    ds = client.upload_csv(path=csv_path)
    yield {"client": client, "dataset_id": ds["dataset_id"],
           "csv": csv_path, "port": server.server_port}
    server.close()


class TestGoldenParity:
    def _three_way(self, served, request, cli_args, tmp_path):
        """Run one request through all three front doors; return payloads."""
        lib = api.run(request.replace(data=DataSpec(csv=served["csv"]))
                      if request.data is None else request).payload
        out = str(tmp_path / "cli.json")
        assert main([*cli_args, "--json", out]) == 0
        with open(out) as f:
            cli = json.load(f)
        resp = served["client"].run_request(request, served["dataset_id"])
        assert resp["status"] == "done"
        return lib, cli, resp["result"]

    def test_schemas_three_way_byte_identical(self, served, tmp_path):
        spec = SchemasSpec(eps=0.0, top=3, objective="relations", budget=20.0)
        request = TaskRequest(task="schemas", spec=spec, engine=EngineSpec())
        lib, cli, http = self._three_way(
            served, request,
            ["schemas", served["csv"], "--eps", "0.0", "--top", "3",
             "--objective", "relations", "--budget", "20.0", "--no-persist"],
            tmp_path,
        )
        assert json.dumps(lib, sort_keys=True) == json.dumps(cli, sort_keys=True)
        assert json.dumps(lib, sort_keys=True) == json.dumps(http, sort_keys=True)
        assert lib["spec"]["task"] == "schemas"
        assert lib["fingerprint"] == served["dataset_id"]

    def test_mine_three_way_identical_modulo_clock(self, served, tmp_path):
        request = TaskRequest(task="mine", spec=MineSpec(eps=0.0))
        lib, cli, http = self._three_way(
            served, request,
            ["mine", served["csv"], "--eps", "0.0", "--no-persist"],
            tmp_path,
        )
        assert _strip_clock(lib) == _strip_clock(cli) == _strip_clock(http)

    def test_profile_three_way_byte_identical(self, served, tmp_path):
        request = TaskRequest(task="profile", spec=ProfileSpec())
        lib, cli, http = self._three_way(
            served, request,
            ["profile", served["csv"], "--no-persist"],
            tmp_path,
        )
        assert json.dumps(lib, sort_keys=True) == json.dumps(cli, sort_keys=True)
        assert json.dumps(lib, sort_keys=True) == json.dumps(http, sort_keys=True)


# --------------------------------------------------------------------- #
# CLI config round-trip (--dump-config / --config)
# --------------------------------------------------------------------- #

class TestConfigRoundTrip:
    def test_dump_then_run_matches_direct(self, fig1_csv, tmp_path):
        job = str(tmp_path / "job.json")
        flags = ["schemas", fig1_csv, "--eps", "0.0", "--top", "3",
                 "--objective", "relations", "--no-persist"]
        assert main([*flags, "--dump-config", job]) == 0
        request = TaskRequest.from_dict(json.load(open(job)))
        assert request.task == "schemas"
        assert request.spec.objective == "relations"
        assert request.data.csv == fig1_csv

        direct = str(tmp_path / "direct.json")
        assert main([*flags, "--json", direct]) == 0
        from_config = str(tmp_path / "from_config.json")
        assert main(["schemas", "--config", job, "--json", from_config]) == 0
        assert json.load(open(direct)) == json.load(open(from_config))

    def test_dump_config_does_not_run(self, fig1_csv, tmp_path, capsys):
        job = str(tmp_path / "job.json")
        assert main(["mine", fig1_csv, "--dump-config", job]) == 0
        out = capsys.readouterr().out
        assert "full MVDs" not in out  # no mining happened
        assert json.load(open(job))["task"] == "mine"

    def test_config_task_mismatch_is_an_error(self, fig1_csv, tmp_path):
        job = str(tmp_path / "job.json")
        assert main(["mine", fig1_csv, "--dump-config", job]) == 0
        with pytest.raises(SystemExit, match="mine"):
            main(["schemas", "--config", job])

    def test_config_conflicting_flags_are_an_error(self, fig1_csv, tmp_path):
        """--config replaces the request — flags alongside it would be
        silently ignored, so they are rejected loudly instead."""
        job = str(tmp_path / "job.json")
        assert main(["mine", fig1_csv, "--dump-config", job]) == 0
        with pytest.raises(SystemExit, match="eps"):
            main(["mine", "--config", job, "--eps", "0.5"])
        with pytest.raises(SystemExit, match="csv"):
            main(["mine", fig1_csv, "--config", job])
        # display-only flags still combine fine
        out = str(tmp_path / "out.json")
        assert main(["mine", "--config", job, "--json", out]) == 0


# --------------------------------------------------------------------- #
# repro diff surfaces spec mismatches
# --------------------------------------------------------------------- #

class TestDiffProvenance:
    def _artefact(self, csv, tmp_path, name, *extra):
        out = str(tmp_path / name)
        assert main(["mine", csv, "--no-persist", "--json", out, *extra]) == 0
        return out

    def test_same_spec_no_warning(self, fig1_csv, tmp_path, capsys):
        a = self._artefact(fig1_csv, tmp_path, "a.json")
        b = self._artefact(fig1_csv, tmp_path, "b.json")
        assert main(["diff", a, b]) == 0
        assert "WARNING" not in capsys.readouterr().out

    def test_spec_mismatch_is_surfaced(self, fig1_csv, tmp_path, capsys):
        from repro.delta.diffing import diff_payloads

        a = self._artefact(fig1_csv, tmp_path, "a.json", "--eps", "0.0")
        b = self._artefact(fig1_csv, tmp_path, "b.json", "--eps", "0.05")
        main(["diff", a, b])
        out = capsys.readouterr().out
        assert "WARNING" in out and "mine.eps" in out

        diff = diff_payloads(json.load(open(a)), json.load(open(b)))
        assert diff["provenance"]["spec"]["mine.eps"] == {
            "old": 0.0, "new": 0.05
        }

    def test_fingerprint_mismatch_is_surfaced(self, tmp_path, capsys):
        csv_a = str(tmp_path / "a.csv")
        csv_b = str(tmp_path / "b.csv")
        to_csv(paper_running_example(), csv_a)
        to_csv(paper_running_example(with_red_tuple=True), csv_b)
        a = self._artefact(csv_a, tmp_path, "a.json")
        b = self._artefact(csv_b, tmp_path, "b.json")
        assert main(["diff", a, b]) == 1  # results really differ too
        out = capsys.readouterr().out
        assert "fingerprint" in out

    def test_unstamped_artefacts_still_diff_quietly(self, fig1_csv, tmp_path):
        """Pre-provenance artefacts (no spec key) diff without warnings."""
        from repro.delta.diffing import diff_payloads

        a = json.load(open(self._artefact(fig1_csv, tmp_path, "a.json")))
        b = json.load(open(self._artefact(fig1_csv, tmp_path, "b.json")))
        for payload in (a, b):
            payload.pop("spec"), payload.pop("fingerprint")
        diff = diff_payloads(a, b)
        assert "provenance" not in diff
        assert not diff["changed"]
