"""Tests for the command-line interface."""

import json

import pytest

from repro.api import ENGINES
from repro.cli import build_parser, main
from repro.data.generators import paper_running_example
from repro.data.loaders import to_csv


@pytest.fixture
def fig1_csv(tmp_path):
    path = str(tmp_path / "fig1.csv")
    to_csv(paper_running_example(), path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mine_defaults(self):
        """Request flags parse as None; defaults apply at spec compile time
        (which is what lets --config reject explicitly-passed flags)."""
        from repro import api
        from repro.cli import _compile_request, _engine_spec

        args = build_parser().parse_args(["mine", "x.csv"])
        assert args.eps is None and args.engine is None
        assert _engine_spec(args).engine == "pli"
        request = _compile_request("mine", args, api.MineSpec())
        assert request.spec.eps == 0.0
        assert request.engine.engine == "pli"
        assert request.engine.persist is True  # CLI persists by default


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "Census" in out and "nursery" in out

    def test_mine_csv(self, fig1_csv, capsys):
        assert main(["mine", fig1_csv, "--eps", "0.0", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "full MVDs" in out
        assert "->>" in out

    def test_mine_json_output(self, fig1_csv, tmp_path, capsys):
        out_path = str(tmp_path / "mined.json")
        assert main(["mine", fig1_csv, "--json", out_path]) == 0
        data = json.loads(open(out_path).read())
        assert data["eps"] == 0.0
        assert data["mvds"]

    def test_mine_missing_input(self):
        with pytest.raises(SystemExit):
            main(["mine"])

    def test_schemas(self, fig1_csv, capsys):
        assert (
            main(
                [
                    "schemas",
                    fig1_csv,
                    "--eps",
                    "0.0",
                    "--top",
                    "3",
                    "--objective",
                    "relations",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Top" in out and "rank" in out

    def test_schemas_json(self, fig1_csv, tmp_path):
        out_path = str(tmp_path / "schemas.json")
        assert main(["schemas", fig1_csv, "--eps", "0.0", "--json", out_path]) == 0
        data = json.loads(open(out_path).read())
        assert data["schemas"]

    def test_profile(self, fig1_csv, capsys):
        assert main(["profile", fig1_csv]) == 0
        out = capsys.readouterr().out
        assert "Column profile" in out and "H_bits" in out

    def test_dataset_source(self, capsys):
        assert (
            main(["mine", "--dataset", "Bridges", "--scale", "1.0", "--top", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "Bridges" in out


class TestBugfixRegressions:
    def test_profile_honours_engine_flag(self, fig1_csv, monkeypatch):
        """Regression: --engine was silently dropped by cmd_profile."""
        import repro.entropy.oracle as oracle_mod

        seen = {}
        original = oracle_mod.make_oracle

        def spy(relation, *args, **kwargs):
            seen["engine"] = kwargs.get("engine", "pli")
            return original(relation, *args, **kwargs)

        monkeypatch.setattr(oracle_mod, "make_oracle", spy)
        assert main(["profile", fig1_csv, "--engine", "approx", "--no-persist"]) == 0
        assert seen["engine"] == "approx"

    def test_mine_budget_zero_means_no_time(self, fig1_csv, capsys):
        """Regression: --budget 0 was truth-tested into 'unlimited'."""
        assert main(["mine", fig1_csv, "--budget", "0", "--no-persist"]) == 0
        out = capsys.readouterr().out
        assert "TIMEOUT" in out
        assert "0 full MVDs" in out

    def test_schemas_budget_zero_means_no_time(self, fig1_csv, capsys):
        assert main(["schemas", fig1_csv, "--budget", "0", "--no-persist"]) == 1
        assert "no schemas found" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ENGINES)
    def test_all_engines_exposed_and_working(self, fig1_csv, engine, capsys):
        """The CLI must accept every engine make_oracle supports."""
        assert main(
            ["mine", fig1_csv, "--engine", engine, "--top", "2", "--no-persist"]
        ) == 0
        assert "->>" in capsys.readouterr().out

    def test_engine_and_estimator_choices_follow_registries(self):
        from repro.entropy.estimators import ESTIMATORS

        commands = next(
            a for a in build_parser()._actions if a.dest == "command"
        ).choices
        for name in ("mine", "schemas", "profile", "serve"):
            flags = {a.dest: a for a in commands[name]._actions}
            assert tuple(flags["engine"].choices) == ENGINES
            assert list(flags["estimator"].choices) == list(ESTIMATORS)

    def test_profile_json_output(self, fig1_csv, tmp_path):
        out_path = str(tmp_path / "profile.json")
        assert main(["profile", fig1_csv, "--no-persist", "--json", out_path]) == 0
        data = json.loads(open(out_path).read())
        assert {c["column"] for c in data["columns"]} == set("ABCDEF")
        assert all(c["distinct"] >= 1 for c in data["columns"])
        assert data["fds"]


class TestDiffCommand:
    def _mine_artefact(self, csv_path, tmp_path, name):
        out = str(tmp_path / name)
        assert main(["mine", csv_path, "--eps", "0.0", "--no-persist",
                     "--json", out]) == 0
        return out

    def test_identical_artefacts_exit_zero(self, fig1_csv, tmp_path, capsys):
        a = self._mine_artefact(fig1_csv, tmp_path, "a.json")
        assert main(["diff", a, a]) == 0
        out = capsys.readouterr().out
        assert "mvds: +0 -0" in out

    def test_changed_artefacts_exit_one(self, fig1_csv, tmp_path, capsys):
        from repro.data.generators import paper_running_example
        from repro.data.loaders import to_csv

        red_csv = str(tmp_path / "fig1red.csv")
        to_csv(paper_running_example(with_red_tuple=True), red_csv)
        a = self._mine_artefact(fig1_csv, tmp_path, "a.json")
        b = self._mine_artefact(red_csv, tmp_path, "b.json")
        diff_out = str(tmp_path / "diff.json")
        assert main(["diff", a, b, "--json", diff_out]) == 1
        out = capsys.readouterr().out
        assert "- mvd" in out or "+ mvd" in out
        diff = json.loads(open(diff_out).read())
        assert diff["kind"] == "mine" and diff["changed"]


class TestServeParser:
    def test_serve_defaults(self):
        from repro.cli import _engine_spec

        args = build_parser().parse_args(["serve"])
        assert args.func.__name__ == "cmd_serve"
        assert args.port == 8765
        assert args.max_sessions == 8
        assert _engine_spec(args).engine == "pli"

    def test_serve_bench_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.func.__name__ == "cmd_serve_bench"
        assert args.json == "BENCH_serve.json"
