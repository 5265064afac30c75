"""Tests for the repo-invariant static analyzer (repro.analysis).

Every rule gets a paired fixture set — one snippet it must flag, one it
must pass — plus pragma-suppression, pyproject-config, baseline and CLI
coverage.
"""

import json
import os
import textwrap

from repro.analysis import (
    AnalysisConfig,
    collect_pragmas,
    load_config,
    make_rules,
    run_analysis,
    write_baseline,
)
from repro.analysis.config import _fallback_parse, read_tool_table
from repro.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_fixture(tmp_path, files, rules=None, **config_kwargs):
    """Write fixture files under tmp_path and analyze them."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    config = AnalysisConfig(root=str(tmp_path), paths=["."], **config_kwargs)
    return run_analysis(config, only_rules=rules)


def rules_seen(report):
    return sorted({f.rule for f in report.findings})


# --------------------------------------------------------------------- #
# RPR002 — serve lock discipline
# --------------------------------------------------------------------- #


class TestLockDisciplineRule:
    def test_flags_nested_blocking_and_guarded_return(self, tmp_path):
        report = run_fixture(
            tmp_path,
            {
                "src/repro/serve/bad.py": """
                import threading
                import time

                class Service:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._jobs_lock = threading.Lock()
                        self._entries = {}

                    def nested(self):
                        with self._lock:
                            with self._jobs_lock:
                                return len(self._entries)

                    def blocking(self, spec, relation):
                        with self._lock:
                            maimon = spec.make_maimon(relation)
                        return maimon

                    def sleepy(self):
                        with self._lock:
                            time.sleep(0.1)

                    def leaky(self, key):
                        with self._lock:
                            entry = self._entries[key]
                            return entry
                """
            },
            rules=["RPR002"],
        )
        assert len(report.findings) >= 4
        assert rules_seen(report) == ["RPR002"]
        messages = " ".join(f.message for f in report.findings)
        assert "while holding" in messages or "nested" in messages
        assert "make_maimon" in messages
        assert "time.sleep" in messages

    def test_passes_o1_critical_sections(self, tmp_path):
        report = run_fixture(
            tmp_path,
            {
                "src/repro/serve/good.py": """
                import threading

                class Service:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._entries = {}

                    def snapshot(self):
                        with self._lock:
                            count = len(self._entries)
                        return count

                    def build(self, spec, relation):
                        maimon = spec.make_maimon(relation)
                        with self._lock:
                            self._entries[id(maimon)] = maimon
                        return maimon
                """
            },
            rules=["RPR002"],
        )
        assert report.ok, [f.format() for f in report.findings]

    def test_scoped_to_serve_by_default(self, tmp_path):
        report = run_fixture(
            tmp_path,
            {
                "src/repro/core/elsewhere.py": """
                import threading

                class Thing:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._a_lock = threading.Lock()

                    def nested(self):
                        with self._lock:
                            with self._a_lock:
                                pass
                """
            },
            rules=["RPR002"],
        )
        assert report.ok

    def test_closure_body_not_attributed_to_lock_scope(self, tmp_path):
        report = run_fixture(
            tmp_path,
            {
                "src/repro/serve/closure.py": """
                import threading
                import time

                class Service:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def schedule(self):
                        with self._lock:
                            def later():
                                time.sleep(1.0)
                            self._pending = later
                """
            },
            rules=["RPR002"],
        )
        assert report.ok, [f.format() for f in report.findings]


# --------------------------------------------------------------------- #
# RPR003 — hot-path set discipline
# --------------------------------------------------------------------- #


class TestHotSetRule:
    def test_flags_per_call_frozenset_and_identity_setcomp(self, tmp_path):
        report = run_fixture(
            tmp_path,
            {
                "src/repro/core/hot.py": """
                def probe(key, bags):
                    return frozenset(key) in bags

                class Box:
                    def __init__(self, bags):
                        self.bags = bags

                    def __eq__(self, other):
                        return {b.mask for b in self.bags} == {
                            b.mask for b in other.bags
                        }
                """
            },
            rules=["RPR003"],
        )
        # One per-call frozenset plus each of the two comprehensions in __eq__.
        assert len(report.findings) == 3
        assert rules_seen(report) == ["RPR003"]

    def test_passes_module_level_and_cold_paths(self, tmp_path):
        report = run_fixture(
            tmp_path,
            {
                # Module-level constant in a hot dir: built once, allowed.
                "src/repro/core/cold.py": """
                KEYWORDS = frozenset({"mine", "schemas"})

                def probe(mask, masks):
                    return mask in masks
                """,
                # Per-call frozenset outside the hot dirs: out of scope.
                "src/repro/io.py": """
                def parse(text):
                    return frozenset(text.split(","))
                """,
            },
            rules=["RPR003"],
        )
        assert report.ok, [f.format() for f in report.findings]

    def test_paths_option_overrides_scope(self, tmp_path):
        report = run_fixture(
            tmp_path,
            {
                "lib/extra.py": """
                def probe(key, bags):
                    return frozenset(key) in bags
                """
            },
            rules=["RPR003"],
            rule_options={"rpr003": {"paths": ["lib"]}},
        )
        assert rules_seen(report) == ["RPR003"]


# --------------------------------------------------------------------- #
# RPR004 — spec/registry drift
# --------------------------------------------------------------------- #

_DRIFTING_SPEC = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class EngineSpec:
        eps: float = 0.1
        budget: int = 0

        def validate(self):
            check(self.eps)
            check(self.budget)

        def to_dict(self):
            return {"eps": self.eps}

        def from_dict(cls, data):
            return cls(eps=data["eps"], budget=data["budget"])
"""


class TestSpecDriftRule:
    def drift_files(self):
        return {
            "src/repro/api/specs.py": _DRIFTING_SPEC,
            "src/repro/api/envelope.py": """
                TASK_SPECS = {"mine": 1, "profile": 2}
            """,
            "src/repro/cli.py": """
                def build(sub):
                    sub.add_parser("mine")
            """,
            "src/repro/serve/server.py": """
                ROUTES = ["/mine"]
            """,
        }

    def test_flags_missing_field_and_registry_drift(self, tmp_path):
        report = run_fixture(tmp_path, self.drift_files(), rules=["RPR004"])
        messages = [f.message for f in report.findings]
        # budget dropped from to_dict; "profile" has no subcommand, no route.
        assert any("EngineSpec.budget" in m and "to_dict" in m for m in messages)
        assert any("'profile'" in m and "add_parser" in m for m in messages)
        assert any("'profile'" in m and "route" in m for m in messages)
        assert len(report.findings) == 3

    def test_passes_when_parity_restored(self, tmp_path):
        files = self.drift_files()
        files["src/repro/api/specs.py"] = _DRIFTING_SPEC.replace(
            '{"eps": self.eps}', '{"eps": self.eps, "budget": self.budget}'
        )
        files["src/repro/cli.py"] = """
            def build(sub):
                sub.add_parser("mine")
                sub.add_parser("profile")
        """
        files["src/repro/serve/server.py"] = """
            ROUTES = ["/mine", "/profile"]
        """
        report = run_fixture(tmp_path, files, rules=["RPR004"])
        assert report.ok, [f.format() for f in report.findings]

    def test_registry_parity_skipped_when_surface_missing(self, tmp_path):
        files = self.drift_files()
        del files["src/repro/serve/server.py"]
        report = run_fixture(tmp_path, files, rules=["RPR004"])
        # Spec-completeness still runs; registry parity needs all surfaces.
        assert [f.rule for f in report.findings] == ["RPR004"]
        assert "to_dict" in report.findings[0].message

    def test_real_registry_has_full_parity(self):
        """The committed tree's TASK_SPECS/CLI/routes stay in lockstep."""
        config = AnalysisConfig(
            root=REPO_ROOT,
            paths=[
                "src/repro/api/specs.py",
                "src/repro/api/envelope.py",
                "src/repro/cli.py",
                "src/repro/serve/server.py",
            ],
        )
        report = run_analysis(config, only_rules=["RPR004"])
        assert report.ok, [f.format() for f in report.findings]


# --------------------------------------------------------------------- #
# RPR005 — strict-parse discipline
# --------------------------------------------------------------------- #


class TestStrictParseRule:
    def test_flags_lax_request_parsing(self, tmp_path):
        report = run_fixture(
            tmp_path,
            {
                "src/repro/api/handlers.py": """
                def parse(payload, text, run):
                    spurious = bool(payload.get("spurious"))
                    scale = float(payload.get("scale", 0.01))
                    run(payload["dataset"])
                    flag = bool(text)
                    return spurious, scale, flag
                """
            },
            rules=["RPR005"],
        )
        assert len(report.findings) == 4
        messages = " ".join(f.message for f in report.findings)
        assert "bool('false') is True" in messages

    def test_passes_strict_helpers_and_isinstance(self, tmp_path):
        report = run_fixture(
            tmp_path,
            {
                "src/repro/api/handlers.py": """
                def parse(payload):
                    spurious = _bool_or_error(payload, "spurious", False)
                    scale = _float_or_error(payload, "scale", 0.01)
                    if not isinstance(payload.get("rows"), list):
                        raise ValueError("rows must be a list")
                    return spurious, scale
                """
            },
            rules=["RPR005"],
        )
        assert report.ok, [f.format() for f in report.findings]

    def test_scoped_to_request_paths(self, tmp_path):
        report = run_fixture(
            tmp_path,
            {
                "src/repro/core/math.py": """
                def weight(data):
                    return float(data.get("scale", 1.0))
                """
            },
            rules=["RPR005"],
        )
        assert report.ok


# --------------------------------------------------------------------- #
# Pragmas
# --------------------------------------------------------------------- #


class TestPragmas:
    def test_trailing_pragma_suppresses(self, tmp_path):
        report = run_fixture(
            tmp_path,
            {
                "src/repro/core/hot.py": """
                def probe(key, bags):
                    return frozenset(key) in bags  # repro: allow[RPR003] boundary probe
                """
            },
            rules=["RPR003"],
        )
        assert report.ok
        assert report.suppressed == 1

    def test_standalone_pragma_covers_next_line(self, tmp_path):
        report = run_fixture(
            tmp_path,
            {
                "src/repro/core/hot.py": """
                def probe(key, bags):
                    # repro: allow[RPR003] built once per call by design
                    return frozenset(key) in bags
                """
            },
            rules=["RPR003"],
        )
        assert report.ok
        assert report.suppressed == 1

    def test_unused_pragma_reported_as_rpr000(self, tmp_path):
        files = {
            "src/repro/core/hot.py": """
            def probe(mask, masks):
                return mask in masks  # repro: allow[RPR003] stale waiver
            """
        }
        report = run_fixture(tmp_path, files, rules=["RPR003"])
        assert [f.rule for f in report.findings] == ["RPR000"]
        quiet = run_fixture(
            tmp_path, files, rules=["RPR003"], warn_unused_pragmas=False
        )
        assert quiet.ok

    def test_pragma_for_disabled_rule_not_condemned(self, tmp_path):
        report = run_fixture(
            tmp_path,
            {
                "src/repro/core/hot.py": """
                def probe(mask, masks):
                    return mask in masks  # repro: allow[RPR002] other rule
                """
            },
            rules=["RPR003"],
        )
        assert report.ok

    def test_docstring_examples_are_not_pragmas(self):
        source = '"""Docs show `# repro: allow[RPR003] reason` inline."""\n'
        assert collect_pragmas(source) == []

    def test_multi_rule_pragma(self):
        pragmas = collect_pragmas("x = 1  # repro: allow[RPR002, RPR003] both\n")
        assert len(pragmas) == 1
        assert pragmas[0].rules == frozenset({"RPR002", "RPR003"})


# --------------------------------------------------------------------- #
# Config, baseline, runner plumbing
# --------------------------------------------------------------------- #

_PYPROJECT = """
    [project]
    name = "fixture"

    [tool.repro-analysis]
    paths = ["pkg"]  # trailing comment
    rules = ["RPR003"]
    warn_unused_pragmas = false

    [tool.repro-analysis.rpr003]
    paths = ["pkg/inner"]

    [tool.other]
    irrelevant = true
"""


class TestConfig:
    def test_load_config_reads_tool_table(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent(_PYPROJECT))
        config = load_config(str(tmp_path))
        assert config.paths == ["pkg"]
        assert config.rules == ["RPR003"]
        assert config.warn_unused_pragmas is False
        assert config.options_for("RPR003") == {"paths": ["pkg/inner"]}

    def test_fallback_parser_agrees_with_tomllib(self, tmp_path):
        text = textwrap.dedent(_PYPROJECT)
        path = tmp_path / "pyproject.toml"
        path.write_text(text)
        parsed = _fallback_parse(text)
        assert read_tool_table(str(path)) == parsed
        assert parsed["paths"] == ["pkg"]
        assert parsed["warn_unused_pragmas"] is False
        assert parsed["rpr003"] == {"paths": ["pkg/inner"]}

    def test_fallback_parser_on_real_pyproject(self):
        with open(os.path.join(REPO_ROOT, "pyproject.toml")) as fh:
            text = fh.read()
        parsed = _fallback_parse(text)
        assert parsed["paths"] == ["src"]
        assert parsed["warn_unused_pragmas"] is True

    def test_config_rules_narrow_the_run(self, tmp_path):
        report = run_fixture(
            tmp_path,
            {
                "src/repro/core/hot.py": """
                def probe(key, bags):
                    return frozenset(key) in bags
                """
            },
        )
        assert rules_seen(report) == ["RPR003"]
        narrowed = AnalysisConfig(
            root=str(tmp_path), paths=["."], rules=["RPR002"]
        )
        assert run_analysis(narrowed).ok


class TestRunner:
    def test_syntax_error_reported_not_fatal(self, tmp_path):
        report = run_fixture(
            tmp_path,
            {
                "src/repro/core/broken.py": "def probe(:\n",
                "src/repro/core/hot.py": """
                def probe(key, bags):
                    return frozenset(key) in bags
                """,
            },
            rules=["RPR003"],
        )
        assert rules_seen(report) == ["RPR003", "RPR900"]

    def test_baseline_subtracts_known_findings(self, tmp_path):
        files = {
            "src/repro/core/hot.py": """
            def probe(key, bags):
                return frozenset(key) in bags
            """
        }
        report = run_fixture(tmp_path, files, rules=["RPR003"])
        assert len(report.findings) == 1
        baseline_path = tmp_path / "baseline.json"
        write_baseline(str(baseline_path), report.findings)
        config = AnalysisConfig(
            root=str(tmp_path), paths=["."], baseline="baseline.json"
        )
        rerun = run_analysis(config, only_rules=["RPR003"])
        assert rerun.ok
        assert rerun.baselined == 1

    def test_every_rule_has_id_and_summary(self):
        rules = make_rules()
        assert len(rules) >= 4
        ids = [r.rule_id for r in rules]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        assert all(r.summary for r in rules)

    def test_committed_tree_checks_clean(self):
        """`repro check` over the real src/ tree: zero unbaselined findings."""
        config = load_config(REPO_ROOT)
        config.root = REPO_ROOT
        report = run_analysis(config)
        assert report.ok, [f.format() for f in report.findings]
        assert report.baselined == 0  # clean by fixes/pragmas, not baseline


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #


class TestCheckCommand:
    def fixture_root(self, tmp_path):
        path = tmp_path / "src" / "repro" / "core" / "hot.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "def probe(key, bags):\n    return frozenset(key) in bags\n"
        )
        return str(tmp_path)

    def test_check_exits_nonzero_on_findings(self, tmp_path, capsys):
        root = self.fixture_root(tmp_path)
        assert main(["check", "--root", root]) == 1
        out = capsys.readouterr().out
        assert "RPR003" in out
        assert "src/repro/core/hot.py:2:" in out

    def test_check_json_output(self, tmp_path, capsys):
        root = self.fixture_root(tmp_path)
        assert main(["check", "--root", root, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert data["findings"][0]["rule"] == "RPR003"

    def test_check_rules_filter(self, tmp_path, capsys):
        root = self.fixture_root(tmp_path)
        assert main(["check", "--root", root, "--rules", "RPR002"]) == 0

    def test_check_write_baseline_then_clean(self, tmp_path, capsys):
        root = self.fixture_root(tmp_path)
        baseline = str(tmp_path / "baseline.json")
        assert main(["check", "--root", root, "--write-baseline", baseline]) == 0
        capsys.readouterr()
        assert (
            main(["check", "--root", root, "--baseline", baseline]) == 0
        )

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RPR002", "RPR003", "RPR004", "RPR005"):
            assert rule_id in out
        assert "RPR001" not in out

    def test_repo_self_check_via_cli(self, capsys):
        assert main(["check", "--root", REPO_ROOT]) == 0
