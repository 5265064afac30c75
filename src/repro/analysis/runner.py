"""Analyzer driver: discover, parse once, run rules, reduce to a report.

The runner owns everything rule authors should never re-implement: file
discovery under the configured roots, parsing (each file is parsed
exactly once and the tree shared by every rule), pragma
suppression, unused-pragma accounting, baseline subtraction and stable
``path:line:col`` ordering.  Rules only look at ASTs and emit findings.

Files that fail to parse are reported as ``RPR900`` findings rather than
aborting the run — a syntax error in one module must not hide findings
in fifty others, but it must still fail the check.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import (
    PARSE_ERROR_RULE,
    Finding,
    load_baseline,
    sort_findings,
)
from repro.analysis.pragmas import (
    Pragma,
    apply_pragmas,
    collect_pragmas,
    unused_pragma_findings,
)
from repro.analysis.rules import make_rules
from repro.analysis.rules.base import ParsedModule, Rule, path_matches


@dataclass
class Report:
    """Outcome of one analyzer run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    baselined: int = 0
    files: int = 0
    rules: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "files": self.files,
            "rules": list(self.rules),
            "ok": self.ok,
        }


def discover_files(
    root: str,
    paths: Sequence[str],
    exclude: Sequence[str] = (),
) -> List[str]:
    """Root-relative ``.py`` paths under ``paths``, minus ``exclude`` prefixes."""
    found: Set[str] = set()
    for path in paths:
        abspath = path if os.path.isabs(path) else os.path.join(root, path)
        if os.path.isfile(abspath):
            if abspath.endswith(".py"):
                found.add(os.path.relpath(abspath, root).replace(os.sep, "/"))
            continue
        for dirpath, dirnames, filenames in os.walk(abspath):
            dirnames[:] = sorted(
                d
                for d in dirnames
                if not d.startswith(".") and d != "__pycache__"
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    rel = os.path.relpath(
                        os.path.join(dirpath, filename), root
                    ).replace(os.sep, "/")
                    found.add(rel)
    return sorted(
        p for p in found if not (exclude and path_matches(p, exclude))
    )


def _parse_one(root: str, rel: str):
    """(ParsedModule | None, Finding | None) for one file."""
    abspath = os.path.join(root, rel)
    try:
        with open(abspath, "r", encoding="utf-8") as fh:
            source = fh.read()
        tree = ast.parse(source, filename=rel)
    except (SyntaxError, ValueError, OSError) as exc:
        line = getattr(exc, "lineno", None) or 1
        return None, Finding(
            rule=PARSE_ERROR_RULE,
            path=rel,
            line=line,
            col=1,
            message=f"file could not be parsed: {exc}",
        )
    return ParsedModule(path=rel, abspath=abspath, source=source, tree=tree), None


def select_rules(
    config: AnalysisConfig, only: Optional[Sequence[str]] = None
) -> List[Rule]:
    """Instantiate enabled rules: registry ∩ config.rules ∩ ``only``."""
    rules = make_rules()
    for chosen in (config.rules, only):
        if chosen:
            wanted = {r.upper() for r in chosen}
            rules = [r for r in rules if r.rule_id.upper() in wanted]
    return rules


def run_analysis(
    config: AnalysisConfig,
    only_rules: Optional[Sequence[str]] = None,
) -> Report:
    rules = select_rules(config, only_rules)
    files = discover_files(config.root, config.paths, config.exclude)
    modules: List[ParsedModule] = []
    raw: List[Finding] = []
    # Serial on purpose: ast.parse holds the GIL, so threads buy nothing,
    # and CPython 3.11's AST constructor is not safe to run from several
    # threads at once ("recursion depth mismatch" on multi-CPU hosts).
    for rel in files:
        module, error = _parse_one(config.root, rel)
        if error is not None:
            raw.append(error)
        if module is not None:
            modules.append(module)

    for module in modules:
        for rule in rules:
            if rule.project_wide or not rule.applies_to(module, config):
                continue
            raw.extend(rule.check_module(module, config))
    for rule in rules:
        if rule.project_wide:
            raw.extend(rule.check_project(modules, config))

    # Pragma suppression runs per file over that file's findings.
    by_path: Dict[str, List[Finding]] = {}
    for finding in raw:
        by_path.setdefault(finding.path, []).append(finding)
    module_map = {m.path: m for m in modules}
    enabled_ids = {r.rule_id for r in rules}
    kept: List[Finding] = []
    suppressed = 0
    for path, path_findings in by_path.items():
        module = module_map.get(path)
        pragmas: List[Pragma] = (
            collect_pragmas(module.source) if module is not None else []
        )
        remaining, count = apply_pragmas(path_findings, pragmas)
        kept.extend(remaining)
        suppressed += count
        if config.warn_unused_pragmas and pragmas:
            kept.extend(unused_pragma_findings(pragmas, enabled_ids, path))
    if config.warn_unused_pragmas:
        for path, module in module_map.items():
            if path in by_path:
                continue  # handled above
            pragmas = collect_pragmas(module.source)
            if pragmas:
                kept.extend(unused_pragma_findings(pragmas, enabled_ids, path))

    baselined = 0
    if config.baseline:
        baseline_path = (
            config.baseline
            if os.path.isabs(config.baseline)
            else os.path.join(config.root, config.baseline)
        )
        if os.path.isfile(baseline_path):
            known = set(load_baseline(baseline_path))
            fresh = [f for f in kept if f.baseline_key() not in known]
            baselined = len(kept) - len(fresh)
            kept = fresh

    return Report(
        findings=sort_findings(kept),
        suppressed=suppressed,
        baselined=baselined,
        files=len(files),
        rules=[r.rule_id for r in rules],
    )
