"""repro.analysis — repo-invariant static analysis.

A small pluggable AST-analysis framework plus the rules that encode this
repository's hard-won invariants: lock discipline in the warm-serve
layer (RPR002), no frozenset churn on the lattice hot paths (RPR003),
spec/registry/CLI/route parity (RPR004) and strict parsing of request
payloads (RPR005).

Run it as ``repro check``; configure it under ``[tool.repro-analysis]``
in pyproject.toml; waive a deliberate exception inline with
``# repro: allow[RPRxxx] reason``.
"""

from repro.analysis.config import AnalysisConfig, load_config
from repro.analysis.findings import (
    PARSE_ERROR_RULE,
    UNUSED_PRAGMA_RULE,
    Finding,
    load_baseline,
    sort_findings,
    write_baseline,
)
from repro.analysis.pragmas import Pragma, apply_pragmas, collect_pragmas
from repro.analysis.rules import ALL_RULES, Rule, make_rules
from repro.analysis.runner import (
    Report,
    discover_files,
    run_analysis,
    select_rules,
)

__all__ = [
    "ALL_RULES",
    "AnalysisConfig",
    "Finding",
    "PARSE_ERROR_RULE",
    "Pragma",
    "Report",
    "Rule",
    "UNUSED_PRAGMA_RULE",
    "apply_pragmas",
    "collect_pragmas",
    "discover_files",
    "load_baseline",
    "load_config",
    "make_rules",
    "run_analysis",
    "select_rules",
    "sort_findings",
    "write_baseline",
]
