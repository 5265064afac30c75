"""Rule registry: every shipped checker, in rule-id order."""

from repro.analysis.rules.base import (
    ParsedModule,
    Rule,
    call_name,
    decorator_names,
    dotted_name,
    norm_path,
    path_matches,
    walk_skipping_functions,
)
from repro.analysis.rules.hot_sets import HotSetRule
from repro.analysis.rules.lock_discipline import LockDisciplineRule
from repro.analysis.rules.spec_drift import SpecDriftRule
from repro.analysis.rules.strict_parse import StrictParseRule

#: All registered rules; ``repro check --list-rules`` prints this table.
ALL_RULES = (
    LockDisciplineRule,
    HotSetRule,
    SpecDriftRule,
    StrictParseRule,
)


def make_rules():
    """Fresh rule instances (rules are stateless, but cheap to remake)."""
    return [cls() for cls in ALL_RULES]


__all__ = [
    "ALL_RULES",
    "HotSetRule",
    "LockDisciplineRule",
    "ParsedModule",
    "Rule",
    "SpecDriftRule",
    "StrictParseRule",
    "call_name",
    "decorator_names",
    "dotted_name",
    "make_rules",
    "norm_path",
    "path_matches",
    "walk_skipping_functions",
]
