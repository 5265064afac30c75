"""Analyzer configuration: the ``[tool.repro-analysis]`` pyproject table.

Configuration is optional — every rule ships repo defaults — but the
table lets a checkout narrow paths, disable rules, point at a baseline
file and pass per-rule options (sub-tables keyed by lowercase rule id,
e.g. ``[tool.repro-analysis.rpr002]``).

TOML loading uses :mod:`tomllib` where available (Python 3.11+).  On
older interpreters a deliberately minimal fallback parser reads *only*
the ``tool.repro-analysis`` tables — bare ``key = value`` lines with
string / bool / int / float / single-line string-array values — which is
exactly the shape this table uses; the rest of pyproject.toml is skipped
unparsed.  No third-party TOML dependency is ever required.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

try:  # Python 3.11+
    import tomllib
except ImportError:  # pragma: no cover - exercised only on Python <= 3.10
    tomllib = None

#: The pyproject table this module owns.
TABLE = "repro-analysis"

#: Paths analyzed when neither pyproject nor the CLI names any.
DEFAULT_PATHS = ["src"]


@dataclass
class AnalysisConfig:
    """Resolved analyzer settings (defaults + pyproject + CLI overrides)."""

    root: str = "."
    paths: List[str] = field(default_factory=lambda: list(DEFAULT_PATHS))
    exclude: List[str] = field(default_factory=list)
    #: Enabled rule ids; empty means every registered rule.
    rules: List[str] = field(default_factory=list)
    warn_unused_pragmas: bool = True
    baseline: Optional[str] = None
    rule_options: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def options_for(self, rule_id: str) -> Dict[str, Any]:
        return self.rule_options.get(rule_id.lower(), {})


def _strip_comment(line: str) -> str:
    out = []
    quote = None
    for ch in line:
        if quote is not None:
            out.append(ch)
            if ch == quote:
                quote = None
        elif ch in ('"', "'"):
            quote = ch
            out.append(ch)
        elif ch == "#":
            break
        else:
            out.append(ch)
    return "".join(out)


def _split_array_items(inner: str) -> List[str]:
    items: List[str] = []
    depth = 0
    quote = None
    current = ""
    for ch in inner:
        if quote is not None:
            current += ch
            if ch == quote:
                quote = None
        elif ch in ('"', "'"):
            quote = ch
            current += ch
        elif ch == "[":
            depth += 1
            current += ch
        elif ch == "]":
            depth -= 1
            current += ch
        elif ch == "," and depth == 0:
            items.append(current)
            current = ""
        else:
            current += ch
    if current.strip():
        items.append(current)
    return items


def _parse_scalar(text: str) -> Any:
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        return [_parse_scalar(item) for item in _split_array_items(inner)]
    if len(text) >= 2 and text[0] == text[-1] and text[0] in ('"', "'"):
        return text[1:-1]
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    raise ValueError(f"unsupported TOML value in [tool.{TABLE}]: {text!r}")


def _fallback_parse(text: str) -> Dict[str, Any]:
    """Extract ``tool.repro-analysis`` tables without a TOML library."""
    table: Dict[str, Any] = {}
    current: Optional[Dict[str, Any]] = None
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            prefix = f"tool.{TABLE}"
            if section == prefix:
                current = table
            elif section.startswith(prefix + "."):
                sub = section[len(prefix) + 1:].lower()
                current = table.setdefault(sub, {})
            else:
                current = None
            continue
        if current is None or "=" not in line:
            continue
        key, _, value = line.partition("=")
        current[key.strip().strip('"').strip("'")] = _parse_scalar(value)
    return table


def read_tool_table(pyproject_path: str) -> Dict[str, Any]:
    """The raw ``[tool.repro-analysis]`` table of a pyproject file ({} if absent)."""
    if not os.path.isfile(pyproject_path):
        return {}
    if tomllib is not None:
        with open(pyproject_path, "rb") as fh:
            data = tomllib.load(fh)
        table = data.get("tool", {}).get(TABLE, {})
        return table if isinstance(table, dict) else {}
    with open(pyproject_path, "r", encoding="utf-8") as fh:
        return _fallback_parse(fh.read())


def load_config(
    root: str = ".",
    pyproject_path: Optional[str] = None,
) -> AnalysisConfig:
    """Build a config from ``<root>/pyproject.toml`` (or an explicit path)."""
    if pyproject_path is None:
        pyproject_path = os.path.join(root, "pyproject.toml")
    table = read_tool_table(pyproject_path)
    config = AnalysisConfig(root=root)
    for key in ("paths", "exclude", "rules"):
        value = table.get(key)
        if isinstance(value, list):
            setattr(config, key, [str(v) for v in value])
    if isinstance(table.get("warn_unused_pragmas"), bool):
        config.warn_unused_pragmas = table["warn_unused_pragmas"]
    if isinstance(table.get("baseline"), str) and table["baseline"]:
        config.baseline = table["baseline"]
    for key, value in table.items():
        if isinstance(value, dict):
            config.rule_options[key.lower()] = dict(value)
    return config
