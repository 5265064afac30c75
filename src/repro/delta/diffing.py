"""Diff two mining artefacts: what a batch of new rows actually changed.

Warm re-mining answers "the data changed — what happened to my
dependencies?"; this module turns the before/after artefacts into that
answer.  It operates on the *serialised payloads* of :mod:`repro.io`
(``mine`` results and ``schemas`` results), so the same code backs

* the serving layer's append endpoint, which diffs the warm session's
  previous result against the re-mined one, and
* the ``repro diff`` CLI subcommand, which diffs two saved ``--json``
  artefacts.

MVDs and minimal separators are set-diffed under a canonical form
(order-insensitive keys/dependents); schemas are matched by their bag
sets, and matched schemas whose J-measure or quality numbers moved beyond
``tol`` are reported as *shifted* with both values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Default tolerance for "did this score actually move" on shifted schemas.
SCORE_TOL = 1e-9


def _canon_attrs(values) -> Tuple:
    """Order-insensitive canonical form of one serialised attribute set."""
    return tuple(sorted(values, key=repr))


def _canon_mvd(mvd: dict) -> Tuple:
    return (
        _canon_attrs(mvd["key"]),
        tuple(sorted((_canon_attrs(d) for d in mvd["dependents"]), key=repr)),
    )


def _canon_schema(schema: dict) -> Tuple:
    return tuple(sorted((_canon_attrs(b) for b in schema["bags"]), key=repr))


def _min_sep_entries(payload: dict) -> Dict[Tuple, dict]:
    entries = {}
    for entry in payload.get("min_seps", []):
        pair = _canon_attrs(entry["pair"])
        for sep in entry["separators"]:
            entries[(pair, _canon_attrs(sep))] = {
                "pair": list(entry["pair"]),
                "separator": list(sep),
            }
    return entries


def diff_miner_results(old: Optional[dict], new: dict) -> dict:
    """Diff two ``mine`` artefacts (``miner_result_to_dict`` payloads).

    ``old=None`` means "no baseline" (e.g. the appended dataset had no
    previously mined version): everything in ``new`` counts as added.
    """
    old = old or {"mvds": [], "min_seps": []}
    old_mvds = {_canon_mvd(m): m for m in old.get("mvds", [])}
    new_mvds = {_canon_mvd(m): m for m in new.get("mvds", [])}
    old_seps = _min_sep_entries(old)
    new_seps = _min_sep_entries(new)
    mvds_added = [new_mvds[k] for k in new_mvds if k not in old_mvds]
    mvds_dropped = [old_mvds[k] for k in old_mvds if k not in new_mvds]
    seps_added = [new_seps[k] for k in new_seps if k not in old_seps]
    seps_dropped = [old_seps[k] for k in old_seps if k not in new_seps]
    return {
        "kind": "mine",
        "mvds": {
            "added": mvds_added,
            "dropped": mvds_dropped,
            "n_common": len(new_mvds) - len(mvds_added),
        },
        "min_seps": {
            "added": seps_added,
            "dropped": seps_dropped,
            "n_common": len(new_seps) - len(seps_added),
        },
        "changed": bool(mvds_added or mvds_dropped or seps_added or seps_dropped),
    }


def _schema_scores(entry: dict) -> Dict[str, float]:
    scores = {"j_measure": entry.get("j_measure")}
    quality = entry.get("quality") or {}
    for key in ("savings_pct", "spurious_pct"):
        if quality.get(key) is not None:
            scores[key] = quality[key]
    return scores


def diff_schemas_payloads(old: Optional[dict], new: dict, tol: float = SCORE_TOL) -> dict:
    """Diff two ``schemas`` artefacts (``schemas_payload`` payloads)."""
    old = old or {"schemas": []}
    old_by_bags = {_canon_schema(e["schema"]): e for e in old.get("schemas", [])}
    new_by_bags = {_canon_schema(e["schema"]): e for e in new.get("schemas", [])}
    added = [new_by_bags[k] for k in new_by_bags if k not in old_by_bags]
    dropped = [old_by_bags[k] for k in old_by_bags if k not in new_by_bags]
    shifted: List[dict] = []
    unchanged = 0
    for key, new_entry in new_by_bags.items():
        old_entry = old_by_bags.get(key)
        if old_entry is None:
            continue
        moves = {}
        old_scores = _schema_scores(old_entry)
        for name, new_value in _schema_scores(new_entry).items():
            old_value = old_scores.get(name)
            if (
                old_value is not None
                and new_value is not None
                and abs(new_value - old_value) > tol
            ):
                moves[name] = {"old": old_value, "new": new_value}
        if moves:
            shifted.append({"schema": new_entry["schema"], "scores": moves})
        else:
            unchanged += 1
    return {
        "kind": "schemas",
        "schemas": {
            "added": added,
            "dropped": dropped,
            "shifted": shifted,
            "n_unchanged": unchanged,
        },
        "changed": bool(added or dropped or shifted),
    }


def _payload_kind(payload: dict) -> Optional[str]:
    if "schemas" in payload:
        return "schemas"
    if "mvds" in payload:
        return "mine"
    return None


# --------------------------------------------------------------------- #
# Provenance (the repro.api spec/fingerprint stamp)
# --------------------------------------------------------------------- #

def _flatten_spec(spec, prefix: str = "") -> Dict[str, object]:
    """``{"engine": {"engine": "pli"}}`` -> ``{"engine.engine": "pli"}``."""
    flat: Dict[str, object] = {}
    if not isinstance(spec, dict):
        return flat
    for key, value in spec.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten_spec(value, prefix=name + "."))
        else:
            flat[name] = value
    return flat


def provenance_mismatch(old: Optional[dict], new: dict) -> dict:
    """Where the two artefacts' stamped requests disagree.

    Artefacts produced through :mod:`repro.api` carry ``spec`` (the
    resolved engine + task spec) and ``fingerprint`` (the input relation)
    — see :func:`repro.api.stamp_payload`.  A result diff between
    mismatched specs is usually comparing apples to oranges, so the
    mismatch is reported field by field (dotted keys, e.g.
    ``engine.engine``); unstamped artefacts (pre-provenance files)
    compare as absent fields.  Empty dict = no mismatch detected.
    """
    out: Dict[str, object] = {}
    old = old or {}
    old_spec, new_spec = old.get("spec"), new.get("spec")
    if old_spec is not None or new_spec is not None:
        flat_old = _flatten_spec(old_spec)
        flat_new = _flatten_spec(new_spec)
        fields = {
            key: {"old": flat_old.get(key), "new": flat_new.get(key)}
            for key in sorted(set(flat_old) | set(flat_new))
            if flat_old.get(key) != flat_new.get(key)
        }
        if fields:
            out["spec"] = fields
    old_fp, new_fp = old.get("fingerprint"), new.get("fingerprint")
    if (old_fp is not None or new_fp is not None) and old_fp != new_fp:
        out["fingerprint"] = {"old": old_fp, "new": new_fp}
    return out


def format_provenance_mismatch(mismatch: Optional[dict]) -> List[str]:
    """Human lines for a :func:`provenance_mismatch` result (may be [])."""
    if not mismatch:
        return []
    lines = []
    for field, change in mismatch.get("spec", {}).items():
        lines.append(f"spec {field}: {change['old']!r} -> {change['new']!r}")
    fp = mismatch.get("fingerprint")
    if fp:
        short = {k: (v[:12] if isinstance(v, str) else v) for k, v in fp.items()}
        lines.append(f"input fingerprint: {short['old']} -> {short['new']}")
    return lines


def diff_payloads(old: Optional[dict], new: dict, tol: float = SCORE_TOL) -> dict:
    """Diff two artefacts of the same kind, dispatching on their shape.

    Mixing kinds (a ``mine`` result against a ``schemas`` payload) is an
    error, not an everything-added diff — that comparison is meaningless
    however it is rendered.
    """
    kind = _payload_kind(new)
    if kind is None:
        raise ValueError(
            "unrecognised artefact: expected a 'mine' result (mvds/min_seps) "
            "or a 'schemas' payload"
        )
    if old is not None:
        old_kind = _payload_kind(old)
        if old_kind != kind:
            raise ValueError(
                f"cannot diff artefacts of different kinds: "
                f"{old_kind or 'unrecognised'} vs {kind}"
            )
    if kind == "schemas":
        diff = diff_schemas_payloads(old, new, tol=tol)
    else:
        diff = diff_miner_results(old, new)
    mismatch = provenance_mismatch(old, new)
    if mismatch:
        # Surfaced, not folded into ``changed``: a provenance mismatch is
        # a warning about the comparison itself, not a result change.
        diff["provenance"] = mismatch
    return diff


def summarize_diff(diff: dict) -> str:
    """One-line human summary, used by the CLI and smoke scripts."""
    if diff["kind"] == "mine":
        m, s = diff["mvds"], diff["min_seps"]
        summary = (
            f"mvds: +{len(m['added'])} -{len(m['dropped'])} "
            f"={m['n_common']} | min_seps: +{len(s['added'])} "
            f"-{len(s['dropped'])} ={s['n_common']}"
        )
    else:
        s = diff["schemas"]
        summary = (
            f"schemas: +{len(s['added'])} -{len(s['dropped'])} "
            f"~{len(s['shifted'])} ={s['n_unchanged']}"
        )
    mismatch = diff.get("provenance")
    if mismatch:
        n = len(mismatch.get("spec", {})) + (1 if "fingerprint" in mismatch else 0)
        summary += f" | WARNING: {n} spec/provenance mismatch(es)"
    return summary
