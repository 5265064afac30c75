"""The flat counter namespace: one documented key shape for ``counters()``.

Historically ``Maimon.counters()`` merged oracle, engine and kernel
tallies under inconsistent shapes — bare oracle keys (``queries``),
bare engine extras (``escalations``) and a nested ``kernels`` dict —
so every consumer special-cased the engine it happened to run.  This
module defines the single flat ``group.counter`` namespace everything
now reports in:

=========  ==============================================================
group      counters
=========  ==============================================================
oracle     ``oracle.queries`` (logical H() requests, cache hits
           included), ``oracle.evals`` (requests that reached the
           engine) — always present.
exec       ``exec.persist_hits`` — batch oracles (persisted-entropy
           hits).
approx     ``approx.escalations`` (decisions re-decided exactly),
           ``approx.exact_evals`` (full-relation entropies those cost)
           — the sampled engine.
delta      ``delta.patched``, ``delta.rebuilt``, ``delta.dropped`` —
           delta-tracking oracles (memo entries patched in place vs.
           recomputed vs. evicted, cumulative across advances).
kernel     ``kernel.bincount``, ``kernel.sort``,
           ``kernel.densify_bincount``, ``kernel.densify_sort``,
           ``kernel.prefix_hits``, ``kernel.composed`` — the grouping
           kernel dispatcher (which lane answered, densify fallbacks,
           composed-prefix cache hits); ``kernel.packs`` /
           ``kernel.pack_declines`` (whether the relation was packed
           into its distinct tuples, once per relation; a packed
           relation's counts still show as ``bincount``/``sort``).
           Store-backed relations add the
           chunk-streaming lanes of :mod:`repro.backends`:
           ``kernel.chunked_bincount`` / ``kernel.chunked_merge`` /
           ``kernel.chunked_wide`` (which streaming lane accumulated the
           counts), ``kernel.chunked_chunks`` (row blocks consumed),
           ``kernel.chunked_pushdown`` (counts answered by the backend
           itself, e.g. DuckDB group-by) and ``kernel.chunked_materialized``
           (requests that had to densify the full relation, e.g. group
           *ids* for delta tracking — should stay 0 in pure mining runs).
=========  ==============================================================

A group appears only when the oracle/engine actually tracks it, so the
key *shapes* are uniform even though the key *set* varies by engine.
The serve layer republishes these verbatim as the ``counter`` label of
``repro_session_counter``.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

#: Attributes lifted off the oracle itself -> their namespaced keys.
_ORACLE_EXTRAS = (
    ("persist_hits", "exec.persist_hits"),
    ("escalations", "approx.escalations"),
    ("exact_evals", "approx.exact_evals"),
)


def flatten_counters(oracle: Any,
                     extra: Optional[Mapping[str, int]] = None
                     ) -> Dict[str, int]:
    """Collect an oracle's scattered tallies into the flat namespace.

    ``extra`` lets the owner contribute counters the oracle doesn't keep
    itself (``Maimon`` passes its cumulative ``delta.rebuilt`` /
    ``delta.dropped`` totals).  The subsystems keep plain ints precisely
    because they're free; this is the one place their shapes meet.
    """
    out: Dict[str, int] = {
        "oracle.queries": int(oracle.queries),
        "oracle.evals": int(oracle.evals),
    }
    for attr, key in _ORACLE_EXTRAS:
        value = getattr(oracle, attr, None)
        if value is not None:
            out[key] = int(value)
    if getattr(oracle, "tracks_deltas", False):
        out["delta.patched"] = int(oracle.patched)
    if extra:
        for key, value in extra.items():
            out[key] = int(value)
    kernels = oracle.kernel_stats()
    if kernels and sum(kernels.values()):
        for name, value in kernels.items():
            out["kernel." + name] = int(value)
    return out
