"""Hierarchical request tracing with a guaranteed no-op fast path.

A :class:`Trace` is a tree of named spans.  Spans are *aggregated by
name under their parent*: entering ``span("kernel")`` ten thousand times
under the same ``span("batch")`` produces one node with ``count=10000``,
not ten thousand nodes — so tracing a full mining run stays bounded in
memory and the tree shape is deterministic for a deterministic
execution.  Every node carries monotonic total time (``perf_counter``),
a stable id assigned in creation order and its parent's id.

The contract the hot paths rely on: when no trace is active,
:func:`span` costs one thread-local attribute read, one ``None`` check
and returns a shared no-op context manager — no allocation, no timing
call.  Kernels guard even that by reading :data:`ACTIVE` themselves::

    if ACTIVE.trace is not None:
        with ACTIVE.trace.span("kernel"):
            return self._counts(idx)
    return self._counts(idx)

Tracing is enabled per request with :class:`start_trace` (what
``execute_task`` does when ``EngineSpec.trace`` is set).  The active
trace is thread-local, so concurrent serve jobs trace independently.
"""

from __future__ import annotations

import threading
from time import perf_counter
from types import TracebackType
from typing import Any, Dict, List, Optional, Tuple, Type, Union


class _ThreadState(threading.local):
    trace: Optional["Trace"] = None


#: Per-thread active trace; ``None`` means tracing is disabled (the
#: common case — hot paths read this attribute and nothing else).
ACTIVE = _ThreadState()


class _NoopSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        return None


_NOOP = _NoopSpan()


class SpanNode:
    """One aggregated span: a name under a parent, with count + time."""

    __slots__ = ("name", "span_id", "parent_id", "count", "total_s",
                 "children")

    def __init__(self, name: str, span_id: int,
                 parent_id: Optional[int]) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.count = 0
        self.total_s = 0.0
        # Insertion-ordered by first entry, which makes the rendered
        # tree deterministic for a deterministic execution.
        self.children: Dict[str, "SpanNode"] = {}

    def self_seconds(self) -> float:
        child_total = sum(c.total_s for c in self.children.values())
        return max(0.0, self.total_s - child_total)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "id": self.span_id,
            "parent_id": self.parent_id,
            "count": self.count,
            "total_ms": round(self.total_s * 1000.0, 3),
            "self_ms": round(self.self_seconds() * 1000.0, 3),
            "children": [c.to_dict() for c in self.children.values()],
        }


class _SpanContext:
    __slots__ = ("_trace", "_node", "_prev", "_started")

    def __init__(self, trace: "Trace", node: SpanNode) -> None:
        self._trace = trace
        self._node = node
        self._prev: Optional[SpanNode] = None
        self._started = 0.0

    def __enter__(self) -> SpanNode:
        trace = self._trace
        self._prev = trace._cursor
        trace._cursor = self._node
        self._node.count += 1
        self._started = perf_counter()
        return self._node

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        self._node.total_s += perf_counter() - self._started
        self._trace._cursor = self._prev if self._prev is not None \
            else self._trace.root


class Trace:
    """The per-request span tree.  Single-threaded by construction."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._started = perf_counter()
        self.root = SpanNode(name, 0, None)
        self.root.count = 1
        self._next_id = 1
        self._cursor = self.root

    def span(self, name: str) -> _SpanContext:
        cursor = self._cursor
        node = cursor.children.get(name)
        if node is None:
            node = SpanNode(name, self._next_id, cursor.span_id)
            self._next_id += 1
            cursor.children[name] = node
        return _SpanContext(self, node)

    def finish(self) -> None:
        if self.root.total_s == 0.0:
            self.root.total_s = perf_counter() - self._started

    def to_dict(self) -> Dict[str, Any]:
        return self.root.to_dict()


Span = Union[_SpanContext, _NoopSpan]


def span(name: str) -> Span:
    """A span under the current trace, or the shared no-op when disabled."""
    trace = ACTIVE.trace
    if trace is None:
        return _NOOP
    return trace.span(name)


class start_trace:
    """Enable tracing on this thread for the duration of a ``with`` block.

    Saves and restores any previously active trace, so nested/re-entrant
    use degrades to "inner block gets its own tree" rather than
    corrupting the outer one.
    """

    __slots__ = ("trace", "_prev")

    def __init__(self, name: str) -> None:
        self.trace = Trace(name)
        self._prev: Optional[Trace] = None

    def __enter__(self) -> Trace:
        self._prev = ACTIVE.trace
        ACTIVE.trace = self.trace
        return self.trace

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        self.trace.finish()
        ACTIVE.trace = self._prev


# --------------------------------------------------------------------- #
# Rendering: the ``--trace`` pretty printer
# --------------------------------------------------------------------- #

def _walk(node: Dict[str, Any], depth: int,
          out: List[Tuple[int, Dict[str, Any]]]) -> None:
    out.append((depth, node))
    for child in node.get("children", ()):
        _walk(child, depth + 1, out)


def format_trace(trace: Dict[str, Any], top: int = 5) -> str:
    """Render a trace dict as an indented tree + top-N self-time table.

    ``trace`` is the block ``execute_task`` embeds into artefacts
    (``payload["trace"]``, i.e. :meth:`Trace.to_dict` output).
    """
    flat: List[Tuple[int, Dict[str, Any]]] = []
    _walk(trace, 0, flat)
    width = max(len(node["name"]) + 2 * depth for depth, node in flat)
    lines = ["trace: %s (%.3f ms total)" % (trace["name"],
                                            trace["total_ms"])]
    for depth, node in flat:
        label = "  " * depth + node["name"]
        lines.append("  %-*s  total %10.3f ms  self %10.3f ms  x%d"
                     % (width, label, node["total_ms"], node["self_ms"],
                        node["count"]))

    # Self-time aggregated by span name (the same name can appear under
    # several parents; the summary answers "where did the time go", not
    # "along which path").
    by_name: Dict[str, Tuple[float, int]] = {}
    for _, node in flat:
        total_self, count = by_name.get(node["name"], (0.0, 0))
        by_name[node["name"]] = (total_self + node["self_ms"],
                                 count + node["count"])
    grand_total = max(trace["total_ms"], 1e-9)
    ranked = sorted(by_name.items(), key=lambda kv: (-kv[1][0], kv[0]))
    lines.append("top self-time:")
    for rank, (name, (self_ms, count)) in enumerate(ranked[:top], start=1):
        lines.append("  %d. %-16s %10.3f ms  %5.1f%%  x%d"
                     % (rank, name, self_ms,
                        100.0 * self_ms / grand_total, count))
    return "\n".join(lines)
