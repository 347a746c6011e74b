"""The benchmark's own span recorder for the traced pass.

Spans are opened from the benchmark's files around public calls into the
program's layers (spans *inside* the program are a later change); every
span of one operation shares the id of the operation's root span.  Spans
stay in memory and are written out once, when the pass ends.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Iterator

__all__ = ["NULL_LOG", "SpanLog"]


class SpanLog:
    """Append-only list of ``{id, parent, op, name, start_s, end_s}``
    records; single-threaded (the closed loop has one driver thread)."""

    def __init__(self) -> None:
        self.spans: "list[dict[str, Any]]" = []
        self._stack: "list[int]" = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> "Iterator[dict[str, Any]]":
        ident = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record: "dict[str, Any]" = {
            "id": ident,
            "parent": parent,
            "op": ident if parent is None else self.spans[parent]["op"],
            "name": name,
            "start_s": time.perf_counter(),
            "end_s": None,
        }
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        self._stack.append(ident)
        try:
            yield record
        finally:
            record["end_s"] = time.perf_counter()
            self._stack.pop()

    def durations_ms(self, name: str) -> "list[float]":
        return [
            (s["end_s"] - s["start_s"]) * 1000.0
            for s in self.spans
            if s["name"] == name and s["end_s"] is not None
        ]

    def self_ms_by_name(self) -> "dict[str, float]":
        """Total self time per span name: a span's duration minus the part
        of it its child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and s["end_s"] is not None:
                covered[s["parent"]] += s["end_s"] - s["start_s"]
        totals: "dict[str, float]" = {}
        for s in self.spans:
            if s["end_s"] is None:
                continue
            own = (s["end_s"] - s["start_s"] - covered[s["id"]]) * 1000.0
            totals[s["name"]] = totals.get(s["name"], 0.0) + own
        return totals


class _NullLog:
    """Stand-in while tracing is off: one shared no-op context manager."""

    _null = contextlib.nullcontext()

    def span(self, name: str, **attrs: Any) -> "contextlib.nullcontext[None]":
        return self._null


NULL_LOG = _NullLog()
