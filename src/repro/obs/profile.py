"""Per-query profiles: phase timings, cell counts, cache ratios, events.

A :class:`QueryProfile` is the structured answer to "where did this query
spend its time?" — the per-phase breakdown the paper's own experiments
(Sec. 6, Figs. 11–13) presuppose.  It is built from the ``mdx.query``
root span when tracing is enabled (``repro query --profile``, or
``with tracing(): warehouse.query(...)``) and attached to
``MdxResult.profile``; with tracing disabled it is never constructed and
the result object carries ``None``.

Phases mirror the evaluator pipeline: ``parse`` → ``analyze`` →
``scenario`` (Φ/ρ/S/E application, Sec. 4) → ``axes`` (set resolution)
→ ``cells`` (grid fill) → ``finalize`` (NON EMPTY pruning + assembly).
A query answered by the shard pool (``QueryService`` with shards) is
profiled from its ``serve.execute`` root instead, whose phases are the
coordinator's: ``classify`` → ``scatter`` → ``gather`` → ``merge`` →
``local``, each rendered with its span attributes (owned / local cell
counts, shards involved).
A query that went through ``QueryService.submit`` also carries the
``service.submit`` span tree of its admission (``submit``): the
``cube.snapshot`` under it says whether the snapshot was a fork and what
the writes since the previous one copied.
``validate_profile`` checks a serialized profile against
:data:`PROFILE_SCHEMA` (a minimal JSON-Schema subset evaluated in-process
so CI needs no extra dependency).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.trace import Span

__all__ = ["PROFILE_SCHEMA", "QueryProfile", "validate_profile"]

#: evaluator pipeline phases, in execution order (span names are
#: ``mdx.<phase>`` under the ``mdx.query`` root)
PHASES = ("parse", "analyze", "axes", "scenario", "cells", "finalize")


def _format_attrs(span: "dict[str, Any]") -> str:
    """A serialized span's attributes as `` key=value`` pairs."""
    return "".join(f" {key}={value}" for key, value in span.get("attrs", {}).items())


@dataclass
class QueryProfile:
    """One query's observability record (see module docstring)."""

    #: wall time of the whole query (the ``mdx.query`` root span)
    total_ms: float
    #: phase name -> milliseconds, execution order preserved
    phases: dict[str, float]
    cells_evaluated: int = 0
    cells_skipped: int = 0
    #: engine counters (scenario_cache_hits/misses, indexed_rollups, ...)
    stats: dict[str, int] = field(default_factory=dict)
    #: structured budget-degradation records (empty = complete result)
    degradations: list[dict[str, Any]] = field(default_factory=list)
    #: failpoints that fired during the query: {failpoint: times}
    fault_events: dict[str, int] = field(default_factory=dict)
    #: full span tree (attrs, events, children) for deep dives
    spans: "dict[str, Any] | None" = None
    #: the ``service.submit`` span tree of a query admitted by a
    #: ``QueryService`` (it ran on the submitting thread, before the root)
    submit: "dict[str, Any] | None" = None

    @property
    def phase_sum_ms(self) -> float:
        return sum(self.phases.values())

    @property
    def cache_hit_ratio(self) -> "float | None":
        """Scenario-cache hit ratio for this query; None when untouched."""
        hits = self.stats.get("scenario_cache_hits", 0)
        misses = self.stats.get("scenario_cache_misses", 0)
        if hits + misses == 0:
            return None
        return hits / (hits + misses)

    @classmethod
    def from_span(
        cls,
        root: Span,
        *,
        stats: "dict[str, int] | None" = None,
        degradations: "list[dict[str, Any]] | None" = None,
        fault_events: "dict[str, int] | None" = None,
    ) -> "QueryProfile":
        """Build a profile from a finished ``mdx.query`` root span."""
        phases: dict[str, float] = {}
        for child in root.children:
            name = child.name.rsplit(".", 1)[-1]
            phases[name] = phases.get(name, 0.0) + child.duration_ms
        stats = dict(stats or {})
        return cls(
            total_ms=root.duration_ms,
            phases=phases,
            cells_evaluated=int(stats.get("cells_evaluated", 0)),
            cells_skipped=int(stats.get("cells_skipped", 0)),
            stats=stats,
            degradations=list(degradations or []),
            fault_events=dict(fault_events or {}),
            spans=root.to_dict(),
        )

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "total_ms": round(self.total_ms, 6),
            "phases": {k: round(v, 6) for k, v in self.phases.items()},
            "cells_evaluated": self.cells_evaluated,
            "cells_skipped": self.cells_skipped,
            "stats": dict(self.stats),
            "degradations": list(self.degradations),
            "fault_events": dict(self.fault_events),
        }
        if self.spans is not None:
            payload["spans"] = self.spans
        if self.submit is not None:
            payload["submit"] = self.submit
        return payload

    def _operator_lines(self) -> list[str]:
        """The spans under each ``scenario.apply`` — and each
        ``scenario.leaves``, a deferred stage moving its leaves — which
        operator (ρ, S, index derivation) a cold query spent its scenario
        phase in.  (Φ is the structure half: it runs while axes
        resolve.)"""
        lines: list[str] = []

        def walk(node: dict[str, Any], depth: int, inside: bool) -> None:
            inside = inside or node["name"] in ("scenario.apply", "scenario.leaves")
            if inside:
                lines.append(
                    f"  {'  ' * depth}{node['name']} "
                    f"{node['duration_ms']:.3f}ms{_format_attrs(node)}"
                )
            for child in node.get("children", ()):
                walk(child, depth + 1 if inside else depth, inside)

        if self.spans is not None:
            walk(self.spans, 1, False)
        return lines

    def _phase_attrs(self, phase: str) -> str:
        """The attributes of the root's child span(s) for ``phase``."""
        if self.spans is None:
            return ""
        return "".join(
            _format_attrs(child)
            for child in self.spans.get("children", ())
            if child["name"].rsplit(".", 1)[-1] == phase
        )

    def render(self) -> str:
        """Human-readable breakdown for ``repro query --profile``."""
        lines = ["query profile"]
        if self.submit is not None:
            lines.append(f"  {'submit':<9} {self.submit['duration_ms']:>10.3f}ms")
            for child in self.submit.get("children", ()):
                lines.append(
                    f"    {child['name']} {child['duration_ms']:.3f}ms"
                    f"{_format_attrs(child)}"
                )
        for phase in PHASES:
            if phase in self.phases:
                ms = self.phases[phase]
                share = 100.0 * ms / self.total_ms if self.total_ms else 0.0
                lines.append(f"  {phase:<9} {ms:>10.3f}ms  {share:5.1f}%")
                if phase == "scenario":
                    lines.extend(self._operator_lines())
        for phase, ms in self.phases.items():  # phases outside the taxonomy
            if phase not in PHASES:
                lines.append(
                    f"  {phase:<9} {ms:>10.3f}ms{self._phase_attrs(phase)}"
                )
        lines.append(f"  {'total':<9} {self.total_ms:>10.3f}ms")
        lines.append(
            f"  cells: {self.cells_evaluated} evaluated, "
            f"{self.cells_skipped} skipped"
        )
        ratio = self.cache_hit_ratio
        if ratio is not None:
            lines.append(f"  scenario cache hit ratio: {ratio:.2f}")
        if self.stats.get("indexed_rollups"):
            lines.append(
                f"  indexed rollups: {self.stats['indexed_rollups']}"
            )
        for degradation in self.degradations:
            lines.append(f"  degraded: {degradation.get('detail', '?')}")
        for failpoint, fired in sorted(self.fault_events.items()):
            lines.append(f"  fault fired: {failpoint} x{fired}")
        return "\n".join(lines)


#: Minimal JSON-Schema-style description of ``QueryProfile.to_dict()``.
PROFILE_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": [
        "total_ms",
        "phases",
        "cells_evaluated",
        "cells_skipped",
        "stats",
        "degradations",
        "fault_events",
    ],
    "properties": {
        "total_ms": {"type": "number", "minimum": 0},
        "phases": {"type": "object", "values": {"type": "number", "minimum": 0}},
        "cells_evaluated": {"type": "integer", "minimum": 0},
        "cells_skipped": {"type": "integer", "minimum": 0},
        "stats": {"type": "object", "values": {"type": "number"}},
        "degradations": {"type": "array", "items": {"type": "object"}},
        "fault_events": {"type": "object", "values": {"type": "integer", "minimum": 0}},
        "spans": {"type": "object"},
        "submit": {"type": "object"},
    },
}

_TYPES = {
    "object": dict,
    "array": list,
    "number": (int, float),
    "integer": int,
    "string": str,
    "boolean": bool,
}


def _check(value: Any, schema: dict[str, Any], path: str) -> None:
    expected = _TYPES[schema["type"]]
    if isinstance(value, bool) and schema["type"] in ("number", "integer"):
        raise ValueError(f"{path}: booleans are not {schema['type']}s")
    if not isinstance(value, expected):
        raise ValueError(
            f"{path}: expected {schema['type']}, "
            f"found {type(value).__name__}"
        )
    minimum = schema.get("minimum")
    if minimum is not None and value < minimum:
        raise ValueError(f"{path}: {value} < minimum {minimum}")
    if schema["type"] == "object":
        for key in schema.get("required", ()):
            if key not in value:
                raise ValueError(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        for key, subschema in properties.items():
            if key in value:
                _check(value[key], subschema, f"{path}.{key}")
        values_schema = schema.get("values")
        if values_schema is not None:
            for key, item in value.items():
                _check(item, values_schema, f"{path}.{key}")
    elif schema["type"] == "array":
        items = schema.get("items")
        if items is not None:
            for i, item in enumerate(value):
                _check(item, items, f"{path}[{i}]")


def validate_profile(payload: Any) -> None:
    """Raise ``ValueError`` when ``payload`` does not conform to
    :data:`PROFILE_SCHEMA`; return silently when it does."""
    _check(payload, PROFILE_SCHEMA, "profile")
