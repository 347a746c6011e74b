"""Query observability: tracing, metrics, profiles, EXPLAIN, slow log.

The layer every perf/robustness PR measures itself with (see
``docs/observability.md``):

* :mod:`repro.obs.trace` — ``Span``/``Tracer`` with nested, thread-local
  spans; off by default, enabled per block with :func:`tracing`.
* :mod:`repro.obs.metrics` — one :class:`MetricsRegistry` (counters,
  gauges, log-scale histograms) absorbing the engine's ``CacheStats`` /
  ``IoStats`` counters as pull-based collectors; Prometheus-text,
  JSON-lines, and plain-dict exports.
* :mod:`repro.obs.profile` — per-query :class:`QueryProfile` (phase
  timings, cell counts, cache ratios, budget/fault events) attached to
  ``MdxResult.profile`` when tracing is on.
* :mod:`repro.obs.slowlog` — warehouse-level :class:`SlowQueryLog`
  ring buffer.
* :mod:`repro.obs.explain` — ``repro explain``: the analyzed plan plus
  rollup-index scope estimates, without filling the grid.

The names below are re-exported lazily (:mod:`repro._lazy`): each
is imported from its module on first access, so importing one
submodule loads only what that submodule imports.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.explain import explain_query, explain_report
    from repro.obs.metrics import METRICS, MetricsRegistry
    from repro.obs.profile import PROFILE_SCHEMA, QueryProfile, validate_profile
    from repro.obs.slowlog import SlowQueryEntry, SlowQueryLog
    from repro.obs.trace import TRACER, Span, Tracer, trace_event, trace_span, tracing

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "PROFILE_SCHEMA",
    "QueryProfile",
    "SlowQueryEntry",
    "SlowQueryLog",
    "Span",
    "TRACER",
    "Tracer",
    "explain_query",
    "explain_report",
    "trace_event",
    "trace_span",
    "tracing",
    "validate_profile",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.obs.explain": ("explain_query", "explain_report"),
        "repro.obs.metrics": ("METRICS", "MetricsRegistry"),
        "repro.obs.profile": ("PROFILE_SCHEMA", "QueryProfile", "validate_profile"),
        "repro.obs.slowlog": ("SlowQueryEntry", "SlowQueryLog"),
        "repro.obs.trace": (
            "TRACER",
            "Span",
            "Tracer",
            "trace_event",
            "trace_span",
            "tracing",
        ),
    },
)
