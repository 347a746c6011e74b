"""Query-throughput engine: rollup indexes, scenario-cube caching, batching.

This package holds the performance layer added on top of the semantic
engine:

* :mod:`repro.perf.rollup_index` — the columnar leaf store every cube
  holds from construction: it serves ``rollup``/``scope_values`` in
  O(|scope|) instead of a full leaf scan per derived cell and takes the
  cube's writes;
* :mod:`repro.perf.scenario_cache` — an LRU cache of applied what-if
  scenarios keyed by their canonical fingerprints, so repeated
  ``WITH PERSPECTIVE``/``WITH CHANGES`` queries skip ``scenario.apply``;
* :mod:`repro.perf.batch` — batched MDX grid evaluation that resolves
  axis planes against the rollup index;
* :mod:`repro.perf.config` — ``naive_mode``, the full-scan reference
  path the ledger's oracle and the equivalence tests evaluate under.

Everything here is behaviour-preserving: with the engine on or off, query
results are bit-identical (enforced by the equivalence property tests).
"""

from typing import Any

from repro.perf.config import engine_enabled, naive_mode

__all__ = [
    "RollupIndex",
    "ScenarioCache",
    "engine_enabled",
    "naive_mode",
]


def __getattr__(name: str) -> Any:
    # Lazy re-exports: repro.olap.cube imports repro.perf.config, and the
    # rollup index imports repro.obs.trace and repro.storage.io_stats, whose
    # package __init__s import the evaluator and the chunked cube — both of
    # which import repro.olap.cube.  Eagerly that is a cycle.
    if name == "RollupIndex":
        from repro.perf.rollup_index import RollupIndex

        return RollupIndex
    if name == "ScenarioCache":
        from repro.perf.scenario_cache import ScenarioCache

        return ScenarioCache
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
