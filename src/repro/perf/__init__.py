"""Query-throughput engine: rollup indexes, scenario-cube caching, batching.

This package holds the performance layer added on top of the semantic
engine:

* :mod:`repro.perf.leaf_store` — the columnar leaf store: per-dimension
  code columns and one value column over the leaf-id space, its forks,
  renumbering and derivation, and the one coder of columns from
  addresses;
* :mod:`repro.perf.rollup_index` — the index every cube holds from
  construction: it serves the leaf store under one lock, takes the
  cube's writes and answers ``rollup``/``scope_values`` in O(|scope|)
  instead of a full leaf scan per derived cell;
* :mod:`repro.perf.scenario_cache` — an LRU cache of applied what-if
  scenarios keyed by their canonical fingerprints, so repeated
  ``WITH PERSPECTIVE``/``WITH CHANGES`` queries skip ``scenario.apply``;
* :mod:`repro.perf.batch` — batched MDX grid evaluation that resolves
  axis planes against the rollup index;
* :mod:`repro.perf.config` — ``naive_mode``, the full-scan reference
  path the ledger's oracle and the equivalence tests evaluate under.

Everything here is behaviour-preserving: with the engine on or off, query
results are bit-identical (enforced by the equivalence property tests).

The names below are re-exported lazily (:mod:`repro._lazy`): each
is imported from its module on first access, so importing one
submodule loads only what that submodule imports.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.perf.config import engine_enabled, naive_mode
    from repro.perf.rollup_index import RollupIndex
    from repro.perf.scenario_cache import ScenarioCache

__all__ = [
    "RollupIndex",
    "ScenarioCache",
    "engine_enabled",
    "naive_mode",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.perf.config": ("engine_enabled", "naive_mode"),
        "repro.perf.rollup_index": ("RollupIndex",),
        "repro.perf.scenario_cache": ("ScenarioCache",),
    },
)
