"""LRU cache of applied what-if scenarios.

Theorem 4.1 makes every scenario a *pure* function of the base cube and
the normalised clause: negative scenarios are ``E ∘ ρ(·, Φ_sem(VS, P)) ∘ σ``
and positive scenarios ``E ∘ S(·, R)``.  Two queries whose WITH clauses
normalise to the same fingerprints therefore produce the *same*
perspective cube — so the warehouse may cache what
:func:`~repro.core.scenario.apply_scenarios` returns (the final
:class:`~repro.core.scenario.WhatIfCube`, which carries the chain's
hypothetical structures and surviving instances) beside the base cube it
was applied to, and skip ``scenario.apply`` entirely on repeats (the
Fig. 11/12 workload shape: many queries against one scenario).

Keys are the tuple of scenario fingerprints
(:meth:`NegativeScenario.fingerprint` /
:meth:`PositiveScenario.fingerprint`); each entry records the base cube's
mutation version at apply time, and a lookup against a newer version drops
the entry (counted as an invalidation).

Versions are opaque ``Hashable`` values compared by equality, not ints:
the persistent catalog (:mod:`repro.catalog`) keys its materialized
scenario cubes on the *pair* ``(base_cube.version, catalog.generation)``,
so a merge or rebase — which moves the catalog generation without
touching the base cube — still invalidates every cached cube for the
rewritten scenario (the stale-read-after-rebase bug).

The warehouse's prepared-plan cache (:func:`repro.mdx.evaluator.prepare`)
is the same LRU under another ``name``: keyed by query text, versioned by
the structure the plan was made on.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

from repro.lint.lockdep import make_lock
from repro.obs.trace import trace_event, trace_span
from repro.storage.io_stats import CacheStats

__all__ = ["ScenarioCache"]

V = TypeVar("V")


class ScenarioCache(Generic[V]):
    """A small LRU keyed by (fingerprint chain), version-checked.

    Thread-safe: service workers share one warehouse cache, and an LRU is
    exactly the structure concurrent access corrupts — ``move_to_end``
    racing ``popitem`` can drop the wrong entry or raise mid-reorder.
    Every operation (including its stats counters, which must stay
    consistent with the entry map) runs under one cache lock; the values
    themselves are immutable applied-scenario tuples, so handing them out
    beyond the lock is safe.

    ``name`` prefixes the cache's spans and trace events — ``None`` for
    a cache whose callers' spans already time it, which opens and
    records none;
    ``lock`` is its lock's name in the declared hierarchy
    (``lint/lock_hierarchy.py``).
    """

    def __init__(
        self,
        maxsize: int = 32,
        name: "str | None" = "scenario_cache",
        lock: str = "ScenarioCache._lock",
    ) -> None:
        if maxsize < 1:
            raise ValueError("ScenarioCache maxsize must be >= 1")
        self.maxsize = maxsize
        self.name = name
        self.stats = CacheStats()
        self._lock = make_lock(lock)
        self._entries: "OrderedDict[Hashable, tuple[Hashable, V]]" = OrderedDict()

    def get(self, key: Hashable, version: Hashable) -> "V | None":
        name = self.name
        if name is None:
            with self._lock:
                return self._lookup(key, version)[0]
        with trace_span(f"{name}.get"), self._lock:
            value, outcome = self._lookup(key, version)
            trace_event(f"{name}.{outcome}")
            return value

    def _lookup(self, key: Hashable, version: Hashable) -> "tuple[V | None, str]":  # reprolint: locked
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None, "miss"
        cached_version, value = entry
        if cached_version != version:
            # The base cube (or owning catalog) moved since this
            # scenario was applied.
            del self._entries[key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            return None, "invalidated"
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value, "hit"

    def put(self, key: Hashable, version: Hashable, value: V) -> int:
        """Store a freshly built value (counted as a build) and return the
        number of entries this put evicted — both under the cache lock,
        so concurrent missers lose no build and a caller is billed only
        its own evictions."""
        name = self.name
        if name is None:
            with self._lock:
                return self._store(key, version, value)
        with trace_span(f"{name}.put"), self._lock:
            evicted = self._store(key, version, value)
            for _ in range(evicted):
                trace_event(f"{name}.evicted")
            return evicted

    def _store(self, key: Hashable, version: Hashable, value: V) -> int:  # reprolint: locked
        self.stats.builds += 1
        self._entries[key] = (version, value)
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self.maxsize:
            # Capacity pressure: the LRU entry leaves.  Counted —
            # uncounted eviction churn reads as a healthy cache.
            self._entries.popitem(last=False)
            evicted += 1
        self.stats.evictions += evicted
        return evicted

    def discard(self, key: Hashable) -> None:
        """Drop one entry (counted as an invalidation if present) — for
        callers whose own validity checks fail, e.g. the warehouse cube
        object itself was swapped out."""
        with self._lock:
            if self._entries.pop(key, None) is not None:
                self.stats.invalidations += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScenarioCache({self.name!r}, {len(self._entries)}/{self.maxsize} entries, "
            f"{self.stats.hits} hits, {self.stats.misses} misses)"
        )
