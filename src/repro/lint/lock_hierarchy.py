"""The declared lock hierarchy and thread-shared class registry.

This module is the **source of truth** the prose in ``docs/robustness.md``
used to carry: which classes own locks, what those locks guard, and the
one total order in which locks may nest.  Both enforcement sides read it —
the static lock-order checker (:mod:`repro.lint.check_locks`) validates
every ``with self._lock:`` call edge against :data:`LOCK_ORDER`, and the
runtime witness (:mod:`repro.lint.lockdep`) ranks live acquisitions with
:func:`lock_rank`.

Adding a lock to the codebase means adding it here first; reprolint's
RPL103 flags locks it discovers that this module does not declare.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ENTRY_POINTS",
    "GuardSpec",
    "IO_BOUNDARIES",
    "LOCK_ORDER",
    "THREAD_SHARED",
    "lock_rank",
]


#: Qualified lock names, **outermost first**: a thread holding lock at
#: index ``i`` may only acquire locks at index ``> i``.  This is a total
#: order over every lock in the engine — coarse service-level locks
#: nest around cube/engine locks, which nest around leaf accounting
#: locks (metrics instruments are innermost: any module may update a
#: counter while holding anything else).
LOCK_ORDER: tuple[str, ...] = (
    "_Chaos.lock",
    "_ShardChaos.lock",
    "QueryService._lock",
    # The supervisor nests inside the service (close order) and outside
    # the per-shard breakers it probes and the metrics it bumps.
    "ShardSupervisor._lock",
    "TenantQuotas._lock",
    "Warehouse._snapshot_lock",
    # The catalog lock nests *inside* service/warehouse scopes but
    # *outside* cube, cache and journal locks: every catalog op may copy
    # cubes (Cube._lock), consult the materialization cache
    # (ScenarioCache._lock) and append to its WAL (CatalogJournal._lock).
    "ScenarioCatalog._lock",
    "CatalogJournal._lock",
    "CircuitBreaker._lock",
    # a deferred NON_VISUAL stage's one leaf build: ρ / S derive a cube
    # and its index inside it
    "WhatIfCube._lock",
    "Cube._lock",
    "RollupIndex._lock",
    "ScenarioCache._lock",
    # the warehouse's prepared-plan cache: the same LRU class as the
    # scenario cache, under its own name; nothing is taken inside it
    "PlanCache._lock",
    "SlowQueryLog._lock",
    "FaultRegistry._lock",
    "ChunkStore._lock",
    "MetricsRegistry._lock",
    "Counter._lock",
    "Gauge._lock",
    "Histogram._lock",
)

_RANKS: dict[str, int] = {name: rank for rank, name in enumerate(LOCK_ORDER)}


def lock_rank(name: str) -> "int | None":
    """Rank of a qualified lock name in :data:`LOCK_ORDER` (0 is the
    outermost); ``None`` for locks outside the declared hierarchy."""
    return _RANKS.get(name)


@dataclass(frozen=True)
class GuardSpec:
    """What one thread-shared class guards: the lock attribute, and the
    instance attributes that may only be written inside its scope."""

    lock_attr: str
    guarded: tuple[str, ...]


#: class name -> guard contract.  The RPL201 checker flags any
#: ``self.<guarded> = ...`` (or augmented/compound equivalent) in these
#: classes that is not lexically inside a ``with self.<lock_attr>:``
#: scope or a method marked ``# reprolint: locked``.
THREAD_SHARED: dict[str, GuardSpec] = {
    "Cube": GuardSpec(
        "_lock",
        (
            "_stored_derived",
            "_version",
            "_structure_generation",
            "_index",
            "_frozen",
        ),
    ),
    "RollupIndex": GuardSpec(
        "_lock",
        # ``_struct`` is the structure generation shared with forks (code
        # columns, tables, liveness, the point lookup and the mask caches
        # read off them): replaced or mutated only under the lock
        # of the one live index; ``_values`` is the value column's store
        # (replaced by renumbering, written by ``set_leaf``); ``_inherited``,
        # ``_written`` and ``_written_ids`` (the buffer of written leaf ids
        # not yet settled into ``_written``) are what the next fork's memo
        # carry reads; ``_reader`` is the held point read, read lock-free
        # and dropped under the lock when ``_struct`` is replaced;
        # ``_rows`` is the row memo, cleared with ``_memo``, ``_row_count``
        # its size, and ``_flushes`` the flush epoch a grid's stored rows
        # are checked by
        (
            "_struct",
            "_struct_shared",
            "_struct_copied",
            "_memo",
            "_rows",
            "_row_count",
            "_flushes",
            "_inherited",
            "_written",
            "_written_ids",
            "_values",
            "_reader",
        ),
    ),
    # a leaf-store generation (``repro.perf.leaf_store``) has no lock of
    # its own: the one index that may write it holds ``RollupIndex._lock``
    # around every call, so only its methods marked locked may assign
    # these attributes (the lazy ``ordered`` cache included)
    "_Structure": GuardSpec(
        "_lock", ("n_ids", "n_live", "codes", "live", "sorted_part", "recent", "ordered")
    ),
    "ScenarioCache": GuardSpec("_lock", ("_entries",)),
    "WhatIfCube": GuardSpec("_lock", ("_leaf_cube", "_build")),
    "SlowQueryLog": GuardSpec("_lock", ("_entries", "observed", "recorded")),
    "FaultRegistry": GuardSpec("_lock", ("_armed",)),
    "ChunkStore": GuardSpec(
        "_lock",
        ("_chunks", "_positions", "_next_position", "_fork_charges"),
    ),
    "MetricsRegistry": GuardSpec("_lock", ("_metrics", "_collectors")),
    "Counter": GuardSpec("_lock", ("value",)),
    "Gauge": GuardSpec("_lock", ("value",)),
    "Histogram": GuardSpec(
        "_lock",
        ("counts", "total", "count", "minimum", "maximum"),
    ),
    "CircuitBreaker": GuardSpec(
        "_lock",
        ("_state", "_consecutive_failures", "_opened_at", "_probe_in_flight", "trips"),
    ),
    "QueryService": GuardSpec("_lock", ("_closed",)),
    "ShardSupervisor": GuardSpec("_lock", ("_closed",)),
    "TenantQuotas": GuardSpec("_lock", ("_inflight",)),
    "Warehouse": GuardSpec("_snapshot_lock", ("_snapshot_cache",)),
    "ScenarioCatalog": GuardSpec(
        "_lock",
        (
            "_scenarios",
            "_sizes",
            "_generation",
            "_checkpoint_lsn",
            "_gauged_tenants",
            "_base_digest_cache",
        ),
    ),
    "CatalogJournal": GuardSpec("_lock", ("_handle", "_next_lsn")),
}


#: ``Class.method`` public entry points where the RPL501 checker requires
#: every ``raise`` of a newly constructed exception to be a typed
#: :class:`~repro.errors.ReproError` subclass.
ENTRY_POINTS: frozenset[str] = frozenset(
    {
        "Warehouse.query",
        "Warehouse.analyze",
        "Warehouse.explain",
        "QueryService.submit",
        "QueryService.execute",
        "QueryService.close",
        "QueryTicket.result",
        "QueryTicket.exception",
        "ScenarioCatalog.create",
        "ScenarioCatalog.fork",
        "ScenarioCatalog.update",
        "ScenarioCatalog.merge",
        "ScenarioCatalog.rebase",
        "ScenarioCatalog.drop",
        "ScenarioCatalog.diff",
        "ScenarioCatalog.materialize",
        "ScenarioCatalog.gc",
    }
)


#: ``(module basename, function/method qualname)`` pairs that are I/O
#: boundaries: the RPL303 checker requires each one to hit (or pass on)
#: at least one registered failpoint, so fault-injection coverage cannot
#: silently rot as storage code is refactored.
IO_BOUNDARIES: frozenset[tuple[str, str]] = frozenset(
    {
        ("chunk_store", "ChunkStore.read"),
        ("chunk_store", "ChunkStore.write"),
        ("chunk_store", "ChunkStore.fork"),
        ("journal", "CatalogJournal.append"),
        ("catalog", "ScenarioCatalog._commit"),
        ("catalog", "ScenarioCatalog._recover"),
        ("io", "_save_warehouse"),
        ("io", "_build_warehouse"),
        ("durability", "atomic_write_text"),
        ("durability", "_stage_temp"),
        ("durability", "_commit_generation"),
    }
)
