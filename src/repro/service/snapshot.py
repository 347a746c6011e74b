"""Immutable warehouse read views pinned to a cube version.

``Warehouse.snapshot()`` returns a :class:`WarehouseSnapshot`: a
queryable facade over a **frozen** copy of the base cube, pinned to the
``Cube.version`` current at snapshot time.  The copy is taken under the
cube's write lock, so it commutes with every ``set_value`` — a snapshot
can never observe half of a mutation (the MVCC read-view half of the
standard snapshot-isolation pattern; writers keep writing to the live
cube and never block readers).

Cost model: a snapshot is a *fork*, not a copy.  The live cube owns its
rollup index (built once, by the bulk load that filled the cube) and that
index is its leaf store; ``Cube.frozen_copy`` forks it — the structure
generation (code columns, coordinate tables, lookup and mask caches) is
shared, the value column is shared copy-on-write — and hands the fork to
a frozen cube as its leaf store.  Nothing proportional to the cube is copied at
snapshot time; the *writer* pays afterwards, in proportion to what it
writes: one copy of the value column for the first value write after a
snapshot, one copy of the structure's arrays for the first insert/delete.
The warehouse caches the snapshot per version — in the read-mostly
what-if workload, thousands of queries between two mutations share one
view, one index, and one scenario-cache generation — and a write →
re-query loop costs the write
plus the cells it can have changed: each snapshot starts from the previous
one's rollup memo less the written leaves' roll-up cone.  The chunked
storage layer has the same idea at chunk granularity: ``ChunkStore.fork()``.

A snapshot deliberately *is a* :class:`~repro.warehouse.Warehouse`: the
evaluator, analyzer, EXPLAIN, and profile machinery all run against it
unchanged, while its observability surfaces (metrics, slow-query log,
scenario cache) are shared with the origin so service traffic lands in
one place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.warehouse import Warehouse

if TYPE_CHECKING:
    from repro.olap.cube import Cube

__all__ = ["WarehouseSnapshot"]


class WarehouseSnapshot(Warehouse):
    """A read-only warehouse view pinned to one base-cube version.

    Built by ``Warehouse.snapshot()`` — do not construct directly: the
    warehouse caches one snapshot per version so concurrent queries at
    the same version share the frozen cube (and its forked rollup index)
    instead of forking once each.
    """

    def __init__(self, origin: Warehouse, cube: "Cube") -> None:
        if not cube.frozen:
            raise ValueError("snapshot cube must be frozen")
        super().__init__(
            origin.schema, cube, name=origin.name, aliases=origin.aliases
        )
        #: the warehouse this view was pinned from
        self.origin = origin
        #: the base-cube mutation version this view is pinned to
        self.version = cube.version
        # Named sets are copied, with their version: later definitions on
        # the origin must not leak into a pinned view.
        self._named_sets = dict(origin._named_sets)
        self.named_set_version = origin.named_set_version
        # Share the origin's hot structures.  The scenario and plan caches
        # are version-keyed (entries from other versions read as misses),
        # and metrics/slow-log aggregation belongs to the live warehouse —
        # a service query must not vanish into a per-snapshot registry.
        self.scenario_cache = origin.scenario_cache
        self.plan_cache = origin.plan_cache
        self.metrics = origin.metrics
        self.slow_log = origin.slow_log

    def snapshot(self) -> "WarehouseSnapshot":
        """A snapshot of a snapshot is itself (already immutable)."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WarehouseSnapshot({self.name!r}, version={self.version}, "
            f"{self.cube.n_leaf_cells} leaf cells)"
        )
