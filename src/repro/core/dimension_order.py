"""Dimension-order selection for perspective cube scans (Lemma 5.1).

Lemma 5.1: when computing a perspective cube, reading chunks with the
**varying dimension first** (varying fastest) needs less memory than any
order that does not lead with it — the chunks holding instances of the same
member meet sooner, so fewer chunks must be held for merging.  With several
varying dimensions, they should form a *prefix* of the order.

:func:`memory_for_dimension_order` measures the merge-induced memory of a
scan order directly: a chunk participating in merges stays resident until
all its merge-graph neighbours have been read (this is exactly the pebble
demand of the scan order restricted to the graph), while non-merging chunks
stream through one at a time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.pebbling import pebbles_for_order
from repro.storage.chunks import ChunkGrid

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["memory_for_dimension_order", "choose_dimension_order"]


def memory_for_dimension_order(
    graph: nx.Graph, grid: ChunkGrid, order: Sequence[int]
) -> int:
    """Max chunks co-resident when scanning in ``order`` (merging chunks
    held until their merge partners arrive, plus one streaming chunk)."""
    scan = [coord for coord in grid.iter_chunks(order) if coord in graph]
    if not scan:
        return 1
    merge_demand = pebbles_for_order(graph, scan)
    # One extra buffer for the chunk currently streaming through the scan
    # (non-merging chunks never pile up).
    return merge_demand + 1


def choose_dimension_order(
    grid: ChunkGrid, varying_axes: Iterable[int]
) -> tuple[int, ...]:
    """Lemma 5.1 order: varying dimensions first (they form a prefix),
    then the rest; within each block, ascending chunk count (Zhao's
    cardinality heuristic)."""
    varying = set(varying_axes)
    for axis in varying:
        if not 0 <= axis < grid.n_dims:
            raise ValueError(f"varying axis {axis} out of range")
    head = sorted(varying, key=lambda d: (grid.chunks_per_dim[d], d))
    tail = sorted(
        (d for d in range(grid.n_dims) if d not in varying),
        key=lambda d: (grid.chunks_per_dim[d], d),
    )
    return tuple(head + tail)
