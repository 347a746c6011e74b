"""Chunk-scan simultaneous aggregation (the Zhao et al. cube algorithm).

One pass over the base cube's chunks — read in a dimension order — feeds
every requested group-by at once.  Per-group-by accumulators hold running
sums and non-⊥ counts; MISSING (NaN) cells contribute nothing, and a
result position with zero contributing cells stays ⊥, matching the
semantic cube's aggregation rules.

Memory accounting is analytic (via :mod:`repro.storage.mmst`): Python-side
we allocate full result arrays for simplicity, but the reported memory
requirement — and the chunk-residency tracking used by the perspective
machinery — follow the Zhao model.

:func:`compute_group_bys_naive` is the comparison baseline: one full scan
per group-by instead of a shared scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.storage.chunk_store import ChunkStore
from repro.storage.lattice import GroupBy
from repro.storage.mmst import memory_requirement

__all__ = [
    "GroupByResult",
    "compute_group_bys",
    "compute_group_bys_budgeted",
    "compute_group_bys_from_cube",
    "compute_group_bys_naive",
    "full_array",
]


@dataclass
class GroupByResult:
    """A computed group-by: retained dims and the (NaN-for-⊥) result array.

    ``counts`` holds the number of contributing (non-⊥) leaf cells per
    result position; delta adjustment (visual-mode aggregation over a
    perspective cube) needs it to know when a position becomes ⊥ again.
    """

    dims: tuple[int, ...]
    data: np.ndarray
    memory_cells: int
    counts: np.ndarray | None = None

    def value(self, coords: Sequence[int]) -> float:
        """Cell value; NaN encodes ⊥."""
        return float(self.data[tuple(coords)])


class _Accumulator:
    def __init__(self, dims: tuple[int, ...], shape: tuple[int, ...]) -> None:
        self.dims = dims
        self.sums = np.zeros(shape)
        self.counts = np.zeros(shape, dtype=np.int64)

    def add_chunk(self, origin: tuple[int, ...], data: np.ndarray) -> None:
        axes_to_collapse = tuple(
            axis for axis in range(data.ndim) if axis not in self.dims
        )
        mask = ~np.isnan(data)
        filled = np.where(mask, data, 0.0)
        if axes_to_collapse:
            partial_sum = filled.sum(axis=axes_to_collapse)
            partial_count = mask.sum(axis=axes_to_collapse)
        else:
            partial_sum, partial_count = filled, mask.astype(np.int64)
        region = tuple(
            slice(origin[dim], origin[dim] + data.shape[dim]) for dim in self.dims
        )
        self.sums[region] += partial_sum
        self.counts[region] += partial_count

    def finish(self, memory_cells: int) -> GroupByResult:
        result = np.where(self.counts > 0, self.sums, np.nan)
        return GroupByResult(self.dims, result, memory_cells, self.counts)


def _normalise(group_bys: Iterable[GroupBy | Sequence[int]]) -> list[tuple[int, ...]]:
    return [tuple(sorted(g)) for g in group_bys]


def compute_group_bys(
    store: ChunkStore,
    group_bys: Iterable[GroupBy | Sequence[int]],
    order: Sequence[int] | None = None,
) -> dict[tuple[int, ...], GroupByResult]:
    """Compute the requested group-bys in a single shared chunk scan."""
    grid = store.grid
    scan_order = tuple(order) if order is not None else grid.default_order()
    wanted = _normalise(group_bys)
    accumulators = {
        dims: _Accumulator(dims, tuple(grid.dim_sizes[d] for d in dims))
        for dims in wanted
    }
    for coord in grid.iter_chunks(scan_order):
        if not store.has_chunk(coord):
            continue  # sparse region: nothing to read, nothing to add
        data = store.read(coord)
        origin = grid.chunk_origin(coord)
        for accumulator in accumulators.values():
            accumulator.add_chunk(origin, data)
    return {
        dims: accumulator.finish(
            memory_requirement(grid, frozenset(dims), scan_order)
        )
        for dims, accumulator in accumulators.items()
    }


def compute_group_bys_budgeted(
    store: ChunkStore,
    group_bys: Iterable[GroupBy | Sequence[int]],
    budget_cells: int,
    order: Sequence[int] | None = None,
) -> tuple[dict[tuple[int, ...], GroupByResult], int]:
    """Compute group-bys within a memory budget via multiple passes.

    Uses the MMST's :meth:`~repro.storage.mmst.MemorySpanningTree.passes`
    partitioning (Zhao et al.'s multi-pass strategy when memory falls
    short): each pass scans the input once and accumulates only the
    group-bys assigned to it.  Returns ``(results, n_passes)``; I/O stats
    on the store reflect the repeated scans.
    """
    from repro.storage.mmst import build_mmst

    grid = store.grid
    scan_order = tuple(order) if order is not None else grid.default_order()
    wanted = set(_normalise(group_bys))
    tree = build_mmst(grid, scan_order)
    requirement = dict(tree.requirement)
    base = tuple(range(grid.n_dims))
    requirement.setdefault(frozenset(base), memory_requirement(grid, frozenset(base), scan_order))

    # Restrict the pass planning to the requested group-bys.
    restricted = type(tree)(
        tree.order,
        {},
        {frozenset(g): requirement[frozenset(g)] for g in wanted},
    )
    passes = restricted.passes(budget_cells)
    results: dict[tuple[int, ...], GroupByResult] = {}
    for batch in passes:
        results.update(
            compute_group_bys(store, [tuple(sorted(g)) for g in batch], scan_order)
        )
    return results, len(passes)


def compute_group_bys_from_cube(
    cube,
    group_bys: Iterable[GroupBy | Sequence[int]],
    chunk_shape: Sequence[int] | None = None,
    order: Sequence[int] | None = None,
) -> tuple[dict[tuple[int, ...], GroupByResult], "object"]:
    """Shared-scan group-bys straight off a *semantic* cube.

    Materialises the cube into the chunked store via
    :meth:`~repro.storage.array_cube.ChunkedCube.from_cube`, sourcing the
    leaf values from the cube's rollup index (one vectorized
    gather) instead of rebuilding a private cell view from the semantic
    dict, then runs :func:`compute_group_bys` over it.  Returns
    ``(results, chunked_cube)`` so callers can keep the physical image
    for follow-up scans.  Results are bit-identical to a dict-sourced
    build (the regression tests assert it).
    """
    from repro.storage.array_cube import ChunkedCube

    chunked = ChunkedCube.from_cube(cube, chunk_shape)
    return compute_group_bys(chunked.store, group_bys, order), chunked


def compute_group_bys_naive(
    store: ChunkStore,
    group_bys: Iterable[GroupBy | Sequence[int]],
    order: Sequence[int] | None = None,
) -> dict[tuple[int, ...], GroupByResult]:
    """Baseline: one full chunk scan *per* group-by (no sharing)."""
    results: dict[tuple[int, ...], GroupByResult] = {}
    for dims in _normalise(group_bys):
        results.update(compute_group_bys(store, [dims], order))
    return results


def full_array(store: ChunkStore) -> np.ndarray:
    """Assemble the dense cell array (NaN for ⊥); for tests/small cubes."""
    grid = store.grid
    array = np.full(grid.dim_sizes, np.nan)
    for coord in store.stored_chunks():
        origin = grid.chunk_origin(coord)
        data = store.peek(coord)
        region = tuple(
            slice(o, o + s) for o, s in zip(origin, data.shape)
        )
        array[region] = data
    return array
