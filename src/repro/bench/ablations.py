"""Ablation experiments for the design choices of Sec. 5.

Two knobs the paper argues for, measured head-to-head:

* **Pebbling** (Sec. 5.2): chunk-read order from the pebbling heuristic vs
  the naive linear scan order — metric: chunks co-resident (pebbles).
* **Dimension order** (Lemma 5.1): varying dimension first vs last in the
  chunk scan order — metric: merge-induced memory requirement.

Plus the Zhao-baseline comparison: shared single-scan simultaneous
aggregation vs one scan per group-by — metric: chunk reads.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.harness import ExperimentSeries
from repro.core.dimension_order import memory_for_dimension_order
from repro.core.merge_graph import build_merge_graph
from repro.core.pebbling import pebble, pebbles_for_order
from repro.core.perspective import PerspectiveSet, Semantics
from repro.storage.cube_compute import compute_group_bys, compute_group_bys_naive
from repro.storage.lattice import all_group_bys
from repro.workload.retail import RetailConfig, build_retail

__all__ = [
    "run_pebbling_ablation",
    "run_dimension_order_ablation",
    "run_cube_compute_ablation",
]


def _retail_graph(n_varying: int, seed: int, chunk_rows: int = 1):
    retail = build_retail(
        RetailConfig(
            n_groups=6,
            products_per_group=4,
            n_varying=n_varying,
            max_moves=3,
            n_locations=2,
            seed=seed,
        )
    )
    chunked, spec = retail.chunked(chunk_shape=(chunk_rows, 3, 2))
    pset = PerspectiveSet([0, 6], 12)
    graph = build_merge_graph(spec, pset, Semantics.FORWARD)
    return graph, chunked.grid


def run_pebbling_ablation(
    varying_counts: Sequence[int] = (2, 4, 6, 8),
    seed: int = 17,
) -> list[ExperimentSeries]:
    """Pebbles needed: heuristic order vs naive linear order."""
    heuristic = ExperimentSeries("Pebbling heuristic")
    naive = ExperimentSeries("Naive scan order")
    for n in varying_counts:
        graph, grid = _retail_graph(n, seed)
        if graph.number_of_nodes() == 0:
            heuristic.add(n, pebbles=0)
            naive.add(n, pebbles=0)
            continue
        result = pebble(graph)
        scan = sorted(
            graph.nodes, key=lambda c: grid.linear_index(c, grid.default_order())
        )
        heuristic.add(n, pebbles=result.max_pebbles)
        naive.add(n, pebbles=pebbles_for_order(graph, scan))
    return [heuristic, naive]


def run_dimension_order_ablation(
    varying_counts: Sequence[int] = (2, 4, 6, 8),
    seed: int = 17,
) -> list[ExperimentSeries]:
    """Lemma 5.1: memory with the varying dimension first vs last."""
    first = ExperimentSeries("Varying dim first")
    last = ExperimentSeries("Varying dim last")
    for n in varying_counts:
        graph, grid = _retail_graph(n, seed)
        first.add(
            n, memory_chunks=memory_for_dimension_order(graph, grid, (0, 1, 2))
        )
        last.add(
            n, memory_chunks=memory_for_dimension_order(graph, grid, (1, 2, 0))
        )
    return [first, last]


def run_cube_compute_ablation(
    seed: int = 23,
) -> list[ExperimentSeries]:
    """Zhao et al. baseline: shared scan vs per-group-by scans."""
    retail = build_retail(
        RetailConfig(
            n_groups=6, products_per_group=6, n_varying=4, n_locations=4, seed=seed
        )
    )
    chunked, _ = retail.chunked(chunk_shape=(4, 3, 2))
    group_bys = all_group_bys(3)

    shared = ExperimentSeries("Shared single scan")
    naive = ExperimentSeries("Scan per group-by")

    chunked.store.reset_stats()
    compute_group_bys(chunked.store, group_bys)
    shared.add(len(group_bys), chunk_reads=chunked.store.stats.chunk_reads)

    chunked.store.reset_stats()
    compute_group_bys_naive(chunked.store, group_bys)
    naive.add(len(group_bys), chunk_reads=chunked.store.stats.chunk_reads)
    return [shared, naive]
