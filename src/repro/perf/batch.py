"""Batched MDX grid evaluation.

The naive evaluator resolves every result cell independently:
``schema.address(**coords)`` + ``view.effective_value`` per cell, where
each derived cell re-derives its scope from scratch.  This module fills
the whole grid in one pass with the per-cell work hoisted out:

* the base address (defaults + slicer) is built once, row/column patches
  are applied positionally;
* per-coordinate leafness is memoised, so the leaf/derived split of an
  address is O(n_dims) dict probes;
* leaf cells are point reads of the leaf cube's store through the
  rollup index's one point read (:meth:`RollupIndex.leaf_reader`, taken
  once per grid); a stored aggregate is never at a leaf address, so
  derived cells alone probe the cube's stored-aggregate dict;
* default-rollup derived cells are resolved **memo-first** against the
  :class:`~repro.perf.rollup_index.RollupIndex`: the index's live memo
  table answers repeat addresses with one lock-free dict probe before any
  scope work happens (profiling showed the warm path spending ~40% of its
  time intersecting scopes for cells whose value was already memoised);
* a memo miss is the index's one scope and one reduction, split along the
  grid: columns are grouped by the dimensions they bind (one group in any
  ordinary grid); each row's scope over the dimensions a group leaves
  free is resolved once to its ascending leaf ids
  (:meth:`RollupIndex.ids_under`) and each column's once per query to a
  boolean mask (:meth:`RollupIndex.mask_under`), and the cell's scope —
  the row's ids filtered by the column's mask — goes to
  :meth:`RollupIndex.rollup`, the reducer a point rollup uses: work
  proportional to the row, not to the id space.

Semantics are preserved exactly: cells are produced in row-major order,
the ``mdx.cell`` failpoint fires once per *evaluated* cell in that order,
and budget degradation is cell-exact: a budget is charged per cell
(:meth:`~repro.mdx.budget.BudgetTracker.charge_cell`), as the per-cell
evaluator charges it, so a cap or a deadline that trips mid-row degrades
at the same cell with the same ``cells_evaluated`` and ``cells_skipped``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Sequence, TypeAlias

from repro.faults import FAULTS
from repro.olap.missing import MISSING, Missing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mdx.budget import BudgetTracker
    from repro.olap.schema import CubeSchema

__all__ = ["evaluate_grid"]

CellValue: TypeAlias = "float | Missing"


def _split_view(view: Any) -> tuple[Any, Any]:
    """(leaf cube, aggregate cube) of a view — a WhatIfCube routes leaf
    reads and aggregate reads to different cubes; a plain Cube is both."""
    leaf_cube = getattr(view, "leaf_cube", view)
    aggregate_cube = getattr(view, "aggregate_cube", view)
    return leaf_cube, aggregate_cube


def _no_failpoint(failpoint: None) -> None:
    return None


def evaluate_grid(
    view: Any,
    schema: "CubeSchema",
    base_coords: Mapping[str, str],
    rows: "Sequence[Any]",
    columns: "Sequence[Any]",
    tracker: "BudgetTracker | None",
    failpoint: "str | None",
) -> tuple[list[list[CellValue]], int, dict[str, int]]:
    """Fill the result grid for ``rows`` x ``columns`` axis tuples.

    ``base_coords`` maps every dimension to its default/slicer coordinate;
    row and column coordinates are patched on top (columns last, matching
    the per-cell evaluator's dict-update order).  ``failpoint`` fires once
    per evaluated cell; ``None`` fires none (a shard, or the shard
    coordinator's residue, fills blocks of a request that has its own
    failpoints).  Returns ``(cells, cells_skipped, stats)``.
    """
    dims = schema.dimensions
    n_dims = schema.n_dims
    dim_index = {d.name: i for i, d in enumerate(dims)}
    base = [base_coords[d.name] for d in dims]

    leaf_cube, agg_cube = _split_view(view)
    agg_stored_derived = agg_cube._stored_derived
    leaf_rules = leaf_cube.rules
    agg_rules = agg_cube.rules

    # Leaf point reads: the index's lock-free reader
    leaf_read = leaf_cube.rollup_index().leaf_reader()

    # the failpoint hook, bound once: its disarmed fast path is a single
    # dict probe, and skipping the module-level wrapper saves a call frame
    # on every evaluated cell
    faults_hit = FAULTS.hit if failpoint is not None else _no_failpoint

    # -- memoised coordinate leafness -------------------------------------------
    leaf_flag: dict[tuple[int, str], bool] = {}

    def coord_is_leaf(i: int, coord: str) -> bool:
        key = (i, coord)
        flag = leaf_flag.get(key)
        if flag is None:
            flag = schema.coordinate_is_leaf(i, coord)
            leaf_flag[key] = flag
        return flag

    base_flags = [coord_is_leaf(i, coord) for i, coord in enumerate(base)]

    # -- per-axis patches --------------------------------------------------------
    row_patches = [
        [(dim_index[dim], coord) for dim, coord in r.coordinates] for r in rows
    ]
    col_patches = [
        [(dim_index[dim], coord) for dim, coord in c.coordinates] for c in columns
    ]

    # Columns that bind the same dimensions form a group (one in any
    # ordinary grid): a row's leaf-ness and scope ids over the remaining
    # dimensions are shared by every cell of the row in that group.
    col_dim_sets = [frozenset(i for i, _ in patch) for patch in col_patches]
    groups = list(dict.fromkeys(col_dim_sets))
    col_group = [groups.index(dims) for dims in col_dim_sets]
    outside = [[i for i in range(n_dims) if i not in dims] for dims in groups]
    col_all_leaf = [
        all(coord_is_leaf(i, coord) for i, coord in patch)
        for patch in col_patches
    ]

    index = agg_cube.rollup_index()
    memo = index.memo_table("sum")
    col_masks: "dict[int, Any]" = {}  # column -> its mask, once computed

    stats = {"cells_evaluated": 0, "cells_skipped": 0, "indexed_rollups": 0}
    cells: list[list[CellValue]] = []
    cells_skipped = 0

    for row_patch in row_patches:
        row_addr = list(base)
        row_flags = list(base_flags)
        for i, coord in row_patch:
            row_addr[i] = coord
            row_flags[i] = coord_is_leaf(i, coord)
        row_leaf_outside = [all(row_flags[i] for i in dims) for dims in outside]
        # most rows of a grid are above the leaves: one test skips the rest
        row_may_be_leaf = any(row_leaf_outside)
        row_ids: "dict[int, Any]" = {}  # column group -> the row's ids there

        row_cells: list[CellValue] = []
        for j, col_patch in enumerate(col_patches):
            if tracker is not None and not tracker.charge_cell():
                # Budget breached: remaining cells are ⊥, uncharged and
                # without fault injection — exactly the per-cell path.
                row_cells.append(MISSING)
                cells_skipped += 1
                continue
            faults_hit(failpoint)
            stats["cells_evaluated"] += 1
            addr_list = list(row_addr)
            for i, coord in col_patch:
                addr_list[i] = coord
            addr = tuple(addr_list)
            if row_may_be_leaf and col_all_leaf[j] and row_leaf_outside[col_group[j]]:
                value = leaf_read(addr)
                if value is None:
                    if leaf_rules is not None and leaf_rules.has_rule_for(
                        leaf_cube, addr
                    ):
                        value = leaf_rules.evaluate_cell(leaf_cube, addr)
                    else:
                        value = MISSING
                row_cells.append(value)
                continue

            # not a leaf address, so the leaf store cannot hold it
            value = agg_stored_derived.get(addr)
            if value is not None:
                row_cells.append(value)
                continue
            if agg_rules is not None:
                row_cells.append(agg_rules.evaluate_cell(agg_cube, addr))
                continue

            # Default sum-rollup through the index, memo-first: repeat
            # addresses skip scope construction entirely.
            stats["indexed_rollups"] += 1
            value = memo.get(addr)
            if value is not None:
                index.count_hit()
                row_cells.append(value)
                continue
            group = col_group[j]
            if group not in row_ids:
                row_ids[group] = index.ids_under(
                    {i: (row_addr[i],) for i in outside[group]}
                )
            ids = row_ids[group]
            if ids is not None:  # None: the row is every leaf, the cell its own scope
                if j not in col_masks:
                    col_masks[j] = index.mask_under(col_patch)
                mask = col_masks[j]
                if mask is not None:
                    ids = ids[mask[ids]]
            row_cells.append(index.rollup(addr, ids))
        cells.append(row_cells)

    stats["cells_skipped"] = cells_skipped
    return cells, cells_skipped, stats
