"""Batched MDX grid evaluation.

The naive evaluator resolves every result cell independently:
``schema.address(**coords)`` + ``view.effective_value`` per cell, where
each derived cell re-derives its scope from scratch.  This module fills
the grid a row — and the leaf cells a block — at a time:

* the layout is computed once per call: every row's address (defaults +
  slicer + the row's coordinates) and, as a bit mask, the dimensions
  where it is above the leaves; the columns split into groups by the
  dimensions they bind (one group in any ordinary grid), each with its
  columns' coordinates on those dimensions;
* per-coordinate leafness is memoised, so the leaf/derived split of a
  cell is a per-row test per group, never a per-cell one;
* leaf cells are one block read per column group
  (:meth:`RollupIndex.leaf_block`): the group's leaf rows × leaf columns
  go through one ``searchsorted`` over the generation's sorted keys, then
  one gather from the value column.  A miss is a leaf rule or ⊥, as in
  the per-cell evaluator; a stored aggregate is never at a leaf address,
  so derived cells alone probe the cube's stored-aggregate dict;
* derived cells are one memo sweep per row and group: the row's
  addresses are built in one pass — the row's coordinates before and
  after the bound dimensions around each column's own — and the index's
  live memo table answers them in one pass with no lock;
* a memo miss — in row-major order — is the stored aggregate, the rules,
  or the index's one scope and one reduction, split along the grid: each
  row's scope over the dimensions a group leaves free is resolved once to
  its ascending leaf ids (:meth:`RollupIndex.ids_under`) and each column's
  once per call to a boolean mask (:meth:`RollupIndex.mask_under`), and
  the cell's scope — the row's ids filtered by the column's mask — goes to
  :meth:`RollupIndex.rollup`, the reducer a point rollup uses: work
  proportional to the row, not to the id space.  Memo hits are added to
  the index's counters once per call.

Semantics are preserved exactly: cells are produced in row-major order
and budget degradation is cell-exact.  Each row charges the budget per
cell (:meth:`~repro.mdx.budget.BudgetTracker.charge_cell`), as the
per-cell evaluator does, so a cap or a deadline that trips mid-row
degrades at the same cell with the same ``cells_evaluated``,
``cells_skipped`` and clock reads; the ``mdx.cell`` failpoint then counts
one hit per admitted cell (``FAULTS.hit(name, times=n)``, exactly ``n``
single hits), and only the admitted cells are evaluated.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence, TypeAlias

from repro.faults import FAULTS
from repro.olap.missing import MISSING, Missing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mdx.budget import BudgetTracker
    from repro.olap.schema import CubeSchema

__all__ = ["evaluate_grid"]

Address = tuple[str, ...]
CellValue: TypeAlias = "float | Missing"


class _Segment:
    """Some columns of one group, ascending: their positions, each one's
    coordinates on the bound dimensions, and the part of their addresses
    from the first to the last bound dimension — those coordinates when
    the bound dimensions are a contiguous run, else filled from the row
    per call of :meth:`addresses`."""

    __slots__ = ("cols", "size", "tuples", "start", "span", "inner", "middles")

    def __init__(
        self, cols: list[int], patches: list[dict[int, str]], bound: Sequence[int]
    ) -> None:
        self.cols = cols
        self.size = len(cols)
        self.tuples = [tuple(patches[j][dim] for dim in bound) for j in cols]
        #: the first column when the columns are one contiguous run
        self.start = cols[0] if cols and cols[-1] - cols[0] == len(cols) - 1 else None
        lo, hi = (bound[0], bound[-1] + 1) if bound else (0, 0)
        self.span = lo, hi
        #: per dimension of the span, the columns' coordinates (``None``
        #: where the row's coordinate goes)
        by_dim = dict(zip(bound, zip(*self.tuples)))
        self.inner = [by_dim.get(dim) for dim in range(lo, hi)]
        self.middles = self.tuples if hi - lo == len(bound) else None

    def addresses(self, row: Sequence[str], n: int) -> list[Address]:
        """The addresses of the first ``n`` columns in ``row``."""
        lo, hi = self.span
        head, tail = tuple(row[:lo]), tuple(row[hi:])
        middles: "Iterable[tuple[str, ...]] | None" = self.middles
        if middles is None:
            middles = zip(
                *[
                    repeat(row[dim], n) if coords is None else coords
                    for dim, coords in enumerate(self.inner, lo)
                ]
            )
        elif n < self.size:
            middles = islice(middles, n)
        return [head + middle + tail for middle in middles]

    def store(self, row_cells: list[Any], values: Sequence[Any], n: int) -> None:
        """Write the first ``n`` of ``values`` into the columns' places."""
        start = self.start
        if start is not None:
            row_cells[start : start + n] = values if len(values) == n else values[:n]
        else:
            for j, value in zip(self.cols, values[:n]):
                row_cells[j] = value


class _Group:
    """The columns that bind one set of dimensions — every column, its
    leaf ones and the others — and per row whether the row is at leaf
    level on every dimension they leave free: a row's leaf-ness and its
    scope ids there are shared by all of them."""

    __slots__ = ("bound", "free", "every", "leaf", "derived", "leaf_row", "_block")

    def __init__(
        self,
        bound: tuple[int, ...],
        cols: list[int],
        leaf_cols: list[int],
        patches: list[dict[int, str]],
        row_above: list[int],
        n_dims: int,
    ) -> None:
        self.bound = bound
        self.free = [dim for dim in range(n_dims) if dim not in bound]
        self.every = _Segment(cols, patches, bound)
        self.leaf = _Segment(leaf_cols, patches, bound)
        leaf = set(leaf_cols)
        self.derived = _Segment([j for j in cols if j not in leaf], patches, bound)
        free = sum(1 << dim for dim in self.free)
        self.leaf_row = [not above & free for above in row_above]
        self._block: "tuple[dict[int, int], list[list[Any]], dict[int, list[int]]] | None" = None

    def block_row(
        self, r: int, leaf_index: Any, row_addrs: list[list[str]]
    ) -> "tuple[list[Any], Sequence[int]]":
        """Row ``r``'s leaf columns, values with ``None`` at a miss, and
        the misses: the group's block — its leaf rows × leaf columns — is
        read once, on first use (:meth:`RollupIndex.leaf_block`)."""
        if self._block is None:
            at = [r for r, leaf in enumerate(self.leaf_row) if leaf]
            values, misses = leaf_index.leaf_block(
                [row_addrs[r] for r in at], self.bound, self.leaf.tuples
            )
            self._block = ({r: k for k, r in enumerate(at)}, values, misses)
        at, values, misses = self._block
        k = at[r]
        return values[k], misses.get(k, ())


def _memo_sweep(
    memo: Mapping[Address, CellValue], addrs: list[Address]
) -> "Sequence[CellValue] | None":
    # every address's memoised value in one pass, ``None`` when one misses
    try:
        if len(addrs) == 1:
            return [memo[addrs[0]]]
        return itemgetter(*addrs)(memo)
    except KeyError:
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
    the per-cell evaluator's dict-update order).  ``failpoint`` counts one
    hit per evaluated cell; ``None`` counts none (a shard, or the shard
    coordinator's residue, fills blocks of a request that has its own
    failpoints).  Returns ``(cells, cells_skipped, stats)``.
    """
    dims = schema.dimensions
    n_dims = schema.n_dims
    dim_index = {d.name: i for i, d in enumerate(dims)}
    base = [base_coords[d.name] for d in dims]

    # a WhatIfCube routes leaf reads and aggregate reads to different
    # cubes, a plain Cube is both; the leaf side is asked for at the first
    # leaf cell only (a NON_VISUAL stage may not have moved its leaves)
    agg_cube = getattr(view, "aggregate_cube", view)
    leaf_cube: Any = None
    leaf_rules: Any = None
    leaf_index: Any = None
    agg_stored_derived = agg_cube._stored_derived
    agg_rules = agg_cube.rules
    index = agg_cube.rollup_index()
    memo = index.memo_table("sum")
    memo_get = memo.get
    # no rule and no stored aggregate: a derived cell is the memo's, or
    # the reducer's on a miss
    sweep = agg_rules is None and not agg_stored_derived

    # -- memoised coordinate leafness -------------------------------------------
    leaf_flag: dict[tuple[int, str], bool] = {}

    def coord_is_leaf(i: int, coord: str) -> bool:
        key = (i, coord)
        flag = leaf_flag.get(key)
        if flag is None:
            flag = schema.coordinate_is_leaf(i, coord)
            leaf_flag[key] = flag
        return flag

    # -- layout, once per call ---------------------------------------------------
    # a row's address, and as a bit mask the dimensions where it is above
    # the leaves
    above = sum(1 << i for i, coord in enumerate(base) if not coord_is_leaf(i, coord))
    row_addrs: list[list[str]] = []
    row_above: list[int] = []
    for row in rows:
        addr, row_mask = list(base), above
        for dim, coord in row.coordinates:
            i = dim_index[dim]
            addr[i] = coord
            if coord_is_leaf(i, coord):
                row_mask &= ~(1 << i)
            else:
                row_mask |= 1 << i
        row_addrs.append(addr)
        row_above.append(row_mask)

    col_patches = [
        {dim_index[dim]: coord for dim, coord in column.coordinates}
        for column in columns
    ]
    # columns that bind the same dimensions form a group (one in any
    # ordinary grid)
    by_bound: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    for j, patch in enumerate(col_patches):
        cols, leaf_cols = by_bound.setdefault(tuple(sorted(patch)), ([], []))
        cols.append(j)
        if all(coord_is_leaf(i, coord) for i, coord in patch.items()):
            leaf_cols.append(j)
    groups = [
        _Group(bound, cols, leaf_cols, col_patches, row_above, n_dims)
        for bound, (cols, leaf_cols) in by_bound.items()
    ]

    col_masks: "dict[int, Any]" = {}  # column -> its mask, once computed
    n_cols = len(columns)
    cells: list[list[CellValue]] = []
    cells_skipped = cells_evaluated = indexed_rollups = hits = 0
    try:
        for r, row_addr in enumerate(row_addrs):
            admitted = n_cols
            if tracker is not None:
                admitted = 0
                while admitted < n_cols and tracker.charge_cell():
                    admitted += 1
                cells_skipped += n_cols - admitted
            row_cells: list[CellValue] = [MISSING] * n_cols
            cells.append(row_cells)
            if not admitted:
                continue
            if failpoint is not None:
                FAULTS.hit(failpoint, times=admitted)
            cells_evaluated += admitted
            whole = admitted == n_cols
            # (column, is a leaf, group, address) of every cell the block
            # read or the memo sweep left to the slow path
            misses: list[tuple[int, bool, _Group, Address]] = []
            for group in groups:
                if group.leaf_row[r]:
                    leaf = group.leaf
                    n = leaf.size if whole else bisect_left(leaf.cols, admitted)
                    if n:
                        if leaf_cube is None:
                            leaf_cube = getattr(view, "leaf_cube", view)
                            leaf_rules = leaf_cube.rules
                            leaf_index = leaf_cube.rollup_index()
                        values, missed = group.block_row(r, leaf_index, row_addrs)
                        leaf.store(row_cells, values, n)
                        for c in missed:
                            if c >= n:
                                break
                            j = leaf.cols[c]
                            row_cells[j] = MISSING
                            if leaf_rules is not None:
                                addr = list(row_addr)
                                for dim, coord in col_patches[j].items():
                                    addr[dim] = coord
                                misses.append((j, True, group, tuple(addr)))
                    derived = group.derived
                else:
                    derived = group.every
                n = derived.size if whole else bisect_left(derived.cols, admitted)
                if not n:
                    continue
                addrs = derived.addresses(row_addr, n)
                if not sweep:
                    misses.extend(
                        (j, False, group, addr) for j, addr in zip(derived.cols, addrs)
                    )
                    continue
                indexed_rollups += n
                hits += n
                swept = _memo_sweep(memo, addrs)
                if swept is None:
                    swept = list(map(memo_get, addrs))
                    for j, value, addr in zip(derived.cols, swept, addrs):
                        if value is None:
                            misses.append((j, False, group, addr))
                            hits -= 1
                derived.store(row_cells, swept, n)
            if not misses:
                continue
            misses.sort(key=itemgetter(0))
            row_ids: "dict[_Group, Any]" = {}  # the row's ids per group
            for j, is_leaf, group, addr in misses:
                if is_leaf:  # a leaf address no leaf holds: a rule, or ⊥
                    if leaf_rules.has_rule_for(leaf_cube, addr):
                        row_cells[j] = leaf_rules.evaluate_cell(leaf_cube, addr)
                    continue
                if not sweep:
                    # not a leaf address, so the leaf store cannot hold it
                    value = agg_stored_derived.get(addr)
                    if value is not None:
                        row_cells[j] = value
                        continue
                    if agg_rules is not None:
                        row_cells[j] = agg_rules.evaluate_cell(agg_cube, addr)
                        continue
                    indexed_rollups += 1
                    value = memo_get(addr)
                    if value is not None:
                        hits += 1
                        row_cells[j] = value
                        continue
                if group not in row_ids:
                    row_ids[group] = index.ids_under(
                        {i: (row_addr[i],) for i in group.free}
                    )
                ids = row_ids[group]
                if ids is not None:  # None: the row is every leaf, the cell its own scope
                    if j not in col_masks:
                        col_masks[j] = index.mask_under(list(col_patches[j].items()))
                    mask = col_masks[j]
                    if mask is not None:
                        ids = ids[mask[ids]]
                row_cells[j] = index.rollup(addr, ids)
    finally:
        if hits:
            index.count_hits(hits)

    stats = {
        "cells_evaluated": cells_evaluated,
        "cells_skipped": cells_skipped,
        "indexed_rollups": indexed_rollups,
    }
    return cells, cells_skipped, stats
