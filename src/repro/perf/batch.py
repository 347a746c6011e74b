"""Batched MDX grid evaluation.

A cell is the cube's value at its address, by the cube's own cell rule
(:meth:`Cube.effective_value <repro.olap.cube.Cube.effective_value>`:
the stored value, else a formula rule's value or the roll-up of the
cell's scope).  :func:`evaluate_cells` asks that rule one cell at a time:
the fill of a cube with formula rules or stored aggregates, and of
``naive_mode()``.  :func:`evaluate_grid` fills a plain roll-up cube, where
a derived cell is the sum over its scope, a row — and the leaf cells a
block — at a time:

* the layout is the grid's :class:`GridLayout`, built once when the
  query is resolved and kept on its prepared plan, so a warm query builds
  none: every row's address (defaults + slicer + the row's coordinates)
  and, as a bit mask, the dimensions where it is above the leaves; the
  columns split into groups by the dimensions they bind (one group in any
  ordinary grid), each with its columns' coordinates on those dimensions
  and its leaf rows — the leaf/derived split of a cell is a per-row test
  per group, never a per-cell one;
* leaf cells are one block read per column group
  (:meth:`RollupIndex.leaf_block`): the group's leaf rows × leaf columns
  go through one ``searchsorted`` over the generation's sorted keys, then
  one gather from the value column.  A miss is ⊥;
* derived cells are one row-memo probe per row and group once the row
  has been filled whole: the index's row memo
  (:meth:`RollupIndex.row_table`) is keyed by (row address, the group's
  derived ``_Segment``) and holds the segment's values in column order.
  Every leaf write and every cap flush of the cell memo clears it; it
  has its own bound, so rows never evict a memoised cell; and a fork
  does not carry it: a snapshot rebuilds its rows from the cell memo it
  carries.  A row the row memo misses is one memo sweep: its addresses
  are built in one pass — the row's coordinates before and after the
  bound dimensions around each column's own — and the index's live memo
  table answers them in one pass with no lock.  Its finished values are
  stored after the grid's one block reduction, under the index lock, and
  only if no flush came since the flush epoch read before the first row,
  so a write racing the fill never leaves a stale row.  A budget-truncated
  row is swept and never stored;
* the memo misses of the whole grid are one block reduction
  (:meth:`RollupIndex.rollup_block`) after the rows are swept: per
  combination of hierarchy levels the cells name, one ``np.bincount`` over
  the scope's leaves gives every cell at that combination — the strict
  sum :meth:`RollupIndex.rollup` would give each, memoised and counted as
  its misses — so a cold grid costs a few passes over its leaves, not one
  scope and one reduction per cell.  Memo hits are added to the index's
  counters once per call.

Both fills give the same grid: cells are produced in row-major order and
budget degradation is cell-exact.  Each row charges the budget per cell
(:meth:`~repro.mdx.budget.BudgetTracker.charge_cell`), as
:func:`evaluate_cells` does, so a cap or a deadline that trips mid-row
degrades at the same cell with the same ``cells_evaluated``,
``cells_skipped`` and clock reads; the ``mdx.cell`` failpoint then counts
one hit per admitted cell (``FAULTS.hit(name, times=n)``, exactly ``n``
single hits), and only the admitted cells are evaluated.  A deadline
bounds which cells are admitted, not the one miss reduction after the
last row: that runs past the last clock read, and its cost is a few
passes over the scope's leaves per combination of levels, linear in
leaves and cells.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence, TypeAlias

from repro.faults import FAULTS
from repro.olap.missing import MISSING, Missing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mdx.budget import BudgetTracker
    from repro.olap.schema import CubeSchema

__all__ = ["GridLayout", "evaluate_cells", "evaluate_grid"]

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
    leaf ones and the others — and the rows at leaf level on every
    dimension they leave free, each with its place in the group's block:
    a row's leaf-ness there is shared by all of them."""

    __slots__ = ("bound", "every", "leaf", "derived", "leaf_rows")

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
        self.every = _Segment(cols, patches, bound)
        self.leaf = _Segment(leaf_cols, patches, bound)
        leaf = set(leaf_cols)
        self.derived = _Segment([j for j in cols if j not in leaf], patches, bound)
        free = sum(1 << dim for dim in range(n_dims) if dim not in bound)
        #: each leaf row, by its place among them (its row of the block)
        self.leaf_rows = {
            r: k
            for k, r in enumerate(r for r, above in enumerate(row_above) if not above & free)
        }


class GridLayout:
    """The paper's cell rule for one grid, worked out once.

    A cell is the cube's value at the address formed by ``base_coords``
    (the slicer over every dimension's default member), then the row
    tuple's coordinates, then the column tuple's — a dimension's last
    binding in a tuple winning.  By Theorem 4.1 that depends on the query
    text and the cube's structure only, so a prepared plan keeps its
    grid's layout and every reader of the rule reads it: the fill
    (:func:`evaluate_grid`), the footprint and leaf test a scenario is
    applied under, the shard classifier and EXPLAIN.  Immutable once
    built, so threads share it.

    * ``row_addrs`` — each row's address, and ``col_patches`` each
      column's coordinates by dimension index; :meth:`address`;
    * ``groups`` — the columns by the dimensions they bind (one group in
      any ordinary grid), each with its leaf columns and its leaf rows
      (:meth:`leaf_columns`);
    * ``footprint`` — the coordinates the cells name, per dimension: those
      of every row and column tuple, and the ``base_coords`` coordinate of
      each dimension some cell leaves to it (one an axis binds in every
      tuple is never read off ``base_coords``); a dimension whose root is
      named is unrestricted, hence left out;
    * ``reads_leaves`` — whether some cell lies at leaf level on every
      dimension: the one kind of cell a NON_VISUAL last stage's moved
      leaves answer (Sec. 3.3).
    """

    __slots__ = ("n_cols", "row_addrs", "col_patches", "groups", "footprint", "reads_leaves")

    def __init__(
        self,
        schema: "CubeSchema",
        base_coords: Mapping[str, str],
        rows: "Sequence[Any]",
        columns: "Sequence[Any]",
    ) -> None:
        dims = schema.dimensions
        dim_index = {d.name: i for i, d in enumerate(dims)}
        named: list[set[str]] = [set() for _ in dims]
        flags: dict[tuple[int, str], bool] = {}

        def is_leaf(i: int, coord: str) -> bool:  # once per coordinate
            flag = flags.get((i, coord))
            if flag is None:
                flag = flags[i, coord] = schema.coordinate_is_leaf(i, coord)
            return flag

        def patches(tuples: "Sequence[Any]") -> "tuple[list[dict[int, str]], set[int]]":
            # each tuple's coordinates by dimension index, and the
            # dimensions every tuple binds
            out: list[dict[int, str]] = []
            for axis_tuple in tuples:
                patch: dict[int, str] = {}
                for dim, coord in axis_tuple.coordinates:
                    i = dim_index[dim]
                    patch[i] = coord
                    named[i].add(coord)
                out.append(patch)
            bound: set[int] = set(out[0]).intersection(*out) if out else set()
            return out, bound

        row_patches, row_bound = patches(rows)
        col_patches, col_bound = patches(columns)
        base = [base_coords[d.name] for d in dims]
        for i, coord in enumerate(base):
            if i not in row_bound and i not in col_bound:
                named[i].add(coord)
        self.footprint: Mapping[str, frozenset[str]] = {
            d.name: frozenset(named[i]) for i, d in enumerate(dims) if d.root.name not in named[i]
        }

        # a row's address, and as a bit mask the dimensions where it is
        # above the leaves
        above = sum(1 << i for i, coord in enumerate(base) if not is_leaf(i, coord))
        row_addrs: list[Address] = []
        row_above: list[int] = []
        for patch in row_patches:
            addr, row_mask = list(base), above
            for i, coord in patch.items():
                addr[i] = coord
                if is_leaf(i, coord):
                    row_mask &= ~(1 << i)
                else:
                    row_mask |= 1 << i
            row_addrs.append(tuple(addr))
            row_above.append(row_mask)

        by_bound: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
        for j, patch in enumerate(col_patches):
            cols, leaf_cols = by_bound.setdefault(tuple(sorted(patch)), ([], []))
            cols.append(j)
            if all(is_leaf(i, coord) for i, coord in patch.items()):
                leaf_cols.append(j)
        self.n_cols = len(col_patches)
        self.row_addrs = tuple(row_addrs)
        self.col_patches = tuple(col_patches)
        self.groups = tuple(
            _Group(bound, cols, leaf_cols, col_patches, row_above, len(dims))
            for bound, (cols, leaf_cols) in by_bound.items()
        )
        self.reads_leaves = any(g.leaf.size and g.leaf_rows for g in self.groups)

    def address(self, r: int, c: int) -> Address:
        """The address of the cell in row ``r`` and column ``c``."""
        addr = list(self.row_addrs[r])
        for i, coord in self.col_patches[c].items():
            addr[i] = coord
        return tuple(addr)

    def leaf_columns(self, r: int) -> set[int]:
        """The columns whose cell in row ``r`` lies at leaf level on every
        dimension."""
        return {j for g in self.groups if r in g.leaf_rows for j in g.leaf.cols}


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


def evaluate_cells(
    view: Any,
    n_rows: int,
    n_cols: int,
    address: "Callable[[int, int], Sequence[str]]",
    tracker: "BudgetTracker | None",
    failpoint: "str | None",
) -> tuple[list[list[CellValue]], int, dict[str, int]]:
    """Fill an ``n_rows`` × ``n_cols`` grid a cell at a time, in row-major
    order: charge the budget, hit ``failpoint`` once if the cell is
    admitted, and read the view's value at ``address(r, c)`` — the cube's
    own cell rule (:meth:`~repro.olap.cube.Cube.effective_value`).
    ``failpoint`` ``None`` counts none.  Returns ``(cells, cells_skipped,
    stats)``, as :func:`evaluate_grid` does."""
    cells: list[list[CellValue]] = []
    cells_skipped = 0
    for r in range(n_rows):
        row_cells: list[CellValue] = []
        for c in range(n_cols):
            # once the budget is breached every remaining cell is ⊥ —
            # cheap, so the grid shape survives
            if tracker is not None and not tracker.charge_cell():
                row_cells.append(MISSING)
                cells_skipped += 1
                continue
            if failpoint is not None:
                FAULTS.hit(failpoint)
            row_cells.append(view.effective_value(address(r, c)))
        cells.append(row_cells)
    stats = {"cells_evaluated": n_rows * n_cols - cells_skipped, "cells_skipped": cells_skipped}
    return cells, cells_skipped, stats


def evaluate_grid(
    view: Any,
    layout: GridLayout,
    tracker: "BudgetTracker | None",
    failpoint: "str | None",
) -> tuple[list[list[CellValue]], int, dict[str, int]]:
    """Fill the result grid ``layout`` lays out from ``view``: by blocks,
    or — a cube with formula rules or stored aggregates — by
    :func:`evaluate_cells` over ``layout.address``.

    ``failpoint`` counts one hit per evaluated cell; ``None`` counts none
    (a shard, or the shard coordinator's residue, fills blocks of a
    request that has its own failpoints).  Returns ``(cells,
    cells_skipped, stats)``.
    """
    # a WhatIfCube routes leaf reads and aggregate reads to different
    # cubes, a plain Cube is both; the leaf side is asked for at the first
    # leaf cell only (a NON_VISUAL stage may not have moved its leaves)
    agg_cube = getattr(view, "aggregate_cube", view)
    # a cube with rules or stored aggregates fills through its own cell
    # rule; ρ, S and E hand the leaf cube its input's rules
    rules = agg_cube.rules
    if agg_cube._stored_derived or not (rules is None or rules.rolls_up):
        return evaluate_cells(
            view, len(layout.row_addrs), layout.n_cols, layout.address, tracker, failpoint
        )
    leaf_index: Any = None
    index = agg_cube.rollup_index()
    memo = index.memo_table()
    memo_get = memo.get
    # read before the first row: a flush since voids this grid's rows
    row_memo, epoch = index.row_table()
    row_get = row_memo.get

    row_addrs, groups = layout.row_addrs, layout.groups
    # per group, its block — its leaf rows × leaf columns — as values with
    # ``None`` at a miss and the misses per block row, read once, on first
    # use (:meth:`RollupIndex.leaf_block`)
    blocks: "dict[_Group, tuple[list[list[Any]], dict[int, list[int]]]]" = {}
    # (row's cells, column, address) of every derived cell the memo sweep
    # missed, row by row: one block reduction after the loop fills them
    misses: list[tuple[list[CellValue], int, Address]] = []
    # (row-memo key, row's cells) of every whole row the row memo
    # missed: its values are read once the block reduction has filled it
    missed_rows: "list[tuple[tuple[Address, _Segment], list[CellValue]]]" = []
    n_cols = layout.n_cols
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
            for group in groups:
                k = group.leaf_rows.get(r)  # the row's place in the group's block
                if k is not None:
                    leaf = group.leaf
                    n = leaf.size if whole else bisect_left(leaf.cols, admitted)
                    if n:
                        if leaf_index is None:
                            leaf_index = getattr(view, "leaf_cube", view).rollup_index()
                        block = blocks.get(group)
                        if block is None:
                            block = blocks[group] = leaf_index.leaf_block(
                                [row_addrs[i] for i in group.leaf_rows], group.bound, leaf.tuples
                            )
                        leaf.store(row_cells, block[0][k], n)
                        for c in block[1].get(k, ()):  # a leaf address no leaf holds: ⊥
                            if c >= n:
                                break
                            row_cells[leaf.cols[c]] = MISSING
                    derived = group.derived
                else:
                    derived = group.every
                n = derived.size if whole else bisect_left(derived.cols, admitted)
                if not n:
                    continue
                indexed_rollups += n
                hits += n
                key = (row_addr, derived) if whole else None
                if key is not None:
                    row = row_get(key)
                    if row is not None:
                        derived.store(row_cells, row, n)
                        continue
                addrs = derived.addresses(row_addr, n)
                swept = _memo_sweep(memo, addrs)
                if swept is None:
                    swept = list(map(memo_get, addrs))
                    for j, value, addr in zip(derived.cols, swept, addrs):
                        if value is None:
                            misses.append((row_cells, j, addr))
                            hits -= 1
                derived.store(row_cells, swept, n)
                if key is not None:
                    missed_rows.append((key, row_cells))
        if misses:
            reduced = index.rollup_block([addr for _, _, addr in misses])
            for (row_cells, j, _), value in zip(misses, reduced):
                row_cells[j] = value
        if missed_rows:
            index.store_rows(
                epoch,
                [(key, [row_cells[j] for j in key[1].cols]) for key, row_cells in missed_rows],
            )
    finally:
        if hits:
            index.count_hits(hits)

    stats = {
        "cells_evaluated": cells_evaluated,
        "cells_skipped": cells_skipped,
        "indexed_rollups": indexed_rollups,
    }
    return cells, cells_skipped, stats
