"""The block fill is the per-cell fill.

:func:`~repro.perf.batch.evaluate_grid` fills a plain roll-up cube's grid
a row — and its leaf cells a block — at a time;
:func:`~repro.perf.batch.evaluate_cells` asks the cube's own cell rule
(``Cube.effective_value``) one cell at a time.  Over one
:class:`~repro.perf.batch.GridLayout` the two must be indistinguishable:
the same cells by ``repr`` (⊥, NaN and the sign of zero included), the
same ``cells_evaluated`` and ``cells_skipped``, the same degradation, the
same clock reads and the same ``mdx.cell`` hits, under any cell cap, any
stepping-clock deadline and any ``fail_after`` arming.

The drawn cubes have ⊥ leaves (never written, or deleted after the load),
NaN and ±0 values, coordinates that hold no leaf (``H3`` and its ``Jun``),
a memo that some of the grid's cells were read into first through
``Cube.rollup`` (the rest miss and are reduced as one block), and may
have a member added under a leaf the grid reads once that leaf holds
data: its row stays at an address that is no longer a leaf, which both
fills must roll up.  The layout may be filled a second time, whole rows
then answered from the index's row memo: straight away, after a leaf
write (which flushes the rows) or on a snapshot (which carries none).  Every drawn grid has at
least two column groups and a row that holds a leaf cell and a derived
one (before any member is added).  Tier-1 draws a few examples;
the CI ``faults`` job (``REPRO_FAULTS=ci-matrix``) draws the wide run.
"""

from __future__ import annotations

import itertools
import math
import os

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import FaultInjectedError
from repro.faults import FAULTS
from repro.mdx.budget import BudgetTracker, QueryBudget
from repro.mdx.result import AxisTuple
from repro.olap.cube import Cube
from repro.olap.dimension import Dimension
from repro.olap.missing import MISSING
from repro.olap.schema import CubeSchema
from repro.perf.batch import GridLayout, evaluate_cells, evaluate_grid

from .test_budget_parity import SteppingClock

EXAMPLES = 400 if "ci-matrix" in os.environ.get("REPRO_FAULTS", "") else 25

MONTHS = ("Jan", "Feb", "Mar", "Apr", "May")
CITIES = ("NYC", "Boston", "LA")
MEASURES = ("Sales", "COGS")


def _schema() -> CubeSchema:
    time_dim = Dimension("Time", ordered=True)
    time_dim.add_member("H1")
    time_dim.add_children("H1", list(MONTHS[:3]))
    time_dim.add_member("H2")
    time_dim.add_children("H2", list(MONTHS[3:]))
    # a half-year and a month no leaf is ever written under
    time_dim.add_member("H3")
    time_dim.add_children("H3", ["Jun"])
    geo = Dimension("Geo")
    geo.add_member("East")
    geo.add_children("East", list(CITIES[:2]))
    geo.add_member("West")
    geo.add_children("West", list(CITIES[2:]))
    measures = Dimension("Measures", is_measures=True)
    measures.add_children(None, list(MEASURES))
    return CubeSchema([time_dim, geo, measures])


SCHEMA = _schema()
LEAVES = list(itertools.product(MONTHS, CITIES, MEASURES))
COORDS = {
    d.name: [m.name for m in d.root.descendants(include_self=True)] for d in SCHEMA.dimensions
}

#: ⊥ (``None``), signed zeros, NaN, and ordinary values
values = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, math.nan, 1e12, 1e-5]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@st.composite
def axis_tuples(draw) -> AxisTuple:
    dims = draw(st.sets(st.sampled_from(sorted(COORDS)), min_size=1))
    coordinates = tuple((dim, draw(st.sampled_from(COORDS[dim]))) for dim in sorted(dims))
    return AxisTuple(coordinates, tuple(coord for _, coord in coordinates))


def _tuple(**coords: str) -> AxisTuple:
    coordinates = tuple(coords.items())
    return AxisTuple(coordinates, tuple(coords.values()))


@st.composite
def grids(draw) -> "tuple[dict[str, str], list[AxisTuple], list[AxisTuple], int]":
    """Base coordinates, rows, columns, and the place of a row binding a
    city and a measure: with a leaf month, a half-year and a Geo column
    it holds a leaf cell and a derived one, in two column groups."""
    base = {dim: draw(st.sampled_from(COORDS[dim])) for dim in COORDS}
    rows = draw(st.lists(axis_tuples(), max_size=4))
    mixed_row = draw(st.integers(0, len(rows)))
    rows.insert(
        mixed_row,
        _tuple(
            Geo=draw(st.sampled_from(CITIES)), Measures=draw(st.sampled_from(MEASURES))
        ),
    )
    fixed = [
        _tuple(Time=draw(st.sampled_from(MONTHS))),
        _tuple(Time=draw(st.sampled_from(["H1", "H2", "Time"]))),
        _tuple(Geo=draw(st.sampled_from(COORDS["Geo"]))),
    ]
    columns = draw(st.permutations(draw(st.lists(axis_tuples(), max_size=4)) + fixed))
    return base, rows, columns, mixed_row


def _cube(schema, cells, edits) -> Cube:
    cube = Cube(schema)
    cube.load((addr, value) for addr, value in zip(LEAVES, cells) if value is not None)
    for i, value in edits:  # after the load: deletes and inserts past the sort
        cube.set_value(LEAVES[i], MISSING if value is None else value)
    return cube


def _grow(schema, cubes, addr, dim, held, value) -> None:
    """Write ``held`` at leaf ``addr``, then add a member under its
    coordinate on ``dim`` (the row stays where it is, no longer at a
    leaf) and write ``value`` at the new leaf (⊥ writes nothing)."""
    for cube in cubes:
        cube.set_value(addr, held)
    child = f"{addr[dim]}-new"
    schema.dimensions[dim].add_member(child, addr[dim])
    if value is not None:
        for cube in cubes:
            cube.set_value(addr[:dim] + (child,) + addr[dim + 1 :], value)


def _fill(fill, cube, layout, budget_kind, limit, nth):
    FAULTS.clear()
    FAULTS.fail_after("mdx.cell", nth)
    clock = SteppingClock()
    budget = {
        "none": None,
        "cap": QueryBudget(max_cells=limit),
        "deadline": QueryBudget(deadline_ms=limit + 0.5, clock=clock),
    }[budget_kind]
    tracker = None if budget is None else BudgetTracker(budget)
    try:
        if fill == "block":
            cells, skipped, stats = evaluate_grid(cube, layout, tracker, "mdx.cell")
        else:
            cells, skipped, stats = evaluate_cells(
                cube, len(layout.row_addrs), layout.n_cols, layout.address, tracker,
                "mdx.cell",
            )
        hits = FAULTS._armed["mdx.cell"].hits
    except FaultInjectedError:
        return "fault", FAULTS._armed["mdx.cell"].hits
    finally:
        FAULTS.clear()
    degraded = tracker is not None and tracker.breached is not None
    return (
        repr(cells),
        stats["cells_evaluated"],
        stats["cells_skipped"],
        skipped,
        tracker.degradation(skipped).to_dict() if degraded else None,
        clock.reads,
        hits,
    )


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    cells=st.lists(values, min_size=len(LEAVES), max_size=len(LEAVES)),
    edits=st.lists(st.tuples(st.integers(0, len(LEAVES) - 1), values), max_size=6),
    grid=grids(),
    budget_kind=st.sampled_from(["none", "cap", "deadline"]),
    limit=st.integers(0, 40),
    nth=st.one_of(st.just(10**9), st.integers(1, 40)),
    # a member added under one of the mixed row's leaf cells: which one,
    # on which dimension, the value held there and the new leaf's value
    grow=st.one_of(
        st.none(),
        st.tuples(
            st.integers(0, 10), st.integers(0, 2), values.filter(lambda v: v is not None), values
        ),
    ),
    # cells read through Cube.rollup before the fill, as (row, column)
    warm=st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=6),
    # the layout filled a second time — its whole rows answered from the
    # row memo — straight away, after a leaf write (a leaf index and its
    # new value) or on a snapshot of each cube
    refill=st.one_of(
        st.none(),
        st.just("again"),
        st.just("fork"),
        st.tuples(st.integers(0, len(LEAVES) - 1), values),
    ),
)
# Jan becomes a parent once (Jan, NYC, Sales) holds -0.0: the cell reads
# its roll-up, -0.0 + 5.0, in both fills
@example(
    cells=[1.0] * len(LEAVES),
    edits=[],
    grid=(
        {"Time": "Time", "Geo": "Geo", "Measures": "Measures"},
        [_tuple(Geo="NYC", Measures="Sales")],
        [_tuple(Time="Jan"), _tuple(Time="H1"), _tuple(Geo="East")],
        0,
    ),
    budget_kind="none",
    limit=0,
    nth=10**9,
    grow=(0, 0, -0.0, 5.0),
    warm=[],
    refill=None,
)
def test_the_block_fill_is_the_per_cell_fill(
    cells, edits, grid, budget_kind, limit, nth, grow, warm, refill
):
    base, rows, columns, mixed_row = grid
    layout = GridLayout(SCHEMA, base, rows, columns)
    assert len(layout.groups) >= 2
    leaf_columns = sorted(layout.leaf_columns(mixed_row))
    assert 0 < len(leaf_columns) < layout.n_cols

    schema = SCHEMA if grow is None else _schema()
    cubes = [_cube(schema, cells, edits) for _ in range(2)]
    if grow is not None:
        column, dim, held, value = grow
        addr = layout.address(mixed_row, leaf_columns[column % len(leaf_columns)])
        _grow(schema, cubes, addr, dim, held, value)
        layout = GridLayout(schema, base, rows, columns)
    for r, c in warm:
        address = layout.address(r % len(layout.row_addrs), c % layout.n_cols)
        for cube in cubes:
            cube.rollup(address)
    block = _fill("block", cubes[0], layout, budget_kind, limit, nth)
    per_cell = _fill("cell", cubes[1], layout, budget_kind, limit, nth)
    assert block == per_cell
    if refill is None:
        return
    if refill == "fork":
        cubes = [cube.frozen_copy() for cube in cubes]
    elif refill != "again" and schema.is_leaf_address(LEAVES[refill[0]]):
        i, value = refill
        for cube in cubes:
            cube.set_value(LEAVES[i], MISSING if value is None else value)
    block = _fill("block", cubes[0], layout, budget_kind, limit, nth)
    per_cell = _fill("cell", cubes[1], layout, budget_kind, limit, nth)
    assert block == per_cell
