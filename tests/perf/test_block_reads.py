"""Grids are block reads and block reductions: races against a writer.

A grid reads its leaf cells a block at a time
(:meth:`~repro.perf.rollup_index.RollupIndex.leaf_block`): one snapshot of
the generation's lookup and value column, taken under the index lock.  A
writer inserts, deletes and re-inserts leaves — so the generation's
``recent`` dict, its liveness and its sorted part all move, starting from
a cube whose sorted part is empty — while readers fill grids:

* two ``QueryService`` readers of a leaf-only grid, and two of a grid of
  derived cells at mixed levels, whose memo misses are one block reduction
  (:meth:`~repro.perf.rollup_index.RollupIndex.rollup_block`) on a
  snapshot that carried the previous one's memo: every answer equals a
  ``naive_mode()`` twin that took the same writes, at the version the
  reader's snapshot pinned;
* one reader of the live cube's own index, while the writer writes one
  cell at a time: every block equals the twin's leaves at some version
  from the one read before it to the one after the one read after it
  (a write lands in the index before the version moves).

The CI chaos job runs this module under ``REPRO_FAULTS=ci-matrix`` (more
rounds) with the lockdep witness armed.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time

import pytest

from repro.olap.cube import Cube
from repro.olap.dimension import Dimension
from repro.olap.missing import MISSING
from repro.olap.schema import CubeSchema
from repro.perf.config import naive_mode
from repro.warehouse import Warehouse

FULL_MATRIX = "ci-matrix" in os.environ.get("REPRO_FAULTS", "")

MONTHS = ("Jan", "Feb", "Mar", "Apr", "May")
CITIES = ("NYC", "Albany", "Boston", "LA")


def _schema() -> CubeSchema:
    time_dim = Dimension("Time", ordered=True)
    time_dim.add_member("H1")
    time_dim.add_children("H1", list(MONTHS))
    geo = Dimension("Geo")
    geo.add_member("East")
    geo.add_children("East", list(CITIES[:3]))
    geo.add_member("West")
    geo.add_children("West", list(CITIES[3:]))
    measures = Dimension("Measures", is_measures=True)
    measures.add_children(None, ["Sales", "COGS"])
    return CubeSchema([time_dim, geo, measures])


SCHEMA = _schema()
LEAVES = sorted(itertools.product(MONTHS, CITIES, ("Sales", "COGS")))
#: every cell a leaf: cities x months at one measure
QUERY = (
    "SELECT {" + ", ".join(f"Time.[{m}]" for m in MONTHS) + "} ON COLUMNS, "
    "{" + ", ".join(f"[{c}]" for c in CITIES) + "} ON ROWS FROM W WHERE ([Sales])"
)
#: derived cells at mixed levels — the root, a half-year, regions — with
#: a few leaf cells (Boston x months) among them
DERIVED_QUERY = (
    "SELECT {Time.[Time], Time.[H1], Time.[Jan], Time.[Mar]} ON COLUMNS, "
    "{[Geo], [East], [West], [Boston]} ON ROWS FROM W WHERE ([Sales])"
)
BLOCK = ([(MONTHS[0], city, "Sales") for city in CITIES], [0], [(m,) for m in MONTHS])


def _script() -> "list[list[tuple[tuple, object]]]":
    """Inserts into an empty cube (so the first answers come from
    ``recent`` alone), then rounds of in-place writes, deletes,
    re-inserts at new ids and bulk mutations."""
    script: list[list[tuple[tuple, object]]] = [
        [(addr, float(i + 1))] for i, addr in enumerate(LEAVES)
    ]
    for round_ in range(6 if FULL_MATRIX else 1):
        for i in range(0, len(LEAVES) - 2, 3):
            a, b, c = LEAVES[i : i + 3]
            script += [
                [(a, 0.5 + i + round_)],
                [(b, MISSING)],
                [(b, float("nan") if round_ % 2 else -0.0)],
                [(a, -1.0), (c, MISSING), (b, 2.0 * i)],
                [(c, 7.0 + round_)],
            ]
    return script


def _race(writer_target, readers) -> None:
    errors: list[BaseException] = []
    done = threading.Event()

    def guarded(target):
        def run() -> None:
            try:
                target(done)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                if target is writer_target:
                    done.set()

        return run

    threads = [threading.Thread(target=guarded(reader)) for reader in readers]
    threads.append(threading.Thread(target=guarded(writer_target)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors


def test_service_readers_fill_leaf_grids_like_the_twin(monkeypatch):
    monkeypatch.setenv("REPRO_LOCKDEP", "1")  # read when a lock is made
    _service_readers_match_the_twin(QUERY)


def test_service_readers_fill_derived_grids_like_the_twin(monkeypatch):
    """Grids of derived cells at mixed levels — their memo misses are one
    block reduction (``RollupIndex.rollup_block``) on the reader's
    snapshot — raced against the same writer."""
    monkeypatch.setenv("REPRO_LOCKDEP", "1")
    _service_readers_match_the_twin(DERIVED_QUERY)


def _service_readers_match_the_twin(query: str) -> None:
    from repro.service import QueryService

    cube, twin = Cube(SCHEMA), Cube(SCHEMA)
    warehouse = Warehouse(SCHEMA, cube, name="W")
    twin_warehouse = Warehouse(SCHEMA, twin, name="W")
    script = _script()

    def naive_cells() -> str:
        with naive_mode():
            return repr(twin_warehouse.query(query).cells)

    expected = {twin.version: naive_cells()}
    for writes in script:
        twin.apply_overrides(writes)
        expected[twin.version] = naive_cells()

    seen: list[tuple[int, str]] = []
    with QueryService(warehouse, workers=2) as service:

        def reader(done: threading.Event) -> None:
            while not done.is_set():
                ticket = service.submit(query)
                cells = ticket.result(timeout=30.0).cells
                seen.append((ticket.snapshot_version, repr(cells)))

        def writer(done: threading.Event) -> None:
            for writes in script:
                cube.apply_overrides(writes)
                answered, deadline = len(seen), time.monotonic() + 2.0
                while len(seen) == answered and time.monotonic() < deadline:
                    time.sleep(0.0005)

        _race(writer, [reader, reader])
    assert len({version for version, _ in seen}) >= 5, "readers saw few versions"
    for version, answered in seen:
        assert answered == expected[version], f"version {version}"


def test_live_derived_grid_rows_match_the_twin_and_settle(monkeypatch):
    """``Warehouse.query`` of the derived grid on the *live* cube — its
    rows answered from the index's row memo once warm — while the writer
    writes one cell at a time, waiting for two answers after each write:
    every answer equals the twin's whole grid at one version from the
    one read before the answer to the one after the one read after it,
    and the first answer once the writer stops is the final version — a
    row stored after a write's flush would outlive it.

    Whole answers, not rows: the fill reads the live cube row by row with
    no lock, but a write that lands meanwhile moves the version, and the
    grid is filled again from a frozen copy (``_Context.fill``)."""
    monkeypatch.setenv("REPRO_LOCKDEP", "1")
    cube, twin = Cube(SCHEMA), Cube(SCHEMA)
    warehouse = Warehouse(SCHEMA, cube, name="W")
    twin_warehouse = Warehouse(SCHEMA, twin, name="W")
    script = [[cell] for writes in _script() for cell in writes]

    def naive_rows() -> "list[str]":
        with naive_mode():
            return [repr(row) for row in twin_warehouse.query(DERIVED_QUERY).cells]

    expected = {twin.version: naive_rows()}
    for writes in script:
        twin.apply_overrides(writes)
        expected[twin.version] = naive_rows()
    assert cube.version == min(expected)

    seen: list[tuple[int, int, list[str]]] = []

    def reader(done: threading.Event) -> None:
        while not done.is_set():
            before = cube.version
            cells = warehouse.query(DERIVED_QUERY).cells
            seen.append((before, cube.version, [repr(row) for row in cells]))

    def writer(done: threading.Event) -> None:
        for writes in script:
            cube.apply_overrides(writes)
            answered, deadline = len(seen), time.monotonic() + 2.0
            while len(seen) < answered + 2 and time.monotonic() < deadline:
                time.sleep(0.0005)

    _race(writer, [reader])
    assert len({before for before, _, _ in seen}) >= 5, "the reader saw few versions"
    for before, after, rows in seen:
        window = [expected[v] for v in range(before, after + 2) if v in expected]
        assert rows in window, (before, after)
    assert cube.version == max(expected)
    cells = warehouse.query(DERIVED_QUERY).cells
    assert [repr(row) for row in cells] == expected[cube.version]


def test_a_block_of_the_live_cube_is_one_version(monkeypatch):
    monkeypatch.setenv("REPRO_LOCKDEP", "1")
    cube, twin = Cube(SCHEMA), Cube(SCHEMA)
    # one cell per write: the version moves after the cell is written, so
    # a block read between the two sees the next version's leaves
    script = [[cell] for writes in _script() for cell in writes]
    rows, dims, columns = BLOCK

    def leaves(source: Cube) -> str:
        read = source.rollup_index().leaf_reader()
        return repr(
            [
                [read((month, row[1], row[2])) for (month,) in columns]
                for row in rows
            ]
        )

    expected = {twin.version: leaves(twin)}
    for writes in script:
        twin.apply_overrides(writes)
        expected[twin.version] = leaves(twin)
    # the live cube numbers its versions as the twin does
    assert cube.version == min(expected)

    seen: list[tuple[int, int, str]] = []

    def reader(done: threading.Event) -> None:
        while not done.is_set():
            before = cube.version
            values, _ = cube.rollup_index().leaf_block(rows, dims, columns)
            seen.append((before, cube.version, repr(values)))

    def writer(done: threading.Event) -> None:
        for writes in script:
            cube.apply_overrides(writes)
            answered, deadline = len(seen), time.monotonic() + 2.0
            while len(seen) == answered and time.monotonic() < deadline:
                time.sleep(0.0005)

    _race(writer, [reader])
    assert len({before for before, _, _ in seen}) >= 5, "the reader saw few versions"
    for before, after, values in seen:
        assert values in {
            expected[v] for v in range(before, after + 2) if v in expected
        }, (before, after)


_GRID = (
    "SELECT {Time.[Jan], Time.[Qtr1]} ON COLUMNS, {[FTE], [Organization]} ON ROWS "
    "FROM Warehouse WHERE ([NY], [Salary])"
)


@pytest.mark.parametrize(
    "text",
    [_GRID, "WITH PERSPECTIVE {(Feb)} FOR Organization STATIC " + _GRID],
    ids=["live-cube", "non-visual-aggregates"],
)
def test_a_write_during_the_fill_is_answered_from_a_frozen_copy(monkeypatch, text):
    """A write that lands on the live cube after the grid was read, the
    plain cube's grid and a NON_VISUAL stage's (whose aggregates are the
    live cube): the answer is the grid after the write, filled once more
    from a frozen copy — and the refill admits the cells the first fill
    admitted, charging the budget nothing more and hitting no
    failpoint."""
    from repro.mdx import evaluator
    from repro.mdx.budget import QueryBudget
    from repro.workload import build_running_example

    example = build_running_example()
    warehouse = Warehouse(example.schema, example.cube, name="Warehouse")
    twin = Warehouse(example.schema, example.cube.copy(), name="Warehouse")
    leaf = ("Organization/FTE/Joe", "NY", "Jan", "Salary")
    fills: list = []
    fill = evaluator.evaluate_grid

    def racing(view, layout, tracker, failpoint):
        answer = fill(view, layout, tracker, failpoint)
        fills.append((view, tracker, failpoint))
        if len(fills) == 1:
            warehouse.cube.set_value(leaf, 1000.0)
        return answer

    monkeypatch.setattr(evaluator, "evaluate_grid", racing)
    answer = warehouse.query(text, budget=QueryBudget(max_cells=3))
    twin.cube.set_value(leaf, 1000.0)
    with naive_mode():
        expected = twin.query(text, budget=QueryBudget(max_cells=3))
    assert repr(answer.cells) == repr(expected.cells)
    assert answer.degradations == expected.degradations
    assert len(fills) == 2
    (_, tracker, failpoint), (again, admitted, none) = fills
    assert failpoint == "mdx.cell" and none is None
    assert getattr(again, "aggregate_cube", again).frozen
    assert tracker.cells_evaluated == 3 and admitted.left == 0
