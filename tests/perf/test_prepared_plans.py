"""A warm query is a prepared plan: what the plan cache may carry, and
what it must never hand out.

By Theorem 4.1 a query's algebra expression depends on its text and the
cube's *structure*, not on its cell values, so the warehouse keeps the
analysis and the resolved axes per text and
:meth:`~repro.warehouse.Warehouse.plan_version`.  The carry rule:

* a value write keeps a plan; a leaf insert or delete, a named-set edit
  (on the origin after a snapshot was taken, too) or a schema edit drops
  it — every answer, on the live warehouse and on its snapshots, is
  ``repr``-equal to a fresh ``naive_mode()`` query, which keeps no plan;
* FILTER / ORDER axes read cell values, so they resolve on every call
  (budget charges fire there) and only their analysis is kept;
* the grid's layout — each cell's address and leaf test — is the plan's:
  a hit asks the schema for no coordinate's leaf-ness, a leaf member
  gaining a child changes the next plan's leaf flags, and two threads
  filling one plan's grid, one under a budget, each get the naive answer;
* a plan pins no snapshot and holds no warehouse, cube, view or context;
  a result is the caller's to edit; a plan an ``analyze=False`` call made
  never lets an ``analyze=True`` call skip the analyzer.

With real threads — a writer and two ``QueryService`` readers — every
answer equals the ``naive_mode()`` answer at the version its snapshot
pinned.  Tier-1 draws a few examples; the CI chaos job
(``REPRO_FAULTS=ci-matrix``) draws the wide run under the lockdep
witness.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
import types
import weakref

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.errors import MdxAnalysisError, QueryBudgetExceededError
from repro.mdx.budget import QueryBudget
from repro.mdx.evaluator import prepare
from repro.obs.trace import tracing
from repro.olap.missing import MISSING
from repro.perf.config import naive_mode
from repro.warehouse import Warehouse
from repro.workload import build_running_example

FULL_MATRIX = "ci-matrix" in os.environ.get("REPRO_FAULTS", "")
EXAMPLES = 40 if FULL_MATRIX else 8

TAIL = "FROM Warehouse WHERE ([NY], [Salary])"
COLUMNS = "{Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]}"
BODY = (
    f"SELECT {COLUMNS} ON COLUMNS, "
    f"{{[FTE].Children, [PTE].Children, [Team]}} ON ROWS {TAIL}"
)
TEXTS = {
    "base": BODY,
    "non_visual": "WITH PERSPECTIVE {(Feb)} FOR Organization DYNAMIC FORWARD\n"
    + BODY,
    "visual": "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization STATIC VISUAL\n"
    + BODY,
    "changes": "WITH CHANGES {([Lisa], FTE, PTE, Apr)} FOR Organization VISUAL\n"
    + BODY,
    # an error until somebody defines Crew
    "crew": f"SELECT {COLUMNS} ON COLUMNS, {{[Crew]}} ON ROWS {TAIL}",
    # reads cell values: resolved on every call
    "filter": f"SELECT {COLUMNS} ON COLUMNS, "
    f"Filter({{[FTE].Children, [Team]}}, ([Salary], [NY], Time.[Jan]) > 5) "
    f"ON ROWS {TAIL}",
}
MEMBERS = ("Joe", "Lisa", "Sue", "Tom", "Dave", "Jane", "FTE")


def _warehouse() -> Warehouse:
    example = build_running_example()
    warehouse = Warehouse(example.schema, example.cube, name="Warehouse")
    warehouse.define_named_set("Team", ["Lisa", "Tom"])
    return warehouse


def _outcome(warehouse, text: str) -> str:
    """The whole answer as one string: axes and cells by ``repr`` (so
    -0.0 and ⊥ count), or the error a query raised."""
    try:
        result = warehouse.query(text)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return f"{type(exc).__name__}: {exc}"
    return repr((result.rows, result.columns, result.cells))


def _naive(warehouse, text: str) -> str:
    with naive_mode():
        return _outcome(warehouse, text)


#: leaf addresses an insert may name: the loaded cells, plus cells of the
#: two employees who hold no data yet (which scenario axes then list)
def _pool(warehouse) -> list[tuple[str, ...]]:
    extra = [
        (f"Organization/{parent}/{name}", "NY", month, "Salary")
        for parent, name in (("FTE", "Sue"), ("PTE", "Dave"))
        for month in ("Jan", "Feb", "Apr")
    ]
    return sorted({addr for addr, _ in warehouse.cube.leaf_cells()} | set(extra))


class PreparedPlanMachine(RuleBasedStateMachine):
    """Writes, named-set edits and snapshots interleaved with re-queries;
    every answer equals a fresh ``naive_mode()`` query of the same view."""

    @initialize()
    def build(self):
        self.warehouse = _warehouse()
        self.pool = _pool(self.warehouse)
        self.snapshots: list = []
        self.query()  # every text starts with a plan

    def _views(self) -> list:
        return [self.warehouse, *self.snapshots]

    @rule(pick=st.integers(0, 10**6), value=st.floats(-50, 50, allow_nan=False))
    def value_write(self, pick, value):
        leaves = [addr for addr, _ in self.warehouse.cube.leaf_cells()]
        if leaves:
            before = self.warehouse.cube.structure_generation
            self.warehouse.cube.set_value(leaves[pick % len(leaves)], value)
            assert self.warehouse.cube.structure_generation == before

    @rule(pick=st.integers(0, 10**6), value=st.floats(0, 40, allow_nan=False))
    def insert(self, pick, value):
        self.warehouse.cube.set_value(self.pool[pick % len(self.pool)], value)

    @rule(pick=st.integers(0, 10**6), value=st.floats(0, 40, allow_nan=False))
    def insert_newcomer(self, pick, value):
        """Sue or Dave gains a cell: under a scenario the axes list them."""
        newcomers = [a for a in self.pool if a[0].rsplit("/", 1)[-1] in ("Sue", "Dave")]
        self.warehouse.cube.set_value(newcomers[pick % len(newcomers)], value)

    @rule(pick=st.integers(0, 10**6))
    def delete(self, pick):
        self.warehouse.cube.set_value(self.pool[pick % len(self.pool)], MISSING)

    @rule(member=st.sampled_from(["Tom", "Lisa", "Jane", "Sue", "Dave"]))
    def delete_member(self, member):
        """A member loses every cell: under a scenario the axes drop it."""
        cube = self.warehouse.cube
        for addr, _ in list(cube.leaf_cells()):
            if addr[0].endswith("/" + member):
                cube.set_value(addr, MISSING)

    @rule(
        name=st.sampled_from(["Team", "Crew"]),
        members=st.lists(st.sampled_from(MEMBERS), min_size=1, max_size=3),
    )
    def define_named_set(self, name, members):
        self.warehouse.define_named_set(name, members)

    @rule()
    def snapshot(self):
        self.snapshots = [*self.snapshots[-2:], self.warehouse.snapshot()]

    @rule()
    def query(self):
        """Every text on the live warehouse and the newest snapshot."""
        for view in [self.warehouse, *self.snapshots[-1:]]:
            for tag, text in TEXTS.items():
                expected = _naive(view, text)
                assert _outcome(view, text) == expected, (tag, type(view).__name__)
                hits = view.plan_cache.stats.hits
                assert _outcome(view, text) == expected, (tag, "warm")
                if not expected.startswith("MdxAnalysisError"):
                    assert view.plan_cache.stats.hits > hits, "a re-query reads the plan"

    @rule(which=st.integers(0, 2))
    def query_an_older_snapshot(self, which):
        """An older snapshot keeps the named sets and leaves it pinned."""
        if self.snapshots:
            view = self.snapshots[which % len(self.snapshots)]
            for tag, text in TEXTS.items():
                assert _outcome(view, text) == _naive(view, text), tag


PreparedPlanMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=25, deadline=None
)
TestPreparedPlanMachine = PreparedPlanMachine.TestCase


@pytest.fixture
def warehouse() -> Warehouse:
    return _warehouse()


def _stats(warehouse) -> dict[str, int]:
    return warehouse.metrics.snapshot()


class TestCarryRule:
    def test_a_value_write_keeps_the_plan_a_structural_one_drops_it(self, warehouse):
        text = TEXTS["non_visual"]
        warehouse.query(text)
        cube = warehouse.cube
        addr, value = next(iter(cube.leaf_cells()))
        cube.set_value(addr, value + 1.0)
        before = _stats(warehouse)
        warehouse.query(text)
        after = _stats(warehouse)
        assert after["plan_cache.hits"] == before["plan_cache.hits"] + 1
        assert after["plan_cache.invalidations"] == before["plan_cache.invalidations"]

        cube.set_value(addr, MISSING)  # a delete
        warehouse.query(text)
        assert _stats(warehouse)["plan_cache.invalidations"] == (
            after["plan_cache.invalidations"] + 1
        )

    def test_a_schema_edit_drops_the_plan(self, warehouse):
        text = TEXTS["base"]
        first = warehouse.query(text)
        warehouse.schema.varying_dimension("Organization").reparent("Lisa", "PTE", "Mar")
        again = warehouse.query(text)
        assert _stats(warehouse)["plan_cache.invalidations"] >= 1
        assert repr(again.rows) != repr(first.rows)  # Lisa has a PTE instance now
        assert _outcome(warehouse, text) == _naive(warehouse, text)

        # a leaf member gains a child: the plan's grid layout goes with it
        def leaf_flags() -> list[set[int]]:
            layout = prepare(warehouse, text, analyze=False).plan.axes.layout
            return [layout.leaf_columns(r) for r in range(len(layout.row_addrs))]

        before, invalidations = leaf_flags(), _stats(warehouse)["plan_cache.invalidations"]
        assert all(0 in columns for columns in before)  # Jan is a leaf month
        warehouse.schema.dimension("Time").add_member("Jan Wk1", "Jan")
        warehouse.query(text)
        assert _stats(warehouse)["plan_cache.invalidations"] == invalidations + 1
        after = leaf_flags()
        assert after == [columns - {0} for columns in before]
        assert _outcome(warehouse, text) == _naive(warehouse, text)

    def test_a_plan_hit_builds_no_layout(self, warehouse, monkeypatch):
        """A cell's address and leaf test are the plan's grid layout: a
        warm dashboard, base or NON_VISUAL, asks the schema whether a
        coordinate is a leaf not once."""
        from repro.olap.schema import CubeSchema

        calls: list[tuple[int, str]] = []
        real = CubeSchema.coordinate_is_leaf

        def counting(self, dim_index, coord):
            calls.append((dim_index, coord))
            return real(self, dim_index, coord)

        monkeypatch.setattr(CubeSchema, "coordinate_is_leaf", counting)
        for tag in ("base", "non_visual"):
            text = TEXTS[tag]
            first = _outcome(warehouse, text)
            assert calls, tag  # the cold run built the layout
            calls.clear()
            assert _outcome(warehouse, text) == first
            assert calls == [], tag

    def test_a_named_set_edit_on_the_origin_leaves_a_snapshot_its_own(self, warehouse):
        text = TEXTS["base"]
        snapshot = warehouse.snapshot()
        assert _outcome(snapshot, text) == _naive(snapshot, text)
        warehouse.define_named_set("Team", ["Jane"])
        for view in (warehouse, snapshot, warehouse, snapshot):
            assert _outcome(view, text) == _naive(view, text)
        jane = ("Contractor/Jane",)
        assert jane not in [row.labels for row in snapshot.query(text).rows]
        assert jane in [row.labels for row in warehouse.query(text).rows]

    def test_value_reading_axes_resolve_on_every_call(self, warehouse):
        """A warm FILTER still charges its budget: axis resolution reads
        cells, and a breach there raises as it does cold."""
        text = TEXTS["filter"]
        warehouse.query(text)
        warehouse.query(text)
        with pytest.raises(QueryBudgetExceededError):
            warehouse.query(text, budget=QueryBudget(max_cells=1))
        # the analysis is kept all the same
        with tracing():
            profile = warehouse.query(text).profile
        analyze = next(
            c for c in profile.spans["children"] if c["name"] == "mdx.analyze"
        )
        assert analyze["attrs"] == {"plan": "hit"}

    def test_a_hit_still_opens_the_analyze_and_axes_spans(self, warehouse):
        text = TEXTS["visual"]
        warehouse.query(text)
        with tracing():
            profile = warehouse.query(text).profile
        spans = {c["name"]: c for c in profile.spans["children"]}
        assert spans["mdx.analyze"]["attrs"]["plan"] == "hit"
        assert spans["mdx.axes"]["attrs"]["plan"] == "hit"
        assert {"parse", "analyze", "axes", "scenario", "cells"} <= set(profile.phases)


def _reachable(root, depth: int = 12):
    """Every object reachable from ``root`` through containers and
    instances — classes, modules and functions are not followed."""
    seen: dict[int, object] = {}
    frontier = [root]
    for _ in range(depth):
        following = []
        for obj in frontier:
            if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
            ):
                continue
            seen[id(obj)] = obj
            following.extend(gc.get_referents(obj))
        frontier = following
    return seen.values()


class TestNothingPinnedNothingShared:
    def test_a_dropped_snapshot_dies_while_its_plans_stay(self, warehouse):
        text = TEXTS["changes"]
        snapshot = warehouse.snapshot()
        snapshot.query(text)
        cube = weakref.ref(snapshot.cube)
        addr, value = next(iter(warehouse.cube.leaf_cells()))
        warehouse.cube.set_value(addr, value + 1.0)  # a value write
        warehouse.snapshot()  # replaces the cached snapshot
        # the scenario cache keeps views of the cube they were applied to
        # until a lookup at a newer version drops them; plans keep none
        warehouse.scenario_cache.clear()
        del snapshot
        gc.collect()
        assert cube() is None, "a cached plan pinned the snapshot's cube"
        assert len(warehouse.plan_cache) == 1
        hits = warehouse.plan_cache.stats.hits
        warehouse.snapshot().query(text)
        assert warehouse.plan_cache.stats.hits == hits + 1

    def test_an_entry_holds_no_warehouse_cube_view_or_context(self, warehouse):
        from repro.core.scenario import WhatIfCube
        from repro.mdx.evaluator import _Context
        from repro.olap.cube import Cube
        from repro.perf.rollup_index import RollupIndex

        warehouse.define_named_set("Crew", ["Sue"])
        for text in TEXTS.values():
            warehouse.query(text, analyze=text != TEXTS["base"])
        entries = list(warehouse.plan_cache._entries.values())
        assert len(entries) == len(TEXTS)
        forbidden = (Warehouse, Cube, WhatIfCube, RollupIndex, _Context)
        for _version, plan in entries:
            held = [o for o in _reachable(plan) if isinstance(o, forbidden)]
            assert not held, (plan.query, held)

    def test_editing_a_result_does_not_change_the_next(self, warehouse):
        for text in (TEXTS["base"], TEXTS["visual"]):
            first = warehouse.query(text)
            expected = repr((first.rows, first.columns, first.cells))
            first.rows.pop()
            first.columns.append(first.columns[0])
            first.cells[0][0] = -1.0
            assert _outcome(warehouse, text) == expected

    def test_an_analyze_false_plan_never_skips_the_analyzer(self, warehouse, monkeypatch):
        import repro.analysis.query_analyzer as query_analyzer

        calls = []
        real = query_analyzer.analyze_query

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(query_analyzer, "analyze_query", counting)
        # an error-level finding (visual and non-visual stages mixed) that
        # the escape hatch still evaluates
        text = (
            "WITH CHANGES {([Lisa], FTE, PTE, Apr)} FOR Organization VISUAL "
            "PERSPECTIVE {(Feb)} FOR Organization STATIC\n" + BODY
        )
        escaped = warehouse.query(text, analyze=False)
        assert calls == [] and escaped.cells
        with pytest.raises(MdxAnalysisError):
            warehouse.query(text)
        assert len(calls) == 1
        with pytest.raises(MdxAnalysisError):
            warehouse.query(text)  # the report is kept once made
        assert len(calls) == 1
        assert _outcome(warehouse, text).startswith("MdxAnalysisError")
        assert warehouse.query(text, analyze=False).cells == escaped.cells

        clean = TEXTS["base"]
        warehouse.query(clean, analyze=False)
        warehouse.query(clean)
        assert len(calls) == 2


def test_readers_racing_a_writer_see_their_snapshots_plan():
    """Two service readers re-ask four texts while a writer updates in
    place, deletes and re-inserts: the plan cache is shared by every
    snapshot, and each answer equals the naive one at its version."""
    from repro.service import QueryService

    warehouse, twin = _warehouse(), _warehouse()
    texts = [TEXTS[tag] for tag in ("base", "non_visual", "visual", "changes")]
    cells = sorted(warehouse.cube.leaf_cells())
    rounds = 4 if FULL_MATRIX else 1
    script: list[list[tuple[tuple, object]]] = []
    for round_ in range(rounds):
        for i in range(0, len(cells) - 2, 3):
            (a, va), (b, vb), (c, _) = cells[i : i + 3]
            script += [
                [(a, va + 1.5 + round_)],  # in place
                [(b, MISSING)],  # delete
                [(b, vb), (c, -0.0)],  # re-insert, and in place
            ]

    def naive() -> dict[str, str]:
        return {text: _naive(twin, text) for text in texts}

    expected = {twin.cube.version: naive()}
    for writes in script:
        twin.cube.apply_overrides(writes)
        expected[twin.cube.version] = naive()

    seen: list[tuple[int, str, str]] = []
    errors: list[BaseException] = []
    done = threading.Event()
    with QueryService(warehouse, workers=2) as service:

        def reader(offset: int) -> None:
            try:
                turn = offset
                while not done.is_set():
                    text = texts[turn % len(texts)]
                    turn += 1
                    ticket = service.submit(text)
                    result = ticket.result(timeout=30.0)
                    answer = repr((result.rows, result.columns, result.cells))
                    seen.append((ticket.snapshot_version, text, answer))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def writer() -> None:
            try:
                for writes in script:
                    warehouse.cube.apply_overrides(writes)
                    answered, deadline = len(seen), time.monotonic() + 2.0
                    while len(seen) == answered and time.monotonic() < deadline:
                        time.sleep(0.0005)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                done.set()

        threads = [threading.Thread(target=reader, args=(k,)) for k in range(2)]
        threads.append(threading.Thread(target=writer))
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
    assert len({version for version, _, _ in seen}) >= 5, "readers saw few versions"
    for version, text, answer in seen:
        assert answer == expected[version][text], (version, text[:40])
    assert warehouse.plan_cache.stats.hits > 0


def test_two_fills_share_one_plans_layout():
    """The layout is shared read-only: two threads fill one plan's grid
    at the same time, one under a ``max_cells`` budget, and each answer —
    degradations included — equals its ``naive_mode()`` twin."""
    warehouse = _warehouse()
    texts = [TEXTS[tag] for tag in ("base", "non_visual", "visual", "changes")]
    budgets = [None, QueryBudget(max_cells=7)]

    def answer(text: str, budget) -> str:
        result = warehouse.query(text, budget=budget)
        degradations = [d.to_dict() for d in result.degradations]
        return repr((result.rows, result.columns, result.cells, degradations))

    expected = {}
    for text in texts:
        for k, budget in enumerate(budgets):
            with naive_mode():
                expected[text, k] = answer(text, budget)
        answer(text, None)  # the plan every fill below reads
    assert any("cell-cap" in expected[text, 1] for text in texts)

    rounds = 60 if FULL_MATRIX else 15
    start = threading.Barrier(len(budgets))
    errors: list[BaseException] = []
    seen: list[tuple[str, int, str]] = []

    def filler(k: int) -> None:
        try:
            start.wait(timeout=30)
            for _ in range(rounds):
                for text in texts:
                    seen.append((text, k, answer(text, budgets[k])))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    hits = warehouse.plan_cache.stats.hits
    threads = [threading.Thread(target=filler, args=(k,)) for k in range(len(budgets))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(seen) == rounds * len(texts) * len(budgets)
    for text, k, got in seen:
        assert got == expected[text, k], (text[:40], k)
    assert warehouse.plan_cache.stats.hits >= hits + len(seen)
