"""Equivalence properties: the perf engine must be invisible.

Every test here runs the same computation twice — once with the engine
(rollup index + scenario cache + batched grids) and once under
``repro.perf.naive_mode()`` (the pre-engine full-scan/per-cell path) —
and requires *bit-identical* results: same cells, same ⊥ pattern, same
failpoint hits, same budget degradations.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultInjectedError
from repro.faults import FAULTS
from repro.mdx.budget import QueryBudget
from repro.olap.aggregation import AGGREGATORS
from repro.olap.cube import Cube
from repro.olap.dimension import Dimension
from repro.olap.missing import MISSING, is_missing
from repro.olap.schema import CubeSchema
from repro.perf.config import naive_mode
from repro.warehouse import Warehouse
from repro.workload.running_example import build_running_example

# -- a small static cube for the mutation property ---------------------------

MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun")
MEASURES = ("Sales", "COGS")


def _tiny_cube() -> Cube:
    time = Dimension("Time", ordered=True)
    time.add_member("H1")
    time.add_children("H1", ["Jan", "Feb", "Mar"])
    time.add_member("H2")
    time.add_children("H2", ["Apr", "May", "Jun"])
    measures = Dimension("Measures", is_measures=True)
    measures.add_children(None, ["Sales", "COGS"])
    return Cube(CubeSchema([time, measures]))


LEAF_ADDRESSES = [(m, s) for m in MONTHS for s in MEASURES]


def _all_addresses(schema) -> list[tuple[str, str]]:
    time_members = [
        m.name
        for m in schema.dimension("Time").root.descendants(include_self=True)
    ]
    measure_members = [
        m.name
        for m in schema.dimension("Measures").root.descendants(include_self=True)
    ]
    return [(t, s) for t in time_members for s in measure_members]


operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(LEAF_ADDRESSES) - 1),
        st.one_of(
            st.none(),  # delete
            st.floats(
                min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
        ),
    ),
    min_size=1,
    max_size=25,
)


class TestIndexedRollupProperty:
    @settings(max_examples=40, deadline=None)
    @given(ops=operations)
    def test_matches_naive_under_interleaved_mutations(self, ops):
        """After every mutation, every (address, aggregator) pair agrees
        bit-for-bit between the indexed and the naive scan path."""
        cube = _tiny_cube()
        addresses = _all_addresses(cube.schema)
        cube.rollup_index()  # force incremental maintenance from op one
        for leaf_index, value in ops:
            addr = LEAF_ADDRESSES[leaf_index]
            cube.set_value(addr, MISSING if value is None else value)
            for address in addresses:
                for aggregator in AGGREGATORS:
                    indexed = cube.rollup(address, aggregator)
                    with naive_mode():
                        naive = cube.rollup(address, aggregator)
                    if is_missing(indexed) or is_missing(naive):
                        assert is_missing(indexed) and is_missing(naive), (
                            address, aggregator
                        )
                    else:
                        assert indexed == naive, (address, aggregator)


# -- full-query equivalence on the running example ---------------------------


@pytest.fixture
def warehouse(example) -> Warehouse:
    return Warehouse(example.schema, example.cube, name="Warehouse")


QUERIES = [
    # plain derived grid (index + batch, no scenario)
    """
    SELECT {Time.Members} ON COLUMNS, {Location.Members} ON ROWS
    FROM Warehouse WHERE (Measures.[Compensation])
    """,
    # negative scenario, visual (scenario cache + relocated cube)
    """
    WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
    SELECT {Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]} ON COLUMNS,
           {[Joe]} ON ROWS
    FROM Warehouse WHERE ([NY], [Salary])
    """,
    # negative scenario, non-visual (aggregates from the original cube)
    """
    WITH PERSPECTIVE {(Feb)} FOR Organization STATIC
    SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS,
           {Organization.Children} ON ROWS
    FROM Warehouse WHERE ([Salary])
    """,
    # positive scenario
    """
    WITH CHANGES {([Lisa], FTE, PTE, Apr)} FOR Organization VISUAL
    SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS,
           {Organization.Children} ON ROWS
    FROM Warehouse WHERE ([Salary])
    """,
    # Filter condition probes (budgeted axis resolution) + slicer
    """
    SELECT {Time.[Qtr1]} ON COLUMNS,
           {Filter(Location.[East].Children, (Measures.[Salary]) > 10)} ON ROWS
    FROM Warehouse
    WHERE (Organization.[Contractor].[Joe], Measures.[Salary])
    """,
    # column tuples that bind different dimension sets (two column groups)
    """
    SELECT {Time.[Jan], [NY], Time.[Qtr1], [East]} ON COLUMNS,
           {Organization.Members} ON ROWS
    FROM Warehouse WHERE ([Salary])
    """,
]


#: positive then negative on one dimension: S feeds ρ, two derived indexes
CHAINED_QUERY = """
    WITH CHANGES {([Lisa], FTE, PTE, Apr)} FOR Organization VISUAL
         PERSPECTIVE {(Mar)} FOR Organization DYNAMIC BACKWARD VISUAL
    SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS,
           {Organization.Children} ON ROWS
    FROM Warehouse WHERE ([Salary])
"""


def _fresh(example_builder):
    from repro.workload.running_example import build_running_example

    ex = build_running_example()
    return Warehouse(ex.schema, ex.cube, name="Warehouse")


class TestQueryEquivalence:
    @pytest.mark.parametrize("query", QUERIES)
    def test_engine_matches_naive(self, warehouse, query):
        engine = warehouse.query(query)
        with naive_mode():
            naive = warehouse.query(query)
        assert engine.cells == naive.cells
        assert engine.row_labels() == naive.row_labels()
        assert engine.column_labels() == naive.column_labels()

    @pytest.mark.parametrize("query", QUERIES)
    def test_repeat_under_cache_still_matches(self, warehouse, query):
        warehouse.query(query)  # warm scenario cache + index + memo
        repeat = warehouse.query(query)
        with naive_mode():
            naive = warehouse.query(query)
        assert repeat.cells == naive.cells


#: the running example as built holds a rule engine with no rule — a plain
#: roll-up cube, filled by blocks.  Its twins: the same leaves in a cube
#: with no rule engine (filled by blocks), and the example with formula
#: rules its grids read (filled a cell at a time, through its cell rule)
TWINS = ("example_plain", "example_rules")


def _twin(kind: str) -> Warehouse:
    ex = build_running_example()
    cube = ex.cube
    if kind == "example_plain":
        cube = Cube(ex.schema)
        cube.load(ex.cube.leaf_cells())
    else:
        ex.rules.define("Compensation", "Salary + 2 * Benefits")
        ex.rules.define("Salary", "2 * Benefits", scope={"Location": "East"})
    return Warehouse(ex.schema, cube, name="Warehouse")


def _fault_outcome(warehouse: Warehouse, query: str, nth: int, use_naive: bool):
    FAULTS.clear()
    FAULTS.fail_after("mdx.cell", nth)
    try:
        if use_naive:
            with naive_mode():
                result = warehouse.query(query)
        else:
            result = warehouse.query(query)
        return ("ok", repr(result.cells))
    except FaultInjectedError as err:
        return ("fault", err.failpoint, FAULTS.fired_count("mdx.cell"))
    finally:
        FAULTS.clear()


class TestFaultEquivalence:
    """The mdx.cell failpoint must fire at the same evaluation step."""

    @settings(max_examples=15, deadline=None)
    @given(nth=st.integers(min_value=1, max_value=30))
    def test_fail_after_nth_hit_is_path_independent(self, nth):
        query = QUERIES[0]

        def outcome(use_naive: bool):
            warehouse = _fresh(None)
            FAULTS.clear()
            FAULTS.fail_after("mdx.cell", nth)
            try:
                if use_naive:
                    with naive_mode():
                        result = warehouse.query(query)
                else:
                    result = warehouse.query(query)
                return ("ok", result.cells)
            except FaultInjectedError as err:
                return ("fault", err.failpoint)
            finally:
                FAULTS.clear()

        assert outcome(False) == outcome(True)

    def test_scenario_query_fault_parity(self, warehouse):
        FAULTS.fail_after("mdx.cell", 3)
        with pytest.raises(FaultInjectedError):
            warehouse.query(QUERIES[1])
        FAULTS.clear()
        FAULTS.fail_after("mdx.cell", 3)
        with naive_mode(), pytest.raises(FaultInjectedError):
            warehouse.query(QUERIES[1])

    @pytest.mark.parametrize("kind", TWINS)
    @settings(max_examples=15, deadline=None)
    @given(nth=st.integers(min_value=1, max_value=30))
    def test_fail_after_nth_hit_is_path_independent_on_a_twin(self, kind, nth):
        assert _fault_outcome(_twin(kind), QUERIES[0], nth, False) == _fault_outcome(
            _twin(kind), QUERIES[0], nth, True
        )

    @pytest.mark.parametrize("kind", TWINS)
    def test_scenario_query_fault_parity_on_a_twin(self, kind):
        warehouse = _twin(kind)
        engine = _fault_outcome(warehouse, QUERIES[1], 3, False)
        assert engine[0] == "fault"
        assert engine == _fault_outcome(warehouse, QUERIES[1], 3, True)


class TestBudgetEquivalence:
    @pytest.mark.parametrize("max_cells", [0, 1, 2, 3, 5, 8, 13, 1000])
    def test_cell_cap_cuts_identically(self, warehouse, max_cells):
        query = QUERIES[0]
        budget = QueryBudget(max_cells=max_cells)
        engine = warehouse.query(query, budget=budget)
        with naive_mode():
            naive = warehouse.query(query, budget=budget)
        assert engine.cells == naive.cells
        assert [d.to_dict() for d in engine.degradations] == [
            d.to_dict() for d in naive.degradations
        ]

    def test_zero_deadline_evaluates_nothing(self, warehouse):
        budget = QueryBudget(deadline_ms=0)
        engine = warehouse.query(QUERIES[0], budget=budget)
        with naive_mode():
            naive = warehouse.query(QUERIES[0], budget=budget)
        assert all(is_missing(v) for row in engine.cells for v in row)
        assert engine.cells == naive.cells
        assert engine.degradations[0].cells_evaluated == 0
        assert engine.degradations[0].reason == "deadline"
        assert naive.degradations[0].reason == "deadline"

    @pytest.mark.parametrize("kind", TWINS)
    @pytest.mark.parametrize("max_cells", [0, 1, 2, 3, 5, 8, 13, 1000])
    def test_cell_cap_cuts_identically_on_a_twin(self, kind, max_cells):
        warehouse = _twin(kind)
        budget = QueryBudget(max_cells=max_cells)
        engine = warehouse.query(QUERIES[0], budget=budget)
        with naive_mode():
            naive = warehouse.query(QUERIES[0], budget=budget)
        assert repr(engine.cells) == repr(naive.cells)
        assert [d.to_dict() for d in engine.degradations] == [
            d.to_dict() for d in naive.degradations
        ]

    @pytest.mark.parametrize("kind", TWINS)
    def test_zero_deadline_evaluates_nothing_on_a_twin(self, kind):
        warehouse = _twin(kind)
        budget = QueryBudget(deadline_ms=0)
        engine = warehouse.query(QUERIES[0], budget=budget)
        with naive_mode():
            naive = warehouse.query(QUERIES[0], budget=budget)
        assert all(is_missing(v) for row in engine.cells for v in row)
        assert repr(engine.cells) == repr(naive.cells)
        assert engine.degradations[0].cells_evaluated == 0
        assert engine.degradations[0].reason == naive.degradations[0].reason == "deadline"


class TestInterleavedMutationQueries:
    def test_mutate_between_queries_stays_equivalent(self, warehouse):
        query = QUERIES[2]
        for step in range(4):
            engine = warehouse.query(query)
            with naive_mode():
                naive = warehouse.query(query)
            assert engine.cells == naive.cells, f"step {step}"
            addr, value = next(iter(warehouse.cube.leaf_cells()))
            warehouse.cube.set_value(addr, value + float(step + 1))

    def test_write_then_requery_through_the_service(self, warehouse):
        """The planning loop: edit the live cube (in place, delete,
        insert), re-query through ``QueryService``.  Every snapshot forks
        the live cube's index (built once, by the bulk load), and each
        reply equals a naive scan of the live cube at that moment."""
        from repro.service import QueryService

        cube = warehouse.cube
        cells = list(cube.leaf_cells())
        fresh = ("Organization/FTE/Lisa", "MA", "Feb", "Benefits")
        writes = [
            [(cells[0][0], cells[0][1] + 2.5)],
            [(cells[1][0], MISSING), (fresh, 7.0)],
            [(cells[1][0], cells[1][1]), (fresh, MISSING), (cells[2][0], -0.0)],
        ]
        index = cube.rollup_index()
        with QueryService(warehouse, workers=2) as service:
            for step, batch in enumerate([[]] + writes):
                for addr, value in batch:
                    cube.set_value(addr, value)
                for query in QUERIES:
                    served = service.submit(query).result(timeout=30.0)
                    with naive_mode():
                        naive = warehouse.query(query)
                    assert repr(served.cells) == repr(naive.cells), (step, query)
        assert cube.rollup_index() is index and index.stats.builds == 1

    def test_cold_whatif_on_snapshots_while_the_live_cube_mutates(self, warehouse):
        """Cold VISUAL and chained what-if queries on snapshots while the
        live cube takes in-place updates, deletes and inserts.

        Every snapshot forks the live rollup index (shared code columns;
        the writer's next structural write copies them) and every cold
        apply derives its output index under the parent index's lock.
        Whatever the interleaving, a grid answered at version v must equal
        the grid a single-threaded replay produces at v, bit for bit.
        """
        queries = (QUERIES[1], CHAINED_QUERY)
        cube = warehouse.cube
        cube.rollup_index()  # so that snapshots fork it instead of building
        cells = list(cube.leaf_cells())
        script = []
        for i in range(6):
            (a, va), (b, vb) = cells[2 * i], cells[2 * i + 1]
            script += [(a, va + 1.5), (b, MISSING), (a, va - 0.25), (b, vb * 2)]

        def grids(view) -> tuple[str, ...]:
            view.scenario_cache.clear()  # every apply is cold
            return tuple(repr(view.query(q).cells) for q in queries)

        replay = _fresh(None)
        assert replay.cube.version == cube.version
        expected = {replay.cube.version: grids(replay)}
        for addr, value in script:
            replay.cube.set_value(addr, value)
            expected[replay.cube.version] = grids(replay)

        seen: list[tuple[int, tuple[str, ...]]] = []
        errors: list[BaseException] = []
        done = threading.Event()

        def reader() -> None:
            try:
                while not done.is_set():
                    snapshot = warehouse.snapshot()
                    seen.append((snapshot.version, grids(snapshot)))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def writer() -> None:
            try:
                for addr, value in script:
                    cube.set_value(addr, value)
                    # let at least one more answer land before the next write
                    answered, deadline = len(seen), time.monotonic() + 2.0
                    while len(seen) == answered and time.monotonic() < deadline:
                        time.sleep(0.001)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                done.set()

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len({version for version, _ in seen}) >= 3, "readers saw few versions"
        for version, answered in seen:
            assert answered == expected[version], f"version {version}"
        assert grids(warehouse) == expected[cube.version]


# -- mixed grids: leaf and derived cells in one row, two column groups ----------

#: the running example (formula rules: every derived cell is the rules')
#: with columns on Time and on Location, interleaved
MIXED_EXAMPLE_QUERY = """
    SELECT {Time.[Jan], [MA], Time.[Qtr1], Time.[Feb], [East]} ON COLUMNS,
           {[Joe], [FTE], [Lisa]} ON ROWS
    FROM Warehouse WHERE ([NY], [Salary])
"""

#: column tuples binding Location and Measures, with Time free between
#: them: the addresses' middle part is filled from the row
MIXED_SPAN_QUERY = """
    SELECT {CrossJoin({[NY], [East]}, {[Salary], [Benefits]}), Time.[Feb],
            CrossJoin({[MA]}, {[Salary]})} ON COLUMNS,
           {[Joe], [FTE], [Lisa]} ON ROWS
    FROM Warehouse WHERE (Time.[Jan])
"""

#: the workforce cube (no rules: derived cells are memo sweeps and the
#: reducer) with columns on Period and on Scenario, interleaved
MIXED_WORKFORCE_QUERY = """
    SELECT {Period.[Jan], Scenario.[Scenario1], Period.[Q1], Period.[Feb],
            Scenario.[Scenario]} ON COLUMNS,
           {Dept000.Children, [Dept000]} ON ROWS
    FROM [App].[Db]
    WHERE ([Acct000], [Current], [Local], [BU Version_1], [HSP_InputValue])
"""


def _mixed_warehouse(kind: str) -> Warehouse:
    if kind in TWINS:
        return _twin(kind)
    if kind.startswith("example"):
        return _fresh(None)
    from repro.workload.workforce import WorkforceConfig, build_workforce

    return build_workforce(
        WorkforceConfig(
            n_employees=20, n_departments=3, n_changing=4, max_moves=2, n_accounts=2
        )
    ).warehouse


MIXED = {
    "example": MIXED_EXAMPLE_QUERY,
    "example_span": MIXED_SPAN_QUERY,
    "example_plain": MIXED_EXAMPLE_QUERY,
    "example_rules": MIXED_EXAMPLE_QUERY,
    "workforce": MIXED_WORKFORCE_QUERY,
}


@pytest.fixture(scope="module", params=sorted(MIXED))
def mixed(request) -> "tuple[Warehouse, str]":
    return _mixed_warehouse(request.param), MIXED[request.param]


class TestMixedGrids:
    """Grids whose rows hold leaf and derived cells and whose columns form
    two groups: the block read, the memo sweep and the slow path all
    serve one row, and every contract of the per-cell loop holds."""

    def test_the_grid_is_mixed(self, mixed):
        warehouse, query = mixed
        result = warehouse.query(query)
        with naive_mode():
            naive = warehouse.query(query)
        assert repr(result.cells) == repr(naive.cells)
        assert any(is_missing(v) for row in result.cells for v in row)
        # two column groups, interleaved
        bound = [frozenset(dim for dim, _ in c.coordinates) for c in result.columns]
        groups = [[j for j, b in enumerate(bound) if b == dims] for dims in set(bound)]
        assert len(groups) == 2
        assert any(cols[-1] - cols[0] != len(cols) - 1 for cols in groups)

    def test_fail_after_every_n_is_path_independent(self, mixed):
        warehouse, query = mixed
        shape = warehouse.query(query)
        n_cells = len(shape.rows) * len(shape.columns)

        def outcome(n: int, use_naive: bool):
            FAULTS.clear()
            FAULTS.fail_after("mdx.cell", n)
            try:
                if use_naive:
                    with naive_mode():
                        result = warehouse.query(query)
                else:
                    result = warehouse.query(query)
                return ("ok", repr(result.cells))
            except FaultInjectedError as err:
                return ("fault", err.failpoint, FAULTS.fired_count("mdx.cell"))
            finally:
                FAULTS.clear()

        outcomes = [outcome(n, False) for n in range(1, n_cells + 2)]
        assert outcomes == [outcome(n, True) for n in range(1, n_cells + 2)]
        assert outcomes[-1][0] == "ok" and outcomes[-2][0] == "fault"

    @pytest.mark.parametrize("max_cells", [0, 1, 2, 4, 6, 7, 11, 23, 44, 45, 1000])
    def test_cell_cap_cuts_identically(self, mixed, max_cells):
        warehouse, query = mixed
        budget = QueryBudget(max_cells=max_cells)
        engine = warehouse.query(query, budget=budget)
        with naive_mode():
            naive = warehouse.query(query, budget=budget)
        assert repr(engine.cells) == repr(naive.cells)
        assert [d.to_dict() for d in engine.degradations] == [
            d.to_dict() for d in naive.degradations
        ]
        for key in ("cells_evaluated", "cells_skipped"):
            assert engine.stats[key] == naive.stats[key]

    @pytest.mark.parametrize("kind", sorted(MIXED))
    def test_only_a_rule_cube_fills_cell_by_cell(self, kind):
        """The block fill counts its memo probes; the per-cell fill, which
        a cube with formula rules or stored aggregates takes, counts none."""
        warehouse = _mixed_warehouse(kind)
        by_blocks = kind != "example_rules"
        assert ("indexed_rollups" in warehouse.query(MIXED[kind]).stats) is by_blocks
        if by_blocks:  # a stored aggregate sends the grid to the per-cell fill
            root = tuple(d.root.name for d in warehouse.schema.dimensions)
            warehouse.cube.set_value(root, 1.0)
            result = warehouse.query(MIXED[kind])
            assert "indexed_rollups" not in result.stats
            with naive_mode():
                assert repr(warehouse.query(MIXED[kind]).cells) == repr(result.cells)

    def test_a_derived_only_rule_grid_probes_no_leaf(self):
        """A rule cube's grid of derived cells — whose formula operands,
        Salary and Benefits at a group, a region and a quarter, are
        derived too — filled a cell at a time, on the engine and under
        ``naive_mode()``: no cell probes the leaf store, so the leaf
        generation's point lookup resolves nothing."""
        warehouse = _twin("example_rules")
        query = """
            SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, {[FTE], [PTE]} ON ROWS
            FROM Warehouse WHERE ([East], [Compensation])
        """
        struct = warehouse.cube.rollup_index()._struct
        assert not struct.recent and not struct.sorted_part.resolved
        result = warehouse.query(query)
        assert "indexed_rollups" not in result.stats  # the per-cell fill
        with naive_mode():
            naive = warehouse.query(query)
        assert repr(result.cells) == repr(naive.cells)
        assert not any(is_missing(v) for row in result.cells for v in row)
        assert warehouse.cube.rollup_index()._struct is struct
        assert not struct.recent and not struct.sorted_part.resolved

    def test_a_warm_grid_counts_its_memo_served_cells(self):
        warehouse = _mixed_warehouse("workforce")
        stats = warehouse.cube.rollup_index().stats
        cold = warehouse.query(MIXED_WORKFORCE_QUERY)
        hits, misses = stats.hits, stats.misses
        warm = warehouse.query(MIXED_WORKFORCE_QUERY)
        assert repr(warm.cells) == repr(cold.cells)
        schema = warehouse.schema
        slicer = {
            "Account": "Acct000", "Scenario": "Current", "Currency": "Local",
            "Version": "BU Version_1", "Value": "HSP_InputValue", "Period": "Period",
            "Department": "Department",
        }
        derived = sum(
            not schema.is_leaf_address(
                schema.address(**{**slicer, **dict(row.coordinates + column.coordinates)})
            )
            for row in warm.rows
            for column in warm.columns
        )
        assert derived == warm.stats["indexed_rollups"] > 0
        # every derived cell was a memo hit, every leaf cell none
        assert stats.hits - hits == derived
        assert stats.misses == misses


class TestFaultHitTimes:
    """``FAULTS.hit(name, times=n)`` is exactly ``n`` single hits: the same
    raise, at the same hit, leaving the same state behind."""

    ARMINGS = {
        "after": lambda r: r.fail_after("mdx.cell", 7),
        "transient": lambda r: r.fail_transient("mdx.cell", 3),
        "prob": lambda r: r.fail_probabilistic("mdx.cell", 0.2, seed=11),
    }

    @pytest.mark.parametrize("mode", sorted(ARMINGS))
    def test_times_n_is_n_single_hits(self, mode):
        from repro.faults import FaultRegistry

        batches = [0, 1, 3, 2, 5, 1, 4, 6, 2, 3]

        def trace(batched: bool):
            registry = FaultRegistry()
            self.ARMINGS[mode](registry)
            events = []
            for n in batches:
                try:
                    if batched:
                        registry.hit("mdx.cell", times=n)
                    else:
                        for _ in range(n):
                            registry.hit("mdx.cell")
                    events.append("pass")
                except Exception as exc:  # noqa: BLE001 - the outcome under test
                    events.append(type(exc).__name__)
                arming = registry._armed["mdx.cell"]
                events.append((arming.hits, arming.fired))
            return events

        batched = trace(True)
        assert batched == trace(False)
        assert any(event not in ("pass",) and isinstance(event, str) for event in batched)

    def test_times_zero_and_disarmed_are_no_ops(self):
        from repro.faults import FaultRegistry

        registry = FaultRegistry()
        registry.hit("mdx.cell", times=5)  # nothing armed
        registry.fail_with("mdx.cell")
        registry.hit("mdx.cell", times=0)
        assert registry._armed["mdx.cell"].hits == 0
        with pytest.raises(FaultInjectedError):
            registry.hit("mdx.cell", times=1)
