"""Sharded answers are ``Warehouse.query`` answers, bit for bit, in both
classification classes.

The coordinator classifies cells from per-axis facts (which shard covers
the tuple's shard-dimension coordinate, whether its coordinates are leaf
level): a cell one shard covers is owned and crosses the pipe as part of
a grid block; every other cell is filled on the coordinator's full
warehouse.  The table below walks every way the shard dimension can be
bound (rows, columns, both, slicer, not at all, a column set that mixes
dimensions), at leaf and non-leaf levels, over populated and empty
scopes, with and without a scenario, with NON EMPTY on either axis, and
over ruled and stored-aggregate cells.
"""

from __future__ import annotations

import itertools

import pytest

from repro.service import ShardedQueryService

MONTHS = "{Time.[Jan], Time.[Feb], Time.[Mar], Time.[Qtr1]}"
#: name -> (columns, rows); Organization is the shard dimension
LAYOUTS = {
    "shard-dim-on-rows": (MONTHS, "{[Organization].Members}"),
    "shard-dim-on-columns": ("{[Organization].Members}", MONTHS),
    "shard-dim-unbound": (MONTHS, "{[Location].Members}"),
    "shard-dim-in-crossjoin": (
        MONTHS,
        "CrossJoin({[FTE], [PTE], [Joe]}, {[NY], [East]})",
    ),
    # column tuples that bind different dimensions
    "mixed-column-dims": ("{Time.[Jan], [NY]}", "{[Organization].Members}"),
    # a column coordinate overrides the row's on the same dimension
    "shard-dim-on-both": ("{[FTE], [Joe]}", "{[Organization].Members}"),
}
SLICERS = (
    "([NY], [Salary])",  # leaf cells under instance rows
    "([Salary])",  # non-leaf Location
    "([CA], [Salary])",  # no data: every scope is empty
    "([East], [Compensation])",  # non-leaf measure
    "([Lisa], [Salary])",  # shard dimension bound in the slicer, to a member
    "([FTE])",  # ... and to a category no single shard covers
)
SCENARIOS = (
    "",
    "WITH PERSPECTIVE {(Feb)} FOR Organization STATIC ",
    "WITH PERSPECTIVE {(Jan), (Mar)} FOR Organization DYNAMIC FORWARD VISUAL ",
    "WITH CHANGES {([Joe], [FTE], [PTE], [Jan])} FOR Organization ",
)
NON_EMPTY = tuple(itertools.product(("", "NON EMPTY "), repeat=2))


def _queries(layout: str, scenarios=SCENARIOS):
    columns, rows = LAYOUTS[layout]
    for slicer, scenario, (ne_cols, ne_rows) in itertools.product(
        SLICERS, scenarios, NON_EMPTY
    ):
        yield (
            f"{scenario}SELECT {ne_cols}{columns} ON COLUMNS, "
            f"{ne_rows}{rows} ON ROWS FROM Warehouse WHERE {slicer}"
        )


def _assert_parity(service, text, totals):
    expected = service.warehouse.query(text)
    got = service.execute(text, degrade="fail")
    assert got.columns == expected.columns, text
    assert got.rows == expected.rows, text
    assert repr(got.cells) == repr(expected.cells), text
    for key in ("owned_cells", "local_cells"):
        totals[key] = totals.get(key, 0) + got.stats[key]


@pytest.fixture(scope="module")
def service():
    with ShardedQueryService("running", n_shards=2) as svc:
        yield svc


@pytest.fixture(scope="module")
def ruled_service():
    """A pool whose coordinator cube carries a formula rule and a stored
    aggregate.  Both classes are evaluated on the coordinator, so writing
    them after the shards were spawned keeps the pool consistent — for
    the stored aggregate only without a scenario (shards copy stored
    aggregates at spawn and evaluate scenario cells themselves)."""
    with ShardedQueryService("running", n_shards=2) as svc:
        cube = svc.warehouse.cube
        cube.rules.define("Compensation", "Salary + 2 * Benefits")
        schema = svc.warehouse.schema
        cube.set_value(
            schema.address(
                Organization="FTE", Location="NY", Time="Qtr1", Measures="Salary"
            ),
            1234.5,
        )
        cube.set_value(
            schema.address(
                Organization="Organization",
                Location="East",
                Time="Jan",
                Measures="Salary",
            ),
            -0.0,
        )
        yield svc


class TestClassificationTable:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_every_binding_of_the_shard_dimension(self, service, layout):
        totals: "dict[str, int]" = {}
        for text in _queries(layout):
            _assert_parity(service, text, totals)
        # the layout reached the shards and the coordinator
        assert totals["local_cells"] > 0
        assert totals["owned_cells"] > 0

    def test_table_covers_every_class(self, service):
        totals: "dict[str, int]" = {}
        for layout in ("shard-dim-on-rows", "shard-dim-unbound"):
            for text in _queries(layout, scenarios=SCENARIOS[:2]):
                _assert_parity(service, text, totals)
        assert set(totals) == {"owned_cells", "local_cells"}
        assert all(totals[key] > 0 for key in totals), totals

    def test_empty_spanning_scopes_are_bottom_and_pruned(self, service):
        text = (
            "SELECT {Time.[Jan], Time.[Feb]} ON COLUMNS, "
            "NON EMPTY {[FTE], [PTE]} ON ROWS "
            "FROM Warehouse WHERE ([CA], [Salary])"
        )
        got = service.execute(text, degrade="fail")
        assert got.stats["local_cells"] == 4 and got.stats["owned_cells"] == 0
        assert got.rows == [] and got.cells == []
        assert got.rows == service.warehouse.query(text).rows


class TestResolveFromTheStructureHalf:
    """The coordinator resolves with the evaluator's own ``resolve_query``
    from the scenario's structure half and applies nothing; that must be
    the answer of a context that applied the chain first, as
    ``evaluate_query`` does."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_same_tuples_and_slicer_as_the_applied_chain(self, service, scenario):
        from repro.mdx.evaluator import _Context, resolve_query
        from repro.mdx.parser import parse_query

        for layout in sorted(LAYOUTS):
            for text in _queries(layout, scenarios=(scenario,)):
                if "NON EMPTY" in text:
                    continue  # resolve does not prune
                query = parse_query(text)
                structure = resolve_query(_Context(service.warehouse, query))
                assert structure.context._applied is None, text
                context = _Context(service.warehouse, query)
                context.view  # reading cells first applies the chain
                assert (context._applied is None) == (not scenario)
                applied = resolve_query(context)
                assert structure.columns == applied.columns, text
                assert structure.rows == applied.rows, text
                assert structure.slicer == applied.slicer, text
                assert structure.base_coords == applied.base_coords, text


    @pytest.mark.parametrize("scenario", SCENARIOS[1:])
    def test_a_query_the_shards_answer_applies_nothing_here(self, service, scenario):
        """Every cell owned by a shard: the coordinator's trace holds the
        structure half at most (``core.phi``), never a data half."""
        from repro.obs.trace import tracing

        text = (
            f"{scenario}SELECT {MONTHS} ON COLUMNS, {{[Joe], [Lisa], [Tom]}} ON ROWS "
            "FROM Warehouse WHERE ([NY], [Salary])"
        )
        with tracing() as tracer:
            got = service.execute(text, degrade="fail")
            root = tracer.take_last()
        assert got.stats["local_cells"] == got.stats["fallback_cells"] == 0
        assert root.name == "serve.execute"
        opened = {span.name for span in root.iter_spans()}
        assert not opened & {"scenario.apply", "core.relocate", "core.split"}, opened
        expected = service.warehouse.query(text)
        assert (got.rows, repr(got.cells)) == (expected.rows, repr(expected.cells))


class TestRuledAndStoredCells:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_ruled_cells_in_every_layout(self, ruled_service, layout):
        totals: "dict[str, int]" = {}
        for text in _queries(layout, scenarios=SCENARIOS[:1]):
            _assert_parity(ruled_service, text, totals)

    def test_ruled_cells_under_scenarios(self, ruled_service):
        # stored aggregates sit under [Salary]; the ruled measure does not
        totals: "dict[str, int]" = {}
        for layout in sorted(LAYOUTS):
            columns, rows = LAYOUTS[layout]
            for scenario in SCENARIOS[1:]:
                _assert_parity(
                    ruled_service,
                    f"{scenario}SELECT {columns} ON COLUMNS, {rows} ON ROWS "
                    "FROM Warehouse WHERE ([East], [Compensation])",
                    totals,
                )

    def test_stored_aggregate_is_served_not_rolled_up(self, ruled_service):
        text = (
            "SELECT {Time.[Qtr1], Time.[Jan]} ON COLUMNS, "
            "{[FTE], [Organization]} ON ROWS "
            "FROM Warehouse WHERE ([NY], [Salary])"
        )
        got = ruled_service.execute(text, degrade="fail")
        assert got.cells[0][0] == 1234.5
        # the stored cell and the categories above any single member
        assert got.stats["local_cells"] == 4 and got.stats["owned_cells"] == 0
        east = ruled_service.execute(
            text.replace("[NY]", "[East]"), degrade="fail"
        )
        assert repr(east.cells[1][1]) == "-0.0"
