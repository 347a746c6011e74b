"""Tests for MDX evaluation against the running-example warehouse."""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MdxEvaluationError
from repro.mdx.evaluator import grid_footprint
from repro.mdx.result import AxisTuple
from repro.olap.missing import is_missing
from repro.perf.batch import GridLayout
from repro.warehouse import Warehouse
from repro.workload import build_running_example


@pytest.fixture
def warehouse(example) -> Warehouse:
    wh = Warehouse(example.schema, example.cube, name="Warehouse")
    wh.define_named_set("Changers", ["Joe"])
    return wh


class TestClassicQueries:
    def test_fig3_style_grid(self, warehouse):
        result = warehouse.query(
            """
            SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS,
                   Location.[East].Children ON ROWS
            FROM Warehouse
            WHERE (Organization.[Contractor].[Joe], Measures.[Salary])
            """
        )
        assert result.column_labels() == ["Qtr1", "Qtr2"]
        assert result.row_labels() == ["NY", "MA", "NH"]
        # Contractor/Joe NY: Mar 30 in Q1; Apr 20 + Jun 20 in Q2.
        assert result.cell_by_labels("NY", "Qtr1") == 30.0
        assert result.cell_by_labels("NY", "Qtr2") == 40.0
        assert result.cell_by_labels("MA", "Qtr1") == 15.0
        assert is_missing(result.cell_by_labels("NH", "Qtr1"))

    def test_default_members_are_roots(self, warehouse):
        result = warehouse.query(
            "SELECT {Time.[Qtr1]} ON COLUMNS FROM Warehouse"
        )
        # Everything else defaults to dimension roots: grand total of Q1.
        expected = warehouse.cube.effective_value(
            warehouse.schema.address(
                Organization="Organization",
                Location="Location",
                Time="Qtr1",
                Measures="Measures",
            )
        )
        assert result.cell(0, 0) == expected

    def test_varying_leaf_expands_to_instances(self, warehouse):
        result = warehouse.query(
            """
            SELECT {Time.[Jan], Time.[Feb], Time.[Mar]} ON COLUMNS,
                   {[Joe]} ON ROWS
            FROM Warehouse WHERE ([NY], [Salary])
            """
        )
        assert result.row_labels() == ["FTE/Joe", "PTE/Joe", "Contractor/Joe"]
        assert result.cell_by_labels("FTE/Joe", "Jan") == 10.0
        assert is_missing(result.cell_by_labels("FTE/Joe", "Feb"))
        assert result.cell_by_labels("PTE/Joe", "Feb") == 10.0
        assert result.cell_by_labels("Contractor/Joe", "Mar") == 30.0

    def test_parent_qualified_member_selects_one_instance(self, warehouse):
        result = warehouse.query(
            """
            SELECT {Time.[Jan]} ON COLUMNS,
                   {Organization.[PTE].[Joe]} ON ROWS
            FROM Warehouse WHERE ([NY], [Salary])
            """
        )
        assert result.row_labels() == ["PTE/Joe"]

    def test_crossjoin_axis(self, warehouse):
        result = warehouse.query(
            """
            SELECT CrossJoin({[Qtr1]}, {[Salary], [Benefits]}) ON COLUMNS,
                   {[Lisa]} ON ROWS
            FROM Warehouse WHERE ([NY])
            """
        )
        assert len(result.columns) == 2
        assert result.cell(0, 0) == 30.0  # Lisa Q1 salary
        assert result.cell(0, 1) == 6.0  # Lisa Q1 benefits

    def test_union_deduplicates(self, warehouse):
        result = warehouse.query(
            "SELECT Union({[Jan], [Feb]}, {[Feb], [Mar]}) ON COLUMNS "
            "FROM Warehouse"
        )
        assert result.column_labels() == ["Jan", "Feb", "Mar"]

    def test_head_and_tail(self, warehouse):
        result = warehouse.query(
            "SELECT Head({[Jan], [Feb], [Mar]}, 2) ON COLUMNS FROM Warehouse"
        )
        assert result.column_labels() == ["Jan", "Feb"]
        result = warehouse.query(
            "SELECT Tail({[Jan], [Feb], [Mar]}, 1) ON COLUMNS FROM Warehouse"
        )
        assert result.column_labels() == ["Mar"]

    def test_levels_members(self, warehouse):
        result = warehouse.query(
            "SELECT [Measures].Levels(0).Members ON COLUMNS FROM Warehouse"
        )
        assert result.column_labels() == [
            "Salary",
            "Benefits",
            "Products",
            "Services",
        ]

    def test_descendants_self_and_after(self, warehouse):
        result = warehouse.query(
            "SELECT {Descendants([Time], 1, self_and_after)} ON COLUMNS "
            "FROM Warehouse"
        )
        labels = result.column_labels()
        assert labels[:4] == ["Qtr1", "Jan", "Feb", "Mar"]
        assert len(labels) == 16  # 4 quarters + 12 months

    def test_descendants_exact_depth(self, warehouse):
        result = warehouse.query(
            "SELECT {Descendants([Time], 2)} ON COLUMNS FROM Warehouse"
        )
        assert len(result.column_labels()) == 12  # months only

    def test_named_set_reference(self, warehouse):
        result = warehouse.query(
            "SELECT {Time.[Jan]} ON COLUMNS, {[Changers]} ON ROWS "
            "FROM Warehouse WHERE ([NY], [Salary])"
        )
        assert result.row_labels() == ["FTE/Joe", "PTE/Joe", "Contractor/Joe"]

    def test_dimension_properties_render(self, warehouse):
        result = warehouse.query(
            """
            SELECT {Time.[Jan]} ON COLUMNS,
                   {[Joe]} DIMENSION PROPERTIES [Organization] ON ROWS
            FROM Warehouse WHERE ([NY], [Salary])
            """
        )
        assert result.rows[0].properties == (("Organization", "FTE"),)


class TestPerspectiveQueries:
    def test_static_drops_other_instances(self, warehouse):
        result = warehouse.query(
            """
            WITH PERSPECTIVE {(Jan)} FOR Organization STATIC
            SELECT {Time.[Jan], Time.[Feb]} ON COLUMNS, {[Joe]} ON ROWS
            FROM Warehouse WHERE ([NY], [Salary])
            """
        )
        assert result.row_labels() == ["FTE/Joe"]
        assert result.cell_by_labels("FTE/Joe", "Jan") == 10.0
        assert is_missing(result.cell_by_labels("FTE/Joe", "Feb"))

    def test_forward_relocates_values(self, warehouse):
        result = warehouse.query(
            """
            WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
            SELECT {Time.[Feb], Time.[Mar], Time.[Apr]} ON COLUMNS,
                   {[Joe]} ON ROWS
            FROM Warehouse WHERE ([NY], [Salary])
            """
        )
        assert result.row_labels() == ["PTE/Joe", "Contractor/Joe"]
        assert result.cell_by_labels("PTE/Joe", "Mar") == 30.0
        assert result.cell_by_labels("Contractor/Joe", "Apr") == 20.0
        assert is_missing(result.cell_by_labels("Contractor/Joe", "Mar"))

    def test_visual_vs_non_visual_aggregates(self, warehouse):
        visual = warehouse.query(
            """
            WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
            SELECT {Time.[Qtr1]} ON COLUMNS, {[PTE]} ON ROWS
            FROM Warehouse WHERE ([NY], [Salary])
            """
        )
        non_visual = warehouse.query(
            """
            WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD NON_VISUAL
            SELECT {Time.[Qtr1]} ON COLUMNS, {[PTE]} ON ROWS
            FROM Warehouse WHERE ([NY], [Salary])
            """
        )
        assert visual.cell(0, 0) == 70.0  # Tom 30 + PTE/Joe (10 + 30)
        assert non_visual.cell(0, 0) == 40.0  # original aggregate

    def test_extended_forward_via_mdx(self, warehouse):
        """EXTENDED FORWARD assigns pre-Pmin moments to Pmin's instance:
        with P={Mar}, Contractor/Joe also absorbs Jan and Feb."""
        result = warehouse.query(
            """
            WITH PERSPECTIVE {(Mar)} FOR Organization DYNAMIC EXTENDED FORWARD
            SELECT {Time.[Jan], Time.[Feb], Time.[Mar]} ON COLUMNS,
                   {[Joe]} ON ROWS
            FROM Warehouse WHERE ([NY], [Salary])
            """
        )
        assert result.row_labels() == ["Contractor/Joe"]
        assert result.cell_by_labels("Contractor/Joe", "Jan") == 10.0
        assert result.cell_by_labels("Contractor/Joe", "Feb") == 10.0
        assert result.cell_by_labels("Contractor/Joe", "Mar") == 30.0

    def test_backward_via_mdx(self, warehouse):
        result = warehouse.query(
            """
            WITH PERSPECTIVE {(Feb)} FOR Organization DYNAMIC BACKWARD
            SELECT {Time.[Jan], Time.[Feb], Time.[Mar]} ON COLUMNS,
                   {[Joe]} ON ROWS
            FROM Warehouse WHERE ([NY], [Salary])
            """
        )
        # PTE/Joe (valid at Feb) absorbs the past: Jan from FTE/Joe.
        assert result.row_labels() == ["PTE/Joe"]
        assert result.cell_by_labels("PTE/Joe", "Jan") == 10.0
        assert result.cell_by_labels("PTE/Joe", "Feb") == 10.0
        assert is_missing(result.cell_by_labels("PTE/Joe", "Mar"))

    def test_changes_clause(self, warehouse):
        result = warehouse.query(
            """
            WITH CHANGES {([Lisa], FTE, PTE, Apr)} FOR Organization VISUAL
            SELECT {Time.[Mar], Time.[Apr]} ON COLUMNS, {[Lisa]} ON ROWS
            FROM Warehouse WHERE ([NY], [Salary])
            """
        )
        assert result.row_labels() == ["FTE/Lisa", "PTE/Lisa"]
        assert result.cell_by_labels("FTE/Lisa", "Mar") == 10.0
        assert is_missing(result.cell_by_labels("FTE/Lisa", "Apr"))
        assert result.cell_by_labels("PTE/Lisa", "Apr") == 10.0

    def test_changes_children_expansion(self, warehouse):
        result = warehouse.query(
            """
            WITH CHANGES {([PTE].Children, PTE, Contractor, Mar)} VISUAL
            SELECT {Time.[Feb], Time.[Mar]} ON COLUMNS,
                   {[Tom], [Dave]} ON ROWS
            FROM Warehouse WHERE ([NY], [Salary])
            """
        )
        labels = result.row_labels()
        assert "PTE/Tom" in labels and "Contractor/Tom" in labels
        assert result.cell_by_labels("Contractor/Tom", "Mar") == 10.0


class TestErrors:
    def test_unknown_member(self, warehouse):
        with pytest.raises(MdxEvaluationError):
            warehouse.query("SELECT {[Nobody]} ON COLUMNS FROM Warehouse")

    def test_wrong_cube_name(self, warehouse):
        with pytest.raises(MdxEvaluationError):
            warehouse.query("SELECT {Time.[Jan]} ON COLUMNS FROM OtherCube")

    def test_missing_columns_axis(self, warehouse):
        with pytest.raises(MdxEvaluationError):
            warehouse.query("SELECT {Time.[Jan]} ON ROWS FROM Warehouse")

    def test_three_axes_rejected(self, warehouse):
        with pytest.raises(MdxEvaluationError):
            warehouse.query(
                "SELECT {[Jan]} ON COLUMNS, {[Joe]} ON ROWS, "
                "{[NY]} ON AXIS(2) FROM Warehouse"
            )

    def test_ambiguous_tuple_component(self, warehouse):
        # [Joe] in a tuple is ambiguous: three instances.
        with pytest.raises(MdxEvaluationError, match="ambiguous"):
            warehouse.query(
                "SELECT {([Joe], [Salary])} ON COLUMNS FROM Warehouse"
            )

    def test_tuple_component_without_an_instance(self, warehouse):
        # FTE/Joe holds only in Jan; zero instances is not "ambiguous"
        with pytest.raises(
            MdxEvaluationError,
            match=r"tuple component \[FTE\]\.\[Joe\] matches no member instance$",
        ):
            warehouse.query(
                "WITH PERSPECTIVE {(Feb)} FOR Organization STATIC "
                "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse "
                "WHERE ([FTE].[Joe], [Salary])",
                analyze=False,
            )

    def test_ambiguous_member_across_dimensions(self, example):
        example.location.add_member("Clash")
        example.measures.add_member("Clash")
        warehouse = Warehouse(example.schema, example.cube)
        with pytest.raises(MdxEvaluationError, match="ambiguous across"):
            warehouse.query("SELECT {[Clash]} ON COLUMNS FROM Warehouse")

    def test_changes_dimension_mismatch(self, warehouse):
        with pytest.raises(MdxEvaluationError):
            warehouse.query(
                "WITH CHANGES {([Lisa], FTE, PTE, Apr)} FOR Location "
                "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse"
            )


class TestRegressions:
    """Pinned behavior for bugs surfaced by the static-analysis pass."""

    def test_tail_larger_than_set_returns_whole_set(self, warehouse):
        # Tail(s, n) with n > |s| used to wrap around via a negative
        # index and return a truncated set.
        result = warehouse.query(
            "SELECT Tail({[Jan], [Feb], [Mar]}, 5) ON COLUMNS FROM Warehouse"
        )
        assert result.column_labels() == ["Jan", "Feb", "Mar"]

    def test_duplicate_axis_is_rejected_at_runtime(self, warehouse):
        # Previously the later binding silently won; now the evaluator
        # refuses (and the analyzer flags it as WIF004 first).
        with pytest.raises(MdxEvaluationError, match="bound more than once"):
            warehouse.query(
                "SELECT {Time.[Jan]} ON COLUMNS, {Time.[Feb]} ON COLUMNS "
                "FROM Warehouse",
                analyze=False,
            )

    def test_changes_and_perspective_compose(self, warehouse):
        # WITH CHANGES used to be silently dropped when a PERSPECTIVE
        # clause was also present.  Relocating Joe FTE -> PTE at Jan must
        # be visible under the Jan perspective.
        combined = warehouse.query(
            """
            WITH CHANGES {([Joe], [FTE], [PTE], [Jan])} FOR Organization
                 PERSPECTIVE {(Jan)} FOR Organization
            SELECT {Time.[Jan]} ON COLUMNS, {[Joe]} ON ROWS
            FROM Warehouse WHERE ([NY], [Salary])
            """
        )
        assert combined.row_labels() == ["PTE/Joe"]
        assert combined.cell(0, 0) == 10.0
        baseline = warehouse.query(
            """
            WITH PERSPECTIVE {(Jan)} FOR Organization
            SELECT {Time.[Jan]} ON COLUMNS, {[Joe]} ON ROWS
            FROM Warehouse WHERE ([NY], [Salary])
            """
        )
        assert baseline.row_labels() == ["FTE/Joe"]


# -- the grid layout is the cell rule ------------------------------------------------

_SCHEMA = build_running_example().schema
#: the CI chaos job (``REPRO_FAULTS=ci-matrix``) draws the wide run
EXAMPLES = 1000 if "ci-matrix" in os.environ.get("REPRO_FAULTS", "") else 100


def _coordinates(dimension) -> "list[str]":
    """Every member name, plus — on a varying dimension, whose leaf
    coordinates are instance paths — a path per leaf member."""
    names = [member.name for member in dimension.members()]
    if _SCHEMA.is_varying(dimension.name):
        names += [f"{dimension.name}/{m.parent.name}/{m.name}" for m in dimension.leaf_members()]
    return names


@st.composite
def _axis_tuples(draw) -> AxisTuple:
    dims = draw(st.sets(st.sampled_from(_SCHEMA.dimensions), max_size=_SCHEMA.n_dims))
    coordinates = tuple(
        (d.name, draw(st.sampled_from(_coordinates(d))))
        for d in sorted(dims, key=lambda d: d.name)
    )
    return AxisTuple(coordinates, tuple(coord for _, coord in coordinates))


def _footprint(base, blocks) -> dict:
    """The footprint by its per-axis definition: the coordinates of every
    row and column tuple, plus the base coordinate of each dimension not
    bound by every tuple of one of a block's axes; a dimension whose root
    is named is left out."""
    named: dict[str, set[str]] = {d.name: set() for d in _SCHEMA.dimensions}
    for block in blocks:
        overridden: set[str] = set()
        for axis in block:
            for axis_tuple in axis:
                for dim, coord in axis_tuple.coordinates:
                    named[dim].add(coord)
            if axis:
                overridden |= set.intersection(*(set(dict(t.coordinates)) for t in axis))
        for dim, coord in base.items():
            if dim not in overridden:
                named[dim].add(coord)
    return {
        d.name: frozenset(named[d.name])
        for d in _SCHEMA.dimensions
        if d.root.name not in named[d.name]
    }


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    base=st.fixed_dictionaries(
        {d.name: st.sampled_from(_coordinates(d)) for d in _SCHEMA.dimensions}
    ),
    blocks=st.lists(
        st.tuples(st.lists(_axis_tuples(), max_size=4), st.lists(_axis_tuples(), max_size=4)),
        min_size=1,
        max_size=2,
    ),
)
def test_a_grid_layout_is_the_cell_by_cell_rule(base, blocks):
    """A block's layout against the cell-by-cell rule — base, then row,
    then column coordinates: every cell's address and leaf flag, whether
    some cell is a leaf address, and the footprint, a block's and the
    blocks' union."""
    layouts = [GridLayout(_SCHEMA, base, rows, columns) for rows, columns in blocks]
    for layout, (rows, columns) in zip(layouts, blocks):
        assert (len(layout.row_addrs), layout.n_cols) == (len(rows), len(columns))
        reads_leaves = False
        for r, row in enumerate(rows):
            leaf_columns = layout.leaf_columns(r)
            for c, column in enumerate(columns):
                coords = {**base, **dict(row.coordinates), **dict(column.coordinates)}
                address = tuple(coords[d.name] for d in _SCHEMA.dimensions)
                leaf = all(
                    _SCHEMA.coordinate_is_leaf(i, coord) for i, coord in enumerate(address)
                )
                assert layout.address(r, c) == address
                assert (c in leaf_columns) is leaf, address
                reads_leaves = reads_leaves or leaf
        assert layout.reads_leaves is reads_leaves
        assert layout.footprint == _footprint(base, [(rows, columns)])
    assert grid_footprint(layouts) == _footprint(base, blocks)
