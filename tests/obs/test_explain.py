"""Tests for EXPLAIN (repro.obs.explain) — including the acceptance
criterion that every Fig. 10 experiment query can be explained."""

from __future__ import annotations

import pytest

from repro.errors import MdxSyntaxError
from repro.obs.explain import explain_query, explain_report
from repro.warehouse import Warehouse
from repro.workload.workforce import WorkforceConfig, build_workforce

# The three experiment queries of Fig. 10, verbatim (the same texts as
# tests/mdx/test_fig10_queries.py executes).
FIG10A = """
WITH perspective {(Jan), (Jul)} for Department STATIC
select {CrossJoin(
   {[Account].Levels(0).Members},
   {([Current], [Local], [BU Version_1], [HSP_InputValue])}
)} on columns,
{CrossJoin(
   { Union(
       {Union(
           {[EmployeesWithAtleastOneMove-Set1].Children},
           {[EmployeesWithAtleastOneMove-Set2].Children}
       )},
       {[EmployeesWithAtleastOneMove-Set3].Children})},
   {Descendants([Period],1,self_and_after)}
)} DIMENSION PROPERTIES [Department] on rows
from [App].[Db]
"""

FIG10B = """
WITH perspective {(Jan), (Apr), (Jul), (Oct)} for Department DYNAMIC FORWARD
select {CrossJoin(
   {[Account].Levels(0).Members},
   {([Current], [Local], [BU Version_1], [HSP_InputValue])}
)} on columns,
{CrossJoin( {EmployeeS3}, {Descendants([Period],1,self_and_after)} )}
DIMENSION PROPERTIES [Department] on rows
from [App].[Db]
"""

FIG10C = """
WITH perspective {(Jan), (Apr), (Jul), (Oct)} for Department DYNAMIC FORWARD
select {CrossJoin(
   {[Account].Levels(0).Members},
   {([Current], [Local], [BU Version_1], [HSP_InputValue])}
)} on columns,
{CrossJoin(
   {Head({[EmployeesWithAtleastOneMove-Set1].Children}, 50)},
   {Descendants([Period],1,self_and_after)}
)} DIMENSION PROPERTIES [Department] on rows
from [App].[Db]
"""

HEADLINE = """
    WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
    SELECT {Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]} ON COLUMNS,
           {[Joe]} ON ROWS
    FROM Warehouse WHERE ([NY], [Salary])
"""


@pytest.fixture(scope="module")
def workforce_warehouse():
    return build_workforce(
        WorkforceConfig(
            n_employees=60,
            n_departments=5,
            n_changing=9,
            n_accounts=4,
            n_scenarios=2,
            seed=7,
        )
    ).warehouse


@pytest.fixture
def warehouse(example) -> Warehouse:
    return Warehouse(example.schema, example.cube, name="Warehouse")


class TestFig10Acceptance:
    @pytest.mark.parametrize(
        "text", [FIG10A, FIG10B, FIG10C], ids=["fig10a", "fig10b", "fig10c"]
    )
    def test_every_fig10_query_explains(self, workforce_warehouse, text):
        report = explain_report(workforce_warehouse, text)
        assert report["executable"] is True
        assert report["cube"] == "App.Db"
        step = report["scenario"][0]
        assert step["operator"] == "Perspective"
        assert step["dimension"] == "Department"
        assert {axis["axis"] for axis in report["axes"]} == {"columns", "rows"}
        assert all(axis["tuples"] > 0 for axis in report["axes"])
        estimates = report["scope_estimates"]
        assert estimates["grid_cells"] > 0
        assert estimates["cells_estimated"] > 0
        assert estimates["index_leaves"] > 0
        assert 0 <= estimates["min"] <= estimates["max"] <= estimates["index_leaves"]

    @pytest.mark.parametrize(
        "text", [FIG10A, FIG10B, FIG10C], ids=["fig10a", "fig10b", "fig10c"]
    )
    def test_fig10_renderings_are_complete(self, workforce_warehouse, text):
        rendered = explain_query(workforce_warehouse, text)
        assert rendered.startswith("EXPLAIN")
        assert "scenario pipeline (applied in order):" in rendered
        assert "Perspective[Department:" in rendered
        assert "estimated scope sizes (rollup-index upper bound):" in rendered


class TestRunningExample:
    def test_headline_query_report(self, warehouse):
        report = explain_report(warehouse, HEADLINE)
        assert report["executable"] is True
        step = report["scenario"][0]
        assert step["algebra"] == "E ∘ ρ(·, Φ_sem(VS, P)) ∘ σ"
        assert step["perspectives"] == ["Feb", "Apr"]
        assert report["slicer"] == {"Location": "NY", "Measures": "Salary"}

    def test_explain_never_fills_the_grid(self, warehouse):
        """Axis resolution runs off the scenario's structure half (Φ and R
        on metadata, memoised in the scenario cache): no stage is applied,
        no cell moved, none evaluated."""
        from repro.obs.trace import tracing

        perspective = HEADLINE.strip().splitlines()[0]
        changes = "WITH CHANGES {([Lisa], FTE, PTE, Apr)} FOR Organization VISUAL"
        chained = changes + perspective.replace("WITH", "")
        for n, clause in enumerate((perspective, changes, chained), 1):
            with tracing() as tracer:
                report = explain_report(warehouse, HEADLINE.replace(perspective, clause))
                root = tracer.take_last()
            assert report["executable"] and report["axes"][1]["tuples"] >= 1
            assert root.name == "obs.explain"
            opened = {span.name for span in root.iter_spans()}
            assert not opened & {
                "scenario.apply", "core.relocate", "core.split", "mdx.cells"
            }, opened
            assert report["scenario_cache"] == {"scenario_cache_misses": 1}
            assert len(warehouse.scenario_cache) == n  # structures, no cube

    def test_axis_counts_are_the_shape_the_evaluator_resolves(self, warehouse):
        """EXPLAIN resolves with the evaluator's own ``resolve_query``: its
        tuple counts are the un-pruned shape, which NON EMPTY then cuts."""
        from repro.mdx.evaluator import _Context, resolve_query
        from repro.mdx.parser import parse_query

        text = HEADLINE.replace("{[Joe]}", "NON EMPTY {[Organization].Members}")
        text = text.replace("SELECT {", "SELECT NON EMPTY {").replace("[NY]", "[CA]")
        report = explain_report(warehouse, text)
        resolved = resolve_query(_Context(warehouse, parse_query(text)))
        counts = {axis["axis"]: axis["tuples"] for axis in report["axes"]}
        assert counts == {"columns": len(resolved.columns), "rows": len(resolved.rows)}
        assert report["slicer"] == resolved.slicer
        assert report["scope_estimates"]["grid_cells"] == (
            len(resolved.rows) * len(resolved.columns)
        )
        pruned = warehouse.query(text)
        assert pruned.rows == []  # nobody works in CA; pruning is not EXPLAIN's

    def test_it_says_whether_the_last_stage_moves_its_leaves(self, warehouse):
        """The evaluator's own test (``GridLayout.reads_leaves``): a NON_VISUAL
        last stage moves its leaves only for a cell at leaf level — and
        the query that follows does as EXPLAIN said."""
        from repro.mdx.evaluator import build_scenarios
        from repro.mdx.parser import parse_query

        non_visual = HEADLINE.replace("FORWARD VISUAL", "FORWARD")
        groups = non_visual.replace("{[Joe]}", "{[FTE], [PTE]}")
        quarters = non_visual.replace(
            "{Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]}", "{Time.[Qtr1], Time.[Qtr2]}"
        )
        for text, moves in (
            (HEADLINE, True),  # VISUAL: always
            (non_visual, True),  # Joe's instances × months: leaf cells
            (groups, False),
            (quarters, False),
        ):
            report = explain_report(warehouse, text)
            assert report["last_stage_moves_leaves"] is moves, text
            rendered = explain_query(warehouse, text)
            assert ("last stage: moves its leaves" in rendered) is moves
            assert ("last stage: moves no leaf" in rendered) is not moves
            warehouse.query(text)
            key = tuple(
                s.fingerprint() for s in build_scenarios(warehouse, parse_query(text))
            )
            view = warehouse.scenario_cache.get(key, warehouse.cube.version).view
            assert view.leaves_moved is moves, text
            warehouse.scenario_cache.clear()

    def test_unscenarioed_query_reports_base_cube(self, warehouse):
        rendered = explain_query(
            warehouse, "SELECT {Time.[Qtr1]} ON COLUMNS FROM Warehouse"
        )
        assert "scenario pipeline: none (base cube)" in rendered

    def test_unexecutable_query_carries_diagnostics(self, warehouse):
        report = explain_report(
            warehouse,
            "SELECT {Time.[NoSuchMember]} ON COLUMNS FROM Warehouse",
        )
        assert report["executable"] is False
        assert report["diagnostics"]
        assert "axes" not in report  # axis resolution skipped
        rendered = explain_query(
            warehouse,
            "SELECT {Time.[NoSuchMember]} ON COLUMNS FROM Warehouse",
        )
        assert "NOT executable" in rendered

    def test_syntax_errors_raise(self, warehouse):
        with pytest.raises(MdxSyntaxError):
            explain_report(warehouse, "SELECT FROM nowhere !!!")

    def test_warehouse_explain_delegates(self, warehouse):
        # An unscenarioed query so the rendering carries no per-call
        # scenario-cache counters (which would differ between two calls).
        text = "SELECT {Time.[Qtr1]} ON COLUMNS FROM Warehouse"
        assert warehouse.explain(text) == explain_query(warehouse, text)


class TestTheChainDescribesItself:
    """EXPLAIN prints what the evaluator's own scenario objects say of
    themselves — built from warehouse metadata, never re-derived from the
    clause text."""

    CHILDREN = """
        WITH CHANGES {([PTE].Children, PTE, Contractor, Mar)} %s
        SELECT {Time.[Feb], Time.[Mar]} ON COLUMNS, {[Tom]} ON ROWS
        FROM Warehouse WHERE ([NY], [Salary])
    """

    def test_inferred_dimension_and_expanded_tuples_are_reported(
        self, warehouse, example
    ):
        report = explain_report(warehouse, self.CHILDREN % "")
        assert report["executable"] is True
        (step,) = report["scenario"]
        n_children = len(example.schema.dimension("Organization").member("PTE").children)
        assert n_children > 1
        assert step["operator"] == "Split"
        assert step["dimension"] == "Organization"
        assert step["changes"] == n_children
        assert step["label"] == (
            f"Split[Organization: {n_children} change(s), non_visual]"
        )
        assert f"Split[Organization: {n_children} change(s)" in explain_query(
            warehouse, self.CHILDREN % ""
        )

    def test_a_non_visual_clause_applies_no_E(self, warehouse):
        (split,) = explain_report(warehouse, self.CHILDREN % "NON_VISUAL")["scenario"]
        assert split["algebra"] == "S(·, R)"
        (split,) = explain_report(warehouse, self.CHILDREN % "VISUAL")["scenario"]
        assert split["algebra"] == "E ∘ S(·, R)"
        non_visual = HEADLINE.replace("FORWARD VISUAL", "FORWARD")
        (perspective,) = explain_report(warehouse, non_visual)["scenario"]
        assert perspective["mode"] == "non_visual"
        assert perspective["algebra"] == "ρ(·, Φ_sem(VS, P)) ∘ σ"
        assert "E ∘" not in explain_query(warehouse, non_visual)

    def test_a_chain_is_reported_in_application_order(self, warehouse):
        chained = HEADLINE.replace(
            "WITH PERSPECTIVE",
            "WITH CHANGES {([Lisa], FTE, PTE, Apr)} FOR Organization VISUAL\n"
            "         PERSPECTIVE",
        )
        operators = [s["operator"] for s in explain_report(warehouse, chained)["scenario"]]
        assert operators == ["Split", "Perspective"]

    def test_an_unbuildable_with_clause_omits_the_pipeline(self, warehouse):
        text = self.CHILDREN.replace("[PTE].Children", "[Nobody]") % ""
        report = explain_report(warehouse, text)
        assert report["executable"] is False
        assert "scenario" not in report
        assert any("WIF201" in line for line in report["diagnostics"])
        rendered = explain_query(warehouse, text)
        assert "scenario pipeline" not in rendered
        assert "NOT executable" in rendered

    @pytest.mark.parametrize(
        "text", [FIG10A, FIG10B, FIG10C], ids=["fig10a", "fig10b", "fig10c"]
    )
    def test_fig10_pipelines_are_the_evaluators_own(self, workforce_warehouse, text):
        from repro.mdx.evaluator import build_scenarios
        from repro.mdx.parser import parse_query

        scenarios = build_scenarios(workforce_warehouse, parse_query(text))
        assert explain_report(workforce_warehouse, text)["scenario"] == [
            scenario.describe() for scenario in scenarios
        ]
