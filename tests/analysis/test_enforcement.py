"""Enforcement wiring: the evaluator refuses error-level queries by
default, with ``analyze=False`` as the escape hatch."""

from __future__ import annotations

import pytest

from repro.errors import AnalysisError, MdxAnalysisError, MdxEvaluationError

BAD_QUERY = "SELECT {[Nobody]} ON COLUMNS FROM Warehouse"
GOOD_QUERY = "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse"


class TestQueryEnforcement:
    def test_error_level_query_is_refused(self, warehouse):
        with pytest.raises(MdxAnalysisError) as excinfo:
            warehouse.query(BAD_QUERY)
        assert "WIF002" in str(excinfo.value)
        assert excinfo.value.report.has_errors

    def test_analysis_error_is_an_evaluation_error(self, warehouse):
        # Compatibility: callers catching MdxEvaluationError keep working,
        # and message fragments from the runtime still match.
        with pytest.raises(MdxEvaluationError, match="unknown member"):
            warehouse.query(BAD_QUERY)

    def test_escape_hatch_reaches_the_evaluator(self, warehouse):
        # With analyze=False the analyzer is skipped; the runtime raises
        # its own error instead of MdxAnalysisError.
        with pytest.raises(MdxEvaluationError) as excinfo:
            warehouse.query(BAD_QUERY, analyze=False)
        assert not isinstance(excinfo.value, AnalysisError)

    def test_clean_query_executes(self, warehouse):
        result = warehouse.query(GOOD_QUERY)
        assert len(result.columns) == 1

    def test_warnings_do_not_block(self, warehouse):
        # Shadowed slicer is a warning; the query still runs.
        report = warehouse.analyze(
            "SELECT {[NY]} ON COLUMNS FROM Warehouse WHERE ([MA], [Salary])"
        )
        assert report.has_warnings and not report.has_errors
        warehouse.query(
            "SELECT {[NY]} ON COLUMNS FROM Warehouse WHERE ([MA], [Salary])"
        )

    def test_warehouse_analyze_returns_report(self, warehouse):
        report = warehouse.analyze(BAD_QUERY)
        assert report.has_errors
        assert "WIF002" in report.codes()


class TestFig10Clean:
    """The paper's three experiment queries must pass analysis untouched."""

    @pytest.fixture(scope="class")
    def workforce(self):
        from repro.workload.workforce import WorkforceConfig, build_workforce

        return build_workforce(
            WorkforceConfig(
                n_employees=40,
                n_departments=4,
                n_changing=6,
                n_accounts=3,
                n_scenarios=2,
                seed=11,
            )
        )

    def test_fig10_queries_are_clean(self, workforce):
        from tests.mdx.test_fig10_queries import FIG10A, FIG10B, FIG10C

        for text in (FIG10A, FIG10B, FIG10C):
            report = workforce.warehouse.analyze(text)
            assert report.is_clean, report.to_text()
