"""Table-driven coverage of every query-level diagnostic code.

Each code has (at least) one *trigger* query that must report it and one
*clean* counterpart — minimally different — that must not.
"""

from __future__ import annotations

import pytest

from repro.analysis import Severity, analyze_query
from repro.mdx.ast_nodes import (
    AxisSpec,
    DescendantsExpr,
    MdxQuery,
    MemberPath,
    SetLiteral,
)

BASE = "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse"

# (code, trigger query, clean counterpart)
CASES = [
    (
        "WIF000",
        "SELECT {Time.[Jan] ON COLUMNS FROM Warehouse",
        BASE,
    ),
    (
        "WIF001",
        "SELECT {Time.[Jan]} ON COLUMNS FROM Nowhere",
        BASE,
    ),
    (
        "WIF002",
        "SELECT {[Nobody]} ON COLUMNS FROM Warehouse",
        "SELECT {[Joe]} ON COLUMNS FROM Warehouse",
    ),
    (
        "WIF004",
        "SELECT {Time.[Jan]} ON COLUMNS, {[Joe]} ON COLUMNS FROM Warehouse",
        "SELECT {Time.[Jan]} ON COLUMNS, {[Joe]} ON ROWS FROM Warehouse",
    ),
    (
        "WIF005",
        "SELECT {Time.[Jan]} ON ROWS FROM Warehouse",
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
    ),
    (
        "WIF006",
        "WITH SET [Loop] AS {[Loop]} "
        "SELECT {[Loop]} ON COLUMNS FROM Warehouse",
        "WITH SET [Fine] AS {[Joe]} "
        "SELECT {[Fine]} ON COLUMNS FROM Warehouse",
    ),
    (
        "WIF007",
        "SELECT {Descendants([Time], 1, sideways)} ON COLUMNS FROM Warehouse",
        "SELECT {Descendants([Time], 1, self_and_after)} ON COLUMNS "
        "FROM Warehouse",
    ),
    (
        "WIF101",
        "WITH PERSPECTIVE {(Feb)} FOR Location "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
        "WITH PERSPECTIVE {(Feb)} FOR Organization "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
    ),
    (
        "WIF102",
        "WITH PERSPECTIVE {(Qtr1)} FOR Organization "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
        "WITH PERSPECTIVE {(Jan)} FOR Organization "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
    ),
    (
        "WIF104",
        "WITH PERSPECTIVE {(Feb), (Feb)} FOR Organization "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
        "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
    ),
    (
        "WIF105",
        "WITH PERSPECTIVE {(Feb)} FOR Organization VISUAL "
        "CHANGES {([Joe], [PTE], [FTE], [Feb])} FOR Organization "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
        "WITH PERSPECTIVE {(Feb)} FOR Organization VISUAL "
        "CHANGES {([Joe], [PTE], [FTE], [Feb])} FOR Organization VISUAL "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
    ),
    (
        "WIF201",
        "WITH CHANGES {([Joe], [FTE], [PTE], [Noon])} FOR Organization "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
        "WITH CHANGES {([Joe], [FTE], [PTE], [Jan])} FOR Organization "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
    ),
    (
        "WIF202",
        # At Mar, Joe's instance is under Contractor, not FTE.
        "WITH CHANGES {([Joe], [FTE], [PTE], [Mar])} FOR Organization "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
        "WITH CHANGES {([Joe], [Contractor], [PTE], [Mar])} FOR Organization "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
    ),
    (
        "WIF203",
        # Joe is a managed leaf: reparenting Lisa under him violates Def. 3.1.
        "WITH CHANGES {([Lisa], [FTE], [Joe], [Feb])} FOR Organization "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
        "WITH CHANGES {([Lisa], [FTE], [PTE], [Feb])} FOR Organization "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
    ),
    (
        "WIF204",
        # Second tuple at the same moment contradicts the first one's result.
        "WITH CHANGES {([Joe], [FTE], [PTE], [Jan]), "
        "([Joe], [FTE], [Contractor], [Jan])} FOR Organization "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
        # A *chained* pair is consistent: the second old parent names the
        # first new parent.
        "WITH CHANGES {([Joe], [FTE], [PTE], [Jan]), "
        "([Joe], [PTE], [Contractor], [Jan])} FOR Organization "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
    ),
    (
        "WIF205",
        # FTE -> PTE and PTE -> FTE yields a cyclic hypothetical hierarchy.
        "WITH CHANGES {([FTE], [Organization], [PTE], [Jan]), "
        "([PTE], [Organization], [FTE], [Jan])} FOR Organization "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
        "WITH CHANGES {([FTE], [Organization], [PTE], [Jan])} "
        "FOR Organization "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
    ),
    (
        "WIF206",
        "WITH CHANGES {([Joe], [FTE], [PTE], [Feb])} FOR Nowhere "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
        "WITH CHANGES {([Joe], [FTE], [PTE], [Feb])} FOR Organization "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse",
    ),
    (
        "WIF301",
        # PTE/Joe is valid only in Feb; a static Jan perspective kills it.
        "WITH PERSPECTIVE {(Jan)} FOR Organization "
        "SELECT {Organization.[PTE].[Joe]} ON COLUMNS FROM Warehouse",
        "WITH PERSPECTIVE {(Jan)} FOR Organization "
        "SELECT {Organization.[FTE].[Joe]} ON COLUMNS FROM Warehouse",
    ),
    (
        "WIF302",
        "SELECT {[NY]} ON COLUMNS FROM Warehouse WHERE ([MA], [Salary])",
        "SELECT {[NY]} ON COLUMNS FROM Warehouse WHERE ([Salary])",
    ),
    (
        "WIF303",
        # Joe has three instances; a tuple needs exactly one binding.
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse "
        "WHERE ([Joe], [Salary])",
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse "
        "WHERE (Organization.[FTE].[Joe], [Salary])",
    ),
    (
        "WIF303",
        # FTE/Joe is valid only in Jan: a static Feb perspective leaves the
        # tuple component no instance at all, and the evaluator refuses it.
        "WITH PERSPECTIVE {(Feb)} FOR Organization STATIC "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse "
        "WHERE ([FTE].[Joe], [Salary])",
        "WITH PERSPECTIVE {(Feb)} FOR Organization STATIC "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse "
        "WHERE ([PTE].[Joe], [Salary])",
    ),
]
# a code's first row is named after it, later rows are numbered
IDS: list[str] = []
for _code, _, _ in CASES:
    _nth = sum(1 for seen in IDS if seen.split("-")[0] == _code) + 1
    IDS.append(_code if _nth == 1 else f"{_code}-{_nth}")


@pytest.mark.parametrize("code,trigger,clean", CASES, ids=IDS)
def test_trigger_and_clean(warehouse, code, trigger, clean):
    triggered = analyze_query(warehouse, trigger)
    assert code in triggered.codes(), triggered.to_text()
    counterpart = analyze_query(warehouse, clean)
    assert code not in counterpart.codes(), counterpart.to_text()


def test_clean_base_query_is_clean(warehouse):
    assert analyze_query(warehouse, BASE).is_clean


def test_wif003_ambiguous_member(ambiguous_warehouse):
    report = analyze_query(
        ambiguous_warehouse, "SELECT {[Overlap]} ON COLUMNS FROM Warehouse"
    )
    assert "WIF003" in report.codes()
    clean = analyze_query(
        ambiguous_warehouse,
        "SELECT {Left.[Overlap]} ON COLUMNS FROM Warehouse",
    )
    assert "WIF003" not in clean.codes()


def test_wif103_dynamic_over_unordered(unordered_warehouse):
    report = analyze_query(
        unordered_warehouse,
        "WITH PERSPECTIVE {(NY)} FOR Product FORWARD "
        "SELECT {[Bread]} ON COLUMNS FROM Warehouse",
    )
    assert "WIF103" in report.codes()
    clean = analyze_query(
        unordered_warehouse,
        "WITH PERSPECTIVE {(NY)} FOR Product "
        "SELECT {[Bread]} ON COLUMNS FROM Warehouse",
    )
    assert "WIF103" not in clean.codes()


def test_wif103_changes_over_unordered(unordered_warehouse):
    report = analyze_query(
        unordered_warehouse,
        "WITH CHANGES {([Bread], [Food], [Drink], [NY])} FOR Product "
        "SELECT {[Bread]} ON COLUMNS FROM Warehouse",
    )
    assert "WIF103" in report.codes()


def test_wif005_three_axes(warehouse):
    query = MdxQuery(
        axes=(
            AxisSpec(SetLiteral((MemberPath(("Jan",)),)), "columns"),
            AxisSpec(SetLiteral((MemberPath(("Joe",)),)), "rows"),
            AxisSpec(SetLiteral((MemberPath(("NY",)),)), "axis2"),
        ),
        cube=("Warehouse",),
    )
    assert "WIF005" in analyze_query(warehouse, query).codes()


def test_wif007_on_hand_built_query(warehouse):
    query = MdxQuery(
        axes=(
            AxisSpec(
                DescendantsExpr(MemberPath(("Time",)), 1, "nonsense"),
                "columns",
            ),
        ),
        cube=("Warehouse",),
    )
    assert "WIF007" in analyze_query(warehouse, query).codes()


def test_wif000_carries_span(warehouse):
    report = analyze_query(warehouse, "SELECT {Time.[Jan]")
    (diag,) = list(report)
    assert diag.code == "WIF000"
    assert diag.span is not None
    assert diag.span.line == 1


def test_spans_point_at_offending_token(warehouse):
    report = analyze_query(
        warehouse,
        "SELECT {Time.[Jan]} ON COLUMNS,\n       {[Nobody]} ON ROWS\n"
        "FROM Warehouse",
    )
    (diag,) = list(report)
    assert diag.code == "WIF002"
    assert diag.span is not None
    assert diag.span.line == 2
    assert "line 2" in diag.to_text()


def test_wif303_demoted_to_warning_under_scenario(warehouse):
    """With a scenario, the analyzer's structural instance count may exceed
    the runtime's data-filtered count, so ambiguity is only a warning."""
    report = analyze_query(
        warehouse,
        "WITH PERSPECTIVE {(Jan), (Feb), (Apr)} FOR Organization "
        "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse "
        "WHERE ([Joe], [Salary])",
    )
    hits = [d for d in report if d.code == "WIF303"]
    assert hits and all(d.severity is Severity.WARNING for d in hits)


def test_wif303_zero_instances_is_an_error_under_a_scenario_too(warehouse):
    """Structural zero implies runtime zero, so a tuple component no
    instance survives for is refused up front — by the analyzer with the
    evaluator's own words, not waved through as a guaranteed-⊥ warning."""
    from repro.errors import MdxEvaluationError

    text = CASES[-1][1]
    (diag,) = list(analyze_query(warehouse, text))
    assert (diag.code, diag.severity) == ("WIF303", Severity.ERROR)
    assert "matches no member instance" in diag.message
    with pytest.raises(MdxEvaluationError) as caught:
        warehouse.query(text, analyze=False)
    assert str(caught.value) == diag.message
    assert "ambiguous" not in diag.message
    # outside a tuple the same reference is still only a ⊥ warning
    report = analyze_query(
        warehouse,
        text.replace("{Time.[Jan]}", "{[FTE].[Joe]}").replace("[FTE].[Joe], ", ""),
    )
    assert [(d.code, d.severity) for d in report] == [("WIF301", Severity.WARNING)]


def test_properties_never_error(warehouse):
    report = analyze_query(
        warehouse,
        "SELECT {[Joe]} DIMENSION PROPERTIES [Bogus] ON COLUMNS "
        "FROM Warehouse",
    )
    assert not report.has_errors
    assert "WIF002" in report.codes()
