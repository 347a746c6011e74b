"""Dedicated tests for the σ predicate factories (Sec. 4.1 forms)."""

from __future__ import annotations

import pytest

from repro.core.predicates import (
    and_,
    descendant_of,
    member_equals,
    member_in,
    not_,
    or_,
    validity_intersects,
    value_predicate,
)
from repro.core.operators import select
from repro.errors import QueryError
from repro.obs.trace import TRACER, tracing

JOE_PTE = "Organization/PTE/Joe"
LISA = "Organization/FTE/Lisa"


@pytest.fixture
def org_index(example):
    return example.schema.dim_index("Organization")


class TestMemberPredicates:
    def test_member_equals_matches_any_instance(self, example, org_index):
        pred = member_equals("Joe")
        assert pred(example.cube, org_index, JOE_PTE)
        assert pred(example.cube, org_index, "Organization/FTE/Joe")
        assert not pred(example.cube, org_index, LISA)

    def test_member_equals_on_nonleaf_coordinate(self, example, org_index):
        pred = member_equals("FTE")
        assert pred(example.cube, org_index, "FTE")
        assert not pred(example.cube, org_index, LISA)

    def test_member_in(self, example, org_index):
        pred = member_in(["Joe", "Lisa"])
        assert pred(example.cube, org_index, LISA)
        assert not pred(example.cube, org_index, "Organization/PTE/Tom")


class TestDescendantOf:
    def test_instance_paths(self, example, org_index):
        pred = descendant_of("PTE")
        assert pred(example.cube, org_index, JOE_PTE)
        assert not pred(example.cube, org_index, LISA)

    def test_self_excluded_by_default(self, example, org_index):
        pred = descendant_of("PTE")
        assert not pred(example.cube, org_index, "PTE")
        assert descendant_of("PTE", include_self=True)(
            example.cube, org_index, "PTE"
        )

    def test_nonleaf_member_descendant(self, example):
        loc = example.schema.dim_index("Location")
        pred = descendant_of("Location")
        assert pred(example.cube, loc, "East")

    def test_unknown_names_do_not_match(self, example, org_index):
        pred = descendant_of("FTE")
        assert not pred(example.cube, org_index, "Mystery")


class TestValidityIntersects:
    def test_instance_validity(self, example, org_index):
        pred = validity_intersects({1})  # Feb
        assert pred(example.cube, org_index, JOE_PTE)
        assert not pred(example.cube, org_index, "Organization/FTE/Joe")

    def test_non_instance_coordinates_pass(self, example, org_index):
        pred = validity_intersects({1})
        assert pred(example.cube, org_index, "FTE")
        time_index = example.schema.dim_index("Time")
        assert pred(example.cube, time_index, "Jan")


class TestValuePredicate:
    @pytest.mark.parametrize(
        "relop,threshold,expected",
        [
            (">", 25, True),    # Contractor/Joe Mar NY = 30
            (">=", 30, True),
            ("<", 5, False),
            ("=", 30, True),
            # The pins single out exactly one cell (30), so != 30 fails.
            ("!=", 30, False),
            ("<=", 9, False),
        ],
    )
    def test_relops_over_joe_march(self, example, org_index, relop, threshold, expected):
        pred = value_predicate(
            {"Location": "NY", "Time": "Mar", "Measures": "Salary"},
            relop,
            threshold,
        )
        assert pred(example.cube, org_index, "Organization/Contractor/Joe") is expected

    def test_rollup_pins(self, example, org_index):
        # Pin at quarter level: cells under Qtr1 are compared.
        pred = value_predicate(
            {"Location": "East", "Time": "Qtr1", "Measures": "Salary"}, ">", 25
        )
        assert pred(example.cube, org_index, "Organization/Contractor/Joe")

    def test_bad_relop(self):
        with pytest.raises(QueryError):
            value_predicate({}, "~=", 1)

    def test_pinning_the_selection_dimension_is_refused(self, example, org_index):
        pred = value_predicate({"Organization": "FTE"}, ">", 0)
        with pytest.raises(QueryError, match="pins the selection dimension"):
            pred(example.cube, org_index, JOE_PTE)

    def test_a_stored_nan_compares_as_a_float_does(self, example, org_index):
        cube = example.cube.copy()
        pins = {"Location": "NY", "Time": "Mar", "Measures": "Salary"}
        cube.set_value(("Organization/Contractor/Joe", "NY", "Mar", "Salary"), float("nan"))
        assert not value_predicate(pins, ">", 0)(cube, org_index, "Organization/Contractor/Joe")
        assert value_predicate(pins, "!=", 0)(cube, org_index, "Organization/Contractor/Joe")

    def test_select_reads_scopes_not_addresses(self, example):
        """σ with a value predicate reads each candidate's scope off the
        rollup index — one gather, one compare — and builds no address
        of every leaf (that read opens ``rollup_index.materialize``)."""
        pins = {"Location": "NY", "Time": "Mar", "Measures": "Salary"}
        leaves = list(example.cube.leaf_cells())  # the oracle, untraced
        expected = {
            addr[0]
            for addr, value in leaves
            if addr[1:] == ("NY", "Mar", "Salary") and value > 25
        }
        with tracing():
            with TRACER.start("test") as span:
                out = select(example.cube, "Organization", value_predicate(pins, ">", 25))
        assert "rollup_index.materialize" not in [s.name for s in span.iter_spans()]
        assert expected and {addr[0] for addr, _ in out.leaf_cells()} == expected


class TestCombinators:
    def test_and_or_not(self, example, org_index):
        joe = member_equals("Joe")
        pte = descendant_of("PTE")
        assert and_(joe, pte)(example.cube, org_index, JOE_PTE)
        assert not and_(joe, pte)(example.cube, org_index, LISA)
        assert or_(joe, member_equals("Lisa"))(example.cube, org_index, LISA)
        assert not_(joe)(example.cube, org_index, LISA)
        assert not not_(joe)(example.cube, org_index, JOE_PTE)

    def test_empty_and_is_true(self, example, org_index):
        assert and_()(example.cube, org_index, LISA)

    def test_empty_or_is_false(self, example, org_index):
        assert not or_()(example.cube, org_index, LISA)
