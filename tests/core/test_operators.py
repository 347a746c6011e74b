"""Tests for the algebra operators σ, ρ, S, E (Sec. 4)."""

from __future__ import annotations

import pytest

from repro.core.operators import ChangeTuple, evaluate, relocate, select, split
from repro.core.perspective import PerspectiveSet, Semantics, phi_member
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
from repro.errors import InvalidChangeError, QueryError
from repro.olap.missing import is_missing
from repro.validity import ValiditySet

JOE = {
    "FTE": "Organization/FTE/Joe",
    "PTE": "Organization/PTE/Joe",
    "CONTR": "Organization/Contractor/Joe",
}


def salary(cube, org, month, location="NY"):
    return cube.effective_value(
        cube.schema.address(
            Organization=org, Location=location, Time=month, Measures="Salary"
        )
    )


class TestSelection:
    def test_member_equals_keeps_all_instances(self, example):
        out = select(example.cube, "Organization", member_equals("Joe"))
        assert salary(out, JOE["FTE"], "Jan") == 10.0
        assert salary(out, JOE["PTE"], "Feb") == 10.0
        assert is_missing(
            salary(out, "Organization/FTE/Lisa", "Jan")
        )

    def test_descendant_of(self, example):
        out = select(example.cube, "Organization", descendant_of("FTE"))
        assert salary(out, "Organization/FTE/Lisa", "Jan") == 10.0
        assert is_missing(salary(out, "Organization/PTE/Tom", "Jan"))
        # only FTE/Joe survives among Joe's instances
        assert salary(out, JOE["FTE"], "Jan") == 10.0
        assert is_missing(salary(out, JOE["PTE"], "Feb"))

    def test_validity_intersects(self, example):
        # Instances valid in Feb or Apr: PTE/Joe, Contractor/Joe, statics.
        out = select(example.cube, "Organization", validity_intersects({1, 3}))
        assert is_missing(salary(out, JOE["FTE"], "Jan"))
        assert salary(out, JOE["PTE"], "Feb") == 10.0
        assert salary(out, "Organization/FTE/Lisa", "Jan") == 10.0

    def test_value_predicate(self, example):
        # Members with some NY salary > 25 in March: only Joe (30 at Mar).
        pred = value_predicate(
            {"Location": "NY", "Time": "Mar", "Measures": "Salary"}, ">", 25
        )
        out = select(example.cube, "Organization", pred)
        used = {c.split("/")[-1] for c in out.coordinates_used("Organization")}
        assert used == {"Joe"}

    def test_value_predicate_bad_relop(self):
        with pytest.raises(QueryError):
            value_predicate({}, "~", 1)

    def test_value_predicate_pinning_selection_dim_rejected(self, example):
        pred = value_predicate({"Organization": "FTE"}, ">", 1)
        with pytest.raises(QueryError):
            select(example.cube, "Organization", pred)

    def test_combinators(self, example):
        pred = and_(
            or_(member_equals("Joe"), member_equals("Lisa")),
            not_(descendant_of("Contractor")),
        )
        out = select(example.cube, "Organization", pred)
        used = set(out.coordinates_used("Organization"))
        assert JOE["CONTR"] not in used
        assert JOE["FTE"] in used
        assert "Organization/FTE/Lisa" in used

    def test_member_in(self, example):
        out = select(example.cube, "Organization", member_in({"Tom", "Jane"}))
        used = {c.split("/")[-1] for c in out.coordinates_used("Organization")}
        assert used == {"Tom", "Jane"}

    def test_selection_preserves_input(self, example):
        before = example.cube.n_leaf_cells
        select(example.cube, "Organization", member_equals("Joe"))
        assert example.cube.n_leaf_cells == before


class TestRelocate:
    def test_identity_relocation(self, example):
        """ρ with the input validity sets reproduces the input leaf cells."""
        validity = {
            inst.full_path: inst.validity
            for member in ("Joe", "Lisa", "Tom", "Jane")
            for inst in example.org.instances_of(member)
        }
        out = relocate(example.cube, "Organization", validity)
        assert out.leaf_equal(example.cube)

    def test_forward_relocation_moves_values(self, example):
        pset = PerspectiveSet.from_names(["Feb", "Apr"], example.org)
        validity = {}
        for member in ("Joe", "Lisa", "Tom", "Jane"):
            moved = phi_member(
                example.org.instances_of(member), pset, Semantics.FORWARD
            )
            validity.update(
                {inst.full_path: vs for inst, vs in moved.items()}
            )
        out = relocate(example.cube, "Organization", validity)
        # (PTE/Joe, Mar) inherits 30 from (Contractor/Joe, Mar)
        assert salary(out, JOE["PTE"], "Mar") == 30.0
        assert is_missing(salary(out, JOE["CONTR"], "Mar"))
        # (PTE/Joe, Jan) stays ⊥: PTE/Joe was not valid in Jan (paper note)
        assert is_missing(salary(out, JOE["PTE"], "Jan"))

    def test_relocate_carries_stored_derived(self, example):
        cube = example.cube.copy()
        addr = cube.schema.address(
            Organization="FTE", Location="NY", Time="Qtr1", Measures="Salary"
        )
        cube.set_value(addr, 123.0)
        out = relocate(
            cube,
            "Organization",
            {"Organization/FTE/Lisa": ValiditySet.full(12)},
        )
        assert out.value(addr) == 123.0

    def test_relocate_moves_all_other_dimensions(self, example):
        """Values move for every ē (Location, Measures) tuple, not just one."""
        pset = PerspectiveSet.from_names(["Feb"], example.org)
        moved = phi_member(
            example.org.instances_of("Joe"), pset, Semantics.FORWARD
        )
        validity = {inst.full_path: vs for inst, vs in moved.items()}
        out = relocate(example.cube, "Organization", validity)
        # MA data moves too: (Contractor/Joe, Mar, MA) -> (PTE/Joe, Mar, MA)
        assert salary(out, JOE["PTE"], "Mar", location="MA") == 15.0

    def test_overlapping_input_instances_rejected(self, example):
        cube = example.cube.copy()
        # Corrupt the cube: give FTE/Joe data in Feb while PTE/Joe has Feb data.
        cube.set(
            1.0,
            Organization=JOE["FTE"],
            Location="NY",
            Time="Feb",
            Measures="Salary",
        )
        with pytest.raises(QueryError, match="two instances"):
            relocate(
                cube,
                "Organization",
                {JOE["FTE"]: ValiditySet.single(1, 12)},
            )

    def test_output_coordinate_must_be_a_leaf_instance_path(self, example):
        """A bare member name is an aggregate row, not a leaf slot: moving
        cells there is refused (validated once per new coordinate) rather
        than silently turning leaves into stored aggregates."""
        with pytest.raises(QueryError, match="not a leaf coordinate"):
            relocate(example.cube, "Organization", {"Joe": ValiditySet.full(12)})
        # ...unless nothing is routed there
        out = relocate(example.cube, "Organization", {"Joe": ValiditySet.empty(12)})
        assert out.n_leaf_cells == 0


class TestSplit:
    def test_paper_example_lisa(self, example):
        """R = {(FTE/Lisa, FTE, PTE, Apr)} from Sec. 3.4."""
        out, hypo = split(
            example.cube,
            "Organization",
            [ChangeTuple("Lisa", "FTE", "PTE", "Apr")],
        )
        assert salary(out, "Organization/FTE/Lisa", "Mar") == 10.0
        assert is_missing(salary(out, "Organization/FTE/Lisa", "Apr"))
        assert salary(out, "Organization/PTE/Lisa", "Apr") == 10.0
        assert is_missing(salary(out, "Organization/PTE/Lisa", "Mar"))
        instances = {i.qualified_name: i for i in hypo.instances_of("Lisa")}
        assert instances["FTE/Lisa"].validity.sorted_moments() == [0, 1, 2]
        assert instances["PTE/Lisa"].validity.sorted_moments() == list(range(3, 12))

    def test_multiple_changes_same_member(self, example):
        out, hypo = split(
            example.cube,
            "Organization",
            [
                ChangeTuple("Tom", "PTE", "Contractor", "Mar"),
                ChangeTuple("Tom", "Contractor", "FTE", "May"),
            ],
        )
        assert salary(out, "Organization/PTE/Tom", "Feb") == 10.0
        assert salary(out, "Organization/Contractor/Tom", "Mar") == 10.0
        assert salary(out, "Organization/Contractor/Tom", "Apr") == 10.0
        assert salary(out, "Organization/FTE/Tom", "May") == 10.0
        assert salary(out, "Organization/FTE/Tom", "Jun") == 10.0

    def test_wrong_old_parent_rejected(self, example):
        with pytest.raises(InvalidChangeError, match="old parent"):
            split(
                example.cube,
                "Organization",
                [ChangeTuple("Lisa", "PTE", "Contractor", "Apr")],
            )

    def test_change_at_invalid_moment_rejected(self, example):
        # Joe is invalid in May.
        with pytest.raises(InvalidChangeError, match="no instance"):
            split(
                example.cube,
                "Organization",
                [ChangeTuple("Joe", "Contractor", "FTE", "May")],
            )

    def test_unaffected_members_untouched(self, example):
        out, _ = split(
            example.cube,
            "Organization",
            [ChangeTuple("Lisa", "FTE", "PTE", "Apr")],
        )
        assert salary(out, "Organization/PTE/Tom", "Apr") == 10.0
        assert salary(out, JOE["CONTR"], "Apr") == 20.0

    def test_split_applies_on_top_of_existing_instances(self, example):
        """Positive change on a member that already changes (Joe)."""
        out, hypo = split(
            example.cube,
            "Organization",
            [ChangeTuple("Joe", "Contractor", "FTE", "Apr")],
        )
        assert salary(out, JOE["CONTR"], "Mar") == 30.0
        assert salary(out, JOE["FTE"], "Apr") == 20.0
        assert is_missing(salary(out, JOE["CONTR"], "Apr"))
        instances = {i.qualified_name: i for i in hypo.instances_of("Joe")}
        # {Jan} ∪ {Apr} ∪ {Jun..Dec} — May stays invalid (vacation).
        assert instances["FTE/Joe"].validity.sorted_moments() == (
            [0, 3] + list(range(5, 12))
        )


class TestEvaluate:
    def test_visual_reevaluation(self, example):
        cube = example.cube.copy()
        q1 = cube.schema.address(
            Organization="PTE", Location="NY", Time="Qtr1", Measures="Salary"
        )
        cube.materialize_derived([q1])
        original = cube.value(q1)
        moved, _ = split(
            cube, "Organization", [ChangeTuple("Lisa", "FTE", "PTE", "Feb")]
        )
        out = evaluate(cube, moved)
        # Lisa's Feb+Mar salary (20) now counts under PTE.
        assert out.value(q1) == original + 20.0

    def test_evaluate_with_explicit_addresses(self, example):
        out = evaluate(
            example.cube,
            example.cube,
            addresses=[
                example.cube.schema.address(
                    Organization="FTE",
                    Location="NY",
                    Time="Qtr1",
                    Measures="Salary",
                )
            ],
        )
        assert out.n_stored_derived == 1

    def test_evaluate_does_not_mutate_inputs(self, example):
        cube = example.cube
        before = cube.n_stored_derived
        evaluate(cube, cube, addresses=[])
        assert cube.n_stored_derived == before
