"""Tests for scenario application and the WhatIfCube facade (Theorem 4.1)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_operator_parity import worlds

from repro.core.operators import ChangeTuple, relocate
from repro.core.perspective import Mode, PerspectiveSet, Semantics, phi_member
from repro.core.scenario import (
    NegativeScenario,
    PositiveScenario,
    apply_scenarios,
)
from repro.errors import QueryError
from repro.olap.missing import is_missing
from repro.perf.config import naive_mode

JOE_FTE = "Organization/FTE/Joe"
JOE_PTE = "Organization/PTE/Joe"
JOE_CONTR = "Organization/Contractor/Joe"


def val(result, org, month, measure="Salary", location="NY"):
    return result.at(
        Organization=org, Location=location, Time=month, Measures=measure
    )


class TestNegativeScenario:
    def test_static_keeps_original_values(self, example):
        sc = NegativeScenario("Organization", ["Jan"], Semantics.STATIC)
        out = sc.apply(example.cube)
        assert val(out, JOE_FTE, "Jan") == 10.0
        # PTE/Joe and Contractor/Joe rows are removed (Sec. 3.3 example).
        assert is_missing(val(out, JOE_PTE, "Feb"))
        assert is_missing(val(out, JOE_CONTR, "Mar"))
        assert JOE_FTE in out.validity_out
        assert JOE_PTE not in out.validity_out

    def test_forward_single_perspective_jan(self, example):
        """Sec. 3.3: P={Jan} forward gives FTE/Joe the values of PTE/Joe
        for Feb and Contractor/Joe for Mar, Apr, Jun, ..."""
        sc = NegativeScenario("Organization", ["Jan"], Semantics.FORWARD)
        out = sc.apply(example.cube)
        assert val(out, JOE_FTE, "Jan") == 10.0
        assert val(out, JOE_FTE, "Feb") == 10.0  # from PTE/Joe
        assert val(out, JOE_FTE, "Mar") == 30.0  # from Contractor/Joe
        assert is_missing(val(out, JOE_FTE, "May"))  # no instance in May
        assert is_missing(val(out, JOE_PTE, "Feb"))
        assert out.validity_out[JOE_FTE].sorted_moments() == list(range(12))

    def test_forward_multi_perspective_fig4(self, example):
        sc = NegativeScenario(
            "Organization", ["Feb", "Apr"], Semantics.FORWARD, Mode.VISUAL
        )
        out = sc.apply(example.cube)
        assert val(out, JOE_PTE, "Feb") == 10.0
        assert val(out, JOE_PTE, "Mar") == 30.0
        assert is_missing(val(out, JOE_PTE, "Jan"))
        assert val(out, JOE_CONTR, "Apr") == 20.0
        assert is_missing(val(out, JOE_CONTR, "Mar"))
        assert is_missing(val(out, JOE_FTE, "Jan"))

    def test_visual_mode_reaggregates(self, example):
        sc = NegativeScenario(
            "Organization", ["Feb", "Apr"], Semantics.FORWARD, Mode.VISUAL
        )
        out = sc.apply(example.cube)
        # PTE at Qtr1 = Tom (10+10+10) + PTE/Joe (Feb 10, Mar 30) = 70
        assert val(out, "PTE", "Qtr1") == 70.0
        # FTE at Qtr1 = Lisa only = 30 (FTE/Joe dropped)
        assert val(out, "FTE", "Qtr1") == 30.0

    def test_non_visual_mode_keeps_input_aggregates(self, example):
        sc = NegativeScenario(
            "Organization", ["Feb", "Apr"], Semantics.FORWARD, Mode.NON_VISUAL
        )
        out = sc.apply(example.cube)
        # Input-cube aggregates: PTE Qtr1 = Tom 30 + PTE/Joe Feb 10 = 40.
        assert val(out, "PTE", "Qtr1") == 40.0
        # Leaf values still reflect the hypothetical structure.
        assert val(out, JOE_PTE, "Mar") == 30.0

    def test_backward_semantics(self, example):
        sc = NegativeScenario("Organization", ["Apr"], Semantics.BACKWARD)
        out = sc.apply(example.cube)
        # Contractor/Joe (valid at Apr) is imposed on the past: it absorbs
        # Jan (from FTE/Joe), Feb (PTE/Joe), Mar (itself).
        assert val(out, JOE_CONTR, "Jan") == 10.0
        assert val(out, JOE_CONTR, "Feb") == 10.0
        assert val(out, JOE_CONTR, "Mar") == 30.0
        assert val(out, JOE_CONTR, "Apr") == 20.0
        # Backward keeps post-Pmax original moments of the instance.
        assert val(out, JOE_CONTR, "Jun") == 20.0

    def test_empty_perspectives_rejected(self, example):
        with pytest.raises(QueryError):
            NegativeScenario("Organization", []).apply(example.cube)

    def test_non_varying_dimension_rejected(self, example):
        with pytest.raises(Exception):
            NegativeScenario("Location", ["Jan"]).apply(example.cube)

    def test_statics_unaffected_by_perspectives(self, example):
        sc = NegativeScenario("Organization", ["Feb"], Semantics.FORWARD)
        out = sc.apply(example.cube)
        for month in ("Jan", "Feb", "Jun"):
            assert val(out, "Organization/FTE/Lisa", month) == 10.0
            assert val(out, "Organization/PTE/Tom", month) == 10.0

    def test_matches_manual_algebra_composition(self, example):
        """Theorem 4.1: scenario application == Φ then ρ composition."""
        sc = NegativeScenario(
            "Organization", ["Feb", "Apr"], Semantics.FORWARD, Mode.NON_VISUAL
        )
        out = sc.apply(example.cube)
        pset = PerspectiveSet.from_names(["Feb", "Apr"], example.org)
        validity = {}
        for member in ("Joe", "Lisa", "Tom", "Jane"):
            for inst, vs in phi_member(
                example.org.instances_of(member), pset, Semantics.FORWARD
            ).items():
                validity[inst.full_path] = vs
        manual = relocate(example.cube, "Organization", validity)
        assert out.leaf_cube.leaf_equal(manual)


class TestPositiveScenario:
    def test_split_visual(self, example):
        sc = PositiveScenario(
            "Organization",
            [ChangeTuple("Lisa", "FTE", "PTE", "Apr")],
            Mode.VISUAL,
        )
        out = sc.apply(example.cube)
        assert val(out, "Organization/PTE/Lisa", "Apr") == 10.0
        assert is_missing(val(out, "Organization/FTE/Lisa", "Apr"))
        # Visual aggregates move with the data: Tom (3 x 10) + Lisa's
        # relocated Apr-Jun salaries (3 x 10).
        assert val(out, "PTE", "Qtr2") == 60.0
        assert out.varying_out is not None
        names = {
            i.qualified_name for i in out.varying_out.instances_of("Lisa")
        }
        assert names == {"FTE/Lisa", "PTE/Lisa"}

    def test_split_non_visual_keeps_aggregates(self, example):
        cube = example.cube.copy()
        q2 = cube.schema.address(
            Organization="PTE", Location="NY", Time="Qtr2", Measures="Salary"
        )
        cube.materialize_derived([q2])
        sc = PositiveScenario(
            "Organization",
            [ChangeTuple("Lisa", "FTE", "PTE", "Apr")],
            Mode.NON_VISUAL,
        )
        out = sc.apply(cube)
        assert out.effective_value(q2) == 30.0  # Tom only, from the input

    def test_empty_changes_rejected(self, example):
        with pytest.raises(QueryError):
            PositiveScenario("Organization", []).apply(example.cube)

    def test_validity_out_covers_statics(self, example):
        sc = PositiveScenario(
            "Organization", [ChangeTuple("Lisa", "FTE", "PTE", "Apr")]
        )
        out = sc.apply(example.cube)
        assert "Organization/PTE/Tom" in out.validity_out
        assert "Organization/PTE/Lisa" in out.validity_out


class TestScenarioPipelines:
    def test_negative_then_positive(self, example):
        """A query can carry both scenario kinds (Sec. 3.2)."""
        out = apply_scenarios(
            example.cube,
            [
                NegativeScenario(
                    "Organization", ["Jan"], Semantics.FORWARD
                ),
                PositiveScenario(
                    "Organization",
                    [ChangeTuple("Lisa", "FTE", "PTE", "Apr")],
                ),
            ],
        )
        # Joe's entire year lives under FTE/Joe (forward from Jan)...
        assert val(out, JOE_FTE, "Mar") == 30.0
        # ...and Lisa moved to PTE from Apr.
        assert val(out, "Organization/PTE/Lisa", "Apr") == 10.0

    def test_positive_then_negative_uses_hypothetical_structure(self, example):
        out = apply_scenarios(
            example.cube,
            [
                PositiveScenario(
                    "Organization",
                    [ChangeTuple("Lisa", "FTE", "PTE", "Apr")],
                ),
                NegativeScenario(
                    "Organization", ["Jan"], Semantics.FORWARD
                ),
            ],
        )
        # Forward-from-Jan now negates the hypothetical change too: Lisa's
        # Apr salary returns to FTE/Lisa.
        assert val(out, "Organization/FTE/Lisa", "Apr") == 10.0
        assert is_missing(val(out, "Organization/PTE/Lisa", "Apr"))

    @pytest.mark.parametrize("mode", ["VISUAL", ""])
    def test_a_cold_chained_query_builds_the_hypothetical_structure_once(
        self, example, monkeypatch, mode
    ):
        """The chain's structure half builds S's hypothetical structure;
        S's leaf half (``split``) is handed it instead of replaying R on a
        second copy of the varying structure."""
        import repro.core.operators as operators
        import repro.core.scenario as scenario
        from repro.warehouse import Warehouse

        built = []
        real = operators._hypothetical_structure

        def counted(varying, changes):
            built.append(changes)
            return real(varying, changes)

        monkeypatch.setattr(operators, "_hypothetical_structure", counted)
        monkeypatch.setattr(scenario, "_hypothetical_structure", counted)
        warehouse = Warehouse(example.schema, example.cube, name="Warehouse")
        text = f"""
        WITH CHANGES {{([Lisa], FTE, PTE, Apr)}} FOR Organization {mode}
             PERSPECTIVE {{(Mar)}} FOR Organization DYNAMIC BACKWARD {mode}
        SELECT {{Time.[Mar], Time.[Apr]}} ON COLUMNS, {{[Lisa]}} ON ROWS
        FROM Warehouse WHERE ([NY], [Salary])
        """
        result = warehouse.query(text)
        assert len(built) == 1
        warehouse.scenario_cache.clear()
        assert repr(warehouse.query(text).cells) == repr(result.cells)
        assert len(built) == 2
        with naive_mode():
            assert repr(warehouse.query(text).cells) == repr(result.cells)

    def test_empty_pipeline_rejected(self, example):
        with pytest.raises(QueryError):
            apply_scenarios(example.cube, [])


class TestPhiIsComposedPerMember:
    """``NegativeScenario.apply`` runs Φ once per distinct input validity
    set; the parity suite shares Φ between engine and oracle, so the
    composition is checked here against ``phi_member`` per member."""

    @settings(max_examples=25, deadline=None)
    @given(world=worlds(), data=st.data())
    def test_validity_out_is_phi_member_per_member_in_order(self, world, data):
        perspectives = data.draw(
            st.lists(
                st.sampled_from(world.months),
                min_size=1,
                max_size=len(world.months),
                unique=True,
            )
        )
        pset = PerspectiveSet.from_names(perspectives, world.varying)
        members = sorted(
            {addr[0].rsplit("/", 1)[-1] for addr, _ in world.cube.leaf_cells()}
        )
        for semantics in Semantics:
            expected = [
                (instance.full_path, validity)
                for member in members
                for instance, validity in phi_member(
                    world.varying.instances_of(member), pset, semantics
                ).items()
            ]
            got = NegativeScenario("Org", perspectives, semantics).apply(world.cube)
            assert list(got.validity_out.items()) == expected, semantics


class TestWhatIfCubeFacade:
    def test_value_aliases(self, example):
        out = NegativeScenario(
            "Organization", ["Jan"], Semantics.STATIC
        ).apply(example.cube)
        addr = example.schema.address(
            Organization=JOE_FTE, Location="NY", Time="Jan", Measures="Salary"
        )
        assert out.value(addr) == out.effective_value(addr) == 10.0

    def test_as_cube_returns_leaf_cube(self, example):
        out = NegativeScenario(
            "Organization", ["Jan"], Semantics.STATIC
        ).apply(example.cube)
        assert out.as_cube() is out.leaf_cube

    def test_schema_passthrough(self, example):
        out = NegativeScenario(
            "Organization", ["Jan"], Semantics.STATIC
        ).apply(example.cube)
        assert out.schema is example.schema
