"""Tests for the warehouse consistency checker."""

from __future__ import annotations

import pytest

from repro.core.validation import check_warehouse
from repro.warehouse import Warehouse
from repro.workload import build_running_example


@pytest.fixture
def warehouse(example) -> Warehouse:
    return Warehouse(example.schema, example.cube, name="Warehouse")


def codes(findings):
    return sorted(f.code for f in findings)


def plant_unknown_coordinate(warehouse: Warehouse) -> None:
    """Every write path rejects unknown coordinates, so simulate external
    corruption: a leaf store filled over a schema that knows one more
    location, adopted (``adopt`` validates nothing) by the cube whose
    schema does not."""
    wider = build_running_example()
    wider.location.add_children("East", ["Atlantis"])
    wider.cube.set_value(("Organization/FTE/Lisa", "Atlantis", "Jan", "Salary"), 5.0)
    warehouse.cube = warehouse.cube.adopt(wider.cube.rollup_index(), {})


class TestCleanWarehouse:
    def test_running_example_is_consistent(self, warehouse):
        assert check_warehouse(warehouse) == []

    def test_workforce_is_consistent(self):
        from repro.workload.workforce import WorkforceConfig, build_workforce

        workforce = build_workforce(
            WorkforceConfig(n_employees=30, n_departments=4, n_changing=4, seed=3)
        )
        assert check_warehouse(workforce.warehouse) == []


class TestViolations:
    def test_meaningless_cell_detected(self, warehouse, example):
        # FTE/Joe is only valid in Jan; plant data in Feb.
        example.cube.set(
            99.0,
            Organization="Organization/FTE/Joe",
            Location="NY",
            Time="Feb",
            Measures="Salary",
        )
        findings = check_warehouse(warehouse)
        assert "meaningless-cell" in codes(findings)
        bad = next(f for f in findings if f.code == "meaningless-cell")
        assert bad.address is not None
        assert "Feb" in bad.message

    def test_unknown_instance_detected(self, warehouse, example):
        # Joe never appears under a made-up path component ordering.
        example.cube.set(
            1.0,
            Organization="Organization/Contractor/Lisa",
            Location="NY",
            Time="Jan",
            Measures="Salary",
        )
        findings = check_warehouse(warehouse)
        assert "unknown-instance" in codes(findings)

    def test_unknown_coordinate_detected(self, warehouse):
        plant_unknown_coordinate(warehouse)
        findings = check_warehouse(warehouse)
        assert "unknown-coordinate" in codes(findings)

    def test_orphan_named_set_detected(self, warehouse, example):
        warehouse.define_named_set("Ghosts", ["Lisa"])
        # Simulate drift: replace the set with one naming a missing member.
        from repro.warehouse import NamedSet

        warehouse._named_sets["Ghosts"] = NamedSet("Ghosts", ("Casper",))
        findings = check_warehouse(warehouse)
        assert "orphan-named-set" in codes(findings)

    def test_multiple_findings_reported(self, warehouse):
        plant_unknown_coordinate(warehouse)
        warehouse.cube.set(
            99.0,
            Organization="Organization/FTE/Joe",
            Location="NY",
            Time="Feb",
            Measures="Salary",
        )
        findings = check_warehouse(warehouse)
        assert len(findings) >= 2
