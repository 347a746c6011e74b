"""The one runner: ``apply_scenarios`` threads a chain and hands back, on
the final perspective cube, what a query resolves its axes with — per
varying dimension, the hypothetical structure and the surviving instances.
"""

from __future__ import annotations

import pytest

from repro.core.operators import ChangeTuple
from repro.core.perspective import Semantics
from repro.core.scenario import NegativeScenario, PositiveScenario, apply_scenarios
from repro.obs.trace import TRACER, tracing
from repro.olap.cube import Cube
from repro.olap.dimension import Dimension
from repro.olap.schema import CubeSchema
from repro.warehouse import Warehouse

MONTHS = ("Jan", "Feb", "Mar", "Apr")
MOVE_JOE = ChangeTuple("Joe", "FTE", "PTE", "Mar")


@pytest.fixture
def warehouse() -> Warehouse:
    """Organization and Product both vary over Time; Joe has data, Ann —
    same department — has none, and p1 moves from family A to B in Feb."""
    org = Dimension("Organization")
    org.add_children(None, ["FTE", "PTE"])
    org.add_member("Joe", "FTE")
    org.add_member("Ann", "FTE")
    product = Dimension("Product")
    product.add_children(None, ["A", "B"])
    product.add_member("p1", "A")
    time = Dimension("Time", ordered=True)
    for month in MONTHS:
        time.add_member(month)
    schema = CubeSchema([org, product, time])
    schema.make_varying("Organization", "Time")
    product_varying = schema.make_varying("Product", "Time")
    product_varying.reparent("p1", "B", "Feb")

    cube = Cube(schema)
    for instance in product_varying.instances_of("p1"):
        for t in instance.validity:
            cube.set_value(
                ("Organization/FTE/Joe", instance.full_path, MONTHS[t]), float(t + 1)
            )
    return Warehouse(schema, cube, name="W")


def test_every_stage_records_its_dimension(warehouse):
    applied = apply_scenarios(
        warehouse.cube,
        [
            PositiveScenario("Organization", [MOVE_JOE]),
            NegativeScenario("Product", ["Jan"], Semantics.FORWARD),
        ],
    )
    assert applied.surviving == {
        "Organization": {"Organization/FTE/Joe", "Organization/PTE/Joe"},
        "Product": {"Product/A/p1"},
    }
    assert set(applied.varying) == {"Organization"}  # only S leaves a structure
    assert applied.varying["Organization"].parent_at("Joe", "Apr") == "PTE"


def test_a_later_stage_on_the_same_dimension_overwrites(warehouse):
    applied = apply_scenarios(
        warehouse.cube,
        [
            PositiveScenario("Organization", [MOVE_JOE]),
            NegativeScenario("Organization", ["Apr"]),
        ],
    )
    # static {Apr} over the hypothetical history: only Joe-as-PTE survives
    assert applied.surviving == {"Organization": {"Organization/PTE/Joe"}}
    assert applied.validity_out.keys() == applied.surviving["Organization"]


def test_rows_of_one_dimension_ignore_a_clause_on_another(warehouse):
    """The Organization rows of a CHANGES query used to depend on whether
    an unrelated Product PERSPECTIVE followed: only the last stage's
    surviving set was kept, so data-less Ann slipped back in."""
    changes = "CHANGES {([Joe], [FTE], [PTE], [Mar])} FOR Organization"
    perspective = "PERSPECTIVE {(Jan)} FOR Product DYNAMIC FORWARD"
    select = "SELECT {Time.Members} ON COLUMNS, {[Joe], [Ann]} ON ROWS FROM W"
    alone = warehouse.query(f"WITH {changes} {select}")
    both = warehouse.query(f"WITH {changes} {perspective} {select}")
    assert alone.row_labels() == both.row_labels() == ["FTE/Joe", "PTE/Joe"]


def test_the_runner_opens_one_span_per_stage(warehouse):
    chain = [
        PositiveScenario("Organization", [MOVE_JOE]),
        NegativeScenario("Product", ["Jan"], Semantics.FORWARD),
    ]
    with tracing():
        TRACER.finished.clear()
        apply_scenarios(warehouse.cube, chain)
        spans = list(TRACER.finished)
    assert [(s.name, s.attrs) for s in spans] == [
        ("scenario.apply", {"kind": "PositiveScenario", "dimension": "Organization"}),
        ("scenario.apply", {"kind": "NegativeScenario", "dimension": "Product"}),
    ]
