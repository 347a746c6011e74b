"""The paper's running example (Fig. 1 and Fig. 2).

Four dimensions — Organization (varying over Time), Location, Time
(ordered), Measures — with employee Joe reclassified FTE → PTE →
Contractor over the year and invalid ("possible vacation") in May, exactly
as Sec. 2 narrates:

* VS(FTE/Joe) = {Jan}
* VS(PTE/Joe) = {Feb}
* VS(Contractor/Joe) = {Mar, Apr, Jun, ..., Dec} (no May)

The printed figure's cell values are illegible in the available scan, so
the data below is *adapted*: values are chosen to satisfy every numeric
fact the prose states — in particular, ``(Contractor/Joe, Mar, NY, Salary)
= 30`` so that the forward-visual example of Fig. 4 reproduces the paper's
"(PTE/Joe, Mar) has value 30, inherited from (Contractor/Joe, Mar)".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.olap.cube import Cube
from repro.olap.dimension import Dimension
from repro.olap.instances import VaryingDimension
from repro.olap.rules import RuleEngine
from repro.olap.schema import CubeSchema

__all__ = ["RunningExample", "build_running_example", "MONTHS", "QUARTERS"]

MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)
QUARTERS = ("Qtr1", "Qtr2", "Qtr3", "Qtr4")


@dataclass
class RunningExample:
    """The built warehouse pieces for the running example."""

    schema: CubeSchema
    cube: Cube
    org: VaryingDimension
    organization: Dimension
    location: Dimension
    time: Dimension
    measures: Dimension
    rules: RuleEngine


def _build_time() -> Dimension:
    time = Dimension("Time", ordered=True)
    for quarter_index, quarter in enumerate(QUARTERS):
        time.add_member(quarter)
        for month in MONTHS[quarter_index * 3 : quarter_index * 3 + 3]:
            time.add_member(month, quarter)
    return time


def _build_location() -> Dimension:
    location = Dimension("Location")
    location.add_children(None, ["East", "West", "South"])
    location.add_children("East", ["NY", "MA", "NH"])
    location.add_children("West", ["CA", "OR", "WA"])
    # Fig. 1 lists no children under South; we add two so South is a real
    # non-leaf region (a childless member would degenerate to a leaf).
    location.add_children("South", ["TX", "FL"])
    return location


def _build_measures() -> Dimension:
    measures = Dimension("Measures", is_measures=True)
    measures.add_children(None, ["Compensation", "Productivity"])
    measures.add_children("Compensation", ["Salary", "Benefits"])
    measures.add_children("Productivity", ["Products", "Services"])
    return measures


def _build_organization() -> Dimension:
    organization = Dimension("Organization")
    organization.add_children(None, ["FTE", "PTE", "Contractor"])
    organization.add_children("FTE", ["Joe", "Lisa", "Sue"])
    organization.add_children("PTE", ["Tom", "Dave"])
    organization.add_children("Contractor", ["Jane"])
    return organization


def build_running_example() -> RunningExample:
    """Build the Fig. 1/2 warehouse with Joe's reclassification history."""
    organization = _build_organization()
    location = _build_location()
    time = _build_time()
    measures = _build_measures()

    schema = CubeSchema([organization, location, time, measures])
    org = schema.make_varying("Organization", "Time")

    # Joe: FTE in Jan, PTE in Feb, Contractor from Mar on, invalid in May.
    org.assign("Joe", "FTE")
    org.reparent("Joe", "PTE", "Feb")
    org.reparent("Joe", "Contractor", "Mar")
    org.set_invalid("Joe", ["May"])

    rules = RuleEngine(schema)
    cube = Cube(schema, rules)
    cells: list[tuple[tuple[str, ...], float]] = []

    def put(instance_path: str, location_name: str, month: str,
            measure: str, value: float) -> None:
        # schema order: Organization, Location, Time, Measures
        cells.append(((instance_path, location_name, month, measure), value))

    # Joe's salary under his three instances (NY plus a little MA data so
    # the Fig. 3 query has two interesting rows).
    put("Organization/FTE/Joe", "NY", "Jan", "Salary", 10)
    put("Organization/FTE/Joe", "MA", "Jan", "Salary", 5)
    put("Organization/PTE/Joe", "NY", "Feb", "Salary", 10)
    put("Organization/PTE/Joe", "MA", "Feb", "Salary", 5)
    put("Organization/Contractor/Joe", "NY", "Mar", "Salary", 30)
    put("Organization/Contractor/Joe", "MA", "Mar", "Salary", 15)
    put("Organization/Contractor/Joe", "NY", "Apr", "Salary", 20)
    put("Organization/Contractor/Joe", "NY", "Jun", "Salary", 20)

    # Static colleagues: flat salaries Jan-Jun in NY, benefits of 2.
    for month in MONTHS[:6]:
        put("Organization/FTE/Lisa", "NY", month, "Salary", 10)
        put("Organization/PTE/Tom", "NY", month, "Salary", 10)
        put("Organization/Contractor/Jane", "NY", month, "Salary", 10)
        put("Organization/FTE/Lisa", "NY", month, "Benefits", 2)
        put("Organization/PTE/Tom", "NY", month, "Benefits", 2)
    cube.load(cells)
    return RunningExample(
        schema=schema,
        cube=cube,
        org=org,
        organization=organization,
        location=location,
        time=time,
        measures=measures,
        rules=rules,
    )
