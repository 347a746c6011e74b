"""The OLAP substrate: dimensions, member instances, cubes, and rules.

This subpackage plays the role of the Essbase engine in the paper: a
multidimensional data model with hierarchical dimensions, fundamental
support for changing dimensions (member instances with validity sets), ⊥
semantics for meaningless cells, and a rule engine for derived cells.

The names below are re-exported lazily (:mod:`repro._lazy`): each
is imported from its module on first access, so importing one
submodule loads only what that submodule imports.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.olap.aggregation import AGGREGATORS, aggregate
    from repro.olap.cube import Cube
    from repro.olap.dimension import Dimension, Member
    from repro.olap.formula import parse_formula
    from repro.olap.instances import MemberInstance, VaryingDimension
    from repro.olap.missing import MISSING, Missing, is_missing
    from repro.olap.rules import Rule, RuleEngine
    from repro.olap.schema import CubeSchema

__all__ = [
    "AGGREGATORS",
    "aggregate",
    "Cube",
    "CubeSchema",
    "Dimension",
    "Member",
    "MemberInstance",
    "MISSING",
    "Missing",
    "is_missing",
    "parse_formula",
    "Rule",
    "RuleEngine",
    "VaryingDimension",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.olap.aggregation": ("AGGREGATORS", "aggregate"),
        "repro.olap.cube": ("Cube",),
        "repro.olap.dimension": ("Dimension", "Member"),
        "repro.olap.formula": ("parse_formula",),
        "repro.olap.instances": ("MemberInstance", "VaryingDimension"),
        "repro.olap.missing": ("MISSING", "Missing", "is_missing"),
        "repro.olap.rules": ("Rule", "RuleEngine"),
        "repro.olap.schema": ("CubeSchema",),
    },
)
