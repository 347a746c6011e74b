"""repro — What-if OLAP queries with changing dimensions.

A from-scratch reproduction of Lakshmanan, Russakovsky & Sashikanth,
*What-if OLAP Queries with Changing Dimensions* (ICDE 2008): a
multidimensional OLAP engine with native support for varying dimensions
and member instances, the perspective/what-if query layer (negative and
positive scenarios, five semantics, visual/non-visual modes), an extended
MDX dialect, and the chunk-level perspective-cube evaluation machinery
(merge dependency graphs, pebbling, dimension ordering).

Quick start::

    from repro import Warehouse
    from repro.workload import build_running_example

    ex = build_running_example()
    wh = Warehouse(ex.schema, ex.cube)
    result = wh.query('''
        WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
        SELECT {Descendants([Time], 1, self_and_after)} ON COLUMNS,
               {[Joe]} ON ROWS
        FROM [Warehouse]
        WHERE ([NY], [Salary])
    ''')
    print(result.to_text())

The names below are re-exported lazily (:mod:`repro._lazy`): each
is imported from its module on first access, so importing one
submodule loads only what that submodule imports.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core import (
        ChangeTuple,
        Mode,
        NegativeScenario,
        PerspectiveSet,
        PositiveScenario,
        Semantics,
        ValiditySet,
        WhatIfCube,
        apply_scenarios,
    )
    from repro.errors import (
        CircuitOpenError,
        QueryBudgetExceededError,
        ReproError,
        ServiceError,
        ServiceOverloadedError,
        ServiceStoppedError,
        SnapshotImmutableError,
        WarehouseCorruptionError,
        WarehouseFormatError,
    )
    from repro.io import load_warehouse, load_warehouse_recovered, save_warehouse
    from repro.mdx.budget import Degradation, QueryBudget
    from repro.olap import (
        MISSING,
        Cube,
        CubeSchema,
        Dimension,
        MemberInstance,
        Rule,
        RuleEngine,
        VaryingDimension,
        is_missing,
    )
    from repro.warehouse import NamedSet, Warehouse
    from repro.service import CircuitBreaker, QueryService, QueryTicket

__version__ = "0.1.0"

__all__ = [
    "ChangeTuple",
    "Mode",
    "NegativeScenario",
    "PerspectiveSet",
    "PositiveScenario",
    "Semantics",
    "ValiditySet",
    "WhatIfCube",
    "apply_scenarios",
    "Degradation",
    "QueryBudget",
    "QueryBudgetExceededError",
    "CircuitBreaker",
    "CircuitOpenError",
    "QueryService",
    "QueryTicket",
    "ReproError",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceStoppedError",
    "SnapshotImmutableError",
    "WarehouseCorruptionError",
    "WarehouseFormatError",
    "load_warehouse",
    "load_warehouse_recovered",
    "save_warehouse",
    "MISSING",
    "Cube",
    "CubeSchema",
    "Dimension",
    "MemberInstance",
    "Rule",
    "RuleEngine",
    "VaryingDimension",
    "is_missing",
    "NamedSet",
    "Warehouse",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core": (
            "ChangeTuple",
            "Mode",
            "NegativeScenario",
            "PerspectiveSet",
            "PositiveScenario",
            "Semantics",
            "ValiditySet",
            "WhatIfCube",
            "apply_scenarios",
        ),
        "repro.errors": (
            "CircuitOpenError",
            "QueryBudgetExceededError",
            "ReproError",
            "ServiceError",
            "ServiceOverloadedError",
            "ServiceStoppedError",
            "SnapshotImmutableError",
            "WarehouseCorruptionError",
            "WarehouseFormatError",
        ),
        "repro.io": ("load_warehouse", "load_warehouse_recovered", "save_warehouse"),
        "repro.mdx.budget": ("Degradation", "QueryBudget"),
        "repro.olap": (
            "MISSING",
            "Cube",
            "CubeSchema",
            "Dimension",
            "MemberInstance",
            "Rule",
            "RuleEngine",
            "VaryingDimension",
            "is_missing",
        ),
        "repro.warehouse": ("NamedSet", "Warehouse"),
        "repro.service": ("CircuitBreaker", "QueryService", "QueryTicket"),
    },
)
