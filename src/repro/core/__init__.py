"""The paper's primary contribution: perspectives and what-if queries.

Contents: validity sets (Sec. 2), the perspective transform Φ with all five
semantics (Secs. 3.3–3.4, 4.2), the what-if algebra σ/ρ/S/E (Sec. 4),
scenario application per Theorem 4.1, and the perspective-cube evaluation
machinery of Sec. 5 (merge dependency graphs, pebbling, dimension-order
selection, the chunk-level perspective cube builder).

The algebra is executable once: the operators are plain functions
(:mod:`repro.core.operators`), a what-if query is a chain of scenarios
over them, and :func:`apply_scenarios` is the one runner.  There is no
plan tree, optimiser or plan analyzer (Sec. 8's "algebraic optimisation"
is not implemented; see docs/paper_mapping.md).

The names below are re-exported lazily (:mod:`repro._lazy`): each
is imported from its module on first access, so importing one
submodule loads only what that submodule imports.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.compression import CompressedPerspectiveCube, compress
    from repro.core.data_scenario import AllocationScenario
    from repro.core.operators import (
        ChangeRelation,
        ChangeTuple,
        evaluate,
        relocate,
        select,
        split,
    )
    from repro.core.perspective import (
        Mode,
        PerspectiveSet,
        Semantics,
        phi,
        phi_member,
        stretch,
    )
    from repro.core.validation import Finding, check_warehouse
    from repro.core.scenario import (
        NegativeScenario,
        PositiveScenario,
        WhatIfCube,
        apply_scenarios,
    )
    from repro.validity import ValiditySet

__all__ = [
    "AllocationScenario",
    "Finding",
    "check_warehouse",
    "CompressedPerspectiveCube",
    "compress",
    "ChangeRelation",
    "ChangeTuple",
    "evaluate",
    "relocate",
    "select",
    "split",
    "Mode",
    "PerspectiveSet",
    "Semantics",
    "phi",
    "phi_member",
    "stretch",
    "NegativeScenario",
    "PositiveScenario",
    "WhatIfCube",
    "apply_scenarios",
    "ValiditySet",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.compression": ("CompressedPerspectiveCube", "compress"),
        "repro.core.data_scenario": ("AllocationScenario",),
        "repro.core.operators": (
            "ChangeRelation",
            "ChangeTuple",
            "evaluate",
            "relocate",
            "select",
            "split",
        ),
        "repro.core.perspective": (
            "Mode",
            "PerspectiveSet",
            "Semantics",
            "phi",
            "phi_member",
            "stretch",
        ),
        "repro.core.validation": ("Finding", "check_warehouse"),
        "repro.core.scenario": (
            "NegativeScenario",
            "PositiveScenario",
            "WhatIfCube",
            "apply_scenarios",
        ),
        "repro.validity": ("ValiditySet",),
    },
)
