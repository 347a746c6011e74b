"""Durable scenario workspaces (ROADMAP item 3).

The paper's what-if sessions assume an analyst keeps hypothetical worlds
alive across many queries; this package makes those worlds survive the
*process*.  A :class:`~repro.catalog.catalog.ScenarioCatalog` stores
named, delta-encoded branches of the warehouse behind a write-ahead
journal, recovers from a kill at any instruction (replay or rollback,
never a torn state), supports git-like ``fork`` / ``merge`` / ``rebase``
/ ``diff`` between branches, and enforces per-tenant quotas.

See ``docs/scenarios.md`` for the catalog model, the journal format, the
recovery policy and the quota semantics.

The names below are re-exported lazily (:mod:`repro._lazy`): each
is imported from its module on first access, so importing one
submodule loads only what that submodule imports.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.catalog.catalog import (
        CatalogRecovery,
        ScenarioCatalog,
        ScenarioInfo,
        TenantQuota,
    )
    from repro.catalog.diff import ScenarioDiff, diff_states
    from repro.catalog.journal import CatalogJournal
    from repro.catalog.model import Delta, ScenarioState

__all__ = [
    "CatalogJournal",
    "CatalogRecovery",
    "Delta",
    "ScenarioCatalog",
    "ScenarioDiff",
    "ScenarioInfo",
    "ScenarioState",
    "TenantQuota",
    "diff_states",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.catalog.catalog": (
            "CatalogRecovery",
            "ScenarioCatalog",
            "ScenarioInfo",
            "TenantQuota",
        ),
        "repro.catalog.diff": ("ScenarioDiff", "diff_states"),
        "repro.catalog.journal": ("CatalogJournal",),
        "repro.catalog.model": ("Delta", "ScenarioState"),
    },
)
