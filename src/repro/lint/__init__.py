"""reprolint: the project's self-hosted concurrency/hygiene linter.

Static side (``repro lint``): five AST checkers over ``src/`` —
lock-order (RPL1xx, against the hierarchy declared in
:mod:`repro.lint.lock_hierarchy`), unguarded shared-state writes
(RPL2xx), failpoint hygiene (RPL3xx), metrics/span hygiene (RPL4xx),
and error-taxonomy enforcement at public entry points (RPL5xx).

Dynamic side: the lockdep witness (:mod:`repro.lint.lockdep`), enabled
with ``REPRO_LOCKDEP=1``, which fails fast on lock-order inversions the
static pass cannot see.

The names below are re-exported lazily (:mod:`repro._lazy`): each
is imported from its module on first access, so importing one
submodule loads only what that submodule imports.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.lint.baseline import Baseline, BaselineEntry
    from repro.lint.findings import (
        RULE_CATALOG,
        LintFinding,
        LintReport,
        LintSeverity,
    )
    from repro.lint.runner import run_lint

__all__ = [
    "Baseline",
    "BaselineEntry",
    "LintFinding",
    "LintReport",
    "LintSeverity",
    "RULE_CATALOG",
    "run_lint",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.lint.baseline": ("Baseline", "BaselineEntry"),
        "repro.lint.findings": (
            "RULE_CATALOG",
            "LintFinding",
            "LintReport",
            "LintSeverity",
        ),
        "repro.lint.runner": ("run_lint",),
    },
)
