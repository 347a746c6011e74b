"""Static semantic analysis for what-if queries.

Public surface:

* :func:`analyze_query` — analyze extended-MDX text (or a parsed
  :class:`~repro.mdx.ast_nodes.MdxQuery`) against a warehouse's metadata;
* the :class:`Diagnostic` / :class:`DiagnosticReport` framework and the
  :data:`CODE_CATALOG` of stable ``WIFnnn`` codes.

The analyzer is a pure metadata pass: no cube data is read.  It runs by
default inside :meth:`repro.warehouse.Warehouse.query`; pass
``analyze=False`` there to skip enforcement.

The names below are re-exported lazily (:mod:`repro._lazy`): each
is imported from its module on first access, so importing one
submodule loads only what that submodule imports.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.diagnostics import (
        CODE_CATALOG,
        Diagnostic,
        DiagnosticReport,
        Severity,
    )
    from repro.analysis.query_analyzer import QueryAnalyzer, analyze_query

__all__ = [
    "CODE_CATALOG",
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "analyze_query",
    "QueryAnalyzer",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.diagnostics": (
            "CODE_CATALOG",
            "Diagnostic",
            "DiagnosticReport",
            "Severity",
        ),
        "repro.analysis.query_analyzer": ("QueryAnalyzer", "analyze_query"),
    },
)
