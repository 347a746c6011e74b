"""The extended MDX query language (Sec. 3.2, Fig. 10).

Lexer, parser, AST, and evaluator for classic MDX (SELECT / ON COLUMNS /
ON ROWS / FROM / WHERE with CrossJoin, Union, Children, Members,
Descendants, Levels, Head, Tail, DIMENSION PROPERTIES) extended with the
paper's ``WITH PERSPECTIVE`` and ``WITH CHANGES`` clauses.

The names below are re-exported lazily (:mod:`repro._lazy`): each
is imported from its module on first access, so importing one
submodule loads only what that submodule imports.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.mdx.ast_nodes import MdxQuery, PerspectiveClause, ChangesClause
    from repro.mdx.budget import BudgetTracker, Degradation, QueryBudget
    from repro.mdx.evaluator import evaluate_query, execute
    from repro.mdx.lexer import tokenize
    from repro.mdx.parser import parse_query
    from repro.mdx.result import AxisTuple, MdxResult

__all__ = [
    "MdxQuery",
    "PerspectiveClause",
    "ChangesClause",
    "BudgetTracker",
    "Degradation",
    "QueryBudget",
    "evaluate_query",
    "execute",
    "tokenize",
    "parse_query",
    "AxisTuple",
    "MdxResult",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.mdx.ast_nodes": ("MdxQuery", "PerspectiveClause", "ChangesClause"),
        "repro.mdx.budget": ("BudgetTracker", "Degradation", "QueryBudget"),
        "repro.mdx.evaluator": ("evaluate_query", "execute"),
        "repro.mdx.lexer": ("tokenize",),
        "repro.mdx.parser": ("parse_query",),
        "repro.mdx.result": ("AxisTuple", "MdxResult"),
    },
)
