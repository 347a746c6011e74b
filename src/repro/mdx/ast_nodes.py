"""AST for the extended MDX dialect.

Set-valued expressions evaluate to lists of *tuples*; a tuple is a mapping
from dimension name to a coordinate.  Member paths keep their raw part
lists (``Organization.[FTE].[Joe]`` → ``("Organization", "FTE", "Joe")``)
and are resolved against the warehouse by the evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mdx.span import SourceSpan

__all__ = [
    "SetExpr",
    "MemberPath",
    "TupleExpr",
    "SetLiteral",
    "FilterExpr",
    "OrderExpr",
    "ChildrenExpr",
    "MembersExpr",
    "LevelsMembersExpr",
    "DescendantsExpr",
    "CrossJoinExpr",
    "UnionExpr",
    "HeadExpr",
    "TailExpr",
    "AxisSpec",
    "PerspectiveClause",
    "ChangeSpec",
    "ChangesClause",
    "MdxQuery",
]


class SetExpr:
    """Base class for set-valued expressions."""


@dataclass(frozen=True)
class MemberPath(SetExpr):
    """A (possibly dotted) member reference, e.g. Organization.[FTE].[Joe].

    ``span`` is the source position of the first path component; it is
    excluded from equality/hashing so paths still compare by content.
    """

    parts: tuple[str, ...]
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def display(self) -> str:
        return ".".join(f"[{p}]" for p in self.parts)


@dataclass(frozen=True)
class TupleExpr(SetExpr):
    """A tuple of member references: ([Current], [Local], ...)."""

    members: tuple[MemberPath, ...]


@dataclass(frozen=True)
class SetLiteral(SetExpr):
    """{ elem, elem, ... } — elements are any set expressions."""

    elements: tuple[SetExpr, ...]


@dataclass(frozen=True)
class ChildrenExpr(SetExpr):
    """m.Children — hierarchy children, or contents of a named set."""

    base: MemberPath


@dataclass(frozen=True)
class MembersExpr(SetExpr):
    """d.Members — every member of a dimension (or below a member)."""

    base: MemberPath


@dataclass(frozen=True)
class LevelsMembersExpr(SetExpr):
    """d.Levels(n).Members — members of a dimension at level n (0=leaves)."""

    base: MemberPath
    level: int


@dataclass(frozen=True)
class DescendantsExpr(SetExpr):
    """Descendants(m, depth, flag) — Fig. 10 uses
    ``Descendants([Period], 1, self_and_after)``."""

    base: MemberPath
    depth: int = 0
    flag: str = "self"


@dataclass(frozen=True)
class CrossJoinExpr(SetExpr):
    left: SetExpr
    right: SetExpr


@dataclass(frozen=True)
class UnionExpr(SetExpr):
    left: SetExpr
    right: SetExpr


@dataclass(frozen=True)
class HeadExpr(SetExpr):
    base: SetExpr
    count: int


@dataclass(frozen=True)
class TailExpr(SetExpr):
    base: SetExpr
    count: int


@dataclass(frozen=True)
class FilterExpr(SetExpr):
    """Filter(set, (m1, m2, ...) relop number) — keeps set positions whose
    cell value under the condition tuple satisfies the comparison.  This is
    the MDX surface form of the paper's value-predicate selection
    (σ with value restrictions, Sec. 4.1)."""

    base: SetExpr
    condition: TupleExpr
    relop: str  # one of < <= > >= = <>
    threshold: float


@dataclass(frozen=True)
class OrderExpr(SetExpr):
    """Order(set, (tuple) [, ASC|DESC]) — sort set positions by the cell
    value under the condition tuple.  ⊥ cells sort last in either
    direction (they have no value to compare)."""

    base: SetExpr
    condition: TupleExpr
    descending: bool = False


@dataclass(frozen=True)
class AxisSpec:
    """One query axis: a set expression, its axis name, and display
    properties (``DIMENSION PROPERTIES [Department]``)."""

    expr: SetExpr
    axis: str  # "columns" | "rows" | "axis2", ...
    properties: tuple[MemberPath, ...] = ()
    #: NON EMPTY: drop axis positions whose cells are all ⊥
    non_empty: bool = False
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PerspectiveClause:
    """WITH PERSPECTIVE {(p1), ..., (pk)} FOR <dim> <semantics> <mode>."""

    perspectives: tuple[str, ...]
    dimension: str
    semantics: str = "static"  # Semantics enum value name (lowered)
    mode: str = "non_visual"
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ChangeSpec:
    """One positive-change tuple (m, o, n, t)."""

    member: MemberPath
    old_parent: str
    new_parent: str
    moment: str
    #: when True, `member` denotes a set (e.g. [FTE].Children) and the
    #: change applies to each element (Sec. 3.4).
    expand: bool = False
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ChangesClause:
    """WITH CHANGES {(m, o, n, t), ...} FOR <dim> <mode>."""

    changes: tuple[ChangeSpec, ...]
    dimension: str | None = None
    mode: str = "non_visual"
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class MdxQuery:
    axes: tuple[AxisSpec, ...]
    cube: tuple[str, ...]  # e.g. ("App", "Db")
    slicer: TupleExpr | None = None
    perspective: PerspectiveClause | None = None
    changes: ChangesClause | None = None
    #: query-scoped named sets: WITH SET [Name] AS {...}
    named_sets: tuple[tuple[str, SetExpr], ...] = ()
    #: span of the FROM-clause cube reference
    cube_span: SourceSpan | None = field(default=None, compare=False, repr=False)
