"""Scoped rules for derived cells (Sec. 2 of the paper).

Rules specify how derived cell values are computed from other cells.  The
paper's examples::

    (1) Margin = Sales - COGS
    (2) For Market = West:  Margin = Sales - COGS
    (3) For Market = East:  Margin = 0.93 * Sales - COGS
    (4) Margin% = Margin / COGS * 100
    (5) rollup of Margin over Time children

A :class:`Rule` binds a *target member* of one dimension (usually the
measures dimension) to a formula, optionally restricted by a *scope* — a
mapping ``dimension name -> member`` that the cell's address must fall
under.  When several rules match a cell, the most specific (largest scope)
wins; among equally specific rules the one defined last wins, mirroring
calc-script override order in Essbase.

Cells whose coordinates are non-leaf on dimensions other than the rule's
target dimension are computed by evaluating the formula *at the aggregate*:
each operand is resolved via the cube's :meth:`effective_value`, which
rolls up non-leaf operands first.  This keeps ratio measures like
``Margin%`` correct at aggregates (sum-of-ratios would not be).

Cells with no matching formula rule fall back to the engine's default
aggregator (sum) over their descendant leaf scope.
"""

from __future__ import annotations

from typing import Mapping, Sequence, TypeAlias

from repro.errors import RuleError
from repro.olap.formula import Expr, parse_formula
from repro.olap.missing import Missing
from repro.olap.schema import Address, CubeSchema

__all__ = ["Rule", "RuleEngine"]

CellValue: TypeAlias = "float | Missing"


class Rule:
    """A formula rule for one target member, with an optional scope.

    Parameters
    ----------
    target:
        Member whose cells this rule defines (e.g. ``"Margin"``).
    formula:
        The right-hand side, as text (parsed) or a pre-built :class:`Expr`.
    dimension:
        Name of the dimension that ``target`` (and bare member references in
        the formula) belong to; defaults to the schema's measures dimension
        at registration time.
    scope:
        Optional ``{dimension name: member}`` restriction; the rule applies
        only to cells whose coordinate on each scoped dimension equals or
        rolls up into the given member.
    """

    def __init__(
        self,
        target: str,
        formula: str | Expr,
        dimension: str | None = None,
        scope: Mapping[str, str] | None = None,
    ) -> None:
        self.target = target
        self.expression = (
            parse_formula(formula) if isinstance(formula, str) else formula
        )
        self.dimension = dimension
        self.scope: dict[str, str] = dict(scope or {})

    @property
    def specificity(self) -> int:
        return len(self.scope)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        scope = f", scope={self.scope}" if self.scope else ""
        return f"Rule({self.target!r}{scope})"


def _coord_matches(
    schema: CubeSchema, dim_index: int, coord: str, scope_coord: str
) -> bool:
    """Whether an address coordinate falls under a scope member."""
    if coord == scope_coord:
        return True
    if schema.coordinate_is_leaf(dim_index, coord):
        return schema.is_under(dim_index, coord, scope_coord)
    dimension = schema.dimensions[dim_index]
    if schema.is_varying(dimension.name):
        # Non-leaf member of a varying dimension: use the skeleton hierarchy.
        if coord in dimension and scope_coord in dimension:
            return dimension.member(coord).is_descendant_of(
                dimension.member(scope_coord)
            )
        return False
    return dimension.member(coord).is_descendant_of(dimension.member(scope_coord))


class RuleEngine:
    """Evaluates derived cells against an ordered rule set.

    The engine is attached to a :class:`~repro.olap.cube.Cube` (its
    ``rules`` attribute); :meth:`evaluate_cell` is re-entrant across member
    references with cycle detection.
    """

    def __init__(self, schema: CubeSchema) -> None:
        self.schema = schema
        self._rules: list[Rule] = []
        self._measures_name = self._default_rule_dimension()
        self._in_flight: set[tuple[Address, str]] = set()

    def _default_rule_dimension(self) -> str | None:
        measures = self.schema.measures_dimension()
        return measures.name if measures is not None else None

    # -- registration -----------------------------------------------------------

    def add_rule(self, rule: Rule) -> Rule:
        if rule.dimension is None:
            if self._measures_name is None:
                raise RuleError(
                    "rule has no dimension and the schema has no measures "
                    "dimension to default to"
                )
            rule.dimension = self._measures_name
        self.schema.dim_index(rule.dimension)  # validates
        for dim_name in rule.scope:
            self.schema.dim_index(dim_name)
        self._rules.append(rule)
        return rule

    def define(
        self,
        target: str,
        formula: str,
        dimension: str | None = None,
        scope: Mapping[str, str] | None = None,
    ) -> Rule:
        """Parse and register a rule in one call."""
        return self.add_rule(Rule(target, formula, dimension, scope))

    @property
    def rules(self) -> tuple[Rule, ...]:
        return tuple(self._rules)

    @property
    def rolls_up(self) -> bool:
        """Whether every cell is what it is with no engine: no formula
        rule, so every derived cell is the sum of its scope."""
        return not self._rules

    # -- matching -----------------------------------------------------------------

    def _matching_rule(self, address: Address) -> Rule | None:
        best: Rule | None = None
        best_key = (-1, -1)
        for order, rule in enumerate(self._rules):
            dim_index = self.schema.dim_index(rule.dimension)  # type: ignore[arg-type]
            if address[dim_index] != rule.target:
                continue
            if not all(
                _coord_matches(
                    self.schema,
                    self.schema.dim_index(dim_name),
                    address[self.schema.dim_index(dim_name)],
                    scope_coord,
                )
                for dim_name, scope_coord in rule.scope.items()
            ):
                continue
            key = (rule.specificity, order)
            if key > best_key:
                best, best_key = rule, key
        return best

    def has_rule_for(self, cube: "object", address: Sequence[str]) -> bool:
        addr = self.schema.validate_address(address)
        return self._matching_rule(addr) is not None

    # -- evaluation ----------------------------------------------------------------

    def evaluate_cell(self, cube: "object", address: Sequence[str]) -> CellValue:
        """Value of a derived cell: matching formula rule, else rollup."""
        addr = self.schema.validate_address(address)
        rule = self._matching_rule(addr)
        if rule is None:
            return cube.rollup(addr)  # type: ignore[attr-defined]
        guard = (addr, rule.target)
        if guard in self._in_flight:
            raise RuleError(
                f"cyclic rule dependency while evaluating {rule.target!r} "
                f"at {addr!r}"
            )
        self._in_flight.add(guard)
        try:
            dim_index = self.schema.dim_index(rule.dimension)  # type: ignore[arg-type]

            def resolve(member: str) -> CellValue:
                operand_addr = list(addr)
                operand_addr[dim_index] = member
                return cube.effective_value(tuple(operand_addr))  # type: ignore[attr-defined]

            return rule.expression.evaluate(resolve)
        finally:
            self._in_flight.discard(guard)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RuleEngine({len(self._rules)} rules)"
