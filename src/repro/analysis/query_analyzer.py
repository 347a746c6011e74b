"""Static semantic analysis of parsed extended-MDX queries.

The analyzer runs on the output of :func:`repro.mdx.parser.parse_query`
*before any cube data is read*: every check below consults only schema
metadata — dimension hierarchies, varying-dimension instance tables,
named-set definitions, and the validity-set transform Φ (a pure metadata
operator).  It mirrors the evaluator's acceptance logic exactly, so an
error-level diagnostic means the query is guaranteed to fail (or to
produce only ⊥) at execution time.

The paper's precondition surface (Sec. 3–4) maps onto the checks as:

* perspectives P must be leaves ("moments") of the parameter dimension
  (``WIF102``), with semantics compatible with its ordering (``WIF103``);
* relocate ρ only moves values between *related* member instances —
  a change tuple (m, o, n, t) must name m's actual parent o at t
  (``WIF202``), a non-leaf target n (``WIF203``), and the change relation
  R must be consistent (``WIF204``) and acyclic (``WIF205``);
* visual and non-visual modes cannot be mixed within one scenario
  (``WIF105``);
* a member-instance reference whose output validity set is empty under
  the chosen perspective addresses only ⊥ cells (``WIF301``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.analysis.diagnostics import DiagnosticReport, Severity
from repro.core.operators import ChangeTuple, step_change
from repro.core.perspective import PerspectiveSet, Semantics
from repro.core.scenario import expand_instances, phi_validity
from repro.errors import (
    AmbiguousMemberError,
    MdxEvaluationError,
    MdxSyntaxError,
    SchemaError,
)
from repro.mdx.ast_nodes import (
    ChangesClause,
    ChildrenExpr,
    CrossJoinExpr,
    DescendantsExpr,
    FilterExpr,
    HeadExpr,
    LevelsMembersExpr,
    MdxQuery,
    MemberPath,
    MembersExpr,
    OrderExpr,
    PerspectiveClause,
    SetExpr,
    SetLiteral,
    TailExpr,
    TupleExpr,
    UnionExpr,
)
from repro.mdx.parser import parse_query
from repro.olap.dimension import Dimension, Member
from repro.olap.instances import VaryingDimension

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.warehouse import Warehouse

__all__ = ["analyze_query", "QueryAnalyzer"]

_DESCENDANTS_FLAGS = frozenset(
    ("self", "self_and_after", "after", "self_and_before", "before")
)


def analyze_query(warehouse: "Warehouse", query: "MdxQuery | str") -> DiagnosticReport:
    """Analyze a query (text or parsed) against a warehouse's metadata.

    Never raises on malformed input: syntax errors come back as a
    ``WIF000`` diagnostic, everything else as the codes documented in
    ``docs/static_analysis.md``.
    """
    if isinstance(query, str):
        try:
            query = parse_query(query)
        except MdxSyntaxError as exc:
            report = DiagnosticReport()
            report.add("WIF000", exc.raw_message, exc.span)
            return report
    return QueryAnalyzer(warehouse, query).run()


class QueryAnalyzer:
    """One analysis run over one parsed query."""

    def __init__(self, warehouse: "Warehouse", query: MdxQuery) -> None:
        self.warehouse = warehouse
        self.schema = warehouse.schema
        self.query = query
        self.report = DiagnosticReport()
        self.query_sets: dict[str, SetExpr] = dict(query.named_sets)
        #: per-dimension view of the varying structure (hypothetical after
        #: a valid changes clause)
        self.varying_view: dict[str, VaryingDimension] = dict(self.schema.varying)
        #: full paths surviving the perspective, per member (lazy); None =
        #: no (valid) perspective clause
        self._pset: PerspectiveSet | None = None
        self._semantics: Semantics | None = None
        self._scenario_dim: str | None = None
        self._has_scenario = False

    # -- entry point --------------------------------------------------------

    def run(self) -> DiagnosticReport:
        self._check_cube_name()
        self._check_axes_shape()
        self._check_named_set_recursion()
        if self.query.changes is not None:
            self._check_changes(self.query.changes)
        if self.query.perspective is not None:
            self._check_perspective(self.query.perspective)
        self._check_mode_conflict()
        self._check_slicer_shadowing()
        # Expression walks come last so they see the scenario context.
        for _name, body in self.query.named_sets:
            self._walk(body, in_tuple=False)
        for axis in self.query.axes:
            self._walk(axis.expr, in_tuple=False)
            for prop in axis.properties:
                # The evaluator matches properties by name and silently
                # ignores unknown ones, so this is a warning, not an error.
                if self._resolve_quiet(prop) is None:
                    self.report.add(
                        "WIF002",
                        f"DIMENSION PROPERTIES reference {prop.display()} "
                        "does not resolve and will be ignored",
                        prop.span,
                        severity=Severity.WARNING,
                    )
        if self.query.slicer is not None:
            self._walk_tuple(self.query.slicer)
        return self.report.sorted()

    # -- query shape --------------------------------------------------------

    def _check_cube_name(self) -> None:
        ref = self.query.cube
        acceptable = {self.warehouse.name} | self.warehouse.aliases
        if not ref or not any(part in acceptable for part in ref):
            self.report.add(
                "WIF001",
                f"query addresses cube {'.'.join(ref)!r}; this warehouse is "
                f"{self.warehouse.name!r}",
                self.query.cube_span,
            )

    def _check_axes_shape(self) -> None:
        seen: dict[str, int] = {}
        for axis in self.query.axes:
            seen[axis.axis] = seen.get(axis.axis, 0) + 1
            if seen[axis.axis] == 2:
                self.report.add(
                    "WIF004",
                    f"axis {axis.axis!r} is bound more than once; the later "
                    "binding would silently win",
                    axis.span,
                )
        if "columns" not in seen:
            self.report.add(
                "WIF005", "a query must place a set ON COLUMNS",
                self.query.axes[0].span if self.query.axes else None,
            )
        if len(self.query.axes) > 2:
            self.report.add(
                "WIF005",
                "only COLUMNS and ROWS axes are supported in this "
                "implementation",
                self.query.axes[2].span,
            )

    def _check_named_set_recursion(self) -> None:
        def references(expr: SetExpr) -> set[str]:
            refs: set[str] = set()
            if isinstance(expr, MemberPath):
                if len(expr.parts) == 1 and expr.parts[0] in self.query_sets:
                    refs.add(expr.parts[0])
            elif isinstance(expr, SetLiteral):
                for element in expr.elements:
                    refs |= references(element)
            elif isinstance(expr, (CrossJoinExpr, UnionExpr)):
                refs |= references(expr.left) | references(expr.right)
            elif isinstance(expr, (HeadExpr, TailExpr, FilterExpr, OrderExpr)):
                refs |= references(expr.base)
            return refs

        flagged: set[str] = set()
        for name in self.query_sets:
            stack = [name]
            seen: set[str] = set()
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                for ref in references(self.query_sets[current]):
                    if ref == name and name not in flagged:
                        flagged.add(name)
                        self.report.add(
                            "WIF006",
                            f"named set {name!r} is defined in terms of itself",
                        )
                    stack.append(ref)

    # -- scenario clauses ---------------------------------------------------

    def _check_perspective(self, clause: PerspectiveClause) -> None:
        if clause.dimension not in self.schema.dim_names():
            self.report.add(
                "WIF101",
                f"perspective dimension {clause.dimension!r} is not a "
                "dimension of this cube",
                clause.span,
            )
            return
        if not self.schema.is_varying(clause.dimension):
            self.report.add(
                "WIF101",
                f"perspective dimension {clause.dimension!r} is not varying",
                clause.span,
            )
            return
        varying = self.varying_view[clause.dimension]
        parameter = varying.parameter
        bad_points = False
        for point in clause.perspectives:
            try:
                varying.moment_index(point)
            except (SchemaError, MdxEvaluationError):
                bad_points = True
                self.report.add(
                    "WIF102",
                    f"perspective point {point!r} is not a leaf (moment) of "
                    f"the parameter dimension {parameter.name!r}",
                    clause.span,
                )
        duplicates = {
            p for p in clause.perspectives if clause.perspectives.count(p) > 1
        }
        if duplicates:
            self.report.add(
                "WIF104",
                "duplicate perspective points "
                f"{sorted(duplicates)} have no effect",
                clause.span,
            )
        semantics = Semantics(clause.semantics)
        if semantics.is_dynamic and not parameter.ordered:
            self.report.add(
                "WIF103",
                f"{semantics.value} semantics requires an ordered parameter "
                f"dimension; {parameter.name!r} is unordered",
                clause.span,
            )
            return
        if bad_points:
            return
        self._pset = PerspectiveSet.from_names(
            dict.fromkeys(clause.perspectives), varying
        )
        self._semantics = semantics
        self._scenario_dim = clause.dimension
        self._has_scenario = True

    def _check_changes(self, clause: ChangesClause) -> None:
        dimension: str | None = clause.dimension
        if dimension is not None and dimension not in self.schema.dim_names():
            self.report.add(
                "WIF206",
                f"changes clause names unknown dimension {dimension!r}",
                clause.span,
            )
            return
        if dimension is not None and not self.schema.is_varying(dimension):
            self.report.add(
                "WIF101",
                f"changes dimension {dimension!r} is not varying",
                clause.span,
            )
            return

        # Resolve each change tuple to concrete (member, old, new, moment)
        # rows, expanding member.Children as the evaluator does.
        rows: list[tuple[ChangeTuple, object]] = []
        failed = False
        for spec in clause.changes:
            try:
                dim, member = self.warehouse.resolve_member(spec.member.parts)
            except AmbiguousMemberError as exc:
                self.report.add("WIF003", str(exc), spec.member.span or spec.span)
                failed = True
                continue
            except MdxEvaluationError as exc:
                self.report.add("WIF201", str(exc), spec.member.span or spec.span)
                failed = True
                continue
            if dimension is None:
                dimension = dim.name
                if not self.schema.is_varying(dimension):
                    self.report.add(
                        "WIF101",
                        f"changes dimension {dimension!r} is not varying",
                        clause.span,
                    )
                    return
            elif dim.name != dimension:
                self.report.add(
                    "WIF206",
                    f"change tuple member {spec.member.display()} belongs to "
                    f"{dim.name!r}, clause names {dimension!r}",
                    spec.span,
                )
                failed = True
                continue
            members = (
                [child.name for child in member.children]
                if spec.expand
                else [member.name]
            )
            varying = self.varying_view[dimension]
            for name in members:
                row_ok = True
                for parent_role, parent_name in (
                    ("old", spec.old_parent), ("new", spec.new_parent)
                ):
                    if parent_name not in varying.dimension:
                        self.report.add(
                            "WIF201",
                            f"change tuple {parent_role} parent "
                            f"{parent_name!r} does not exist in dimension "
                            f"{dimension!r}",
                            spec.span,
                        )
                        row_ok = False
                try:
                    varying.moment_index(spec.moment)
                except SchemaError:
                    self.report.add(
                        "WIF201",
                        f"change moment {spec.moment!r} is not a leaf of the "
                        f"parameter dimension "
                        f"{varying.parameter.name!r}",
                        spec.span,
                    )
                    row_ok = False
                if row_ok:
                    change = ChangeTuple(
                        name, spec.old_parent, spec.new_parent, spec.moment
                    )
                    rows.append((change, spec.span))
                else:
                    failed = True
        if dimension is None:
            self.report.add(
                "WIF206", "cannot infer the changes dimension", clause.span
            )
            return
        if failed:
            return
        self._apply_changes(dimension, rows)

    def _apply_changes(
        self,
        dimension: str,
        rows: Sequence[tuple[ChangeTuple, object]],
    ) -> None:
        """S's structure half, tuple by tuple with the runtime's own
        stepping rule (``operators.step_change``), classifying each
        refusal instead of raising on the first."""
        varying = self.varying_view[dimension]
        if not varying.parameter.ordered:
            self.report.add(
                "WIF103",
                "positive changes require an ordered parameter dimension; "
                f"{varying.parameter.name!r} is unordered",
            )
            return
        hypo = varying.copy()
        # Stable sort: same-moment tuples keep their clause order, exactly
        # as the runtime applies them.
        ordered = sorted(rows, key=lambda row: hypo.moment_index(row[0].moment))
        applied: set[tuple[str, str]] = set()
        ok = True
        for change, span in ordered:
            member, moment = change.member, change.moment
            refusal = step_change(hypo, change)
            if refusal is None:
                applied.add((member, moment))
                continue
            ok = False
            kind, message = refusal
            if kind == "illegal":
                code = "WIF203"
            elif (member, moment) in applied:
                # A second tuple for the same (member, moment) whose old
                # parent does not chain onto the first one's new parent:
                # the relation R is inconsistent, not merely stale.
                code = "WIF204"
                message = (
                    f"conflicting change tuples for member {member!r} at "
                    f"moment {moment!r}: {message}"
                )
            else:
                code = "WIF202"
            self.report.add(code, message, span)  # type: ignore[arg-type]
        # Cycle scan: the hypothetical instance table S reads walks every
        # path — exactly the runtime check, done eagerly on metadata only.
        if applied:
            try:
                hypo.instance_table()
            except SchemaError as exc:
                self.report.add("WIF205", str(exc))
                ok = False
        if ok:
            self.varying_view[dimension] = hypo
            self._scenario_dim = self._scenario_dim or dimension
            self._has_scenario = True

    def _check_mode_conflict(self) -> None:
        perspective = self.query.perspective
        changes = self.query.changes
        if perspective is None or changes is None:
            return
        if perspective.mode != changes.mode:
            self.report.add(
                "WIF105",
                f"PERSPECTIVE is {perspective.mode} but CHANGES is "
                f"{changes.mode}; visual and non-visual modes cannot be "
                "mixed within one scenario",
                perspective.span or changes.span,
            )

    def _check_slicer_shadowing(self) -> None:
        if self.query.slicer is None:
            return
        axis_dims: dict[str, str] = {}
        for axis in self.query.axes:
            for dim_name in self._dimensions_of(axis.expr):
                axis_dims.setdefault(dim_name, axis.axis)
        for path in self.query.slicer.members:
            dim = self._resolve_quiet(path)
            if dim is not None and dim.name in axis_dims:
                self.report.add(
                    "WIF302",
                    f"slicer coordinate {path.display()} on dimension "
                    f"{dim.name!r} is shadowed by the {axis_dims[dim.name]} "
                    "axis; axis coordinates override the slicer",
                    path.span,
                )

    def _dimensions_of(self, expr: SetExpr) -> set[str]:
        dims: set[str] = set()
        if isinstance(expr, MemberPath):
            if len(expr.parts) == 1 and expr.parts[0] in self.query_sets:
                return self._dimensions_of(self.query_sets[expr.parts[0]])
            dim = self._resolve_quiet(expr)
            if dim is not None:
                dims.add(dim.name)
        elif isinstance(expr, TupleExpr):
            for path in expr.members:
                dims |= self._dimensions_of(path)
        elif isinstance(expr, SetLiteral):
            for element in expr.elements:
                dims |= self._dimensions_of(element)
        elif isinstance(expr, (ChildrenExpr, MembersExpr, LevelsMembersExpr,
                               DescendantsExpr)):
            dims |= self._dimensions_of(expr.base)
        elif isinstance(expr, (CrossJoinExpr, UnionExpr)):
            dims |= self._dimensions_of(expr.left)
            dims |= self._dimensions_of(expr.right)
        elif isinstance(expr, (HeadExpr, TailExpr, FilterExpr, OrderExpr)):
            dims |= self._dimensions_of(expr.base)
        return dims

    # -- member resolution ---------------------------------------------------

    def _resolve_quiet(self, path: MemberPath) -> Dimension | None:
        try:
            dim, _member = self.warehouse.resolve_member(path.parts)
            return dim
        except MdxEvaluationError:
            return None

    def _resolve(self, path: MemberPath) -> tuple[Dimension, Member] | None:
        """Resolve a member path, reporting WIF002/WIF003 on failure."""
        try:
            return self.warehouse.resolve_member(path.parts)
        except AmbiguousMemberError as exc:
            self.report.add("WIF003", str(exc), path.span)
        except MdxEvaluationError as exc:
            self.report.add("WIF002", str(exc), path.span)
        return None

    def _surviving_instances(
        self, dim: Dimension, member: Member, ancestors: Sequence[str]
    ) -> "list[str] | None":
        """The instance paths a varying leaf member expands to — the
        evaluator's own expansion (``expand_instances``) over Φ of the
        member's instances, on metadata only — or ``None`` when the
        reference binds as a plain member (non-varying, or non-leaf).

        Structural: the runtime expands members *holding data* only, so
        it lists a subset of these."""
        name = dim.name
        if name not in self.varying_view or not member.is_leaf:
            return None
        varying = self.varying_view[name]
        surviving = None
        if self._pset is not None and name == self._scenario_dim:
            surviving = frozenset(
                phi_validity(
                    varying, [member.name], self._pset, self._semantics or Semantics.STATIC
                )
            )
        return [
            instance.full_path
            for instance in expand_instances(
                varying, member.name, ancestors, surviving
            )
        ]

    def _check_member_reference(self, path: MemberPath, in_tuple: bool) -> None:
        if len(path.parts) == 1:
            name = path.parts[0]
            if name in self.query_sets:
                return  # body analyzed once in run()
            named = self.warehouse.named_set(name)
            if named is not None:
                if in_tuple:
                    self._check_named_set_in_tuple(path, named.members)
                return
        resolved = self._resolve(path)
        if resolved is None:
            return
        dim, member = resolved
        ancestors = tuple(a for a in path.parts[:-1] if a != dim.name)
        paths = self._surviving_instances(dim, member, ancestors)
        if paths is None:
            return
        if in_tuple:
            self._check_one_instance(path, len(paths))
        elif not paths:
            scenario = " under the chosen scenario" if self._has_scenario else ""
            self.report.add(
                "WIF301",
                f"{path.display()} has no valid member instance{scenario}; "
                "every cell it addresses is ⊥",
                path.span,
            )

    def _check_one_instance(self, path: MemberPath, count: int) -> None:
        """The evaluator requires exactly one binding per tuple component."""
        if count == 0:
            # Structural zero implies runtime zero (the runtime lists a
            # subset of the structural instances): a hard failure there,
            # with or without a scenario.
            self.report.add(
                "WIF303",
                f"tuple component {path.display()} matches no member instance",
                path.span,
            )
        elif count > 1:
            # Without a scenario this is exactly the evaluator's failure;
            # with one, data filtering may still disambiguate at run time.
            severity = None if not self._has_scenario else Severity.WARNING
            self.report.add(
                "WIF303",
                f"tuple component {path.display()} is ambiguous "
                f"({count} instances); name the instance via its parent",
                path.span,
                severity=severity,
            )

    def _check_named_set_in_tuple(
        self, path: MemberPath, members: Sequence[str]
    ) -> None:
        total = 0
        for name in members:
            try:
                dim, member = self.warehouse.resolve_member((name,))
            except MdxEvaluationError:
                continue
            paths = self._surviving_instances(dim, member, ())
            total += 1 if paths is None else len(paths)
        self._check_one_instance(path, total)

    # -- expression walk ------------------------------------------------------

    def _walk_tuple(self, expr: TupleExpr) -> None:
        for path in expr.members:
            self._check_member_reference(path, in_tuple=True)

    def _walk(self, expr: SetExpr, in_tuple: bool) -> None:
        if isinstance(expr, MemberPath):
            self._check_member_reference(expr, in_tuple)
        elif isinstance(expr, TupleExpr):
            self._walk_tuple(expr)
        elif isinstance(expr, SetLiteral):
            for element in expr.elements:
                self._walk(element, in_tuple)
        elif isinstance(expr, ChildrenExpr):
            base = expr.base
            if len(base.parts) == 1 and (
                base.parts[0] in self.query_sets
                or self.warehouse.named_set(base.parts[0]) is not None
            ):
                return
            self._resolve(base)
        elif isinstance(expr, (MembersExpr, LevelsMembersExpr)):
            self._resolve(expr.base)
        elif isinstance(expr, DescendantsExpr):
            self._resolve(expr.base)
            if expr.flag not in _DESCENDANTS_FLAGS:
                self.report.add(
                    "WIF007",
                    f"unknown Descendants flag {expr.flag!r}; expected one "
                    f"of {sorted(_DESCENDANTS_FLAGS)}",
                    expr.base.span,
                )
        elif isinstance(expr, (CrossJoinExpr, UnionExpr)):
            self._walk(expr.left, in_tuple)
            self._walk(expr.right, in_tuple)
        elif isinstance(expr, (HeadExpr, TailExpr)):
            self._walk(expr.base, in_tuple)
        elif isinstance(expr, (FilterExpr, OrderExpr)):
            self._walk(expr.base, in_tuple)
            self._walk_tuple(expr.condition)
