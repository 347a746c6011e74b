"""Evaluation of extended-MDX queries against a warehouse.

The pipeline follows the paper's semantics exactly:

1. The WITH clause (if any) is turned into a scenario chain
   (:func:`build_scenarios`: :class:`~repro.core.scenario.PositiveScenario`
   then :class:`~repro.core.scenario.NegativeScenario`).  The chain *is*
   the query's plan: EXPLAIN prints what the same scenario objects say of
   themselves.
2. Axis set expressions are evaluated to lists of tuples, under the
   chain's *structure half* (Φ and R on metadata; no cell moved).  Leaf
   members of a varying dimension expand to their member *instances* —
   restricted to instances surviving the scenario (non-empty output
   validity).
3. The coordinates the cells name are the query's *footprint*; the chain
   is applied — by :func:`~repro.core.scenario.apply_scenarios`, the one
   runner, behind the scenario cache — to the base rows that can reach
   one of those cells (Theorem 4.1 applies it "to the result of the core
   query", σ first), yielding a perspective cube (WhatIfCube).  A
   NON_VISUAL last stage moves its leaves only if some cell lies at leaf
   level on every dimension (``GridLayout.reads_leaves``): every other
   cell is its input cube's.
4. Each result cell is the perspective cube's value at the address formed
   by the slicer, the axis coordinates, and dimension roots for every
   unmentioned dimension (the Essbase default member) — a row coordinate
   overriding the slicer, a column coordinate both.  The address is
   worked out once per grid, by :class:`~repro.perf.batch.GridLayout`
   when the axes resolve: each cell's address, its leaf test, the
   footprint of step 3.  The value is the cube's own cell rule
   (``effective_value``); a plain roll-up cube's grid is filled by blocks
   that give the same cells.

Theorem 4.1 gives a query one meaning whoever executes it, so there is
one pipeline — **prepare → resolve → fill → finish** — and executors
differ only in *fill*.  :func:`prepare` parses and analyzes; steps 1–2
are *resolve* (:meth:`Prepared.resolve`: :class:`_Context`,
:func:`resolve_query`); steps 3–4 are *fill*: ``perf.batch.evaluate_grid``
in :func:`evaluate_query` — by blocks for a plain roll-up cube, else by
``perf.batch.evaluate_cells``, the one per-cell fill, which
``naive_mode()`` also takes with addresses it composes itself —
scatter/gather over the shard pool in
:class:`~repro.service.service.QueryService`, nothing in EXPLAIN;
:func:`finish_query` prunes NON EMPTY axes and builds the result.  Whoever
reads a scenario's cells asks :class:`_Context` for the view of *its*
cells (:meth:`_Context.view_under`, by way of :meth:`_Context.view_of`
the layouts of the grid, or of the blocks, it fills).

Resolve reads the **prepared plan** (:class:`Plan`).  By Theorem 4.1 a
query's algebra expression depends on its text and the cube's
*structure*, not on its cell values, so the warehouse's ``plan_cache``
keeps, per text, the analyzer's report and the resolved axes, slicer,
base coordinates and grid layout, versioned by
:meth:`~repro.warehouse.Warehouse.plan_version` (the cube's structure
generation, the schema's, the named sets').  A value write keeps a plan;
a leaf insert or delete, a schema edit or a named-set edit drops it.  Axes
that read cell values (a FILTER or ORDER condition, wherever it sits) are
resolved on every call — budget charges and the ``mdx.cell`` failpoint
fire there as without a plan — and only their analysis is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Sequence, TypeAlias

from repro.core.operators import ChangeTuple
from repro.core.perspective import Mode, Semantics
from repro.core.scenario import (
    AppliedChain,
    Footprint,
    NegativeScenario,
    PositiveScenario,
    WhatIfCube,
    apply_chain,
    chain_structure,
    expand_instances,
)
from repro.errors import MdxEvaluationError
from repro.faults import inject_io_fault, register_failpoint
from repro.mdx.budget import BudgetTracker, QueryBudget
from repro.mdx.ast_nodes import (
    AxisSpec,
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
    SetExpr,
    SetLiteral,
    TailExpr,
    TupleExpr,
    UnionExpr,
)
from repro.mdx.parser import parse_query
from repro.mdx.result import AxisTuple, MdxResult
from repro.obs.trace import trace_span
from repro.olap.dimension import Dimension, Member
from repro.perf import config as perf_config
from repro.perf.batch import GridLayout, evaluate_cells, evaluate_grid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.diagnostics import DiagnosticReport

__all__ = [
    "Plan",
    "Prepared",
    "build_scenarios",
    "evaluate_query",
    "execute",
    "finish_query",
    "prepare",
    "resolve_query",
]

# A coordinate binding: (dimension name, coordinate, display label)
Binding = tuple[str, str, str]
# One rectangle of a result grid: (row tuples, column tuples)
GridBlock = tuple[Sequence[AxisTuple], Sequence[AxisTuple]]

FP_MDX_CELL = register_failpoint("mdx.cell")


def _check_shape(warehouse, query: MdxQuery) -> None:
    """Refuse an axis line-up this implementation does not evaluate, or a
    FROM clause naming another cube — before any scenario work."""
    if not query.axes:
        raise MdxEvaluationError("a query needs at least one axis")
    if len(query.axes) > 2:
        raise MdxEvaluationError(
            "only COLUMNS and ROWS axes are supported in this implementation"
        )
    seen_axes: set[str] = set()
    for axis in query.axes:
        if axis.axis in seen_axes:
            raise MdxEvaluationError(
                f"axis {axis.axis!r} is bound more than once"
            )
        seen_axes.add(axis.axis)
    warehouse.check_cube_name(query.cube)


def build_scenarios(
    warehouse, query: MdxQuery
) -> "list[NegativeScenario | PositiveScenario]":
    """The query's WITH clause as the scenario chain that executes it, in
    application order: CHANGES first, then PERSPECTIVE views the
    hypothetical history.  Reads warehouse metadata only (a ``.Children``
    change tuple expands to one tuple per child, an unnamed CHANGES
    dimension is the members' own), so EXPLAIN can ask the scenarios to
    describe themselves without applying them."""
    scenarios: "list[NegativeScenario | PositiveScenario]" = []
    if query.changes is not None:
        clause = query.changes
        dimension = clause.dimension
        changes: list[ChangeTuple] = []
        for spec in clause.changes:
            dim, member = warehouse.resolve_member(spec.member.parts)
            members = member.children if spec.expand else [member]
            if dimension is None:
                dimension = dim.name
            elif dimension != dim.name:
                raise MdxEvaluationError(
                    f"change tuple member {spec.member.display()} belongs to "
                    f"{dim.name!r}, clause names {dimension!r}"
                )
            for child in members:
                changes.append(
                    ChangeTuple(
                        child.name, spec.old_parent, spec.new_parent, spec.moment
                    )
                )
        if dimension is None:
            raise MdxEvaluationError("cannot infer the changes dimension")
        scenarios.append(PositiveScenario(dimension, changes, Mode(clause.mode)))
    if query.perspective is not None:
        perspective = query.perspective
        scenarios.append(
            NegativeScenario(
                dimension=perspective.dimension,
                perspectives=list(perspective.perspectives),
                semantics=Semantics(perspective.semantics),
                mode=Mode(perspective.mode),
            )
        )
    return scenarios


#: what a grid fill returns: ``(cells, cells_skipped, stats)``
FillResult: TypeAlias = "tuple[list[list[Any]], int, dict[str, int]]"


class _Admitted:
    """A refill's budget (:meth:`_Context.fill`): it admits the first
    ``n`` cells the fill asks for and no other, and charges no budget."""

    __slots__ = ("left",)

    def __init__(self, n: int) -> None:
        self.left = n

    def charge_cell(self) -> bool:
        if not self.left:
            return False
        self.left -= 1
        return True


class _Context:
    """Evaluation context: warehouse bindings plus the query's scenario
    chain, for a query :func:`_check_shape` accepts.

    The chain has one scenario-cache entry
    (:class:`~repro.core.scenario.AppliedChain`, keyed by its
    fingerprints; Theorem 4.1 purity: same fingerprints + same base cube
    version ⇒ same result), probed once per query.  Axes resolve from the
    entry's **structure** half (:meth:`structure`: metadata, no cell
    moved); cells are read from the view of a footprint
    (:meth:`view_under`), which applies the chain to the
    rows those cells can reach unless the entry's data already covers
    them.  What the query built is stored once: by the view, or — for an
    executor that resolved and read no cell here (the shard coordinator,
    EXPLAIN) — by :meth:`keep`.
    """

    def __init__(
        self,
        warehouse,
        query: MdxQuery,
        budget: "QueryBudget | None" = None,
        scenarios: "Sequence[NegativeScenario | PositiveScenario] | None" = None,
    ) -> None:
        if scenarios is None:  # a plan hands in what a checked query built
            _check_shape(warehouse, query)
            scenarios = build_scenarios(warehouse, query)
        self.warehouse = warehouse
        self.schema = warehouse.schema
        self.query = query
        self.tracker = (
            None
            if budget is None or budget.unlimited
            else BudgetTracker(budget)
        )
        #: query-scoped named sets (WITH SET ... AS ...), by name
        self.query_sets = dict(query.named_sets)
        self._expanding_sets: set[str] = set()
        #: whether resolving met a FILTER / ORDER condition, which reads
        #: cell values: such axes are resolved on every call
        self.reads_cells = False
        self.scenarios = scenarios
        #: scenario-cache hits/misses/evictions for this one query: was
        #: the chain's entry there
        self.scenario_stats: dict[str, int] = {}
        #: the chain's entry as this query sees it, the key and version it
        #: was probed under, and whether the cache does not hold it (yet)
        self._entry: "AppliedChain | None" = None
        self._key: tuple = ()
        self._version: object = None
        self._unsaved = False
        #: the applied chain this query read cells from, once it has
        self._applied: "WhatIfCube | None" = None
        self._structure: "tuple[dict, dict] | None" = (
            None if self.scenarios else (self.schema.varying, {})
        )

    def _cache(self):
        if not perf_config.engine_enabled():
            return None
        return getattr(self.warehouse, "scenario_cache", None)

    def chain(self) -> AppliedChain:
        """The chain's entry: the cached one, or — a miss, or a hit over
        another cube object (the warehouse swapped cubes) — its structure
        half built on the base cube, data to follow."""
        if self._entry is None:
            base = self.warehouse.cube
            cache = self._cache()
            self._key = key = tuple(s.fingerprint() for s in self.scenarios)
            self._version = base.version
            hit = None if cache is None else cache.get(key, self._version)
            if hit is not None and hit.base is not base:
                cache.discard(key)
                hit = None
            if hit is not None:
                self.scenario_stats["scenario_cache_hits"] = 1
                self._entry = hit
            else:
                if cache is not None:
                    self.scenario_stats["scenario_cache_misses"] = 1
                self._entry = AppliedChain(
                    base, None, chain_structure(base, self.scenarios)
                )
                self._unsaved = True
        return self._entry

    def keep(self) -> None:
        """Store what this query built and has not stored yet, as the
        chain's one entry."""
        cache = self._cache()
        if self._unsaved and cache is not None:
            evicted = cache.put(self._key, self._version, self._entry)
            if evicted:
                self.scenario_stats["scenario_cache_evictions"] = evicted
        self._unsaved = False

    def structure(self) -> "tuple[dict, dict]":
        """Per varying dimension: the structure axes resolve under (the
        hypothetical one where S left one) and, where the chain touched
        the dimension, the instances with a non-empty output validity —
        the only ones axes list."""
        if self._structure is None:
            varying, surviving = self.chain().structure[:2]
            self._structure = ({**self.schema.varying, **varying}, surviving)
        return self._structure

    def view_under(self, named: Footprint, leaves: bool = True):
        """The cube to read the cells of a footprint from: the
        warehouse's, or the chain applied to the rows those cells can
        reach (:func:`~repro.core.scenario.apply_chain`: the entry's data
        if it covers them, else re-applied for the union and swapped in).
        Every reader of a scenario's cells comes through here.

        ``leaves``: whether some cell read lies at leaf level on every
        dimension (``GridLayout.reads_leaves``).  A NON_VISUAL last stage's
        leaves are then moved here — in the caller's scenario phase, and
        before the entry is kept, so a failed move keeps nothing — and
        otherwise not at all."""
        if not self.scenarios:
            return self.warehouse.cube
        entry = self.chain()
        applied = apply_chain(entry, self.scenarios, named)
        if leaves:
            applied.view.leaf_cube  # moves a deferred stage's leaves
        if applied is not entry:
            self._entry, self._unsaved = applied, True
        self.keep()
        self._applied = applied.view
        return applied.view

    @property
    def view(self):
        """:meth:`view_under` no restriction — the whole cube's view: what
        a FILTER / ORDER condition reads while axes still resolve."""
        return self.view_under({})

    def _holds_everything(self) -> bool:
        """Whether the chain's entry already holds the whole cube's view:
        it covers any footprint, so none needs deriving."""
        entry = self.chain()
        return entry.view is not None and not entry.named

    def view_of(self, layouts: "Sequence[GridLayout]"):
        """:meth:`view_under` the footprint of some grid layouts
        (:func:`grid_footprint`): a whole grid's, a shard's share of a
        query, or the coordinator's residue."""
        if not self.scenarios:
            return self.warehouse.cube
        named = {} if self._holds_everything() else grid_footprint(layouts)
        return self.view_under(named, any(layout.reads_leaves for layout in layouts))

    def fill_blocks(self, layouts: "Sequence[GridLayout]"):
        """The view of some blocks of a grid (:meth:`view_of`) and each
        block's cells, filled (:meth:`fill`) with no budget and no
        failpoint: a shard's share of a query, or the coordinator's
        residue."""
        view = self.view_of(layouts)
        return view, [
            self.fill(
                view, lambda v, t, f, layout=layout: evaluate_grid(v, layout, t, f), None, None
            )[0]
            for layout in layouts
        ]

    def fill(self, view, fill: "Callable[[Any, Any, str | None], FillResult]", tracker, failpoint) -> "FillResult":
        """``fill(view, tracker, failpoint)`` — a grid's ``(cells,
        cells_skipped, stats)`` — as one version of the warehouse's cube.

        A fill reads the view row by row with no lock, so a view that reads
        the warehouse's cube while it is writable — the cube itself, or a
        NON_VISUAL stage's aggregates — has the cube's version read before
        the fill and again under the cube's write lock after it (a write
        lands in the leaf store before the version moves).  If it moved,
        the grid is filled once more, from a :meth:`Cube.frozen_copy`
        taken then, which no write can move: no retry loop.  The refill
        admits exactly the cells the first fill admitted — a row-major
        prefix, since a breach is sticky — charges the budget nothing more
        and hits no failpoint: every cell is charged and hits ``mdx.cell``
        once per query."""
        base = self.warehouse.cube
        if base.frozen or (view is not base and getattr(view, "aggregate_cube", None) is not base):
            return fill(view, tracker, failpoint)
        version = base.version
        result = fill(view, tracker, failpoint)
        if not base.wrote_since(version):
            return result
        frozen = base.frozen_copy()
        again = frozen if view is base else view.with_aggregates(frozen)
        admitted = None if tracker is None else _Admitted(result[2]["cells_evaluated"])
        return fill(again, admitted, None)

    @property
    def footprint_rows(self) -> "int | None":
        """Base leaves the view this query read was applied to (``None``:
        no scenario, no cell read yet, or a NON_VISUAL chain of one stage
        whose leaves no cell has read — their rows are computed with
        them)."""
        return None if self._applied is None else self._entry.footprint_rows

    # -- member expansion -----------------------------------------------------------

    def expand_member(
        self, dim: Dimension, member: Member, ancestors: Sequence[str]
    ) -> list[Binding]:
        """Bindings for one member: instance rows for varying leaves,
        the member name otherwise."""
        name = dim.name
        if not self.schema.is_varying(name) or not member.is_leaf:
            return [(name, member.name, member.name)]
        varying, surviving = self._structure or self.structure()
        bindings: list[Binding] = []  # a loop: this runs once per axis member
        for instance in expand_instances(
            varying[name], member.name, ancestors, surviving.get(name)
        ):
            bindings.append((name, instance.full_path, instance.qualified_name))
        return bindings

    def property_value(self, binding_coord: str, property_dim: str) -> str:
        """DIMENSION PROPERTIES value: the instance's parent in the
        requested (varying) dimension."""
        if "/" in binding_coord:
            parts = binding_coord.split("/")
            return parts[-2]
        return binding_coord


def _as_set(expr: SetExpr, context: _Context) -> list[tuple[Binding, ...]]:
    """Evaluate a set expression to a list of binding tuples."""
    if isinstance(expr, SetLiteral):
        result: list[tuple[Binding, ...]] = []
        for element in expr.elements:
            result.extend(_as_set(element, context))
        return result
    if isinstance(expr, TupleExpr):
        return [tuple(_one_binding(path, context, "tuple") for path in expr.members)]
    if isinstance(expr, MemberPath):
        if len(expr.parts) == 1 and expr.parts[0] in context.query_sets:
            name = expr.parts[0]
            if name in context._expanding_sets:
                raise MdxEvaluationError(
                    f"named set {name!r} is defined in terms of itself"
                )
            context._expanding_sets.add(name)
            try:
                return _as_set(context.query_sets[name], context)
            finally:
                context._expanding_sets.discard(name)
        return [(binding,) for binding in _member_bindings(expr, context)]
    if isinstance(expr, ChildrenExpr):
        return _children(expr.base, context)
    if isinstance(expr, MembersExpr):
        return _members(expr.base, context)
    if isinstance(expr, LevelsMembersExpr):
        return _levels_members(expr, context)
    if isinstance(expr, DescendantsExpr):
        return _descendants(expr, context)
    if isinstance(expr, CrossJoinExpr):
        left = _as_set(expr.left, context)
        right = _as_set(expr.right, context)
        return [lhs + rhs for lhs in left for rhs in right]
    if isinstance(expr, UnionExpr):
        left = _as_set(expr.left, context)
        seen = set(left)
        merged = list(left)
        for item in _as_set(expr.right, context):
            if item not in seen:
                seen.add(item)
                merged.append(item)
        return merged
    if isinstance(expr, FilterExpr):
        return _filter(expr, context)
    if isinstance(expr, OrderExpr):
        return _order(expr, context)
    if isinstance(expr, HeadExpr):
        return _as_set(expr.base, context)[: expr.count]
    if isinstance(expr, TailExpr):
        base = _as_set(expr.base, context)
        # max() guards against count > len(base): a negative start would
        # wrap around and silently drop the head of the set.
        return base[max(0, len(base) - expr.count) :] if expr.count else []
    raise MdxEvaluationError(f"unsupported set expression {expr!r}")


_RELOP_FUNCS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
}


def _filter(expr: FilterExpr, context: _Context) -> list[tuple[Binding, ...]]:
    """Filter(set, (tuple) relop n): σ with a value predicate (Sec. 4.1).

    For each candidate position, the condition tuple's coordinates are
    combined with the candidate's own and dimension-root defaults; the
    cell is evaluated on the scenario view, and ⊥ cells fail every
    comparison.
    """
    from repro.olap.missing import is_missing

    compare = _RELOP_FUNCS[expr.relop]
    context.reads_cells = True
    condition_bindings = _resolve_condition(expr.condition, context, "Filter")
    kept: list[tuple[Binding, ...]] = []
    for candidate in _as_set(expr.base, context):
        value = _condition_value(candidate, condition_bindings, context)
        if not is_missing(value) and compare(float(value), expr.threshold):
            kept.append(candidate)
    return kept


def _condition_value(
    candidate: tuple[Binding, ...],
    condition_bindings: list[Binding],
    context: _Context,
):
    """Cell value for a Filter/Order condition at a candidate position.

    Condition probes count against the query budget; a breach here raises
    (axis resolution has no meaningful partial result — see
    :mod:`repro.mdx.budget`).
    """
    if context.tracker is not None:
        context.tracker.charge_cell_or_raise("axis resolution")
    inject_io_fault(FP_MDX_CELL)
    defaults = {d.name: d.root.name for d in context.schema.dimensions}
    coords = dict(defaults)
    coords.update({dim: coord for dim, coord, _ in condition_bindings})
    coords.update({dim: coord for dim, coord, _ in candidate})
    return context.view.effective_value(context.schema.address(**coords))


def _one_binding(path: MemberPath, context: _Context, what: str) -> Binding:
    """The one binding a component of a ``what`` (tuple, Filter condition,
    Order condition) must expand to."""
    expanded = _member_bindings(path, context)
    if len(expanded) == 1:
        return expanded[0]
    if not expanded:
        raise MdxEvaluationError(
            f"{what} component {path.display()} matches no member instance"
        )
    raise MdxEvaluationError(
        f"{what} component {path.display()} is ambiguous "
        f"({len(expanded)} instances); name the instance via its parent"
    )


def _resolve_condition(
    condition: TupleExpr, context: _Context, what: str
) -> list[Binding]:
    return [
        _one_binding(path, context, f"{what} condition")
        for path in condition.members
    ]


def _order(expr: OrderExpr, context: _Context) -> list[tuple[Binding, ...]]:
    """Order(set, (tuple), ASC|DESC): sort by cell value, ⊥ last."""
    from repro.olap.missing import is_missing

    context.reads_cells = True
    condition_bindings = _resolve_condition(expr.condition, context, "Order")
    candidates = _as_set(expr.base, context)
    keyed = []
    for position, candidate in enumerate(candidates):
        value = _condition_value(candidate, condition_bindings, context)
        missing = is_missing(value)
        sort_value = 0.0 if missing else float(value)
        if expr.descending:
            sort_value = -sort_value
        # ⊥ sorts after every real value; ties keep input order.
        keyed.append(((missing, sort_value, position), candidate))
    keyed.sort(key=lambda pair: pair[0])
    return [candidate for _, candidate in keyed]


def _member_bindings(path: MemberPath, context: _Context) -> list[Binding]:
    named = context.warehouse.named_set(path.parts[-1])
    if named is not None and len(path.parts) == 1:
        bindings: list[Binding] = []
        for name in named.members:
            dim, member = context.warehouse.resolve_member((name,))
            bindings.extend(context.expand_member(dim, member, ()))
        return bindings
    dim, member = context.warehouse.resolve_member(path.parts)
    ancestors = path.parts[:-1]
    ancestors = tuple(a for a in ancestors if a != dim.name)
    return context.expand_member(dim, member, ancestors)


def _children(path: MemberPath, context: _Context) -> list[tuple[Binding, ...]]:
    named = context.warehouse.named_set(path.parts[-1])
    if named is not None:
        bindings: list[Binding] = []
        for name in named.members:
            dim, member = context.warehouse.resolve_member((name,))
            bindings.extend(context.expand_member(dim, member, ()))
        return [(b,) for b in bindings]
    dim, member = context.warehouse.resolve_member(path.parts)
    result: list[tuple[Binding, ...]] = []
    for child in member.children:
        for binding in context.expand_member(dim, child, ()):
            result.append((binding,))
    return result


def _members(path: MemberPath, context: _Context) -> list[tuple[Binding, ...]]:
    dim, member = context.warehouse.resolve_member(path.parts)
    result: list[tuple[Binding, ...]] = []
    for descendant in member.descendants(include_self=True):
        for binding in context.expand_member(dim, descendant, ()):
            result.append((binding,))
    return result


def _levels_members(
    expr: LevelsMembersExpr, context: _Context
) -> list[tuple[Binding, ...]]:
    dim, member = context.warehouse.resolve_member(expr.base.parts)
    result: list[tuple[Binding, ...]] = []
    for descendant in member.descendants(include_self=True):
        if descendant.level != expr.level:
            continue
        for binding in context.expand_member(dim, descendant, ()):
            result.append((binding,))
    return result


def _descendants(
    expr: DescendantsExpr, context: _Context
) -> list[tuple[Binding, ...]]:
    dim, member = context.warehouse.resolve_member(expr.base.parts)
    base_depth = member.depth
    flag = expr.flag
    want_depth = base_depth + expr.depth

    def keep(node: Member) -> bool:
        distance = node.depth
        if flag == "self":
            return distance == want_depth
        if flag == "self_and_after":
            return distance >= want_depth
        if flag == "after":
            return distance > want_depth
        if flag == "self_and_before":
            return distance <= want_depth
        if flag == "before":
            return distance < want_depth
        raise MdxEvaluationError(f"unknown Descendants flag {expr.flag!r}")

    result: list[tuple[Binding, ...]] = []
    for node in member.descendants(include_self=True):
        if not keep(node):
            continue
        for binding in context.expand_member(dim, node, ()):
            result.append((binding,))
    return result


def _axis_tuples(
    axis: AxisSpec, context: _Context
) -> list[AxisTuple]:
    tuples = _as_set(axis.expr, context)
    property_dims = [p.parts[-1] for p in axis.properties]
    result: list[AxisTuple] = []
    for bindings in tuples:
        coordinates = tuple((dim, coord) for dim, coord, _ in bindings)
        labels = tuple(label for _, _, label in bindings)
        properties = []
        for property_dim in property_dims:
            for dim, coord, _ in bindings:
                if dim == property_dim:
                    properties.append(
                        (property_dim, context.property_value(coord, property_dim))
                    )
                    break
        result.append(AxisTuple(coordinates, labels, tuple(properties)))
    return result


def grid_footprint(layouts: "Sequence[GridLayout]") -> Footprint:
    """The coordinates the cells of some grid blocks name, per dimension:
    the union of the blocks' ``GridLayout.footprint``.  A dimension one
    block leaves unrestricted is unrestricted."""
    first, *rest = layouts
    return {
        dim: coords.union(*(layout.footprint[dim] for layout in rest))
        for dim, coords in first.footprint.items()
        if all(dim in layout.footprint for layout in rest)
    }


@dataclass(slots=True)
class ResolvedQuery:
    """What a query asks for before any cell is read (:func:`resolve_query`,
    or a :class:`Plan`'s copy of it)."""

    context: _Context
    columns: Sequence[AxisTuple]  #: un-pruned, like ``rows``
    rows: Sequence[AxisTuple]
    slicer: dict[str, str]  #: slicer bindings only: dimension -> coordinate
    #: the slicer over every dimension's default (root) member, in schema
    #: order; a row coordinate overrides it, a column coordinate both
    base_coords: dict[str, str]
    non_empty: frozenset[str]  #: the axes ("rows" / "columns") to prune
    layout: GridLayout  #: the cell rule over ``rows`` × ``columns``

    @property
    def reads_cells(self) -> bool:
        """Whether resolving read a cell value (a FILTER / ORDER set)."""
        return self.context.reads_cells


def resolve_query(context: _Context) -> ResolvedQuery:
    """COLUMNS and ROWS tuples (no ROWS: one empty row tuple) and the
    slicer, over ``context``.

    With the context's own refusals (:func:`_check_shape`) this is the one
    definition of what a query asks for: the evaluator, the shard
    coordinator and EXPLAIN all resolve here and differ only in how they
    fill the grid — the last two from the scenario's structure half,
    applying nothing unless a FILTER / ORDER reads cells.  Opens no span.
    """
    query = context.query
    by_axis = {axis.axis: axis for axis in query.axes}
    if "columns" not in by_axis:
        raise MdxEvaluationError("a query must place a set ON COLUMNS")
    columns = _axis_tuples(by_axis["columns"], context)
    rows = (
        _axis_tuples(by_axis["rows"], context)
        if "rows" in by_axis
        else [AxisTuple((), ())]
    )
    slicer: dict[str, str] = {}
    if query.slicer is not None:
        for binding_tuple in _as_set(query.slicer, context):
            for dim, coord, _ in binding_tuple:
                slicer[dim] = coord
    base_coords = {
        d.name: slicer.get(d.name, d.root.name) for d in context.schema.dimensions
    }
    non_empty = frozenset(name for name, axis in by_axis.items() if axis.non_empty)
    layout = GridLayout(context.schema, base_coords, rows, columns)
    return ResolvedQuery(context, columns, rows, slicer, base_coords, non_empty, layout)


# -- prepared plans -----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Axes:
    """What a resolve found, as a plan keeps it: the scenario chain, the
    un-pruned axes, the slicer and base coordinates, and the grid's
    layout."""

    scenarios: "tuple[NegativeScenario | PositiveScenario, ...]"
    columns: tuple[AxisTuple, ...]
    rows: tuple[AxisTuple, ...]
    slicer: dict[str, str]
    base_coords: dict[str, str]
    non_empty: frozenset[str]
    layout: GridLayout

    @classmethod
    def of(cls, resolved: ResolvedQuery) -> "_Axes":
        return cls(
            tuple(resolved.context.scenarios),
            tuple(resolved.columns),
            tuple(resolved.rows),
            dict(resolved.slicer),
            dict(resolved.base_coords),
            resolved.non_empty,
            resolved.layout,
        )


@dataclass(frozen=True, slots=True)
class Plan:
    """A query text prepared at one :meth:`~repro.warehouse.Warehouse.plan_version`:
    one ``plan_cache`` entry.  Immutable, and nothing in it refers to a
    warehouse, a cube, a view or a :class:`_Context`, so a cached plan
    pins no snapshot.

    ``report`` stays ``None`` until an ``analyze=True`` call runs the
    analyzer — an ``analyze=False`` call never does, so its plan never
    lets a later call skip the analyzer.  ``axes`` stays ``None`` until a
    resolve succeeds, and for good when the axes read cell values
    (``reads_cells``): those resolve on every call."""

    query: MdxQuery
    report: "DiagnosticReport | None" = None
    axes: "_Axes | None" = None
    reads_cells: bool = False


def _plan_cache(warehouse):
    # the reference path (naive_mode) keeps no plan, as it keeps no
    # scenario view
    if not perf_config.engine_enabled():
        return None
    return getattr(warehouse, "plan_cache", None)


class Prepared:
    """One call's hold on a query's :class:`Plan` (:func:`prepare`): the
    parsed query, :meth:`analyze`, :meth:`check` and :meth:`resolve`.
    What the call adds to the plan is stored back.  Opens no span: the
    in-process evaluator times the steps as its ``mdx.*`` phases
    (:func:`execute`), and the shard coordinator's phases are its own."""

    __slots__ = ("warehouse", "text", "plan", "report", "_version")

    def __init__(self, warehouse, text: str, plan: Plan, version) -> None:
        self.warehouse = warehouse
        self.text = text
        self.plan = plan
        #: the analyzer's report once this call asked for it (``None`` for
        #: an ``analyze=False`` call, whatever the plan holds)
        self.report: "DiagnosticReport | None" = None
        #: the plan version the plan was looked up under (``None``: no cache)
        self._version = version

    @property
    def query(self) -> MdxQuery:
        return self.plan.query

    @property
    def reads_cells(self) -> bool:
        """Whether an earlier resolve found that the axes read cell values."""
        return self.plan.reads_cells

    def analyze(self) -> "DiagnosticReport":
        """The analyzer's report: the plan's, or run now and kept."""
        plan = self.plan
        if plan.report is None:
            from repro.analysis.query_analyzer import analyze_query

            self._store(replace(plan, report=analyze_query(self.warehouse, plan.query)))
        self.report = self.plan.report
        return self.report

    def check(self) -> None:
        """Refuse, with :class:`~repro.errors.MdxAnalysisError`, a query
        whose analysis this call asked for and found error-level
        findings in.  The error carries a copy of the plan's report."""
        report = self.report
        if report is not None and report.has_errors:
            from repro.errors import MdxAnalysisError

            raise MdxAnalysisError(replace(report, diagnostics=list(report.diagnostics)))

    def _store(self, plan: Plan) -> None:
        self.plan = plan
        cache = _plan_cache(self.warehouse)
        # a structural write during this call makes what it built belong
        # to no one version: keep it for this call only
        if cache is not None and self.warehouse.plan_version() == self._version:
            cache.put(self.text, self._version, plan)

    def resolve(self, budget: "QueryBudget | None" = None) -> ResolvedQuery:
        """The query's axes: the plan's (fresh dicts; the axes are
        tuples), or resolved over a fresh :class:`_Context` — with
        ``budget``'s tracker, which FILTER / ORDER conditions charge — and
        kept in the plan unless they read cell values."""
        plan = self.plan
        axes = plan.axes
        if axes is None:
            resolved = resolve_query(_Context(self.warehouse, plan.query, budget))
            if not plan.reads_cells:
                self._store(
                    replace(plan, reads_cells=True)
                    if resolved.reads_cells
                    else replace(plan, axes=_Axes.of(resolved))
                )
            return resolved
        return ResolvedQuery(
            _Context(self.warehouse, plan.query, budget, axes.scenarios),
            axes.columns,
            axes.rows,
            dict(axes.slicer),
            dict(axes.base_coords),
            axes.non_empty,
            axes.layout,
        )


def prepare(warehouse, text: str, analyze: bool = True) -> Prepared:
    """The warehouse's plan for ``text`` at its current
    :meth:`~repro.warehouse.Warehouse.plan_version`, or a new one from
    the parser — analyzed when ``analyze`` (:meth:`Prepared.analyze`).
    Raises nothing for analyzer findings: callers that refuse them call
    :meth:`Prepared.check`.  The evaluator, the shard coordinator and
    EXPLAIN all start here."""
    plan = version = None
    cache = _plan_cache(warehouse)
    if cache is not None:
        version = warehouse.plan_version()
        plan = cache.get(text, version)
    prepared = Prepared(warehouse, text, plan or Plan(parse_query(text)), version)
    if analyze:
        prepared.analyze()
    return prepared


def finish_query(
    resolved: ResolvedQuery,
    cells: "list[list[object]]",
    stats: "dict[str, int]",
    degradations: list,
) -> MdxResult:
    """The filled grid as an :class:`MdxResult`, NON EMPTY axes pruned —
    unless ``degradations`` is non-empty: a degraded grid's ⊥ cells (a
    budget cut, a lost shard) mean "unknown", not "empty", and must stay
    visible as partial instead of vanishing.  Opens no span.
    """
    from repro.olap.missing import is_missing

    # fresh lists: the axes may be a cached plan's, and a caller may edit
    # the result it is handed
    columns, rows = list(resolved.columns), list(resolved.rows)
    if not degradations:
        if "rows" in resolved.non_empty:
            keep = [
                i
                for i, row_cells in enumerate(cells)
                if any(not is_missing(v) for v in row_cells)
            ]
            rows = [rows[i] for i in keep]
            cells = [cells[i] for i in keep]
        if "columns" in resolved.non_empty:
            keep = [
                j
                for j in range(len(columns))
                if any(not is_missing(row_cells[j]) for row_cells in cells)
            ]
            columns = [columns[j] for j in keep]
            cells = [[row_cells[j] for j in keep] for row_cells in cells]
    return MdxResult(
        columns=columns, rows=rows, cells=cells, degradations=degradations, stats=stats
    )


def evaluate_query(resolved: ResolvedQuery) -> MdxResult:
    """Fill and finish a resolved query in process: the chain applied to
    the rows the grid's cells can reach, the grid filled by
    ``evaluate_grid`` (under ``naive_mode()`` by ``evaluate_cells``, over
    addresses composed cell by cell), NON EMPTY axes pruned.

    On a budget breach during cell evaluation the result is *partial* —
    remaining cells are ⊥ and ``result.degradations`` is non-empty.
    Degraded results skip NON EMPTY pruning so the ⊥-marked positions stay
    visible.
    """
    context = resolved.context
    rows, columns = resolved.rows, resolved.columns
    with trace_span("mdx.scenario") as scenario_span:
        # Cells are read below, so the chain is applied here — to the rows
        # the grid's cells can reach.
        view = context.view_of([resolved.layout])
        if scenario_span is not None and context.scenarios:
            scenario_span.set(
                scenarios=len(context.scenarios),
                leaves_in=context.warehouse.cube.n_leaf_cells,
                footprint_rows=context.footprint_rows,
                leaves_moved=view.leaves_moved,
            )

    tracker = context.tracker
    with trace_span("mdx.cells") as cells_span:
        stats = dict(context.scenario_stats)
        if perf_config.engine_enabled():

            def fill(view, tracker, failpoint) -> FillResult:
                return evaluate_grid(view, resolved.layout, tracker, failpoint)

        else:

            def address(r: int, c: int) -> "tuple[str, ...]":
                coords = dict(resolved.base_coords)
                coords.update(dict(rows[r].coordinates))
                coords.update(dict(columns[c].coordinates))
                return context.schema.address(**coords)

            def fill(view, tracker, failpoint) -> FillResult:
                return evaluate_cells(
                    view, len(rows), len(columns), address, tracker, failpoint
                )

        cells, cells_skipped, grid_stats = context.fill(view, fill, tracker, FP_MDX_CELL)
        stats.update(grid_stats)
        if cells_span is not None:
            cells_span.set(
                evaluated=stats.get("cells_evaluated", 0),
                skipped=cells_skipped,
            )

    with trace_span("mdx.finalize"):
        degradations = []
        if tracker is not None and tracker.breached is not None:
            degradations.append(tracker.degradation(cells_skipped))
        return finish_query(resolved, cells, stats, degradations)


def execute(
    warehouse,
    text: str,
    analyze: bool = True,
    budget: "QueryBudget | None" = None,
) -> MdxResult:
    """Evaluate extended-MDX text: prepare → resolve → fill → finish.

    With ``analyze=True`` (the default) error-level analyzer findings
    abort evaluation with :class:`~repro.errors.MdxAnalysisError` before
    any cube data is read; ``analyze=False`` is the escape hatch that goes
    straight to execution.  A ``budget``
    (:class:`~repro.mdx.budget.QueryBudget`) bounds the work
    (:func:`evaluate_query`).
    """
    with trace_span("mdx.parse"):
        prepared = prepare(warehouse, text, analyze=False)
    plan = prepared.plan
    if analyze:
        with trace_span("mdx.analyze") as span:
            prepared.analyze()
            if span is not None and plan.report is not None:
                span.set(plan="hit")
            prepared.check()
    with trace_span("mdx.axes") as span:
        resolved = prepared.resolve(budget)
        if span is not None:
            span.set(
                plan="hit" if plan.axes is not None else "miss",
                columns=len(resolved.columns),
                rows=len(resolved.rows),
            )
    return evaluate_query(resolved)
