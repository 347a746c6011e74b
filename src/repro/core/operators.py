"""The what-if algebra: selection σ, relocate ρ, split S, evaluate E (Sec. 4).

Together with the validity-set transform Φ (:mod:`repro.core.perspective`),
these operators capture the full class of what-if queries (Theorem 4.1):
negative scenarios are ``E ∘ ρ(·, Φ(VS_in)) ∘ σ`` and positive scenarios are
``E ∘ S``, applied to the result of the core MDX query.

All operators are pure: they return new cubes and never mutate their input.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.core.perspective import ValidityMap
from repro.core.predicates import Predicate
from repro.validity import ValiditySet
from repro.errors import InvalidChangeError, QueryError
from repro.olap.cube import Cube
from repro.olap.instances import InstanceTable, VaryingDimension

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.leaf_store import LeafColumns

__all__ = [
    "select",
    "relocate",
    "split",
    "evaluate",
    "step_change",
    "ChangeTuple",
    "ChangeRelation",
]


# ---------------------------------------------------------------------------
# Selection (Def. 4.1)
# ---------------------------------------------------------------------------


def select(cube: Cube, dim_name: str, predicate: Predicate) -> Cube:
    """σ_p(C): drop sub-cubes of members of ``dim_name`` failing ``predicate``.

    A member is active in the output iff it is active in the input (has some
    data) and satisfies the predicate; the output is the input with the
    sub-cubes of non-active members removed (Def. 4.1).
    """
    dim_index = cube.schema.dim_index(dim_name)
    decisions: dict[str, bool] = {}

    def keep(coord: str) -> bool:
        hit = decisions.get(coord)
        if hit is None:
            hit = predicate(cube, dim_index, coord)
            decisions[coord] = hit
        return hit

    return cube.filter_dimension(dim_name, keep)


# ---------------------------------------------------------------------------
# Relocate (Def. 4.4)
# ---------------------------------------------------------------------------


def _moments_of(
    cols: "LeafColumns", param_index: int, varying: VaryingDimension
) -> np.ndarray:
    """Moment index of every row (-1 where the parameter coordinate is
    not a leaf of the parameter dimension), resolved once per parameter
    coordinate list (:meth:`~repro.perf.leaf_store.LeafColumns.labels`)."""
    parameter = varying.parameter

    def label(coords: "list[str]") -> "list[int]":
        moment_of = {m.name: i for i, m in enumerate(parameter.leaf_members())}
        return [moment_of.get(coord, -1) for coord in coords]

    key = ("moment", parameter, parameter.generation)
    return cols.labels(param_index, key, label)[cols.codes[param_index]]


def _members_of(
    cols: "LeafColumns", dim_index: int, table: InstanceTable
) -> np.ndarray:
    """Member number of every coordinate code of the varying column, read
    once per coordinate list; a coordinate naming no member of the
    skeleton gets a number past the members of its own (members + code),
    so it groups with no other and no route reaches it."""
    labels = cols.labels(dim_index, *table.member_labels())
    return np.where(labels >= 0, labels, len(table.members) + np.arange(len(labels)))


def _routes(
    validity_out: Mapping[str, ValiditySet], table: InstanceTable, universe: int
) -> "tuple[Sequence[str], np.ndarray, np.ndarray, np.ndarray]":
    """``validity_out`` as ρ routes it, one entry per output coordinate in
    mapping order: ``(paths, at, member, rows)`` — entry ``k``'s
    coordinate is ``paths[at[k]]``, its member number ``member[k]`` (-1:
    it names no member) and its output moments row ``k`` of a ``bool``
    matrix.  Φ's own output (:class:`~repro.core.perspective.ValidityMap`)
    is these arrays over its instance table, and is read without building
    a key; any other mapping is read key by key, one row per distinct
    set."""
    if isinstance(validity_out, ValidityMap) and validity_out.table.members == table.members:
        routed = validity_out
        return (
            routed.table.paths,
            routed.instances,
            routed.table.member[routed.instances],
            routed.matrix[routed.rows],
        )
    paths = list(validity_out)
    member_id = table.member_id
    members = np.array(
        [member_id.get(path.rsplit("/", 1)[-1], -1) for path in paths], dtype=np.int64
    )
    sets: dict[ValiditySet, int] = {}
    of_set = [sets.setdefault(validity, len(sets)) for validity in validity_out.values()]
    matrix = np.zeros((len(sets), universe), dtype=np.bool_)
    for row, validity in enumerate(sets):
        # later moments hold no data to route
        matrix[row, [t for t in validity.moments if t < universe]] = True
    return paths, np.arange(len(paths)), members, matrix[np.array(of_set, dtype=np.int64)]


def _coord_at(cols: "LeafColumns", dim_index: int, row: int) -> str:
    """One row's coordinate on one dimension, off its code column."""
    return cols.coords[dim_index][cols.codes[dim_index][row]]


def _not_a_moment(
    cols: "LeafColumns", param_index: int, row: int, varying: VaryingDimension
) -> QueryError:
    tcoord = _coord_at(cols, param_index, row)
    return QueryError(
        f"leaf cell parameter coordinate {tcoord!r} is not a leaf of "
        f"{varying.parameter.name!r}"
    )


def _project(
    cube: Cube,
    cols: "LeafColumns",
    rows: np.ndarray,
    dim_index: int,
    out_codes: np.ndarray,
    out_coords: list[str],
) -> tuple[Cube, int]:
    """The output cube of ρ / S, adopted in bulk.

    Output leaf ``k`` is input row ``rows[k]`` with its coordinate on
    ``dim_index`` replaced by ``out_coords[out_codes[k]]``; ``out_coords``
    extends the input column's coordinate list, so equal codes mean "not
    moved".  Nothing is built per leaf — no address, no tuple, no dict
    entry: values are one ``take``, coordinates new to the cube are
    validated once each, and the output's rollup index — its leaf store —
    is derived from the input's out of ``rows`` and the recoded column
    alone (:meth:`~repro.perf.rollup_index.RollupIndex.derive`, which
    also decides on the columns whether two rows landed on one address —
    S over a cube whose instances clash).  Returns the cube and the
    number of moved cells.
    """
    moved_codes = out_codes[out_codes != cols.codes[dim_index][rows]]
    schema = cube.schema
    for code in np.unique(moved_codes[moved_codes >= len(cols.coords[dim_index])]):
        if not schema.coordinate_is_leaf(dim_index, out_coords[code]):
            raise QueryError(
                f"output coordinate {out_coords[code]!r} is not a leaf "
                f"coordinate of {schema.dimensions[dim_index].name!r}"
            )
    index = cols.derive(schema, rows, {dim_index: (out_codes, out_coords)})
    out = cube.adopt(index, dict(cube.stored_derived_cells()))
    return out, len(moved_codes)


def relocate(
    cube: Cube,
    varying_name: str,
    validity_out: Mapping[str, ValiditySet],
    varying: VaryingDimension | None = None,
    rows: "np.ndarray | None" = None,
) -> Cube:
    """ρ(C, 𝒱): move leaf-cell values according to output validity sets.

    ``validity_out`` maps member-instance full paths (output coordinates) to
    their output validity sets 𝒱(d).  For every output leaf cell (d, t, ē)
    with ``t ∈ 𝒱(d)`` the value is copied from the input cell (d_t, t, ē),
    where d_t is the instance of the same member valid at t in the *input*;
    if no d_t exists the cell is ⊥.  Stored non-leaf cells are carried over
    unchanged, so the result holds the correct values for non-visual mode
    (Def. 4.4's closing remark).

    Evaluated as one array program over the varying and parameter
    coordinate columns: the input rows are grouped by (member, moment) —
    member numbers off the varying structure's instance table, read once
    per coordinate list — ``validity_out`` becomes a routing table of
    (output instance, moment) entries, the nonzeros of its output rows
    (``np.nonzero``, row-major; Φ's :class:`~repro.core.perspective.ValidityMap`
    carries those rows), and the output is the concatenation of each
    entry's group.  **Emission order** — the order strict rollups sum in
    — is output instance (in ``validity_out`` order), then moment, then
    input order.

    ``rows`` (ascending leaf ids of the cube's rollup index,
    :meth:`~repro.perf.rollup_index.RollupIndex.ids_under`) applies ρ to
    that row subset, σ below ρ: every table below is built from the rows
    read, and each of the three order keys restricted to a subset is the
    same relative order, so ``ρ(σ_F(C))`` lists the leaves of
    ``σ_F(ρ(C))`` in its order whenever ``F`` keeps or drops a member's
    rows together on this dimension.  The two refusals are raised for the
    rows read, first offender among them.
    """
    schema = cube.schema
    varying = varying or schema.varying_dimension(varying_name)
    dim_index = schema.dim_index(varying_name)
    param_index = schema.dim_index(varying.parameter.name)
    universe = varying.universe
    table = varying.instance_table()
    from repro.obs.trace import trace_span

    with trace_span("core.relocate") as span:
        cols = cube.leaf_columns(dim_index, param_index, ids=rows)
        vcodes, vcoords = cols.codes[dim_index], cols.coords[dim_index]
        n = len(vcodes)
        moments = _moments_of(cols, param_index, varying)
        bad = np.flatnonzero(moments < 0)
        # rows before the first bad parameter coordinate are checked for
        # instance conflicts first, like a cell-by-cell scan would
        checked = int(bad[0]) if len(bad) else n

        # group rows by (member, moment) — a dense key, so the groups'
        # sizes and offsets are one ``bincount``; the sort is stable (a
        # radix sort while the keys fit 16 bits), so a group lists its rows
        # in input order
        member_by_code = _members_of(cols, dim_index, table)
        n_keys = (len(table.members) + len(vcoords)) * universe
        group = member_by_code[vcodes[:checked]] * universe + moments[:checked]
        order = np.argsort(
            group.astype(np.uint16) if n_keys <= 1 << 16 else group, kind="stable"
        )
        size_of = np.bincount(group, minlength=n_keys)
        start_of = np.cumsum(size_of) - size_of
        groups = np.flatnonzero(size_of)
        starts, counts = start_of[groups], size_of[groups]

        # validity sets of one member must be disjoint in the input: every
        # row of a group carries the group's first instance coordinate
        sorted_vcodes = vcodes[order]
        clash = np.flatnonzero(
            sorted_vcodes != np.repeat(sorted_vcodes[starts], counts)
        )
        if len(clash):
            at = int(clash[np.argmin(order[clash])])  # earliest input row
            row = int(order[at])
            first = starts[np.searchsorted(starts, at, side="right") - 1]
            raise QueryError(
                f"input cube has two instances of member "
                f"{vcoords[sorted_vcodes[at]].rsplit('/', 1)[-1]!r} with data at "
                f"the same moment {_coord_at(cols, param_index, row)!r}: "
                f"{vcoords[sorted_vcodes[first]]!r} and "
                f"{vcoords[sorted_vcodes[at]]!r} (validity sets must be disjoint)"
            )
        if len(bad):
            raise _not_a_moment(cols, param_index, checked, varying)

        # routing table: one (group key, entry) pair per output instance
        # and moment of its output set, in emission order — the nonzeros
        # of the entries' output rows, row-major
        paths, path_at, entry_member, entry_rows = _routes(validity_out, table, universe)
        entry, moment = np.nonzero(entry_rows)
        named = entry_member[entry] >= 0
        entry, wanted = entry[named], entry_member[entry[named]] * universe + moment[named]
        hit = np.flatnonzero(size_of[wanted])

        # the output is the concatenation, entry by entry, of the groups
        # that hold data
        at_group = wanted[hit]
        run = size_of[at_group]
        total = int(run.sum())
        offset = np.cumsum(run) - run - start_of[at_group]
        emitted = order[np.arange(total) - np.repeat(offset, run)]

        # each emitting entry's coordinate code: the cube's own, or a new
        # one past it, in entry order
        n_coords = len(vcoords)
        routed_entry = entry[hit]
        emitting = np.flatnonzero(np.bincount(routed_entry, minlength=len(path_at)))
        chosen = list(map(paths.__getitem__, path_at[emitting].tolist()))
        codes = np.fromiter(
            map(cols.code_of(dim_index).get, chosen, repeat(n_coords)),
            dtype=np.int64,
            count=len(chosen),
        )
        fresh = np.flatnonzero(codes >= n_coords)
        codes[fresh] = np.arange(n_coords, n_coords + len(fresh))
        out_coords = [*vcoords, *map(chosen.__getitem__, fresh.tolist())]
        entry_code = np.zeros(len(path_at), dtype=np.int32)
        entry_code[emitting] = codes
        out_codes = np.repeat(entry_code[routed_entry], run)

        out, moved = _project(cube, cols, emitted, dim_index, out_codes, out_coords)
        if span is not None:
            routed = np.zeros(n_keys, dtype=np.bool_)
            routed[at_group] = True
            span.set(
                leaves_in=cube.n_leaf_cells,
                footprint_rows=n,
                leaves_out=total,
                moved=moved,
                dropped=n - int(size_of[routed].sum()),
            )
    return out


# ---------------------------------------------------------------------------
# Split (Def. 4.5) — positive changes
# ---------------------------------------------------------------------------


class ChangeTuple:
    """One tuple (m, o, n, t) of the positive-change relation R.

    ``member`` m is currently a child of ``old_parent`` o at moment ``t``
    and is hypothetically reparented under ``new_parent`` n from t onward.
    """

    __slots__ = ("member", "old_parent", "new_parent", "moment")

    def __init__(self, member: str, old_parent: str, new_parent: str, moment: str) -> None:
        self.member = member
        self.old_parent = old_parent
        self.new_parent = new_parent
        self.moment = moment

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChangeTuple({self.member!r}, {self.old_parent!r} -> "
            f"{self.new_parent!r} @ {self.moment!r})"
        )


ChangeRelation = Sequence[ChangeTuple]


def step_change(hypo: VaryingDimension, change: ChangeTuple) -> "tuple[str, str] | None":
    """One tuple (m, o, n, t) of R against the structure so far: apply it
    (a Def. 3.1 legal change) and return ``None``, or leave ``hypo`` alone
    and return ``(kind, message)`` saying why it does not apply there.

    ``kind`` is ``"unrelated"`` — m has no instance at t, or the one it
    has is not under o: ρ / S only move values between related instances
    — or ``"illegal"``, the reparenting itself violates Def. 3.1.  The
    one stepping rule of S's structure half: the runtime raises the
    message (:func:`_hypothetical_structure`), the static analyzer steps
    every tuple and classifies the kinds.
    """
    t = hypo.moment_index(change.moment)
    current = hypo.parent_at(change.member, t)
    if current is None:
        return "unrelated", (
            f"member {change.member!r} has no instance at {change.moment!r}; "
            "cannot apply positive change there"
        )
    if current != change.old_parent:
        return "unrelated", (
            f"positive change for {change.member!r} at {change.moment!r} "
            f"names old parent {change.old_parent!r} but the current "
            f"parent is {current!r}"
        )
    try:
        hypo.reparent(change.member, change.new_parent, t)
    except InvalidChangeError as exc:
        return "illegal", str(exc)
    return None


def _hypothetical_structure(
    varying: VaryingDimension, changes: ChangeRelation
) -> VaryingDimension:
    """Apply R to a copy of the varying structure, in moment order (a
    stable sort: same-moment tuples keep their clause order); the first
    tuple that does not apply raises."""
    hypo = varying.copy()
    for change in sorted(changes, key=lambda c: hypo.moment_index(c.moment)):
        refusal = step_change(hypo, change)
        if refusal is not None:
            raise InvalidChangeError(refusal[1])
    return hypo


def split(
    cube: Cube,
    varying_name: str,
    changes: ChangeRelation,
    varying: VaryingDimension | None = None,
    rows: "np.ndarray | None" = None,
    hypo: VaryingDimension | None = None,
) -> tuple[Cube, VaryingDimension]:
    """S(C, R): split member sub-cubes at the change moments (Def. 4.5).

    Returns the output cube together with the *hypothetical* varying
    structure (the copy of the input structure with R applied), which
    downstream consumers (MDX rendering, further operators) use as the
    output metadata.

    Per the definition, each affected leaf cell moves from the pre-change
    instance to the post-change instance for moments ≥ t: the original
    sub-cube keeps τ < t, the added sub-cube keeps τ ≥ t.  Non-leaf cells
    default to the input values (non-visual); apply :func:`evaluate` for
    visual mode.

    Evaluated as one array program: the hypothetical structure's instance
    table (:meth:`~repro.olap.instances.InstanceTable.at_moments`) gives a
    small (affected instance, moment) → output instance | ⊥ routing table
    that recodes the varying column of the affected rows.  Emission order
    is input order — so over a row subset (``rows``, as in
    :func:`relocate`) it is the subset's, and ``S(σ_F(C))`` lists the
    leaves of ``σ_F(S(C))`` in its order under the same condition on ``F``.
    ``hypo`` is the hypothetical structure when the caller already built
    it from ``varying`` and ``changes`` (a chain's structure half); it is
    returned as it is.
    """
    schema = cube.schema
    varying = varying or schema.varying_dimension(varying_name)
    if hypo is None:
        hypo = _hypothetical_structure(varying, changes)
    dim_index = schema.dim_index(varying_name)
    param_index = schema.dim_index(varying.parameter.name)
    affected = {change.member for change in changes}
    from repro.obs.trace import trace_span

    with trace_span("core.split") as span:
        cols = cube.leaf_columns(dim_index, param_index, ids=rows)
        vcodes, vcoords = cols.codes[dim_index], cols.coords[dim_index]
        n = len(vcodes)

        # routing table over the affected input instances only, read off
        # the hypothetical instance table (members are numbered alike in
        # every table over one skeleton, so it labels the input's
        # coordinates too): the instance valid at each moment, or -1 for
        # ⊥; an instance no input coordinate names gets a new code, in
        # order of first appearance
        out_coords = list(vcoords)
        out_code_of = {coord: code for code, coord in enumerate(vcoords)}
        table = hypo.instance_table()
        member_by_code = _members_of(cols, dim_index, table)
        moving = [table.member_id[member] for member in affected]
        codes = np.flatnonzero(np.isin(member_by_code, moving))
        route_row = np.full(len(vcoords), -1, dtype=np.int64)
        route_row[codes] = np.arange(len(codes))
        at = table.at_moments(member_by_code[codes])
        seen, first = np.unique(at, return_index=True)
        # output code by instance; the extra last slot keeps ⊥ (-1) at -1
        code_of = np.full(len(table.paths) + 1, -1, dtype=np.int32)
        for instance in seen[np.argsort(first)].tolist():
            if instance >= 0:
                coord = table.paths[instance]
                code = out_code_of.get(coord)
                if code is None:
                    code = out_code_of[coord] = len(out_coords)
                    out_coords.append(coord)
                code_of[instance] = code

        out_codes = vcodes.copy()
        touched = np.flatnonzero(route_row[vcodes] >= 0)
        if len(touched):
            moments = _moments_of(cols, param_index, varying)[touched]
            if moments.min() < 0:
                row = int(touched[np.flatnonzero(moments < 0)[0]])
                raise _not_a_moment(cols, param_index, row, varying)
            out_codes[touched] = code_of[at[route_row[vcodes[touched]], moments]]
        kept = np.flatnonzero(out_codes >= 0)
        out, moved = _project(
            cube, cols, kept, dim_index, out_codes[kept], out_coords
        )
        if span is not None:
            span.set(
                leaves_in=cube.n_leaf_cells,
                footprint_rows=n,
                leaves_out=len(kept),
                moved=moved,
                dropped=n - len(kept),
            )
    return out, hypo


# ---------------------------------------------------------------------------
# Evaluate (Def. 4.6)
# ---------------------------------------------------------------------------


def evaluate(
    rule_cube: Cube,
    data_cube: Cube,
    addresses: Iterable[Sequence[str]] | None = None,
) -> Cube:
    """E(C1, C2): leaves from C2, non-leaf cells from C1's rules over C2.

    ``addresses`` selects which non-leaf cells to materialise; by default
    every address with a stored derived value in C1 is re-evaluated over
    C2's leaves.  The result carries C1's rule engine, so any further
    non-leaf cell queried on it is also evaluated over C2's leaves — this
    realises visual mode.
    """
    out = data_cube.copy()
    out.rules = rule_cube.rules
    out.clear_stored_derived()
    if addresses is None:
        addresses = [addr for addr, _ in rule_cube.stored_derived_cells()]
    out.materialize_derived(addresses)
    return out
