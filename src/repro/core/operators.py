"""The what-if algebra: selection σ, relocate ρ, split S, evaluate E (Sec. 4).

Together with the validity-set transform Φ (:mod:`repro.core.perspective`),
these operators capture the full class of what-if queries (Theorem 4.1):
negative scenarios are ``E ∘ ρ(·, Φ(VS_in)) ∘ σ`` and positive scenarios are
``E ∘ S``, applied to the result of the core MDX query.

All operators are pure: they return new cubes and never mutate their input.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.core.predicates import Predicate
from repro.validity import ValiditySet
from repro.errors import InvalidChangeError, QueryError
from repro.olap.cube import Cube
from repro.olap.instances import VaryingDimension

if TYPE_CHECKING:  # pragma: no cover - repro.obs imports the MDX stack, which imports this module
    from repro.perf.rollup_index import LeafColumns

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
    not a leaf of the parameter dimension), resolved once per distinct
    parameter coordinate."""
    moment_of = {
        m.name: i for i, m in enumerate(varying.parameter.leaf_members())
    }
    by_code = np.array(
        [moment_of.get(coord, -1) for coord in cols.coords[param_index]],
        dtype=np.int64,
    )
    return by_code[cols.codes[param_index]]


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
    coordinate columns: the input rows are grouped by (member, moment),
    ``validity_out`` becomes a routing table of (output instance, moment)
    entries, and the output is the concatenation of each entry's group.
    **Emission order** — the order strict rollups sum in — is output
    instance (in ``validity_out`` order), then moment, then input order.

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

        # group rows by (member, moment); the sort is stable, so a group
        # lists its rows in input order.  Members are numbered for the
        # coordinates the rows read hold, not for the cube's whole table
        present = np.flatnonzero(np.bincount(vcodes, minlength=len(vcoords))).tolist()
        member_of = {code: vcoords[code].rsplit("/", 1)[-1] for code in present}
        member_id = {name: i for i, name in enumerate(dict.fromkeys(member_of.values()))}
        member_by_code = np.zeros(len(vcoords), dtype=np.int64)
        member_by_code[present] = [member_id[name] for name in member_of.values()]
        group = member_by_code[vcodes[:checked]] * universe + moments[:checked]
        order = np.argsort(group, kind="stable")
        sorted_group = group[order]
        fresh = np.ones(checked, dtype=np.bool_)
        fresh[1:] = sorted_group[1:] != sorted_group[:-1]
        starts = np.flatnonzero(fresh)
        counts = np.diff(np.append(starts, checked))
        groups = sorted_group[starts]

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
                f"{member_of[int(sorted_vcodes[at])]!r} with data at the same moment "
                f"{_coord_at(cols, param_index, row)!r}: "
                f"{vcoords[sorted_vcodes[first]]!r} and "
                f"{vcoords[sorted_vcodes[at]]!r} (validity sets must be disjoint)"
            )
        if len(bad):
            raise _not_a_moment(cols, param_index, checked, varying)

        # routing table: one (group key, output code) entry per output
        # instance and moment, in emission order — expanded from one row
        # per output instance and one moment list per *distinct* validity
        # set (most members never move: they share one)
        out_coords = list(vcoords)
        out_code_of = {coord: code for code, coord in enumerate(vcoords)}
        entry_base: list[int] = []
        entry_code: list[int] = []
        entry_set: list[int] = []
        sets: dict[ValiditySet, int] = {}
        for out_coord, validity in validity_out.items():
            member = member_id.get(out_coord.rsplit("/", 1)[-1])
            if member is None:
                continue  # no data for this member: every cell is ⊥
            code = out_code_of.get(out_coord)
            if code is None:
                code = out_code_of[out_coord] = len(out_coords)
                out_coords.append(out_coord)
            entry_base.append(member * universe)
            entry_code.append(code)
            entry_set.append(sets.setdefault(validity, len(sets)))
        # later moments hold no data to route
        moments_of = [[t for t in validity if t < universe] for validity in sets]
        set_len = np.array([len(ts) for ts in moments_of], dtype=np.int64)
        set_at = np.cumsum(set_len) - set_len
        set_moments = np.array([t for ts in moments_of for t in ts], dtype=np.int64)
        of_set = np.array(entry_set, dtype=np.int64)
        span_len = set_len[of_set]
        shift = np.cumsum(span_len) - span_len - set_at[of_set]
        wanted = np.repeat(np.array(entry_base, dtype=np.int64), span_len) + (
            set_moments[np.arange(int(span_len.sum())) - np.repeat(shift, span_len)]
        )
        wanted_code = np.repeat(np.array(entry_code, dtype=np.int32), span_len)

        # the output is the concatenation, entry by entry, of the groups
        # that hold data
        hit = np.flatnonzero(np.isin(wanted, groups))
        at_group = np.searchsorted(groups, wanted[hit])
        run = counts[at_group]
        total = int(run.sum())
        offset = np.cumsum(run) - run - starts[at_group]
        emitted = order[np.arange(total) - np.repeat(offset, run)]
        out_codes = np.repeat(wanted_code[hit], run)

        out, moved = _project(cube, cols, emitted, dim_index, out_codes, out_coords)
        if span is not None:
            routed = np.zeros(len(groups), dtype=np.bool_)
            routed[at_group] = True
            span.set(
                leaves_in=cube.n_leaf_cells,
                footprint_rows=n,
                leaves_out=total,
                moved=moved,
                dropped=n - int(counts[routed].sum()),
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

    Evaluated as one array program: the hypothetical structure becomes a
    small (affected instance, moment) → output instance | ⊥ routing table
    that recodes the varying column of the affected rows.  Emission order
    is input order — so over a row subset (``rows``, as in
    :func:`relocate`) it is the subset's, and ``S(σ_F(C))`` lists the
    leaves of ``σ_F(S(C))`` in its order under the same condition on ``F``.
    """
    schema = cube.schema
    varying = varying or schema.varying_dimension(varying_name)
    hypo = _hypothetical_structure(varying, changes)
    dim_index = schema.dim_index(varying_name)
    param_index = schema.dim_index(varying.parameter.name)
    universe = varying.universe
    affected = {change.member for change in changes}
    from repro.obs.trace import trace_span

    with trace_span("core.split") as span:
        cols = cube.leaf_columns(dim_index, param_index, ids=rows)
        vcodes, vcoords = cols.codes[dim_index], cols.coords[dim_index]
        n = len(vcodes)

        # routing table over the affected input instances only; -1 is ⊥
        out_coords = list(vcoords)
        out_code_of = {coord: code for code, coord in enumerate(vcoords)}
        route_row = np.full(len(vcoords), -1, dtype=np.int64)
        route: list[list[int]] = []
        for code, coord in enumerate(vcoords):
            member = coord.rsplit("/", 1)[-1]
            if member not in affected:
                continue
            route_row[code] = len(route)
            targets = []
            for t in range(universe):
                path = hypo.path_at(member, t)
                if path is None:
                    targets.append(-1)
                    continue
                new_coord = "/".join(path)
                target = out_code_of.get(new_coord)
                if target is None:
                    target = out_code_of[new_coord] = len(out_coords)
                    out_coords.append(new_coord)
                targets.append(target)
            route.append(targets)

        out_codes = vcodes.copy()
        touched = np.flatnonzero(route_row[vcodes] >= 0)
        if len(touched):
            moments = _moments_of(cols, param_index, varying)[touched]
            if moments.min() < 0:
                row = int(touched[np.flatnonzero(moments < 0)[0]])
                raise _not_a_moment(cols, param_index, row, varying)
            table = np.array(route, dtype=np.int32)
            out_codes[touched] = table[route_row[vcodes[touched]], moments]
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
