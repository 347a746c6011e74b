"""Perspectives and the validity-set transform Φ (Sec. 3.3, 3.4, 4.2).

A *perspective set* P is a subset of the leaf members ("moments") of a
parameter dimension.  Applying perspectives to a cube transforms the
validity sets of the varying dimension's member instances; the operator Φ
(Defs. 4.2 and 4.3) captures every semantics the paper defines:

* **static** — identity on validity sets; only instances valid at some
  perspective survive.
* **forward** — the structure at each perspective point is imposed on the
  interval up to the next perspective point: ``Stretch(d) = { t >= Pmin :
  d valid at max{p in P : p <= t} }``; moments before Pmin keep their
  original assignment.
* **extended forward** — as forward, but all moments before Pmin are
  assigned to the instance valid at Pmin.
* **backward / extended backward** — mirror images with moments ordered
  descending (Sec. 3.3 closes with this symmetry).

Φ is a pure metadata operator: it maps validity sets to validity sets.
Moving the cell values accordingly is the job of the relocate operator ρ
(:mod:`repro.core.operators`).
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from repro.validity import ValiditySet
from repro.errors import QueryError
from repro.olap.instances import InstanceTable, MemberInstance, VaryingDimension

__all__ = [
    "Semantics",
    "Mode",
    "PerspectiveSet",
    "stretch",
    "phi",
    "phi_member",
    "phi_rows",
    "phi_table",
    "ValidityMap",
]

K = TypeVar("K")


class Semantics(enum.Enum):
    """Perspective semantics for negative scenarios (Sec. 3.3)."""

    STATIC = "static"
    FORWARD = "forward"
    EXTENDED_FORWARD = "extended_forward"
    BACKWARD = "backward"
    EXTENDED_BACKWARD = "extended_backward"

    @property
    def is_dynamic(self) -> bool:
        return self is not Semantics.STATIC

    @property
    def is_forward(self) -> bool:
        return self in (Semantics.FORWARD, Semantics.EXTENDED_FORWARD)

    @property
    def is_backward(self) -> bool:
        return self in (Semantics.BACKWARD, Semantics.EXTENDED_BACKWARD)

    @property
    def is_extended(self) -> bool:
        return self in (Semantics.EXTENDED_FORWARD, Semantics.EXTENDED_BACKWARD)


class Mode(enum.Enum):
    """Evaluation mode for non-leaf cells (Sec. 3.3).

    Non-visual retains input-cube aggregate values; visual re-evaluates the
    defining rules over the output cube.
    """

    NON_VISUAL = "non_visual"
    VISUAL = "visual"


class PerspectiveSet:
    """A non-empty, sorted set of perspective moments with a universe."""

    __slots__ = ("_moments", "_universe")

    def __init__(self, moments: Iterable[int], universe: int) -> None:
        unique = sorted(set(moments))
        if not unique:
            raise QueryError("a perspective set must contain at least one moment")
        for moment in unique:
            if not 0 <= moment < universe:
                raise QueryError(
                    f"perspective moment {moment} outside parameter range "
                    f"[0, {universe})"
                )
        self._moments = tuple(unique)
        self._universe = universe

    @classmethod
    def from_names(
        cls, names: Iterable[str], varying: VaryingDimension
    ) -> "PerspectiveSet":
        """Build from parameter-dimension leaf names (e.g. ``["Jan","Apr"]``)."""
        return cls(
            (varying.moment_index(name) for name in names), varying.universe
        )

    @property
    def moments(self) -> tuple[int, ...]:
        return self._moments

    @property
    def universe(self) -> int:
        return self._universe

    @property
    def pmin(self) -> int:
        return self._moments[0]

    @property
    def pmax(self) -> int:
        return self._moments[-1]

    def __len__(self) -> int:
        return len(self._moments)

    def __iter__(self):
        return iter(self._moments)

    def __contains__(self, moment: int) -> bool:
        return moment in self._moments

    def governing_forward(self, t: int) -> int | None:
        """max{p in P : p <= t}, or None if t precedes every perspective."""
        governing = None
        for p in self._moments:
            if p <= t:
                governing = p
            else:
                break
        return governing

    def governing_backward(self, t: int) -> int | None:
        """min{p in P : p >= t}, or None if t follows every perspective."""
        for p in self._moments:
            if p >= t:
                return p
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PerspectiveSet({list(self._moments)}, universe={self._universe})"


def _stretched(
    matrix: np.ndarray, perspectives: PerspectiveSet, backward: bool
) -> np.ndarray:
    """``Stretch`` of every row, one gather: moment ``t`` is in it iff the
    row holds the perspective point governing ``t`` — ``max{p ∈ P : p <=
    t}`` forward, ``min{p ∈ P : p >= t}`` backward — and no moment before
    Pmin (after Pmax) is."""
    universe = perspectives.universe
    points = list(perspectives.moments)
    if backward:
        at = np.full(universe, universe, dtype=np.int64)
        at[points] = points
        governing = np.minimum.accumulate(at[::-1])[::-1]
        covered = governing < universe
    else:
        at = np.full(universe, -1, dtype=np.int64)
        at[points] = points
        governing = np.maximum.accumulate(at)
        covered = governing >= 0
    return matrix[:, np.where(covered, governing, 0)] & covered


def phi_rows(
    matrix: np.ndarray, perspectives: PerspectiveSet, semantics: Semantics
) -> np.ndarray:
    """The one Φ (Defs. 4.2 / 4.3): every row of a ``bool`` matrix — one
    validity set per row, one column per moment of ``perspectives``'
    universe — mapped to its output set, same shape.  A row left empty is
    an instance σ drops (an instance survives iff VS_in ∩ P ≠ ∅).

    ``Stretch`` is one gather (:func:`_stretched`).  Forward keeps the
    row's own moments before Pmin, extended forward all of them when the
    row holds Pmin; backward and extended backward are the mirror images
    after Pmax.  Rows are independent, so overlapping sets are fine."""
    if semantics is Semantics.STATIC:
        return matrix & matrix[:, list(perspectives.moments)].any(axis=1)[:, None]
    backward = semantics.is_backward
    stretched = _stretched(matrix, perspectives, backward)
    anchor = perspectives.pmax if backward else perspectives.pmin
    moments = np.arange(perspectives.universe)
    outside = moments > anchor if backward else moments < anchor
    rest = matrix[:, anchor, None] if semantics.is_extended else matrix
    return (stretched | (rest & outside)) & stretched.any(axis=1)[:, None]


def _validity_rows(
    sets: Iterable[ValiditySet], perspectives: PerspectiveSet
) -> np.ndarray:
    """The validity matrix of ``sets`` over ``perspectives``' universe;
    a set of another universe is refused."""
    sets = list(sets)
    universe = perspectives.universe
    matrix = np.zeros((len(sets), universe), dtype=np.bool_)
    for row, validity in enumerate(sets):
        if validity.universe != universe:
            raise QueryError(
                "validity set and perspective set have different universes: "
                f"{validity.universe} vs {universe}"
            )
        matrix[row, list(validity.moments)] = True
    return matrix


def _row_sets(rows: np.ndarray) -> "list[ValiditySet | None]":
    """One :class:`ValiditySet` per row of a validity matrix (``None`` for
    an empty row), each distinct row built once."""
    universe = rows.shape[1]
    which, moments = np.nonzero(rows)
    moments = moments.tolist()
    built: "dict[tuple[int, ...], ValiditySet | None]" = {(): None}
    out: "list[ValiditySet | None]" = []
    start = 0
    for stop in np.cumsum(np.bincount(which, minlength=len(rows))).tolist():
        key = tuple(moments[start:stop])
        start = stop
        if key not in built:
            built[key] = ValiditySet.trusted(frozenset(key), universe)
        out.append(built[key])
    return out


def stretch(validity: ValiditySet, perspectives: PerspectiveSet) -> ValiditySet:
    """``Stretch(d)`` of Def. 4.3 for one instance's input validity set.

    The union of intervals ``[p_i, p_{i+1})`` over the perspective points
    ``p_i`` at which the instance was valid (``p_{k+1} = +inf``): the
    forward gather of :func:`phi_rows` on one row.
    """
    rows = _stretched(_validity_rows((validity,), perspectives), perspectives, False)
    return _row_sets(rows)[0] or ValiditySet.empty(validity.universe)


def phi(
    validity_in: Mapping[K, ValiditySet],
    perspectives: PerspectiveSet,
    semantics: Semantics,
) -> dict[K, ValiditySet]:
    """Apply Φ to the instances of **one** member (Defs. 4.2 / 4.3).

    ``validity_in`` maps instance keys to their (pairwise disjoint) input
    validity sets.  Returns output validity sets; instances that end up
    empty are dropped from the result, which also realises the
    active-member filter of Def. 3.4 (an instance survives iff
    VS_in ∩ P ≠ ∅ — for every semantics, an instance not valid at any
    perspective point gets an empty output set).  :func:`phi_rows` over
    the distinct input sets.
    """
    distinct = list(dict.fromkeys(validity_in.values()))
    rows = phi_rows(_validity_rows(distinct, perspectives), perspectives, semantics)
    out_of = dict(zip(distinct, _row_sets(rows)))
    return {
        key: out_of[validity]
        for key, validity in validity_in.items()
        if out_of[validity] is not None
    }


def phi_member(
    instances: Sequence[MemberInstance],
    perspectives: PerspectiveSet,
    semantics: Semantics,
) -> dict[MemberInstance, ValiditySet]:
    """Φ over the instance list of one member (as produced by
    :meth:`VaryingDimension.instances_of`)."""
    return phi(
        {instance: instance.validity for instance in instances},
        perspectives,
        semantics,
    )


class ValidityMap(Mapping[str, ValiditySet]):
    """Output validity sets by instance full path, as arrays over an
    instance table: entry ``k`` is instance ``instances[k]`` of ``table``
    and its output set row ``rows[k]`` of ``matrix`` — what Φ over a table
    leaves (:func:`phi_table`), and what ρ routes without reading a key.

    A read-only mapping, in entry order.  Iterating, ``len`` and ``in``
    read the table alone (``in`` through its path index); the
    :class:`ValiditySet` objects and the path → set dict behind them are
    built on the first key read (``sets``, when given, builds one set per
    matrix row) — a racing build yields equal objects."""

    __slots__ = ("table", "instances", "rows", "matrix", "_sets", "_entries", "_held")

    def __init__(
        self,
        table: InstanceTable,
        instances: np.ndarray,
        rows: np.ndarray,
        matrix: np.ndarray,
        sets: "Callable[[], Sequence[ValiditySet | None]] | None" = None,
    ) -> None:
        self.table, self.instances, self.rows, self.matrix = table, instances, rows, matrix
        self._sets = sets
        self._entries: "dict[str, ValiditySet] | None" = None
        self._held: "bytes | None" = None

    def _dict(self) -> "dict[str, ValiditySet]":
        entries = self._entries
        if entries is None:
            built = _row_sets(self.matrix) if self._sets is None else self._sets()
            entries = self._entries = dict(
                zip(
                    map(self.table.paths.__getitem__, self.instances.tolist()),
                    map(built.__getitem__, self.rows.tolist()),
                )
            )
        return entries

    def __getitem__(self, path: str) -> ValiditySet:
        return self._dict()[path]

    def __iter__(self) -> Iterator[str]:
        return map(self.table.paths.__getitem__, self.instances.tolist())

    def __len__(self) -> int:
        return len(self.instances)

    def __contains__(self, path: object) -> bool:
        held = self._held
        if held is None:
            mask = np.zeros(len(self.table.paths), dtype=np.bool_)
            mask[self.instances] = True
            held = self._held = mask.tobytes()
        at = self.table.path_id.get(path, -1)  # type: ignore[call-overload]
        return at >= 0 and held[at]

    def __repr__(self) -> str:
        return f"ValidityMap({self._dict()!r})"


def phi_table(
    table: InstanceTable,
    instances: np.ndarray,
    perspectives: PerspectiveSet,
    semantics: Semantics,
) -> ValidityMap:
    """Φ over the instances ``instances`` of an instance table, in that
    order: :func:`phi_rows` once, on the distinct validity sets they hold.
    An instance whose output set is empty is left out (σ).  Each distinct
    output set is built once, when a key is first read."""
    if table.matrix.shape[1] != perspectives.universe:
        raise QueryError(
            "validity set and perspective set have different universes: "
            f"{table.matrix.shape[1]} vs {perspectives.universe}"
        )
    held = table.set_of[instances]
    used = np.flatnonzero(np.bincount(held, minlength=len(table.matrix)))
    matrix = phi_rows(table.matrix[used], perspectives, semantics)
    row_of = np.full(len(table.matrix), -1, dtype=np.int64)
    row_of[used] = np.where(matrix.any(axis=1), np.arange(len(used)), -1)
    rows = row_of[held]
    kept = rows >= 0
    return ValidityMap(table, instances[kept], rows[kept], matrix)
