"""Member instances and varying dimensions (Sec. 2 and Def. 3.1).

A *varying dimension* is a dimension whose hierarchy changes as a function
of a *parameter dimension* (Def. 2.1) — e.g. Organization varying over Time.
Reclassifying a member under different parents at different moments creates
*member instances* (``FTE/Joe``, ``PTE/Joe``), each with a validity set: the
set of moments at which that root-to-leaf path held.

We model the varying structure as a per-moment parent assignment: for each
*managed* member (one that participates in changes) and each moment ``t`` of
the parameter dimension, either a parent member name or ``None`` (the member
is invalid — e.g. Joe on vacation in May).  Members never registered as
managed keep their static parent from the skeleton hierarchy and are valid
at every moment.  Instances are then derived by grouping moments with equal
root-to-member paths; per the paper, an instance that re-acquires an earlier
path is *the same* instance (its validity set simply gains those moments),
and validity sets of distinct instances of one member are always disjoint
by construction.

Legal changes (Def. 3.1) are applied with :meth:`VaryingDimension.reparent`:
"change d's parent from e to f at moment i" assigns parent f to every moment
``>= i`` at which d exists.  Arbitrary finite sequences of legal changes are
supported, as the definition requires.

A structure's instances are held in one place, its :class:`InstanceTable`:
``instances_of``, ``instance_at``, Φ, ρ, S and the schema's lookup by path
all read it, and the per-moment path walk (:meth:`VaryingDimension.path_at`)
runs only to fill it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.validity import ValiditySet
from repro.errors import InvalidChangeError, SchemaError
from repro.olap.dimension import Dimension, Member, next_generation

__all__ = ["InstanceTable", "MemberInstance", "VaryingDimension"]


@dataclass(frozen=True)
class MemberInstance:
    """One instance of a member: a root-to-member path plus its validity set.

    ``path`` runs from the dimension root down to the member itself, e.g.
    ``("Organization", "FTE", "Joe")``; ``full_path`` is its ``/``-joined
    form (``Organization/FTE/Joe``), the instance's cell coordinate, set
    once at construction.
    """

    member: str
    path: tuple[str, ...]
    validity: ValiditySet
    full_path: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "full_path", "/".join(self.path))

    @property
    def qualified_name(self) -> str:
        """Short display name ``parent/member`` as used in the paper."""
        if len(self.path) >= 2:
            return f"{self.path[-2]}/{self.path[-1]}"
        return self.member

    @property
    def parent_name(self) -> str | None:
        return self.path[-2] if len(self.path) >= 2 else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemberInstance({self.qualified_name!r}, "
            f"VS={self.validity.sorted_moments()})"
        )


class InstanceTable:
    """Every instance of every member of one varying structure, as arrays:
    the structure's one instance index, which Φ, ρ's and S's routing, the
    footprint and every instance lookup read
    (:meth:`VaryingDimension.instance_table` builds one per structure
    generation).

    Members are numbered in name order (``members``, ``member_id``), so
    every table over one skeleton numbers them alike.  Instances are
    listed member by member, each member's in its own order (first moment
    of validity): instance ``i`` is ``instances[i]``, with full path
    ``paths[i]``, member number ``member[i]`` and validity set
    ``set_of[i]`` — a row of ``matrix``, which holds one ``bool`` row per
    *distinct* validity set and one column per moment
    (:func:`repro.core.perspective.phi_rows` reads nothing else).  Member
    ``m``'s instances are ``start[m]:start[m + 1]``; the member numbers
    along instance ``i``'s path, root first, are
    ``nodes[node_start[i]:node_start[i + 1]]``, and ``node_of`` names the
    instance of every node.  A table is never changed once built;
    ``path_id`` (instance number by full path) is derived from it on first
    ask.
    """

    __slots__ = (
        "members",
        "member_id",
        "dim_generation",
        "start",
        "instances",
        "paths",
        "member",
        "set_of",
        "set_id",
        "matrix",
        "nodes",
        "node_start",
        "node_of",
        "_path_id",
    )

    @classmethod
    def build(cls, varying: "VaryingDimension") -> "InstanceTable":
        """The table of every member of ``varying``'s skeleton."""
        members = tuple(sorted(m.name for m in varying.dimension.members()))
        table = cls.__new__(cls)
        table.members = members
        table.member_id = {name: i for i, name in enumerate(members)}
        table.dim_generation = varying.dimension.generation
        table._assemble(None, varying, range(len(members)))
        return table

    def patched(
        self, varying: "VaryingDimension", names: Iterable[str]
    ) -> "InstanceTable":
        """This table with the members ``names`` re-read from ``varying``
        (a structure that differs from this table's in those members' rows
        only); every other member's rows are sliced, not rebuilt."""
        table = InstanceTable.__new__(InstanceTable)
        table.members, table.member_id = self.members, self.member_id
        table.dim_generation = self.dim_generation
        table._assemble(self, varying, sorted(map(self.member_id.__getitem__, names)))
        return table

    def _assemble(
        self,
        old: "InstanceTable | None",
        varying: "VaryingDimension",
        changed: Sequence[int],
    ) -> None:
        # the members ``changed`` (ascending numbers) read off ``varying``;
        # with an ``old`` table, the runs of members between them sliced
        # off it.  A piece is (instances, paths, member, set_of, path
        # lengths, nodes) of consecutive members
        member_id, universe = self.member_id, varying.universe
        set_id = {} if old is None else dict(old.set_id)
        n_old_sets = len(set_id)
        sizes = (
            np.zeros(len(self.members), dtype=np.int64)
            if old is None
            else np.diff(old.start)
        )
        pieces: list[tuple] = []

        def keep(first: int, stop: int) -> None:
            a, b = int(old.start[first]), int(old.start[stop])
            if a < b:
                na, nb = int(old.node_start[a]), int(old.node_start[b])
                pieces.append(
                    (
                        old.instances[a:b],
                        old.paths[a:b],
                        old.member[a:b],
                        old.set_of[a:b],
                        np.diff(old.node_start[a : b + 1]),
                        old.nodes[na:nb],
                    )
                )

        def read(ids: Iterable[int]) -> None:
            instances: list[MemberInstance] = []
            members: list[int] = []
            sets: list[int] = []
            lengths: list[int] = []
            nodes: list[int] = []
            for m in ids:
                block = varying._compute_instances(self.members[m])
                sizes[m] = len(block)
                for instance in block:
                    instances.append(instance)
                    members.append(m)
                    sets.append(set_id.setdefault(instance.validity, len(set_id)))
                    lengths.append(len(instance.path))
                    nodes.extend(map(member_id.__getitem__, instance.path))
            pieces.append(
                (
                    instances,
                    [instance.full_path for instance in instances],
                    *(np.array(c, dtype=np.int64) for c in (members, sets, lengths, nodes)),
                )
            )

        if old is None:
            read(changed)
        else:
            cursor = 0
            for m in changed:
                keep(cursor, m)
                read((m,))
                cursor = m + 1
            keep(cursor, len(self.members))
        self.instances = [i for piece in pieces for i in piece[0]]
        self.paths = [p for piece in pieces for p in piece[1]]
        self.member, self.set_of, path_len, self.nodes = (
            np.concatenate([piece[k] for piece in pieces] or [np.zeros(0, np.int64)])
            for k in range(2, 6)
        )
        self.start = np.concatenate(([0], np.cumsum(sizes)))
        self.node_start = np.concatenate(([0], np.cumsum(path_len)))
        self.node_of = np.repeat(np.arange(len(path_len)), path_len)
        self._path_id: "dict[str, int] | None" = None
        self.set_id = set_id
        rows = np.zeros((len(set_id) - n_old_sets, universe), dtype=np.bool_)
        for row, validity in enumerate(list(set_id)[n_old_sets:]):
            rows[row, list(validity.moments)] = True
        self.matrix = rows if old is None else np.concatenate((old.matrix, rows))

    @property
    def path_id(self) -> "dict[str, int]":
        """Instance number by full path, built on first ask (a racing
        build yields an equal dict)."""
        path_id = self._path_id
        if path_id is None:
            path_id = self._path_id = dict(zip(self.paths, range(len(self.paths))))
        return path_id

    def member_labels(self) -> "tuple[object, Callable[[list[str]], list[int]]]":
        """The labelling of the dimension's cell coordinates by member
        number, for a cube index to compute once per coordinate list
        (:meth:`~repro.perf.rollup_index.RollupIndex.coord_labels`): an
        instance path gets the number of the member it ends at, a
        coordinate naming no member -1.  Every table over one skeleton
        gives the same key, so a hypothetical structure's reads share the
        base's."""
        member_id = self.member_id

        def label(coords: "list[str]") -> "list[int]":
            return [member_id.get(coord.rsplit("/", 1)[-1], -1) for coord in coords]

        return ("member", self.members), label

    def of_members(self, ids: np.ndarray) -> np.ndarray:
        """The instances of the members ``ids``, member by member (in the
        order given), each member's in its own order."""
        first, stop = self.start[ids], self.start[ids + 1]
        sizes = stop - first
        total = int(sizes.sum())
        if not total:
            return np.zeros(0, dtype=np.int64)
        shift = np.repeat(first - (np.cumsum(sizes) - sizes), sizes)
        return np.arange(total) + shift

    def at_moments(self, ids: np.ndarray) -> np.ndarray:
        """For each of the members ``ids``, the instance valid at each
        moment — the paper's ``d_t`` — or -1 where it has none: one row per
        member, one column per moment."""
        instances = self.of_members(ids)
        owner = np.repeat(np.arange(len(ids)), self.start[ids + 1] - self.start[ids])
        hit, moment = np.nonzero(self.matrix[self.set_of[instances]])
        at = np.full((len(ids), self.matrix.shape[1]), -1, dtype=np.int64)
        at[owner[hit], moment] = instances[hit]  # a member's sets are disjoint
        return at

    def through(self, names: Iterable[str]) -> np.ndarray:
        """The instances whose path passes through (or ends at) one of
        ``names``, ascending; a name that is no member passes nothing."""
        ids = [self.member_id[name] for name in names if name in self.member_id]
        through = np.zeros(len(self.instances), dtype=np.bool_)
        through[self.node_of[np.isin(self.nodes, ids)]] = True
        return np.flatnonzero(through)


class VaryingDimension:
    """A dimension whose hierarchy varies over a parameter dimension.

    Parameters
    ----------
    dimension:
        The skeleton hierarchy.  Non-leaf structure and the *default*
        parent of each member come from here.
    parameter:
        The parameter dimension driving the changes.  Its leaves are the
        "moments"; it may be ordered (Time) or unordered (Location).
    """

    def __init__(self, dimension: Dimension, parameter: Dimension) -> None:
        self.dimension = dimension
        self.parameter = parameter
        self._universe = parameter.leaf_count
        if self._universe == 0:
            raise SchemaError(
                f"parameter dimension {parameter.name!r} has no leaf members"
            )
        # member name -> per-moment parent name (None = invalid at that moment)
        self._parent_at: dict[str, list[str | None]] = {}
        #: every name a row was ever pointed at: a write to one of these
        #: can change the path of the members below it
        self._parents_named: set[str] = set()
        #: the instance table (:meth:`instance_table`) — the one index of
        #: this structure's instances — and the members a write re-rowed
        #: since it was built
        self._table: InstanceTable | None = None
        self._stale: set[str] = set()
        #: bumped by every write (see :attr:`CubeSchema.generation`)
        self.generation = next_generation()

    # -- basic properties ---------------------------------------------------

    @property
    def name(self) -> str:
        return self.dimension.name

    @property
    def universe(self) -> int:
        """Number of moments (leaves of the parameter dimension)."""
        return self._universe

    def moment_index(self, moment: str | int) -> int:
        """Normalise a moment given as leaf name or order index."""
        if isinstance(moment, int):
            if not 0 <= moment < self._universe:
                raise SchemaError(
                    f"moment index {moment} out of range [0, {self._universe})"
                )
            return moment
        return self.parameter.order_index(moment)

    def is_managed(self, member: str) -> bool:
        """Whether this member has a per-moment parent assignment."""
        return member in self._parent_at

    def has_below(self, member: str) -> bool:
        """Whether another member's path may pass through ``member``: it
        has a skeleton child or was named as a parent."""
        return bool(self.dimension.member(member).children) or member in self._parents_named

    # -- mutation -------------------------------------------------------------

    def _managed_row(self, member: str) -> list[str | None]:
        member_obj = self.dimension.member(member)  # validates existence
        row = self._parent_at.get(member)
        if row is None:
            # Seed from the skeleton: valid everywhere under the static parent.
            parent = member_obj.parent
            default = parent.name if parent is not None else None
            row = [default] * self._universe
            self._parent_at[member] = row
        return row

    def _check_parent(self, parent: str) -> Member:
        parent_obj = self.dimension.member(parent)
        if parent_obj.is_leaf and parent_obj.children == ():
            # Def. 3.1 requires the new parent to be a non-leaf member.  A
            # skeleton member without children that is *intended* as a class
            # (e.g. an empty department) is still acceptable only if it is
            # not itself a managed leaf; we reject true leaves that carry
            # data of their own.
            if self.is_managed(parent):
                raise InvalidChangeError(
                    f"cannot reparent under {parent!r}: it is a leaf member"
                )
        return parent_obj

    def _forget(self, member: str) -> None:
        """Mark the instances a write to ``member``'s row can change.  A
        member's instances are read off its own row and its ancestors', so
        a member nothing hangs below — no skeleton child, never named as a
        parent — leaves the table to be patched in its rows alone; below
        any other member every path may pass through it (Def. 3.1: a
        non-leaf reparent changes every root-to-leaf path under it), so
        the table goes."""
        self.generation = next_generation()
        if self.has_below(member):
            self._table = None
        else:
            self._stale.add(member)

    def assign(
        self,
        member: str,
        parent: str,
        moments: Iterable[str | int] | None = None,
    ) -> None:
        """Set the parent of ``member`` for the given moments (default: all).

        This is the bulk-loading primitive; :meth:`reparent` is the
        Def. 3.1 legal-change primitive.
        """
        self._check_parent(parent)
        row = self._managed_row(member)
        self._forget(member)
        self._parents_named.add(parent)
        if moments is None:
            for t in range(self._universe):
                row[t] = parent
        else:
            for moment in moments:
                row[self.moment_index(moment)] = parent

    def set_invalid(self, member: str, moments: Iterable[str | int]) -> None:
        """Mark ``member`` invalid (no instance) at the given moments."""
        row = self._managed_row(member)
        self._forget(member)
        for moment in moments:
            row[self.moment_index(moment)] = None

    def reparent(self, member: str, new_parent: str, from_moment: str | int) -> None:
        """Apply a legal structural change (Def. 3.1).

        Changes ``member``'s parent to ``new_parent`` for every moment at or
        after ``from_moment`` at which the member exists.  Requires an
        ordered parameter dimension ("moments" in the sense of Sec. 3.1).
        """
        if not self.parameter.ordered:
            raise InvalidChangeError(
                "reparent() requires an ordered parameter dimension; use "
                "assign() with explicit moments for unordered parameters"
            )
        self._check_parent(new_parent)
        start = self.moment_index(from_moment)
        row = self._managed_row(member)
        self._forget(member)
        self._parents_named.add(new_parent)
        for t in range(start, self._universe):
            if row[t] is not None:
                row[t] = new_parent

    def assignments(self) -> dict[str, list[str | None]]:
        """Snapshot of the per-moment parent table (for persistence)."""
        return {name: list(row) for name, row in self._parent_at.items()}

    def load_assignments(
        self, table: "dict[str, list[str | None]]"
    ) -> None:
        """Restore a snapshot produced by :meth:`assignments`."""
        for member, row in table.items():
            self.dimension.member(member)  # validates existence
            if len(row) != self._universe:
                raise SchemaError(
                    f"assignment row for {member!r} has {len(row)} moments; "
                    f"parameter has {self._universe}"
                )
            for parent in row:
                if parent is not None:
                    self.dimension.member(parent)
        self._parent_at = {name: list(row) for name, row in table.items()}
        self._parents_named = {
            parent for row in table.values() for parent in row if parent is not None
        }
        self._table = None
        self.generation = next_generation()

    def copy(self) -> "VaryingDimension":
        """Independent copy sharing the skeleton and parameter dimensions.

        Used to build *hypothetical* structures (positive scenarios) without
        disturbing the real one.  The clone starts with this structure's
        instance table (a table is never changed), so a change relation
        recomputes the members it moves and no other.
        """
        clone = VaryingDimension(self.dimension, self.parameter)
        clone._parent_at = {name: list(row) for name, row in self._parent_at.items()}
        clone._parents_named = set(self._parents_named)
        clone._table, clone._stale = self._table, set(self._stale)
        return clone

    # -- structure queries ---------------------------------------------------

    def parent_at(self, member: str, moment: str | int) -> str | None:
        """Parent of ``member`` at a moment (``None`` if invalid there)."""
        t = self.moment_index(moment)
        row = self._parent_at.get(member)
        if row is not None:
            return row[t]
        parent = self.dimension.member(member).parent
        return parent.name if parent is not None else None

    def path_at(self, member: str, moment: str | int) -> tuple[str, ...] | None:
        """Root-to-member path at a moment, or ``None`` if invalid.

        Walks parent assignments upward, falling back to the skeleton for
        unmanaged ancestors, so reparenting a non-leaf member changes the
        root-to-leaf path of every leaf below it (as Def. 3.1 notes).
        """
        t = self.moment_index(moment)
        parts = [member]
        current = member
        seen = {member}
        root_name = self.dimension.root.name
        while current != root_name:
            parent = self.parent_at(current, t)
            if parent is None:
                return None
            if parent in seen:
                raise SchemaError(
                    f"cycle in varying hierarchy of {self.name!r} at moment "
                    f"{t}: {' -> '.join(parts)} -> {parent}"
                )
            parts.append(parent)
            seen.add(parent)
            current = parent
        return tuple(reversed(parts))

    # -- instances -------------------------------------------------------------

    def _compute_instances(self, member: str) -> list[MemberInstance]:
        # the one path walk: ``member``'s instances, read moment by moment
        # off the rows (:meth:`path_at`) for the instance table
        by_path: dict[tuple[str, ...], list[int]] = {}
        first_seen: dict[tuple[str, ...], int] = {}
        for t in range(self._universe):
            path = self.path_at(member, t)
            if path is None:
                continue
            by_path.setdefault(path, []).append(t)
            first_seen.setdefault(path, t)
        instances = [
            MemberInstance(member, path, ValiditySet(moments, self._universe))
            for path, moments in by_path.items()
        ]
        instances.sort(key=lambda inst: first_seen[inst.path])
        return instances

    def instances_of(self, member: str) -> list[MemberInstance]:
        """All instances of a member, ordered by first moment of validity.

        Instances are always derived from the per-moment root-to-member
        path, so a member with an unmanaged row but a *managed ancestor*
        (non-leaf reparenting, Def. 3.1) still gets the induced instances.
        A member with no managed ancestors yields its single static
        instance, valid at every moment.  Read off the instance table.
        """
        table = self.instance_table()
        m = table.member_id[self.dimension.member(member).name]
        return table.instances[table.start[m] : table.start[m + 1]]

    def instance_table(self) -> InstanceTable:
        """Every instance of every member, as arrays (:class:`InstanceTable`):
        built once per structure generation — a write that re-rows only
        some members patches the table it leaves behind, re-reading those
        members alone, and so does the first ask of a :meth:`copy` that
        R changed."""
        table, generation = self._table, self.generation
        if table is None or table.dim_generation != self.dimension.generation:
            table = InstanceTable.build(self)
        elif self._stale:
            table = table.patched(self, self._stale)
        else:
            return table
        if generation == self.generation:  # no write raced the build
            self._table, self._stale = table, set()
        return table

    def instance_at(self, member: str, moment: str | int) -> MemberInstance | None:
        """The unique instance of ``member`` valid at a moment, if any
        (:meth:`InstanceTable.at_moments` for many members at once).

        This is the paper's ``d_t``.
        """
        t = self.moment_index(moment)
        for instance in self.instances_of(member):
            if t in instance.validity:
                return instance
        return None

    def managed_members(self) -> list[str]:
        """Members with an explicit per-moment assignment, in insertion order."""
        return list(self._parent_at)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VaryingDimension({self.name!r} over {self.parameter.name!r}, "
            f"{len(self._parent_at)} managed members)"
        )
