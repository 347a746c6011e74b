"""Dimensions, members, and hierarchies.

A :class:`Dimension` organises :class:`Member` objects in a tree (the
dimension *hierarchy*).  Every dimension has an implicit root member carrying
the dimension's own name, mirroring the Essbase convention used by the paper
(e.g. the ``Organization`` dimension of Fig. 1 has root ``Organization`` with
children ``FTE``, ``PTE``, ``Contractor``).

Ordered dimensions (``ordered=True``) additionally expose a total order over
their *leaf* members — document order, i.e. the order in which leaves were
added.  The paper calls the leaves of an ordered parameter dimension
"moments"; :meth:`Dimension.order_index` maps a leaf name to its position in
that order.

Member names are unique within a dimension.  Reclassification of a member
under different parents over time is *not* modelled by mutating the
hierarchy; it is modelled by :mod:`repro.olap.instances`, which layers
member *instances* with validity sets on top of a static reference
hierarchy.
"""

from __future__ import annotations

import itertools
from typing import AbstractSet, Callable, Iterable, Iterator

from repro.errors import DuplicateMemberError, MemberNotFoundError, SchemaError

__all__ = ["Member", "Dimension", "next_generation"]

#: A fresh structure generation: dimension hierarchies, varying
#: structures, schemas, a cube's set of leaves and a warehouse's named sets
#: all draw theirs from this one process-wide counter, so no number is
#: handed out twice and two equal generations are one structure state.
next_generation = itertools.count(1).__next__


class Member:
    """A node in a dimension hierarchy.

    Attributes are read via properties; the tree is mutated only through
    :class:`Dimension` methods so the dimension's indexes stay consistent.
    """

    __slots__ = ("_name", "_parent", "_children", "_dimension")

    def __init__(self, name: str, parent: "Member | None", dimension: "Dimension") -> None:
        self._name = name
        self._parent = parent
        self._children: list[Member] = []
        self._dimension = dimension

    @property
    def name(self) -> str:
        return self._name

    @property
    def parent(self) -> "Member | None":
        return self._parent

    @property
    def children(self) -> tuple["Member", ...]:
        return tuple(self._children)

    @property
    def dimension(self) -> "Dimension":
        return self._dimension

    @property
    def is_leaf(self) -> bool:
        return not self._children

    @property
    def is_root(self) -> bool:
        return self._parent is None

    @property
    def depth(self) -> int:
        """Distance from the root (the root has depth 0)."""
        node, depth = self, 0
        while node._parent is not None:
            node = node._parent
            depth += 1
        return depth

    @property
    def level(self) -> int:
        """Essbase-style level: 0 for leaves, 1 + max child level otherwise."""
        if self.is_leaf:
            return 0
        return 1 + max(child.level for child in self._children)

    def path(self) -> str:
        """Root-to-member path like ``Organization/FTE/Joe``."""
        parts: list[str] = []
        node: Member | None = self
        while node is not None:
            parts.append(node._name)
            node = node._parent
        return "/".join(reversed(parts))

    def ancestors(self) -> Iterator["Member"]:
        """Yield ancestors from parent up to (and including) the root."""
        node = self._parent
        while node is not None:
            yield node
            node = node._parent

    def descendants(self, include_self: bool = False) -> Iterator["Member"]:
        """Yield descendants in depth-first document order."""
        if include_self:
            yield self
        for child in self._children:
            yield child
            yield from child.descendants()

    def leaves(self) -> Iterator["Member"]:
        """Yield the leaf members below (or equal to) this member."""
        if self.is_leaf:
            yield self
            return
        for child in self._children:
            yield from child.leaves()

    def is_descendant_of(self, other: "Member") -> bool:
        return any(anc is other for anc in self.ancestors())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Member({self.path()!r})"


class Dimension:
    """A dimension: a named member hierarchy, optionally ordered.

    Parameters
    ----------
    name:
        The dimension name; also the name of the implicit root member.
    ordered:
        Whether the leaf members carry a total order (required of parameter
        dimensions like Time in the paper's ordered case).
    is_measures:
        Marks the measures dimension; rules (see :mod:`repro.olap.rules`)
        resolve bare member references against the measures dimension.
    """

    def __init__(self, name: str, ordered: bool = False, is_measures: bool = False) -> None:
        if not name:
            raise SchemaError("dimension name must be non-empty")
        self.name = name
        self.ordered = ordered
        self.is_measures = is_measures
        self._root = Member(name, None, self)
        self._members: dict[str, Member] = {name: self._root}
        #: the names of the leaf members (:meth:`leaf_names`)
        self._leaves: set[str] = {name}
        # lazily rebuilt after add_member
        self._leaf_order: dict[str, int] | None = None
        #: bumped by every add_member (see :attr:`CubeSchema.generation`)
        self.generation = next_generation()

    # -- construction -----------------------------------------------------

    @property
    def root(self) -> Member:
        return self._root

    def add_member(self, name: str, parent: str | Member | None = None) -> Member:
        """Add a member under ``parent`` (default: the root) and return it."""
        if name in self._members:
            raise DuplicateMemberError(
                f"member {name!r} already exists in dimension {self.name!r}"
            )
        parent_member = self._root if parent is None else self._resolve(parent)
        member = Member(name, parent_member, self)
        parent_member._children.append(member)
        self._members[name] = member
        self._leaves.discard(parent_member._name)
        self._leaves.add(name)
        self._leaf_order = None
        self.generation = next_generation()
        return member

    def add_children(self, parent: str | Member | None, names: Iterable[str]) -> list[Member]:
        """Add several members under one parent; returns them in order."""
        return [self.add_member(name, parent) for name in names]

    # -- lookup -----------------------------------------------------------

    def _resolve(self, ref: str | Member) -> Member:
        if isinstance(ref, Member):
            if ref._dimension is not self:
                raise SchemaError(
                    f"member {ref.name!r} belongs to dimension "
                    f"{ref._dimension.name!r}, not {self.name!r}"
                )
            return ref
        member = self._members.get(ref)
        if member is None:
            raise MemberNotFoundError(self.name, ref)
        return member

    def member(self, name: str) -> Member:
        """Return the member with this name, raising if absent."""
        return self._resolve(name)

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def members(self) -> Iterator[Member]:
        """All members (including the root) in depth-first document order."""
        yield from self._root.descendants(include_self=True)

    def leaf_members(self) -> list[Member]:
        """Leaf members in document order (== leaf order if ordered)."""
        return list(self._root.leaves())

    def members_at_level(self, level: int) -> list[Member]:
        """All members with the given Essbase-style level (0 = leaves)."""
        return [m for m in self.members() if m.level == level]

    def __len__(self) -> int:
        return len(self._members)

    # -- leaf ordering (for ordered / parameter dimensions) ---------------

    def _ensure_leaf_order(self) -> dict[str, int]:
        if self._leaf_order is None:
            self._leaf_order = {
                member.name: index for index, member in enumerate(self._root.leaves())
            }
        return self._leaf_order

    def leaf_names(self) -> AbstractSet[str]:
        """The names of the leaf members — a membership test is the
        leafness test of a known member.  The set is live: ``add_member``
        updates it in place (a child under a leaf makes the leaf a
        parent), so a holder always sees the current hierarchy.  Callers
        read it and never write it."""
        return self._leaves

    @property
    def leaf_count(self) -> int:
        return len(self._ensure_leaf_order())

    def order_index(self, name: str) -> int:
        """Position of a leaf member in the dimension's leaf order."""
        order = self._ensure_leaf_order()
        try:
            return order[name]
        except KeyError:
            member = self._resolve(name)  # raises MemberNotFoundError if absent
            raise SchemaError(
                f"member {member.name!r} of dimension {self.name!r} is not a leaf"
            ) from None

    def leaf_at(self, index: int) -> Member:
        """Leaf member at a given order position."""
        leaves = self.leaf_members()
        if not 0 <= index < len(leaves):
            raise SchemaError(
                f"leaf index {index} out of range for dimension {self.name!r} "
                f"({len(leaves)} leaves)"
            )
        return leaves[index]

    # -- convenience ------------------------------------------------------

    def select_members(self, predicate: Callable[[Member], bool]) -> list[Member]:
        """All members satisfying a predicate, in document order."""
        return [m for m in self.members() if predicate(m)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ordered " if self.ordered else ""
        return f"Dimension({self.name!r}, {kind}{len(self._members)} members)"
