"""Cube schemas: dimension line-up plus the varying-dimension registry.

A :class:`CubeSchema` fixes the ordered list of dimensions of a cube and
records which of them are *varying* (Def. 2.1), together with the
:class:`~repro.olap.instances.VaryingDimension` objects that carry their
per-moment structure.

Coordinate conventions
----------------------
A cell address is a tuple with one *coordinate* (a string) per dimension, in
schema order:

* **non-varying dimension** — the member name, at any hierarchy level;
* **varying dimension, leaf level** — the *member-instance full path*
  (``"Organization/FTE/Joe"``), because at leaf level the cube addresses
  instances, not members (Fig. 2 has three distinct rows for Joe);
* **varying dimension, non-leaf level** — the member name (``"FTE"``), an
  aggregate row.

``"/" in coordinate`` therefore distinguishes leaf instances from non-leaf
members on varying dimensions.
"""

from __future__ import annotations

from operator import contains
from typing import Sequence

from repro.errors import SchemaError
from repro.olap.dimension import Dimension, next_generation
from repro.olap.instances import MemberInstance, VaryingDimension

__all__ = ["CubeSchema"]

Address = tuple[str, ...]


class _InstancePaths:
    """The leaf test of a varying dimension: a leaf coordinate is a
    member-instance path (``"/" in coord``)."""

    __slots__ = ()

    def __contains__(self, coord: str) -> bool:
        return "/" in coord


_INSTANCE_PATHS = _InstancePaths()


class CubeSchema:
    """Ordered dimensions of a cube plus its varying-dimension registry."""

    def __init__(self, dimensions: Sequence[Dimension]) -> None:
        if not dimensions:
            raise SchemaError("a cube schema needs at least one dimension")
        names = [d.name for d in dimensions]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate dimension names in schema: {names}")
        self.dimensions: tuple[Dimension, ...] = tuple(dimensions)
        self._index = {d.name: i for i, d in enumerate(self.dimensions)}
        self._varying: dict[str, VaryingDimension] = {}
        # Memoised rollup tests and ancestor chains.  These live on the
        # schema (not on individual cubes) so that copied cubes share them
        # safely: the verdicts depend only on the hierarchy and on which
        # dimensions are varying, and registering a new varying dimension
        # clears them (see :meth:`register_varying`).
        self._under_cache: dict[tuple[int, str, str], bool] = {}
        self._ancestor_cache: dict[tuple[int, str], tuple[str, ...]] = {}
        self._generation = next_generation()
        self._leaf_tests = self._tests()

    def _tests(self) -> tuple[object, ...]:
        # one leaf test per dimension, each answering ``coord in test``:
        # the dimension's live leaf-name set, or the instance-path test of
        # a varying dimension
        return tuple(
            _INSTANCE_PATHS if d.name in self._varying else d.leaf_names()
            for d in self.dimensions
        )

    # -- registry ------------------------------------------------------------

    def register_varying(self, varying: VaryingDimension) -> VaryingDimension:
        """Declare one of the schema's dimensions as varying."""
        name = varying.dimension.name
        if name not in self._index:
            raise SchemaError(f"dimension {name!r} is not part of this schema")
        if varying.parameter.name not in self._index:
            raise SchemaError(
                f"parameter dimension {varying.parameter.name!r} of varying "
                f"dimension {name!r} is not part of this schema"
            )
        if self.dimensions[self._index[name]] is not varying.dimension:
            raise SchemaError(
                f"varying dimension object for {name!r} does not wrap the "
                "schema's dimension instance"
            )
        self._varying[name] = varying
        # Registering flips the dimension's coordinate semantics from
        # member-based to instance-path-based; cached verdicts computed
        # under the old semantics would be stale.
        self._under_cache.clear()
        self._ancestor_cache.clear()
        self._generation = next_generation()
        self._leaf_tests = self._tests()
        return varying

    @property
    def generation(self) -> int:
        """The schema's structure generation: it moves on every edit of a
        dimension hierarchy, a varying structure or the varying registry.
        Every such edit draws a fresh number from one process-wide
        counter, so the largest is new after each of them."""
        return max(
            self._generation,
            *(d.generation for d in self.dimensions),
            *(v.generation for v in self._varying.values()),
        )

    def make_varying(self, dim_name: str, parameter_name: str) -> VaryingDimension:
        """Convenience: build + register a VaryingDimension from names."""
        varying = VaryingDimension(
            self.dimension(dim_name), self.dimension(parameter_name)
        )
        return self.register_varying(varying)

    @property
    def varying(self) -> dict[str, VaryingDimension]:
        return dict(self._varying)

    def varying_dimension(self, name: str) -> VaryingDimension:
        try:
            return self._varying[name]
        except KeyError:
            raise SchemaError(f"dimension {name!r} is not varying") from None

    def is_varying(self, name: str) -> bool:
        return name in self._varying

    # -- dimension access -------------------------------------------------------

    def dimension(self, name: str) -> Dimension:
        try:
            return self.dimensions[self._index[name]]
        except KeyError:
            raise SchemaError(f"no dimension named {name!r} in schema") from None

    def dim_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no dimension named {name!r} in schema") from None

    def dim_names(self) -> list[str]:
        return [d.name for d in self.dimensions]

    @property
    def n_dims(self) -> int:
        return len(self.dimensions)

    def measures_dimension(self) -> Dimension | None:
        for dimension in self.dimensions:
            if dimension.is_measures:
                return dimension
        return None

    # -- addresses ------------------------------------------------------------

    def address(self, **coords: str) -> Address:
        """Build an address tuple from ``dim_name=coordinate`` keywords."""
        missing = [d.name for d in self.dimensions if d.name not in coords]
        if missing:
            raise SchemaError(f"address is missing coordinates for {missing}")
        extra = [name for name in coords if name not in self._index]
        if extra:
            raise SchemaError(f"address has unknown dimensions {extra}")
        return tuple(coords[d.name] for d in self.dimensions)

    def validate_address(self, address: Sequence[str]) -> Address:
        if len(address) != self.n_dims:
            raise SchemaError(
                f"address {address!r} has {len(address)} coordinates; "
                f"schema has {self.n_dims} dimensions"
            )
        return tuple(address)

    # -- coordinate semantics ------------------------------------------------

    def coordinate_is_leaf(self, dim_index: int, coord: str) -> bool:
        """Whether a coordinate addresses a leaf-level cell slot: a probe
        of the dimension's leaf test (the live leaf-name set, or ``"/" in
        coord`` on a varying dimension); a coordinate of a non-varying
        dimension that is no leaf is looked up, which raises
        ``MemberNotFoundError`` for an unknown member."""
        if coord in self._leaf_tests[dim_index]:
            return True
        dimension = self.dimensions[dim_index]
        if dimension.name not in self._varying:
            dimension.member(coord)  # an unknown member raises here
        return False

    def is_leaf_address(self, address: Sequence[str]) -> bool:
        """A cell is leaf iff every coordinate is leaf level (Sec. 2).

        :meth:`coordinate_is_leaf` for every coordinate.  A leaf address
        is one pass of C-level probes — its length, then each coordinate
        against its dimension's test (the live leaf-name set, or ``"/" in
        coord`` on a varying dimension) — and nothing else.  Any other
        address is asked coordinate by coordinate: a wrong length raises
        :class:`~repro.errors.SchemaError` as :meth:`validate_address`
        does, and a coordinate of a non-varying dimension that is no leaf
        is looked up — which raises ``MemberNotFoundError`` for an unknown
        member wherever it stands, so no write can store a cell at a
        member that does not exist.  Instance paths are not looked up
        (:func:`~repro.core.validation.check_warehouse` checks those)."""
        tests = self._leaf_tests
        if len(address) == len(tests) and all(map(contains, tests, address)):
            return True
        self.validate_address(address)
        return all([self.coordinate_is_leaf(i, coord) for i, coord in enumerate(address)])

    def coordinate_display(self, dim_index: int, coord: str) -> str:
        """Short display form (``FTE/Joe`` for instance paths)."""
        if "/" in coord:
            parts = coord.split("/")
            return "/".join(parts[-2:])
        return coord

    def is_under(self, dim_index: int, leaf_coord: str, coord: str) -> bool:
        """Whether ``leaf_coord`` rolls up into ``coord`` on this dimension.

        ``coord`` may be the leaf coordinate itself, an ancestor member, or
        the dimension root.
        """
        if leaf_coord == coord:
            return True
        dimension = self.dimensions[dim_index]
        if dimension.name in self._varying:
            if "/" in coord:
                return False  # two distinct leaf instances never roll up
            # leaf_coord is an instance path; ancestors are its components.
            return coord in leaf_coord.split("/")[:-1]
        leaf_member = dimension.member(leaf_coord)
        ancestor = dimension.member(coord)
        return leaf_member.is_descendant_of(ancestor)

    def is_under_cached(self, dim_index: int, leaf_coord: str, coord: str) -> bool:
        """Memoised :meth:`is_under`; safe to share across cubes because the
        cache is cleared whenever the varying registry changes."""
        key = (dim_index, leaf_coord, coord)
        hit = self._under_cache.get(key)
        if hit is None:
            hit = self.is_under(dim_index, leaf_coord, coord)
            self._under_cache[key] = hit
        return hit

    def ancestor_chain(self, dim_index: int, leaf_coord: str) -> tuple[str, ...]:
        """All coordinates ``c`` with ``is_under(dim_index, leaf_coord, c)``:
        the leaf coordinate itself plus every ancestor up to the root.

        Memoised per (dimension, coordinate); the rollup index resolves it
        once per distinct leaf coordinate to build its rolls-up-to tables.
        """
        key = (dim_index, leaf_coord)
        chain = self._ancestor_cache.get(key)
        if chain is None:
            dimension = self.dimensions[dim_index]
            if dimension.name in self._varying and "/" in leaf_coord:
                # Instance path: ancestors are its proper path prefixes'
                # member names (see :meth:`is_under`).
                parts = leaf_coord.split("/")
                chain = (leaf_coord, *parts[:-1])
            else:
                member = dimension.member(leaf_coord)
                chain = (leaf_coord, *(a.name for a in member.ancestors()))
            self._ancestor_cache[key] = chain
        return chain

    def instance_for_coordinate(
        self, dim_index: int, coord: str
    ) -> MemberInstance | None:
        """Resolve a varying-dimension leaf coordinate to its MemberInstance
        (``None`` for a coordinate that names none), off the instance table."""
        dimension = self.dimensions[dim_index]
        varying = self._varying.get(dimension.name)
        if varying is None or "/" not in coord:
            return None
        table = varying.instance_table()
        i = table.path_id.get(coord)
        return None if i is None else table.instances[i]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        for dimension in self.dimensions:
            suffix = "*" if dimension.name in self._varying else ""
            parts.append(dimension.name + suffix)
        return f"CubeSchema({', '.join(parts)})"
