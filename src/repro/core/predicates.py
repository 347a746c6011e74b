"""Predicates for the selection operator σ (Sec. 4.1).

A predicate is a callable ``(cube, dim_index, coord) -> bool`` applied to
the coordinates of one dimension.  Factories below build the predicate
forms the paper enumerates:

* ``member_equals`` — ``σ_{Product = TV}``;
* ``descendant_of`` — ``σ_{Product descendant-of AudioVideo}``;
* ``validity_intersects`` — ``σ_{Product.VS ∩ {Feb, Apr} ≠ ∅}``;
* ``value_predicate`` — ``σ_{Location=NY ∧ Time=Jan ∧ Measure=Sales ∧
  Value > 1000}`` (member instances having some cell satisfying a value
  comparison under fixed coordinates on other dimensions);

plus the boolean combinators ``and_``, ``or_``, ``not_``.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Iterable, Mapping

from repro.errors import QueryError
from repro.olap.cube import Cube

__all__ = [
    "Predicate",
    "member_equals",
    "member_in",
    "descendant_of",
    "validity_intersects",
    "value_predicate",
    "and_",
    "or_",
    "not_",
]

Predicate = Callable[[Cube, int, str], bool]

#: applied to a value array at once (NaN compares as a float does)
_RELOPS: dict[str, Callable[[Any, float], Any]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _coord_member_name(coord: str) -> str:
    """The member a coordinate denotes (instance paths end in the member)."""
    return coord.split("/")[-1] if "/" in coord else coord


def member_equals(name: str) -> Predicate:
    """Coordinates denoting member ``name`` (any instance of it)."""

    def predicate(cube: Cube, dim_index: int, coord: str) -> bool:
        return _coord_member_name(coord) == name

    return predicate


def member_in(names: Iterable[str]) -> Predicate:
    """Coordinates denoting any of the given members."""
    name_set = set(names)

    def predicate(cube: Cube, dim_index: int, coord: str) -> bool:
        return _coord_member_name(coord) in name_set

    return predicate


def descendant_of(ancestor: str, include_self: bool = False) -> Predicate:
    """Coordinates rolling up into ``ancestor`` on this dimension."""

    def predicate(cube: Cube, dim_index: int, coord: str) -> bool:
        if coord == ancestor:
            return include_self
        schema = cube.schema
        if schema.coordinate_is_leaf(dim_index, coord):
            return schema.is_under(dim_index, coord, ancestor)
        dimension = schema.dimensions[dim_index]
        if coord in dimension and ancestor in dimension:
            return dimension.member(coord).is_descendant_of(
                dimension.member(ancestor)
            )
        return False

    return predicate


def validity_intersects(moments: Iterable[int]) -> Predicate:
    """Instances whose validity set meets the given moments.

    Non-instance coordinates (non-leaf members, or members of non-varying
    dimensions) are treated as always-valid and pass.
    """
    moment_set = set(moments)

    def predicate(cube: Cube, dim_index: int, coord: str) -> bool:
        instance = cube.schema.instance_for_coordinate(dim_index, coord)
        if instance is None:
            return True
        return instance.validity.intersects_moments(moment_set)

    return predicate


def value_predicate(
    fixed: Mapping[str, str], relop: str, threshold: float
) -> Predicate:
    """Members having *some* leaf cell satisfying a value comparison.

    ``fixed`` pins coordinates on other dimensions (e.g. Location=NY,
    Time="Jan", Measure="Sales"); the comparison runs over every leaf cell
    of the candidate coordinate consistent with those pins.  Follows the
    paper's example σ over "products with Sales over $1000 in Jan in some
    market".  The candidate and the pins are one scope of the rollup index
    (:meth:`~repro.perf.rollup_index.RollupIndex.ids_under`), so a
    candidate costs one value gather and one vectorised compare.
    """
    try:
        compare = _RELOPS[relop]
    except KeyError:
        raise QueryError(
            f"unknown relational operator {relop!r}; expected one of "
            f"{sorted(_RELOPS)}"
        ) from None

    def predicate(cube: Cube, dim_index: int, coord: str) -> bool:
        schema = cube.schema
        named = {schema.dim_index(name): (value,) for name, value in fixed.items()}
        if dim_index in named:
            raise QueryError(
                "value predicate pins the selection dimension itself"
            )
        named[dim_index] = (coord,)
        index = cube.rollup_index()
        values = index.columns((), index.ids_under(named)).values
        return bool(compare(values, threshold).any())

    return predicate


def and_(*predicates: Predicate) -> Predicate:
    def predicate(cube: Cube, dim_index: int, coord: str) -> bool:
        return all(p(cube, dim_index, coord) for p in predicates)

    return predicate


def or_(*predicates: Predicate) -> Predicate:
    def predicate(cube: Cube, dim_index: int, coord: str) -> bool:
        return any(p(cube, dim_index, coord) for p in predicates)

    return predicate


def not_(inner: Predicate) -> Predicate:
    def predicate(cube: Cube, dim_index: int, coord: str) -> bool:
        return not inner(cube, dim_index, coord)

    return predicate
