"""Reference oracle for ρ and S: the per-cell operators, kept verbatim.

These are the ``relocate`` and ``split`` bodies as they stood before the
operators became array programs over coordinate-code columns
(``repro.core.operators``), together with the ``Cube.map_leaf_cells`` loop
``split`` ran on.  One ``Cube.set_value`` per cell, one validation per
cell: slow, obviously correct, and the definition of the **emission-order
contract** the columnar operators must reproduce — output instance (in
``validity_out`` order), then moment, then input order for ρ; input order
for S.  ``test_operator_parity.py`` holds the fast path to it.

Not product code: nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.core.operators import ChangeRelation, _hypothetical_structure
from repro.errors import QueryError
from repro.olap.cube import Cube
from repro.olap.instances import VaryingDimension
from repro.olap.missing import is_missing
from repro.olap.schema import Address
from repro.validity import ValiditySet

__all__ = ["relocate", "split"]


def relocate(
    cube: Cube,
    varying_name: str,
    validity_out: Mapping[str, ValiditySet],
    varying: VaryingDimension | None = None,
) -> Cube:
    """ρ(C, 𝒱): move leaf-cell values according to output validity sets.

    ``validity_out`` maps member-instance full paths (output coordinates) to
    their output validity sets 𝒱(d).  For every output leaf cell (d, t, ē)
    with ``t ∈ 𝒱(d)`` the value is copied from the input cell (d_t, t, ē),
    where d_t is the instance of the same member valid at t in the *input*;
    if no d_t exists the cell is ⊥.  Stored non-leaf cells are carried over
    unchanged, so the result holds the correct values for non-visual mode
    (Def. 4.4's closing remark).
    """
    schema = cube.schema
    varying = varying or schema.varying_dimension(varying_name)
    dim_index = schema.dim_index(varying_name)
    param_index = schema.dim_index(varying.parameter.name)
    param_leaves = [m.name for m in varying.parameter.leaf_members()]
    moment_of = {name: i for i, name in enumerate(param_leaves)}

    # Index input leaf cells by (member, moment) so the d_t lookup is O(1).
    by_member_moment: dict[tuple[str, int], list[tuple[Address, float]]] = {}
    input_instance_path: dict[tuple[str, int], str] = {}
    for addr, value in cube.leaf_cells():
        vcoord = addr[dim_index]
        member = vcoord.split("/")[-1]
        tcoord = addr[param_index]
        t = moment_of.get(tcoord)
        if t is None:
            raise QueryError(
                f"leaf cell parameter coordinate {tcoord!r} is not a leaf of "
                f"{varying.parameter.name!r}"
            )
        by_member_moment.setdefault((member, t), []).append((addr, value))
        existing = input_instance_path.setdefault((member, t), vcoord)
        if existing != vcoord:
            raise QueryError(
                f"input cube has two instances of member {member!r} with "
                f"data at the same moment {tcoord!r}: {existing!r} and "
                f"{vcoord!r} (validity sets must be disjoint)"
            )

    out = cube.empty_like()
    for out_coord, validity in validity_out.items():
        member = out_coord.split("/")[-1]
        for t in validity:
            for addr, value in by_member_moment.get((member, t), ()):
                if addr[dim_index] == out_coord:
                    out.set_value(addr, value)
                else:
                    moved = list(addr)
                    moved[dim_index] = out_coord
                    out.set_value(tuple(moved), value)
    for addr, value in cube.stored_derived_cells():
        out.set_value(addr, value)
    return out


def _map_leaf_cells(
    cube: Cube,
    transform: Callable[[Address, float], "tuple[Address, object] | None"],
) -> Cube:
    """New cube with each leaf cell rewritten (or dropped on ``None``);
    stored derived cells are carried over unchanged."""
    clone = cube.empty_like()
    for addr, value in cube.leaf_cells():
        result = transform(addr, value)
        if result is None:
            continue
        new_addr, new_value = result
        if is_missing(new_value):
            continue
        clone.set_value(new_addr, new_value)
    clone._stored_derived = dict(cube._stored_derived)
    return clone


def split(
    cube: Cube,
    varying_name: str,
    changes: ChangeRelation,
    varying: VaryingDimension | None = None,
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
    """
    schema = cube.schema
    varying = varying or schema.varying_dimension(varying_name)
    hypo = _hypothetical_structure(varying, changes)
    dim_index = schema.dim_index(varying_name)
    param_index = schema.dim_index(varying.parameter.name)
    moment_of = {
        m.name: i for i, m in enumerate(varying.parameter.leaf_members())
    }
    affected = {change.member for change in changes}

    def transform(addr: Address, value: float):
        member = addr[dim_index].split("/")[-1]
        if member not in affected:
            return addr, value
        t = moment_of[addr[param_index]]
        new_path = hypo.path_at(member, t)
        if new_path is None:
            return None
        new_coord = "/".join(new_path)
        if new_coord == addr[dim_index]:
            return addr, value
        moved = list(addr)
        moved[dim_index] = new_coord
        return tuple(moved), value

    return _map_leaf_cells(cube, transform), hypo
