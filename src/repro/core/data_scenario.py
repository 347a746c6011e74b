"""Data-driven what-if scenarios (Sec. 1 and Sec. 3's closing remark).

Besides structural scenarios, the paper notes hypothetical scenarios "can
also be data-driven.  E.g., assume that 10% of PTEs' salary during first
quarter in NY was instead given to PTEs in MA — structure stays the same
but data allocation changes."  (Balmin et al.'s Sesame system handles this
family; the paper positions its structural scenarios as complementary.)

:class:`AllocationScenario` implements exactly that re-allocation shape: a
*source region* (a coordinate filter), a fraction, and a *target*
coordinate override.  Each matching leaf cell loses ``fraction`` of its
value; the removed amount is added to the cell at the same address with
the target coordinates substituted.  The result is a
:class:`~repro.core.scenario.WhatIfCube`, so data-driven and structural
scenarios compose through :func:`~repro.core.scenario.apply_scenarios`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.perspective import Mode
from repro.core.scenario import WhatIfCube
from repro.errors import QueryError
from repro.olap.cube import Cube
from repro.olap.instances import VaryingDimension

__all__ = ["AllocationScenario"]


@dataclass
class AllocationScenario:
    """Move a fraction of matching leaf-cell values to other coordinates.

    Parameters
    ----------
    source:
        ``{dimension: coordinate}`` filter; a leaf cell matches when each
        filtered dimension's coordinate equals or rolls up into the given
        one (e.g. ``{"Organization": "PTE", "Location": "NY",
        "Time": "Qtr1"}``).
    target:
        ``{dimension: coordinate}`` overrides applied to matching cells'
        addresses to find the receiving cell (e.g. ``{"Location": "MA"}``).
        Target coordinates must be leaf level.
    fraction:
        Share of each matching value to move, in (0, 1].
    mode:
        Visual re-aggregates over the reallocated cube; non-visual keeps
        the input cube's aggregate values.
    """

    source: Mapping[str, str]
    target: Mapping[str, str]
    fraction: float
    mode: Mode = Mode.NON_VISUAL

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise QueryError(
                f"allocation fraction must be in (0, 1], got {self.fraction}"
            )
        if not self.target:
            raise QueryError("an allocation needs at least one target override")

    def apply(
        self, cube: Cube, varying: VaryingDimension | None = None
    ) -> WhatIfCube:
        schema = cube.schema
        source_index = {
            schema.dim_index(name): coord for name, coord in self.source.items()
        }
        target_index = {
            schema.dim_index(name): coord for name, coord in self.target.items()
        }
        for dim_index, coord in target_index.items():
            if not schema.coordinate_is_leaf(dim_index, coord):
                raise QueryError(
                    f"allocation target {coord!r} on dimension "
                    f"{schema.dimensions[dim_index].name!r} is not leaf level"
                )
        overlap = set(source_index) & set(target_index)
        # A target may override a filtered dimension (that is the point:
        # NY -> MA overrides Location), but then source and target
        # coordinates must differ or the allocation is a no-op cycle.
        for dim_index in overlap:
            if source_index[dim_index] == target_index[dim_index]:
                raise QueryError(
                    "allocation target equals its source coordinate on "
                    f"dimension {schema.dimensions[dim_index].name!r}"
                )

        cells: dict[tuple, float] = {}
        moved: dict[tuple, float] = {}
        for addr, value in cube.leaf_cells():
            matches = all(
                cube.coord_rolls_up(dim_index, addr[dim_index], coord)
                for dim_index, coord in source_index.items()
            )
            if not matches:
                cells[addr] = value
                continue
            amount = value * self.fraction
            cells[addr] = value - amount
            target_addr = list(addr)
            for dim_index, coord in target_index.items():
                target_addr[dim_index] = coord
            key = tuple(target_addr)
            moved[key] = moved.get(key, 0.0) + amount
        for addr, amount in moved.items():
            cells[addr] = cells.get(addr, 0.0) + amount
        out = cube.empty_like()
        out.load(cells.items())

        if self.mode is Mode.VISUAL:
            out.clear_stored_derived()
            return WhatIfCube(out, out, self.mode)
        return WhatIfCube(out, cube, self.mode)
