"""Compressed perspective cubes (Sec. 8 future work).

The paper closes by naming "compression of perspective cubes" an open
problem.  The observation making it tractable: a perspective cube differs
from its input cube only on the sub-cubes of the *changing* members of the
varying dimension — typically ~1% of members (Sec. 6).  So a perspective
cube can be stored as a **delta**: a reference to the base cube plus the
leaf cells that were added/changed (*overrides*) and the base leaf cells
that disappeared (*deletions*), along with the output validity sets.

:func:`compress` builds the delta from a base cube and a what-if result,
comparing leaf values by their bits (a sign of zero is a change, an
unchanged NaN is not); :class:`CompressedPerspectiveCube` answers point
reads directly from the delta and can :meth:`materialize` the full cube
back (a lossless round-trip, property-tested).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Mapping, Sequence, TypeAlias

from repro.core.scenario import WhatIfCube
from repro.errors import QueryError
from repro.olap.cube import Cube
from repro.olap.missing import MISSING, Missing
from repro.olap.schema import Address
from repro.validity import ValiditySet

__all__ = ["CompressedPerspectiveCube", "compress"]

CellValue: TypeAlias = "float | Missing"

#: a leaf value's eight bytes: two values are the same leaf value when
#: their bits are
_BITS = struct.Struct("<d")


@dataclass
class CompressedPerspectiveCube:
    """Delta-encoded perspective cube over a base cube."""

    base: Cube
    overrides: dict[Address, float]
    deletions: frozenset[Address]
    validity_out: dict[str, ValiditySet] = field(default_factory=dict)

    # -- reads ---------------------------------------------------------------

    def value(self, address: Sequence[str]) -> CellValue:
        """Leaf-cell read straight from the delta."""
        addr = self.base.schema.validate_address(address)
        if addr in self.overrides:
            return self.overrides[addr]
        if addr in self.deletions:
            return MISSING
        return self.base.value(addr)

    def at(self, **coords: str) -> CellValue:
        return self.value(self.base.schema.address(**coords))

    # -- reconstruction -------------------------------------------------------

    def materialize(self) -> Cube:
        """Rebuild the full perspective cube (lossless)."""
        out = self.base.empty_like()
        out.load(
            [
                (addr, value)
                for addr, value in self.base.leaf_cells()
                if addr not in self.deletions and addr not in self.overrides
            ]
            + list(self.overrides.items())
        )
        return out

    # -- statistics ---------------------------------------------------------------

    @property
    def delta_cells(self) -> int:
        return len(self.overrides) + len(self.deletions)

    @property
    def compression_ratio(self) -> float:
        """Delta size relative to storing the full output cube.

        < 1 means the delta is smaller; with ~1% changing members this is
        typically a few percent.  Output size = base cells - deletions +
        overrides at addresses the base never stored.
        """
        new_addresses = sum(
            1 for addr in self.overrides if self.base.value(addr) is MISSING
        )
        output_cells = self.base.n_leaf_cells - len(self.deletions) + new_addresses
        return self.delta_cells / max(1, output_cells)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompressedPerspectiveCube({len(self.overrides)} overrides, "
            f"{len(self.deletions)} deletions, "
            f"ratio={self.compression_ratio:.3f})"
        )


def compress(
    base: Cube,
    result: "WhatIfCube | Cube",
    validity_out: Mapping[str, ValiditySet] | None = None,
) -> CompressedPerspectiveCube:
    """Delta-encode a what-if result against its base cube.

    ``result`` may be a :class:`WhatIfCube` (its leaf cube and validity
    sets are used) or a plain cube (pass ``validity_out`` separately if
    wanted).
    """
    if isinstance(result, WhatIfCube):
        leaf_cube = result.leaf_cube
        validity = dict(result.validity_out)
    else:
        leaf_cube = result
        validity = dict(validity_out or {})
    if leaf_cube.schema is not base.schema:
        raise QueryError(
            "compress() requires the result and base to share a schema"
        )

    # compared by bits: ``!=`` would keep a 0.0 -> -0.0 change out of the
    # delta (lost on the way back) and put every unchanged NaN in it
    bits = _BITS.pack
    base_cells = dict(base.leaf_cells())
    out_cells = dict(leaf_cube.leaf_cells())
    overrides: dict[Address, float] = {}
    for addr, value in out_cells.items():
        before = base_cells.get(addr)
        if before is None or bits(before) != bits(value):
            overrides[addr] = value
    deletions = frozenset(addr for addr in base_cells if addr not in out_cells)
    return CompressedPerspectiveCube(base, overrides, deletions, validity)
