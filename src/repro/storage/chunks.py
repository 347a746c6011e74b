"""Chunked multidimensional arrays (Zhao et al., SIGMOD'97; paper Sec. 5).

A :class:`ChunkGrid` partitions an n-dimensional cell array into equal
chunks (edge chunks may be smaller).  Chunks are addressed by per-dimension
chunk coordinates; a *dimension order* linearises them for scanning, with
the **first** dimension in the order varying fastest — Fig. 6's "reading
chunks in dimension order ABC" numbers chunks 1..64 with A fastest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import ceil
from typing import Iterator, Sequence

import numpy as np

from repro.errors import StorageError

__all__ = ["ChunkGrid", "Chunk"]

ChunkCoord = tuple[int, ...]


@dataclass(frozen=True)
class Chunk:
    """One dense chunk: its grid coordinate, cell origin, and data array.

    MISSING cells are represented as ``np.nan`` inside chunk arrays.
    """

    coord: ChunkCoord
    origin: tuple[int, ...]
    data: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def cell_slices(self) -> tuple[slice, ...]:
        """Slices locating this chunk inside the full cell array."""
        return tuple(
            slice(o, o + s) for o, s in zip(self.origin, self.data.shape)
        )


class ChunkGrid:
    """Geometry of a chunked n-dimensional array.

    Parameters
    ----------
    dim_sizes:
        Cell extent of each dimension (leaf members / instance slots).
    chunk_shape:
        Chunk edge length per dimension.
    """

    def __init__(self, dim_sizes: Sequence[int], chunk_shape: Sequence[int]) -> None:
        if len(dim_sizes) != len(chunk_shape):
            raise StorageError(
                f"dim_sizes has {len(dim_sizes)} entries but chunk_shape has "
                f"{len(chunk_shape)}"
            )
        if not dim_sizes:
            raise StorageError("a chunk grid needs at least one dimension")
        for size, chunk in zip(dim_sizes, chunk_shape):
            if size <= 0 or chunk <= 0:
                raise StorageError(
                    f"dimension sizes and chunk sizes must be positive, got "
                    f"size={size}, chunk={chunk}"
                )
        self.dim_sizes = tuple(int(s) for s in dim_sizes)
        self.chunk_shape = tuple(int(c) for c in chunk_shape)
        self.chunks_per_dim = tuple(
            ceil(size / chunk)
            for size, chunk in zip(self.dim_sizes, self.chunk_shape)
        )

    @property
    def n_dims(self) -> int:
        return len(self.dim_sizes)

    @property
    def n_chunks(self) -> int:
        total = 1
        for count in self.chunks_per_dim:
            total *= count
        return total

    @property
    def n_cells(self) -> int:
        total = 1
        for size in self.dim_sizes:
            total *= size
        return total

    # -- coordinate mappings ---------------------------------------------------

    def chunk_of_cell(self, cell: Sequence[int]) -> ChunkCoord:
        """Chunk coordinate containing a cell coordinate."""
        self._check_cell(cell)
        return tuple(c // s for c, s in zip(cell, self.chunk_shape))

    def chunk_origin(self, coord: ChunkCoord) -> tuple[int, ...]:
        self._check_chunk(coord)
        return tuple(c * s for c, s in zip(coord, self.chunk_shape))

    def chunk_extent(self, coord: ChunkCoord) -> tuple[int, ...]:
        """Actual shape of a chunk (edge chunks are truncated)."""
        origin = self.chunk_origin(coord)
        return tuple(
            min(chunk, size - o)
            for chunk, size, o in zip(self.chunk_shape, self.dim_sizes, origin)
        )

    def empty_chunk(self, coord: ChunkCoord) -> Chunk:
        """A chunk of the right shape filled with NaN (all ⊥)."""
        extent = self.chunk_extent(coord)
        return Chunk(coord, self.chunk_origin(coord), np.full(extent, np.nan))

    def _check_cell(self, cell: Sequence[int]) -> None:
        if len(cell) != self.n_dims:
            raise StorageError(
                f"cell coordinate {cell!r} has wrong arity for "
                f"{self.n_dims}-dimensional grid"
            )
        for value, size in zip(cell, self.dim_sizes):
            if not 0 <= value < size:
                raise StorageError(f"cell coordinate {cell!r} out of bounds")

    def _check_chunk(self, coord: ChunkCoord) -> None:
        if len(coord) != self.n_dims:
            raise StorageError(
                f"chunk coordinate {coord!r} has wrong arity for "
                f"{self.n_dims}-dimensional grid"
            )
        for value, count in zip(coord, self.chunks_per_dim):
            if not 0 <= value < count:
                raise StorageError(f"chunk coordinate {coord!r} out of bounds")

    # -- linearisation & iteration -----------------------------------------------

    def _check_order(self, order: Sequence[int]) -> tuple[int, ...]:
        if sorted(order) != list(range(self.n_dims)):
            raise StorageError(
                f"dimension order {order!r} is not a permutation of "
                f"0..{self.n_dims - 1}"
            )
        return tuple(order)

    def linear_index(self, coord: ChunkCoord, order: Sequence[int]) -> int:
        """Position of a chunk in the scan for a dimension order.

        The first dimension of ``order`` varies fastest (Fig. 6 numbering).
        """
        order = self._check_order(order)
        self._check_chunk(coord)
        index = 0
        stride = 1
        for dim in order:
            index += coord[dim] * stride
            stride *= self.chunks_per_dim[dim]
        return index

    def iter_chunks(self, order: Sequence[int]) -> Iterator[ChunkCoord]:
        """All chunk coordinates in scan order (first dim fastest)."""
        order = self._check_order(order)
        ranges = [range(self.chunks_per_dim[dim]) for dim in reversed(order)]
        inverse = list(reversed(order))
        for combo in product(*ranges):
            coord = [0] * self.n_dims
            for position, dim in enumerate(inverse):
                coord[dim] = combo[position]
            yield tuple(coord)

    def default_order(self) -> tuple[int, ...]:
        """Ascending chunk-count order (Zhao's cardinality heuristic)."""
        return tuple(
            sorted(range(self.n_dims), key=lambda d: self.chunks_per_dim[d])
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkGrid(sizes={self.dim_sizes}, chunk={self.chunk_shape}, "
            f"chunks={self.chunks_per_dim})"
        )
