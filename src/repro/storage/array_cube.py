"""Labelled chunked cubes: the bridge between coordinates and arrays.

A :class:`ChunkedCube` pairs a :class:`~repro.storage.chunk_store.ChunkStore`
with one :class:`Axis` per dimension mapping coordinate labels (member
names, member-instance paths, moments) to integer positions.  This is the
physical organisation the paper's Sec. 6 cube uses ("a multidimensional
array-chunking scheme similar to that proposed in [19]"): each member
instance of a varying dimension occupies its own slot along the axis, as
in Fig. 7 where 100/1001, 200/1001 and 300/1001 are three separate rows.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import StorageError
from repro.olap.cube import Cube
from repro.storage.chunk_store import ChunkStore
from repro.storage.chunks import ChunkGrid
from repro.storage.io_stats import IoCostModel

__all__ = ["Axis", "ChunkedCube"]


class Axis:
    """A named, ordered list of coordinate labels for one dimension."""

    __slots__ = ("name", "labels", "_index")

    def __init__(self, name: str, labels: Sequence[str]) -> None:
        if not labels:
            raise StorageError(f"axis {name!r} needs at least one label")
        if len(set(labels)) != len(labels):
            raise StorageError(f"axis {name!r} has duplicate labels")
        self.name = name
        self.labels = tuple(labels)
        self._index = {label: i for i, label in enumerate(self.labels)}

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise StorageError(
                f"label {label!r} not on axis {self.name!r}"
            ) from None

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Axis({self.name!r}, {len(self.labels)} labels)"


class ChunkedCube:
    """A chunk-stored dense cube with labelled axes (leaf level only)."""

    def __init__(self, axes: Sequence[Axis], store: ChunkStore) -> None:
        sizes = tuple(len(axis) for axis in axes)
        if sizes != store.grid.dim_sizes:
            raise StorageError(
                f"axes sizes {sizes} do not match grid {store.grid.dim_sizes}"
            )
        self.axes = tuple(axes)
        self.store = store
        self._axis_index = {axis.name: i for i, axis in enumerate(self.axes)}

    @property
    def grid(self) -> ChunkGrid:
        return self.store.grid

    def axis(self, name: str) -> Axis:
        try:
            return self.axes[self._axis_index[name]]
        except KeyError:
            raise StorageError(f"no axis named {name!r}") from None

    def axis_position(self, name: str) -> int:
        try:
            return self._axis_index[name]
        except KeyError:
            raise StorageError(f"no axis named {name!r}") from None

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(
        cls,
        axes: Sequence[Axis],
        cells: Iterable[tuple[Sequence[str], float]],
        chunk_shape: Sequence[int],
        cost_model: IoCostModel | None = None,
    ) -> "ChunkedCube":
        """Build from (label-coordinates, value) pairs.

        Chunks are laid out on the simulated disk in the grid's default
        dimension order; only chunks containing data are stored.
        """
        sizes = tuple(len(axis) for axis in axes)
        grid = ChunkGrid(sizes, chunk_shape)
        store = ChunkStore(grid, cost_model)
        pending: dict[tuple[int, ...], np.ndarray] = {}
        for labels, value in cells:
            if len(labels) != len(axes):
                raise StorageError(
                    f"cell {labels!r} has {len(labels)} coordinates for "
                    f"{len(axes)} axes"
                )
            cell = tuple(axis.index(label) for axis, label in zip(axes, labels))
            coord = grid.chunk_of_cell(cell)
            chunk = pending.get(coord)
            if chunk is None:
                chunk = grid.empty_chunk(coord).data
                pending[coord] = chunk
            origin = grid.chunk_origin(coord)
            local = tuple(c - o for c, o in zip(cell, origin))
            chunk[local] = value
        for coord in sorted(
            pending, key=lambda c: grid.linear_index(c, grid.default_order())
        ):
            store.load(coord, pending[coord])
        return cls(axes, store)

    @classmethod
    def from_cube(
        cls,
        cube: Cube,
        chunk_shape: Sequence[int] | None = None,
    ) -> "ChunkedCube":
        """Build from a semantic cube's leaf cells.

        Axis labels are the distinct leaf coordinates present, in sorted
        order (instance paths for varying dimensions).  Intended for tests
        and small integration scenarios; workload generators build chunked
        cubes directly for scale.

        The leaf cells are read column-wise (:meth:`Cube.leaf_columns` —
        one vectorized gather from the rollup index's value column, or the
        address scan under ``naive_mode()``, which the bit-identity
        regression tests compare against).
        """
        schema = cube.schema
        columns = cube.leaf_columns()
        items = list(zip(columns.addresses, columns.values.tolist()))
        label_sets: list[set[str]] = [set() for _ in schema.dimensions]
        for addr, _ in items:
            for i, coord in enumerate(addr):
                label_sets[i].add(coord)
        axes = []
        for dimension, labels in zip(schema.dimensions, label_sets):
            if dimension.ordered:
                # Ordered (parameter) dimensions keep their *full* leaf
                # domain so axis positions equal moment order indices and
                # validity-set universes line up.
                ordered_labels = [m.name for m in dimension.leaf_members()]
            else:
                if not labels:
                    labels = {dimension.leaf_members()[0].name}
                ordered_labels = sorted(labels)
            axes.append(Axis(dimension.name, ordered_labels))
        if chunk_shape is None:
            chunk_shape = tuple(max(1, len(a) // 2) for a in axes)
        return cls.build(axes, iter(items), chunk_shape)

    # -- access ------------------------------------------------------------------

    def cell_of(self, labels: Sequence[str]) -> tuple[int, ...]:
        if len(labels) != len(self.axes):
            raise StorageError(
                f"expected {len(self.axes)} labels, got {len(labels)}"
            )
        return tuple(
            axis.index(label) for axis, label in zip(self.axes, labels)
        )

    def value(self, labels: Sequence[str]) -> float:
        """Cell value by labels; NaN encodes ⊥.  Counts I/O."""
        return self.value_at(self.cell_of(labels))

    def value_at(self, cell: Sequence[int]) -> float:
        coord = self.grid.chunk_of_cell(cell)
        data = self.store.read(coord)
        origin = self.grid.chunk_origin(coord)
        local = tuple(c - o for c, o in zip(cell, origin))
        return float(data[local])

    def peek_at(self, cell: Sequence[int]) -> float:
        """Cell value without I/O accounting (tests)."""
        coord = self.grid.chunk_of_cell(cell)
        data = self.store.peek(coord)
        origin = self.grid.chunk_origin(coord)
        local = tuple(c - o for c, o in zip(cell, origin))
        return float(data[local])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(f"{a.name}({len(a)})" for a in self.axes)
        return f"ChunkedCube({names}; {self.store.n_stored} chunks)"
