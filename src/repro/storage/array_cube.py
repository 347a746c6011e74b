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
from repro.storage.chunks import ChunkGrid, ChunkPlane, DensePlane
from repro.storage.io_stats import IoCostModel

__all__ = ["Axis", "ChunkedCube", "ColumnarLeafStore", "DEFAULT_PLANE_SIZE"]

#: rows per value-plane chunk; 4096 float64 slots = one 32 KiB plane,
#: small enough that a copy-on-write divergence is cheap, large enough
#: that gathers amortise the per-chunk dispatch
DEFAULT_PLANE_SIZE = 4096


class ColumnarLeafStore:
    """Row-addressed columnar leaf values in chunked numpy planes.

    The physical half of the vectorized rollup kernel: leaf cells live at
    integer *rows* (assigned in insertion order, never reused), and values
    are stored column-wise in fixed-size plane chunks
    (:class:`~repro.storage.chunks.DensePlane` /
    :class:`~repro.storage.chunks.SparsePlane`).  A scope — an ascending
    array of row ids — is read by one fancy-indexed gather: from its
    plane when it sits in one, otherwise from the store's *value column*,
    the planes laid end to end in one contiguous array.  The column is a
    read cache of one store generation: built on the first multi-plane
    gather, shared by :meth:`fork`, dropped by every write.

    Copy-on-write
    -------------
    :meth:`fork` is the columnar analogue of
    :meth:`ChunkStore.fork <repro.storage.chunk_store.ChunkStore.fork>`:
    O(#planes) pointer copies, with the *plane* as the COW unit.  After a
    fork, both stores mark every plane shared; the first write either side
    makes to a shared plane copies just that plane (32 KiB), so a pinned
    snapshot keeps reading the old bytes while the live store diverges one
    plane at a time.  ``planes_copied`` counts those copies since the last
    fork — what the writes between two snapshots cost.

    Thread-safety: the store itself is unsynchronised — it is owned by a
    :class:`~repro.perf.rollup_index.RollupIndex` and only ever touched
    under that index's lock.
    """

    __slots__ = (
        "_planes",
        "_shared",
        "_size",
        "_n_live",
        "_column",
        "plane_size",
        "planes_copied",
    )

    def __init__(self, plane_size: int = DEFAULT_PLANE_SIZE) -> None:
        if plane_size <= 0:
            raise StorageError("plane_size must be positive")
        self.plane_size = plane_size
        self._planes: list[ChunkPlane] = []
        self._shared: list[bool] = []
        self._size = 0
        self._n_live = 0
        #: every plane's values end to end (row == index), or ``None``
        self._column: "np.ndarray | None" = None
        self.planes_copied = 0

    @classmethod
    def from_values(
        cls, values: np.ndarray, plane_size: int = DEFAULT_PLANE_SIZE
    ) -> "ColumnarLeafStore":
        """Bulk plane load: row ``i`` holds ``values[i]``, every row live.

        Equivalent to appending the values one by one (same planes, same
        ``nbytes``) at one slice copy per plane instead of one plane write
        per cell.
        """
        store = cls(plane_size)
        n = len(values)
        for start in range(0, n, plane_size):
            chunk = values[start : start + plane_size]
            plane = DensePlane.empty(plane_size)
            plane.values[: len(chunk)] = chunk
            plane.live[: len(chunk)] = True
            plane.n_live = len(chunk)
            store._planes.append(plane)
        store._shared = [False] * len(store._planes)
        store._size = n
        store._n_live = n
        return store

    # -- geometry ---------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Total row slots ever allocated (deleted rows leave holes)."""
        return self._size

    @property
    def n_live(self) -> int:
        return self._n_live

    @property
    def n_planes(self) -> int:
        return len(self._planes)

    @property
    def nbytes(self) -> int:
        return sum(plane.nbytes for plane in self._planes)

    def plane_kinds(self) -> list[str]:
        """Per-chunk representation (``"dense"`` / ``"sparse"``) — the
        observable output of the density-based selection rule."""
        return [plane.kind for plane in self._planes]

    def density(self, chunk: int) -> float:
        return self._planes[chunk].density

    # -- copy-on-write ----------------------------------------------------------

    def fork(self) -> "ColumnarLeafStore":
        """A plane-granularity COW snapshot of this store."""
        clone = ColumnarLeafStore(self.plane_size)
        clone._planes = list(self._planes)
        clone._shared = [True] * len(self._planes)
        clone._size = self._size
        clone._n_live = self._n_live
        clone._column = self._column
        # this side must now treat every plane as pinned too
        self._shared = [True] * len(self._planes)
        self.planes_copied = 0
        return clone

    def _writable_plane(self, chunk: int) -> ChunkPlane:
        # every write comes through here: the value column is stale
        self._column = None
        plane = self._planes[chunk]
        if self._shared[chunk]:
            plane = plane.copy()
            self._planes[chunk] = plane
            self._shared[chunk] = False
            self.planes_copied += 1
        return plane

    # -- mutation ---------------------------------------------------------------

    def append(self, value: float) -> int:
        """Store ``value`` at the next row; returns the row id."""
        row = self._size
        chunk, local = divmod(row, self.plane_size)
        if chunk == len(self._planes):
            self._planes.append(DensePlane.empty(self.plane_size))
            self._shared.append(False)
        plane = self._writable_plane(chunk)
        if plane.kind == "sparse":
            # a compacted trailing plane receiving new rows inflates back
            plane = plane.to_dense()
            self._planes[chunk] = plane
        self._planes[chunk] = plane.set(local, value)
        self._size = row + 1
        self._n_live += 1
        return row

    def update(self, row: int, value: float) -> None:
        """Re-value a live row in place (COW-copies a shared plane)."""
        chunk, local = divmod(row, self.plane_size)
        plane = self._writable_plane(chunk)
        self._planes[chunk] = plane.set(local, value)

    def delete(self, row: int) -> None:
        """Kill a row; its id is never reused."""
        chunk, local = divmod(row, self.plane_size)
        plane = self._planes[chunk]
        if plane.get(local) is None:
            return
        plane = self._writable_plane(chunk)
        self._planes[chunk] = plane.delete(local)
        self._n_live -= 1

    # -- reads ------------------------------------------------------------------

    def get(self, row: int) -> "float | None":
        chunk, local = divmod(row, self.plane_size)
        return self._planes[chunk].get(local)

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """Values at the given **ascending, live** row ids.

        A scope inside one plane is that plane's own vectorized read; a
        scope that spans planes is one fancy index into the value column
        (built here when this store generation has none yet), and so is
        every later scope while the column lives.
        """
        n = len(rows)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        column = self._column
        if column is None:
            chunk = int(rows[0]) // self.plane_size
            if chunk == int(rows[n - 1]) // self.plane_size:
                return self._planes[chunk].gather(rows - chunk * self.plane_size)
            column = self._column = np.concatenate(
                [plane.to_dense().values for plane in self._planes]
            )
        return column[rows]

    # -- cold-chunk compression --------------------------------------------------

    def compact(self, *, ceiling: "float | None" = None) -> int:
        """Re-encode cold low-density planes as coordinate-sparse.

        Applies :func:`repro.core.compression.compress_plane` to every
        *sealed* plane (all but the trailing append plane — that one is
        still hot).  Returns the number of planes converted.  Shared
        planes are replaced, not mutated, so pinned forks are unaffected;
        the values do not change, so the value column stays.
        """
        from repro.core.compression import SPARSE_DENSITY_CEILING, compress_plane

        if ceiling is None:
            ceiling = SPARSE_DENSITY_CEILING
        converted = 0
        for chunk in range(max(0, len(self._planes) - 1)):
            plane = self._planes[chunk]
            packed = compress_plane(plane, ceiling=ceiling)
            if packed is not plane:
                self._planes[chunk] = packed
                self._shared[chunk] = False
                converted += 1
        return converted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ",".join(self.plane_kinds()) or "-"
        return (
            f"ColumnarLeafStore({self._n_live}/{self._size} rows, "
            f"planes=[{kinds}])"
        )


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
        one vectorized gather from the rollup index's value planes, or the
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

    def fork(self) -> "ChunkedCube":
        """A copy-on-write clone over :meth:`ChunkStore.fork`: axes are
        shared (immutable), chunks are shared until first write."""
        return ChunkedCube(self.axes, self.store.fork())

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
