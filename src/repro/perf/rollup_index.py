"""Columnar rollup index: coordinate-code columns over the leaf-id space.

The naive cost of a derived cell is one full scan of every leaf cell
(``Cube.scope_values``): for a result grid of N derived cells that is
O(N x leaves).  The :class:`RollupIndex` keeps the leaf cells
**column-wise** instead.  Every leaf has an integer id (assigned in cube
insertion order, never reused); per dimension one ``int32`` column holds
the *code* of each leaf's coordinate, and a small per-dimension
coordinate table maps the few hundred **distinct** coordinates to what
they roll up to (``CubeSchema.ancestor_chain``, resolved once per
distinct coordinate, never per cell).  The scope mask of a queried
coordinate is then one table lookup through the code column; a scope is
``mask & mask`` + ``np.flatnonzero`` (ascending ids == insertion order).

Columnar kernel
---------------
Leaf *values* are mirrored into a
:class:`~repro.storage.array_cube.ColumnarLeafStore` — chunked contiguous
``float64`` planes where plane row == leaf id.  Aggregation is one
fancy-indexed gather per touched plane followed by
:func:`~repro.olap.aggregation.reduce_array`.  In the default
``"strict"`` reduction mode the result is bit-identical to the naive dict
scan; see :mod:`repro.perf.config`.

The planes answer only for the mapping they mirror — the cube dict bound
at build time (identity check per query).  ``Cube`` reports every write
*with* its value, so the mirror cannot go stale; a query that hands in
any other mapping is served from that mapping, cell by cell.

Determinism
-----------
Leaf ids are assigned in cube insertion order and scopes are served in
ascending id order, which is exactly the iteration order of the naive
``dict``-scan.  Floating-point aggregation order is therefore identical
on both paths, making indexed results bit-identical to naive results
(the equivalence property tests assert this).  The invariant holds for
every way an index comes to exist: :meth:`RollupIndex.build` (ids follow
the dict), :meth:`RollupIndex.fork` (ids shared) and
:meth:`RollupIndex.derive` (ids follow the emission order of the
operator that produced the cube).

Maintenance
-----------
The index is maintained *incrementally*: ``Cube.set_value`` notifies it
of leaf insertions/deletions (one code per column, one plane row) and
in-place value changes (plane write + rollup-memo flush).
``Cube.frozen_copy`` *forks* the index: the columns, id maps and
coordinate tables are shared copy-on-write at whole-index granularity —
the live parent copies a handful of arrays before its first structural
mutation — while value planes share at plane granularity through
``ColumnarLeafStore.fork``.  The what-if operators (ρ, S) *derive* the
index of their output from the input's: the unchanged dimensions' columns
are permuted, the varying dimension's column is recoded, and the gathered
values are bulk-loaded — no rebuild.  ``copy``/``filter_dimension``
produce cubes without an index; it is built column-wise on their first
derived read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Sequence, TypeAlias

import numpy as np

from repro.lint.lockdep import make_lock
from repro.obs.trace import trace_span
from repro.olap.aggregation import aggregate, reduce_array
from repro.olap.missing import Missing
from repro.perf import config as perf_config
from repro.storage.array_cube import DEFAULT_PLANE_SIZE, ColumnarLeafStore
from repro.storage.io_stats import CacheStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.olap.cube import Cube
    from repro.olap.schema import CubeSchema

__all__ = ["LeafColumns", "RollupIndex", "scan_columns"]

Address = tuple[str, ...]
CellValue: TypeAlias = "float | Missing"
#: (empty, mask) — the mask-based axis-plane scope served to the batched
#: grid evaluator; ``mask=None`` means "no constraint" (every leaf).
AxisScope: TypeAlias = "tuple[bool, np.ndarray | None]"
#: one coordinate column: per-row codes plus the code -> coordinate list
Column: TypeAlias = "tuple[np.ndarray, list[str]]"

#: soft cap on the per-index rollup memo (total entries across all
#: aggregator/mode tables), to bound worst-case memory on long-lived
#: cubes queried at ever-changing addresses
_MEMO_CAP = 65536

_EMPTY_IDS = np.empty(0, dtype=np.int64)
#: what a deleted leaf id maps to in the id -> address list
_DELETED: Address = ()


class LeafColumns(NamedTuple):
    """A cube's leaf cells column-wise, rows in cube insertion order.

    This is what the what-if operators read instead of iterating cells:
    ``codes[d][row]`` is the code of the row's coordinate on dimension
    ``d`` and ``coords[d][code]`` the coordinate itself, for the
    dimensions that were asked for.  ``index``/``ids`` name the rollup
    index the columns were read from and each row's leaf id in it
    (``None`` for columns scanned from a bare dict), which is what
    :meth:`RollupIndex.derive` needs to build the output's index.
    """

    addresses: list[Address]
    values: np.ndarray
    codes: dict[int, np.ndarray]
    coords: dict[int, list[str]]
    index: "RollupIndex | None" = None
    ids: "np.ndarray | None" = None


def _factorize(column: Sequence[str]) -> Column:
    """Codes in first-appearance order for one coordinate column."""
    coords = list(dict.fromkeys(column))
    code_of = {coord: code for code, coord in enumerate(coords)}
    codes = np.fromiter(
        map(code_of.__getitem__, column), dtype=np.int32, count=len(column)
    )
    return codes, coords


def scan_columns(
    leaf_cells: Mapping[Address, float], dims: Sequence[int]
) -> LeafColumns:
    """Read :class:`LeafColumns` straight off a leaf dict (no index): the
    requested coordinate columns are factorised in one pass each."""
    addresses = list(leaf_cells)
    values = np.fromiter(
        leaf_cells.values(), dtype=np.float64, count=len(addresses)
    )
    codes: dict[int, np.ndarray] = {}
    coords: dict[int, list[str]] = {}
    for dim in dims:
        codes[dim], coords[dim] = _factorize([addr[dim] for addr in addresses])
    return LeafColumns(addresses, values, codes, coords)


class _CoordTable:
    """The distinct leaf coordinates of one dimension and what they roll
    up to: ``under[c]`` lists the codes of the leaf coordinates below (or
    equal to) coordinate ``c`` and ``n_under[c]`` counts the live leaves
    there.  Built from ``CubeSchema.ancestor_chain`` once per *distinct*
    coordinate."""

    __slots__ = ("coords", "code_of", "under", "n_under")

    def __init__(
        self,
        schema: "CubeSchema",
        dim_index: int,
        coords: list[str],
        counts: Sequence[int],
    ) -> None:
        self.coords = coords
        self.code_of = {coord: code for code, coord in enumerate(coords)}
        self.under: dict[str, list[int]] = {}
        self.n_under: dict[str, int] = {}
        chain = schema.ancestor_chain
        for code, (coord, count) in enumerate(zip(coords, counts)):
            for ancestor in chain(dim_index, coord):
                self.under.setdefault(ancestor, []).append(code)
                self.n_under[ancestor] = self.n_under.get(ancestor, 0) + count

    def copy(self) -> "_CoordTable":
        clone = _CoordTable.__new__(_CoordTable)
        clone.coords = list(self.coords)
        clone.code_of = dict(self.code_of)
        clone.under = {coord: list(codes) for coord, codes in self.under.items()}
        clone.n_under = dict(self.n_under)
        return clone

    def add_leaf(self, coord: str, chain: tuple[str, ...]) -> int:
        """Count one more leaf at ``coord``; returns its code."""
        code = self.code_of.get(coord)
        if code is None:
            code = len(self.coords)
            self.coords.append(coord)
            self.code_of[coord] = code
            for ancestor in chain:
                self.under.setdefault(ancestor, []).append(code)
        n_under = self.n_under
        for ancestor in chain:
            n_under[ancestor] = n_under.get(ancestor, 0) + 1
        return code

    def remove_leaf(self, chain: tuple[str, ...]) -> None:
        for ancestor in chain:
            self.n_under[ancestor] -= 1


def _grown(array: np.ndarray, capacity: int) -> np.ndarray:
    out = np.zeros(capacity, dtype=array.dtype)
    out[: len(array)] = array
    return out


class RollupIndex:
    """Per-dimension coordinate-code columns over the leaf-cell id space.

    Thread-safety: one reentrant lock guards both incremental maintenance
    (column/id/plane mutation from ``Cube.set_value``) and the query paths
    that read columns or the rollup memo.  Queries on *frozen* snapshot
    cubes never contend with maintenance (a frozen cube cannot mutate), so
    the lock there is uncontended overhead only; for a live cube it makes
    interleaved query/mutation safe.  The one sanctioned lock-free read is
    the memo probe through :meth:`memo_table` — a single dict ``get`` on a
    table that is only ever cleared in place (atomic under the GIL).
    """

    def __init__(self, schema: "CubeSchema", *, plane_size: "int | None" = None) -> None:
        self.schema = schema
        self._plane_size = DEFAULT_PLANE_SIZE if plane_size is None else plane_size
        self.stats = CacheStats()
        self._lock = make_lock("RollupIndex._lock")
        #: address -> leaf id, for point maintenance and point reads; a
        #: bulk-loaded index leaves it ``None`` until first needed (see
        #: :meth:`_ids`) — most scenario views never are
        self._id_of: "dict[Address, int] | None" = {}
        #: leaf id -> address (``_DELETED`` once deleted); its length is
        #: the size of the id space
        self._addrs: list[Address] = []
        #: per dimension: int32 coordinate code of every leaf id (arrays
        #: may carry spare capacity past the id space)
        self._codes: list[np.ndarray] = [
            np.empty(0, dtype=np.int32) for _ in range(schema.n_dims)
        ]
        self._tables: list[_CoordTable] = [
            _CoordTable(schema, i, [], ()) for i in range(schema.n_dims)
        ]
        #: liveness of every leaf id (same capacity as the code columns)
        self._live = np.empty(0, dtype=np.bool_)
        self._n_live = 0
        # (aggregator, reduction mode) -> {address: value}; inner tables
        # are cleared *in place* on invalidation so refs handed out via
        # memo_table() stay live
        self._memo: dict[tuple[str, str], dict[Address, CellValue]] = {}
        self._memo_count = 0
        # -- columnar kernel state ------------------------------------------
        #: leaf values mirrored as chunked planes; plane row == leaf id
        self._values = ColumnarLeafStore(self._plane_size)
        #: the cube dict the planes mirror (identity-checked per query)
        self._bound: "Mapping[Address, float] | None" = None
        #: ascending live leaf ids, recomputed after a structural change
        self._ordered_arr: "np.ndarray | None" = None
        #: (dim_index, coord) -> boolean mask over the id space; dropped
        #: wholesale on any structural change
        self._mask_of: dict[tuple[int, str], np.ndarray] = {}
        #: True while structure (id maps, columns, tables) is shared with
        #: a fork; the first structural mutation copies it
        self._struct_shared = False

    @classmethod
    def _from_columns(
        cls,
        schema: "CubeSchema",
        addresses: list[Address],
        columns: Sequence[Column],
        values: np.ndarray,
        bound: "Mapping[Address, float]",
        plane_size: "int | None",
    ) -> "RollupIndex":
        # leaf id == row: every row is a live leaf, ``columns`` has one
        # (codes, coords) pair per schema dimension
        index = cls(schema, plane_size=plane_size)
        n = len(addresses)
        index._addrs = addresses
        index._id_of = None
        index._codes = [codes for codes, _ in columns]
        index._tables = [
            _CoordTable(
                schema, i, coords, np.bincount(codes, minlength=len(coords)).tolist()
            )
            for i, (codes, coords) in enumerate(columns)
        ]
        index._live = np.ones(n, dtype=np.bool_)
        index._n_live = n
        index._values = ColumnarLeafStore.from_values(values, index._plane_size)
        index._bound = bound
        return index

    @classmethod
    def build(cls, cube: "Cube", *, plane_size: "int | None" = None) -> "RollupIndex":
        """Column-wise build from a cube's leaf cells.  ``plane_size``
        overrides the value-plane chunk size (tests use tiny planes to
        exercise multi-plane and sparse layouts at small scale)."""
        with trace_span("rollup_index.build") as span:
            n_dims = cube.schema.n_dims
            cols = scan_columns(cube._leaf_cells, range(n_dims))
            index = cls._from_columns(
                cube.schema,
                cols.addresses,
                [(cols.codes[dim], cols.coords[dim]) for dim in range(n_dims)],
                cols.values,
                cube._leaf_cells,
                plane_size,
            )
            index.stats.builds += 1
            if span is not None:
                span.set(leaves=index.n_leaves)
        return index

    # -- column reads / derivation (the what-if operators' interface) -------------

    def columns(self, dims: Sequence[int]) -> LeafColumns:
        """The live leaf cells column-wise in insertion order, with the
        coordinate columns of ``dims`` — one consistent read under the
        index lock."""
        with self._lock:
            ids = self._ordered_array()
            addrs = self._addrs
            if len(ids) == len(addrs):
                addresses = list(addrs)
            else:
                addresses = [addrs[i] for i in ids.tolist()]
            return LeafColumns(
                addresses,
                self._values.gather(ids),
                {dim: self._codes[dim][ids] for dim in dims},
                {dim: list(self._tables[dim].coords) for dim in dims},
                self,
                ids,
            )

    def derive(
        self,
        ids: np.ndarray,
        addresses: list[Address],
        values: np.ndarray,
        recoded: Mapping[int, Column],
        bound: "Mapping[Address, float]",
    ) -> "RollupIndex":
        """The index of a cube whose leaf ``k`` is this index's leaf
        ``ids[k]`` moved to ``addresses[k]`` with value ``values[k]``.

        Only the dimensions in ``recoded`` changed coordinate (their new
        ``(codes, coords)`` columns are given); every other column is this
        index's own, permuted by ``ids``.  Output leaf ids are the output
        rows, so ascending id == the operator's emission order.  Leaf ids
        are never reused and a leaf's codes never change, so the read is
        consistent with the :meth:`columns` call that produced ``ids``
        even if this index has been mutated since.
        """
        with trace_span("rollup_index.derive") as span, self._lock:
            columns = [
                recoded[dim]
                if dim in recoded
                else (self._codes[dim][ids], list(self._tables[dim].coords))
                for dim in range(self.schema.n_dims)
            ]
            child = RollupIndex._from_columns(
                self.schema, addresses, columns, values, bound, self._plane_size
            )
            if span is not None:
                span.set(leaves_in=self._n_live, leaves_out=len(addresses))
        return child

    def coords_with_data(self, dim_index: int) -> list[str]:
        """Distinct leaf coordinates on one dimension that hold a leaf."""
        with self._lock:
            n_under = self._tables[dim_index].n_under
            return [c for c in self._tables[dim_index].coords if n_under[c]]

    # -- maintenance ------------------------------------------------------------

    def _ids(self) -> dict[Address, int]:  # reprolint: locked
        id_of = self._id_of
        if id_of is None:
            id_of = {addr: i for i, addr in enumerate(self._addrs) if addr}
            self._id_of = id_of
        return id_of

    def _insert(self, addr: Address, value: float) -> None:  # reprolint: locked
        ident = len(self._addrs)
        if ident == len(self._live):
            capacity = max(16, 2 * ident)
            self._codes = [_grown(codes, capacity) for codes in self._codes]
            self._live = _grown(self._live, capacity)
        self._ids()[addr] = ident
        self._addrs.append(addr)
        self._live[ident] = True
        self._n_live += 1
        self._values.append(value)  # plane row == ident by construction
        chain = self.schema.ancestor_chain
        for i, coord in enumerate(addr):
            self._codes[i][ident] = self._tables[i].add_leaf(coord, chain(i, coord))

    def _unshare_structure(self) -> None:  # reprolint: locked
        # called under self._lock before any structural mutation
        if not self._struct_shared:
            return
        if self._id_of is not None:
            self._id_of = dict(self._id_of)
        self._addrs = list(self._addrs)
        self._codes = [codes.copy() for codes in self._codes]
        self._tables = [table.copy() for table in self._tables]
        self._live = self._live.copy()
        self._struct_shared = False

    def _structural_change(self) -> None:  # reprolint: locked
        # mask + ordered-array caches describe the old id space
        self._mask_of.clear()
        self._ordered_arr = None

    def add_leaf(self, addr: Address, value: float) -> None:
        """A leaf cell was inserted at ``addr`` with ``value``."""
        with self._lock:
            self._unshare_structure()
            self._structural_change()
            self._insert(addr, value)
            self._flush_memo()

    def remove_leaf(self, addr: Address) -> None:
        """The leaf cell at ``addr`` was deleted."""
        with self._lock:
            if addr not in self._ids():
                return
            self._unshare_structure()
            self._structural_change()
            ident = self._ids().pop(addr)
            self._addrs[ident] = _DELETED
            self._live[ident] = False
            self._n_live -= 1
            self._values.delete(ident)
            chain = self.schema.ancestor_chain
            for i, coord in enumerate(addr):
                self._tables[i].remove_leaf(chain(i, coord))
            self._flush_memo()

    def touch_value(self, addr: Address, value: float) -> None:
        """A leaf value changed in place to ``value``: write the plane row
        through and flush the memo; the columns are untouched (they store
        coordinates, not values)."""
        with self._lock:
            self._values.update(self._ids()[addr], value)
            self._flush_memo()

    def _flush_memo(self) -> None:  # reprolint: locked
        for table in self._memo.values():
            table.clear()
        self._memo_count = 0

    # -- fork (snapshot copy-on-write) -------------------------------------------

    def fork(self, bound: "Mapping[Address, float] | None" = None) -> "RollupIndex":
        """A copy-on-write clone for a snapshot cube.

        Structure (id maps, code columns, coordinate tables, liveness) is
        shared until the *live* side's next structural mutation (the
        frozen clone never mutates); value planes share at plane
        granularity through :meth:`ColumnarLeafStore.fork`.  ``bound`` is
        the clone cube's leaf dict — the mapping the clone's planes now
        mirror.
        """
        with self._lock:
            clone = RollupIndex(self.schema, plane_size=self._plane_size)
            clone._id_of = self._id_of
            clone._addrs = self._addrs
            clone._codes = self._codes
            clone._tables = self._tables
            clone._live = self._live
            clone._n_live = self._n_live
            clone._ordered_arr = self._ordered_arr
            clone._mask_of = dict(self._mask_of)
            clone._values = self._values.fork()
            clone._bound = bound if bound is not None else self._bound
            clone._memo = {
                key: dict(table) for key, table in self._memo.items()
            }
            clone._memo_count = self._memo_count
            clone._struct_shared = True
            self._struct_shared = True
            return clone

    # -- memo -------------------------------------------------------------------

    def _memo_for(self, aggregator: str, mode: str) -> dict[Address, CellValue]:  # reprolint: locked
        table = self._memo.get((aggregator, mode))
        if table is None:
            table = {}
            self._memo[(aggregator, mode)] = table
        return table

    def _memo_put(self, table: dict[Address, CellValue], address: Address, value: CellValue) -> None:  # reprolint: locked
        if self._memo_count >= _MEMO_CAP:
            self.stats.evictions += self._memo_count
            self._flush_memo()
        if address not in table:
            self._memo_count += 1
        table[address] = value

    def memo_table(self, aggregator: str = "sum") -> dict[Address, CellValue]:
        """The live memo table for ``aggregator`` under the current
        reduction mode.  Invalidation clears it *in place*, so a held
        reference is always current: a lock-free ``table.get(addr)`` is
        either a fresh value or a miss, never a stale value.  Callers
        must treat it as read-only."""
        with self._lock:
            return self._memo_for(aggregator, perf_config.reduction_mode())

    def count_hit(self) -> None:
        """Record a lock-free memo probe hit (stats only)."""
        self.stats.hits += 1

    def leaf_reader(
        self, leaf_cells: Mapping[Address, float]
    ) -> "object | None":
        """A plane-backed point-read callable for leaf cells, or ``None``
        when the planes cannot answer for ``leaf_cells`` (the index is
        bound to a different mapping).

        The callable maps an address to its value (``None`` = absent,
        NaN reads back as NaN — the liveness bitmap distinguishes the
        two) without taking the index lock.  Like :meth:`memo_table`,
        it snapshots the id structure once under the lock (on its first
        read, so a grid that reads no leaf never materialises the id
        map); in-place value updates show through (planes are written in
        place), and grid-scoped callers re-fetch per query, so its
        staleness profile matches the live memo table's.
        """
        with self._lock:
            if leaf_cells is not self._bound:
                return None
            values_get = self._values.get
        id_of: "dict[Address, int] | None" = None

        def read(addr: Address) -> "float | None":
            nonlocal id_of
            if id_of is None:
                with self._lock:
                    id_of = self._ids()
            ident = id_of.get(addr)
            if ident is None:
                return None
            return values_get(ident)

        return read

    def leaf_arrays(
        self, leaf_cells: Mapping[Address, float]
    ) -> "tuple[list[Address], np.ndarray] | None":
        """Every leaf cell as ``(addresses, values)`` in insertion order,
        the values served by one vectorized plane gather instead of a
        per-cell dict scan.  ``None`` when the planes cannot answer for
        ``leaf_cells`` (see :meth:`leaf_reader`)."""
        with self._lock:
            if leaf_cells is not self._bound:
                return None
            columns = self.columns(())
            return columns.addresses, columns.values

    # -- queries ----------------------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return self._n_live

    def coord_count(self, dim_index: int, coord: str) -> int:
        """Number of leaves under ``coord`` on one dimension.

        An unknown member of a non-varying dimension raises
        :class:`~repro.errors.MemberNotFoundError`, matching the contract
        of the hierarchy lookup the naive scan performs.
        """
        count = self._tables[dim_index].n_under.get(coord, 0)
        if count == 0:
            dimension = self.schema.dimensions[dim_index]
            if not self.schema.is_varying(dimension.name):
                dimension.member(coord)  # raises MemberNotFoundError if unknown
        return count

    def _ordered_array(self) -> np.ndarray:  # reprolint: locked
        arr = self._ordered_arr
        if arr is None:
            arr = np.flatnonzero(self._live[: len(self._addrs)])
            self._ordered_arr = arr
        return arr

    def _rolls_up(self, dim_index: int, coord: str) -> np.ndarray:  # reprolint: locked
        # per coordinate *code* of the dimension: does it roll up to ``coord``
        table = self._tables[dim_index]
        rolls_up = np.zeros(len(table.coords), dtype=np.bool_)
        rolls_up[table.under.get(coord, [])] = True
        return rolls_up

    def _coord_mask(self, dim_index: int, coord: str) -> np.ndarray:  # reprolint: locked
        # under self._lock; the coordinate is known to hold leaves
        key = (dim_index, coord)
        mask = self._mask_of.get(key)
        if mask is None:
            n = len(self._addrs)
            mask = self._rolls_up(dim_index, coord)[self._codes[dim_index][:n]]
            if self._n_live != n:
                mask &= self._live[:n]
            self._mask_of[key] = mask
        return mask

    def _scope_mask(self, pairs: Sequence[tuple[int, str]]) -> AxisScope:
        # under self._lock: AND of the constraining coordinates' masks
        n = self._n_live
        if n == 0:
            return True, None
        combined: "np.ndarray | None" = None
        for dim_index, coord in pairs:
            count = self.coord_count(dim_index, coord)
            if count == 0:
                return True, None
            if count == n:
                continue  # the coordinate covers every leaf — no constraint
            mask = self._coord_mask(dim_index, coord)
            combined = mask if combined is None else combined & mask
        return False, combined

    def _scope_ids_array(self, address: Sequence[str]) -> np.ndarray:
        # under self._lock: ascending leaf ids of a full-address scope
        empty, mask = self._scope_mask(list(enumerate(address)))
        if empty:
            return _EMPTY_IDS
        if mask is None:
            return self._ordered_array()
        return np.flatnonzero(mask)

    def scope_ids(self, address: Sequence[str]) -> list[int]:
        """Ids of the leaf cells in a cell's scope, in insertion order."""
        with self._lock:
            return [int(i) for i in self._scope_ids_array(address)]

    def axis_scope(self, pairs: Sequence[tuple[int, str]]) -> AxisScope:
        """The scope of some (dim_index, coord) pairs as a mask.

        Returns ``(empty, mask)``: ``empty=True`` means provably no leaf
        matches; otherwise the mask is a boolean vector over the id space
        (``None`` = no constraint, every leaf matches).  Masks are cached
        per coordinate and combined with ``&``, so a grid's row plane is
        one vector AND per row instead of a set intersection per cell.
        The returned mask may alias a cached one — callers must not
        mutate it.
        """
        with self._lock:
            return self._scope_mask(pairs)

    def rollup_axes(
        self,
        leaf_cells: Mapping[Address, float],
        address: Address,
        row_scope: AxisScope,
        col_scope: AxisScope,
        aggregator: str = "sum",
    ) -> CellValue:
        """Aggregate the intersection of two :meth:`axis_scope` planes,
        memoised per (address, aggregator, reduction mode).  Ids resolve
        in ascending order (``np.flatnonzero``), so strict-mode results
        are bit-identical to the naive scan."""
        with self._lock:
            mode = perf_config.reduction_mode()
            table = self._memo_for(aggregator, mode)
            if address in table:
                self.stats.hits += 1
                return table[address]
            self.stats.misses += 1
            row_empty, row_mask = row_scope
            col_empty, col_mask = col_scope
            if row_empty or col_empty:
                ids = _EMPTY_IDS
            elif row_mask is None and col_mask is None:
                ids = self._ordered_array()
            elif row_mask is None:
                ids = np.flatnonzero(col_mask)
            elif col_mask is None:
                ids = np.flatnonzero(row_mask)
            else:
                ids = np.flatnonzero(row_mask & col_mask)
            value = self._reduce_ids(leaf_cells, ids, aggregator, mode)
            self._memo_put(table, address, value)
            return value

    def _reduce_ids(
        self,
        leaf_cells: Mapping[Address, float],
        ids: np.ndarray,
        aggregator: str,
        mode: str,
    ) -> CellValue:
        # under self._lock; ids ascending == insertion order
        if leaf_cells is self._bound:
            return reduce_array(aggregator, self._values.gather(ids), mode)
        # planes only answer for the mapping they mirror
        addrs = self._addrs
        return aggregate(aggregator, (leaf_cells[addrs[i]] for i in ids.tolist()))

    def scope_addresses(self, address: Sequence[str]) -> list[Address]:
        with self._lock:
            addrs = self._addrs
            return [addrs[i] for i in self._scope_ids_array(address).tolist()]

    def scope_arrays(
        self, addresses: Sequence[Sequence[str]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The scopes of several cells as ``(ids, values, offsets)``:
        cell ``k`` owns ``ids[offsets[k]:offsets[k + 1]]`` — its leaf ids,
        ascending (insertion order) — and the same slice of ``values``.

        One consistent read under the lock.  The coordinates every
        address shares (a grid's slicer and defaults) are intersected
        once; each cell then tests only the dimensions that vary, over
        that shared scope instead of the whole id space.  Values come
        from one plane gather for the batch (the sorted union of the
        scopes), so they are the bound mapping's, like :meth:`columns`.
        """
        with self._lock:
            scopes = self._batch_scope_ids(addresses)
            offsets = np.zeros(len(scopes) + 1, dtype=np.int64)
            np.cumsum([len(scope) for scope in scopes], out=offsets[1:])
            ids = np.concatenate(scopes) if scopes else _EMPTY_IDS
            union, inverse = np.unique(ids, return_inverse=True)
            values = self._values.gather(union)[inverse]
        return ids, values, offsets

    def _batch_scope_ids(
        self, addresses: Sequence[Sequence[str]]
    ) -> list[np.ndarray]:  # reprolint: locked
        if not addresses:
            return []
        first = addresses[0]
        dims = range(self.schema.n_dims)
        varying = [
            dim for dim in dims if any(a[dim] != first[dim] for a in addresses)
        ]
        empty, mask = self._scope_mask(
            [(dim, first[dim]) for dim in dims if dim not in varying]
        )
        if empty:
            shared = _EMPTY_IDS
        elif mask is None:
            shared = self._ordered_array()
        else:
            shared = np.flatnonzero(mask)
        columns = {dim: self._codes[dim][shared] for dim in varying}
        #: (dim, coord) -> which of the shared scope's leaves roll up to it
        under: dict[tuple[int, str], np.ndarray] = {}
        scopes = []
        for address in addresses:
            keep: "np.ndarray | None" = None
            for dim in varying:
                key = (dim, address[dim])
                hit = under.get(key)
                if hit is None:
                    self.coord_count(*key)  # an unknown member raises
                    hit = under[key] = self._rolls_up(*key)[columns[dim]]
                keep = hit if keep is None else keep & hit
            scopes.append(shared if keep is None else shared[keep])
        return scopes

    def iter_scope_cells(
        self, leaf_cells: Mapping[Address, float], address: Sequence[str]
    ) -> Iterator[tuple[Address, float]]:
        # Materialise under the lock: a lazy generator would read columns
        # and values at the caller's pace, racing concurrent maintenance.
        with self._lock:
            cells = [
                (addr, leaf_cells[addr]) for addr in self.scope_addresses(address)
            ]
        yield from cells

    def rollup(
        self,
        leaf_cells: Mapping[Address, float],
        address: Address,
        aggregator: str = "sum",
    ) -> CellValue:
        """Aggregate a cell's scope through the index, memoised per
        (address, aggregator, reduction mode) until the next leaf
        mutation."""
        with self._lock:
            mode = perf_config.reduction_mode()
            table = self._memo_for(aggregator, mode)
            if address in table:
                self.stats.hits += 1
                return table[address]
            self.stats.misses += 1
            ids = self._scope_ids_array(address)
            value = self._reduce_ids(leaf_cells, ids, aggregator, mode)
            self._memo_put(table, address, value)
            return value

    # -- introspection ----------------------------------------------------------

    @property
    def plane_store(self) -> ColumnarLeafStore:
        """The columnar value mirror (tests / bench introspection)."""
        return self._values

    def compact_planes(self, *, ceiling: "float | None" = None) -> int:
        """Re-encode cold low-density value planes as coordinate-sparse
        (see :func:`repro.core.compression.compress_plane`).  Returns the
        number of planes converted."""
        with self._lock:
            return self._values.compact(ceiling=ceiling)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [len(table.coords) for table in self._tables]
        return f"RollupIndex({self._n_live} leaves, coords/dim={sizes})"
