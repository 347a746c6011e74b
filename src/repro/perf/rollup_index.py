"""Columnar rollup index: the memoised reduction over a cube's leaf store.

The naive cost of a derived cell is one full scan of every leaf cell
(``Cube.scope_values``): for a result grid of N derived cells that is
O(N x leaves).  The :class:`RollupIndex` reads the leaf cells
**column-wise** instead, off the leaf store of :mod:`repro.perf.leaf_store`
— per dimension one ``int32`` code column over the leaf-id space, a small
coordinate table mapping the few hundred distinct coordinates to what
they roll up to, and one ``float64`` value column.  The scope mask of a
queried coordinate is then one table lookup through the code column; a
scope is ``mask & mask`` + ``np.flatnonzero`` (ascending ids == insertion
order), and its values are ``column[ids]`` — one fancy-indexed gather —
summed by :meth:`RollupIndex._block_sums`, a fold from ``0.0`` in
ascending id order whose result is bit-identical to the naive scan.

Every cube holds one index from construction and the index serves its
leaf store: one structure generation (``_struct``) and one value column
(``_values``), replaced or written only under the index's lock.  The cube
keeps no address-keyed dict and no wrapper around the index — it reads a
leaf through :meth:`RollupIndex.leaf_reader`, all of them through one
``columns(())`` and their count off :attr:`RollupIndex.n_leaves` — and
``Cube.set_value`` writes here and nowhere else
(:meth:`RollupIndex.set_leaf` / :meth:`RollupIndex.remove_leaf`).  An
index built with :meth:`RollupIndex.build` and not handed to
``Cube.adopt`` is a point-in-time copy of the cube it was built from.
How the store is laid out, forked, renumbered and derived, and where
columns are coded from addresses, is :mod:`repro.perf.leaf_store`'s.

Determinism
-----------
Leaf ids are assigned in cube insertion order and scopes are served in
ascending id order, which is exactly the iteration order of the naive
scan.  Floating-point aggregation order is therefore identical
on both paths, making indexed results bit-identical to naive results
(the equivalence property tests assert this).  The invariant holds for
every way an index comes to exist: :meth:`RollupIndex.from_cells` (ids
follow the mapping), :meth:`RollupIndex.from_writes` (ids follow the
place each leaf's insert has in the stream), :meth:`RollupIndex.fork`
(ids shared),
:meth:`RollupIndex.derive` (ids follow the emission order of the
operator that produced the cube) and renumbering (relative order kept).

Reads
-----
Every derived cell the index answers is a memoised strict sum of its
scope, whoever asks, and one reduction computes it,
:meth:`RollupIndex._block_sums`; the memo is one ``address → value``
table.  :meth:`RollupIndex._scope` turns ``{dim: coords}`` into the live
leaves under them — for the reduction, ``scope_values``/``scope_cells``
and σ's rows (:meth:`RollupIndex.ids_under`).  A grid's memo misses are
reduced together (:meth:`RollupIndex.rollup_block`): the dimensions on
which they name one coordinate filter the leaves once, each other
dimension is split into hierarchy levels of disjoint coordinates, and
every combination of levels is one ``np.bincount`` over the filtered
leaves, which folds each cell from ``0.0`` in ascending id order — the
naive scan's ``agg_sum``.  One address (:meth:`RollupIndex.rollup`) is
the same reduction with no level to combine: one bucket.  Other
aggregates are not the index's: ``Cube.rollup`` folds them over
:meth:`RollupIndex.scope_values` with the streaming aggregators of
:mod:`repro.olap.aggregation`.
A leaf value is read through :meth:`RollupIndex.leaf_reader` — one
address, the reader held until the generation or value store is replaced
— or :meth:`RollupIndex.leaf_block` — a grid's rows × columns, the same
lookup with each row's and column's part of the sorted key computed once
and one ``searchsorted`` for the block — and nothing else.

The memo across writes
----------------------
A leaf write can change exactly the cells whose coordinate on every
dimension is the leaf's own or one of its ancestors — its roll-up cone.
The live index flushes its memo on every leaf write; a fork starts from
the last *frozen* fork's memo less that cone (:meth:`RollupIndex._carry_memo`).
Beside the cell memo sits the row memo (:meth:`RollupIndex.row_table`):
a grid row's derived cells in one column segment, keyed by (row address,
segment), so a warm row is one probe.  Every leaf write and every cap
flush of the cell memo clears it in place; it has its own bound
(``_ROW_CAP`` values), and a full row memo is emptied alone, never the
cell memo.  A grid stores its rows only if no flush came since the
flush epoch it read before its first row (:meth:`RollupIndex.store_rows`).
A fork does not carry it: a snapshot rebuilds its rows from the cell
memo it carries.
A write records only its leaf's id; the ids become per-dimension
coordinates in one vectorised pass when the record is read, before a
renumbering and whenever the buffer fills (:meth:`RollupIndex._settle_written`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence, TypeAlias

import numpy as np

from repro.lint.lockdep import make_lock
from repro.obs.trace import trace_span
from repro.olap.missing import MISSING, Missing
from repro.perf.leaf_store import (
    _EMPTY_IDS,
    Address,
    Column,
    ColumnarLeafStore,
    LeafColumns,
    _Structure,
    scan_columns,
)
from repro.storage.io_stats import CacheStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.olap.cube import Cube
    from repro.olap.schema import CubeSchema

__all__ = ["RollupIndex"]

CellValue: TypeAlias = "float | Missing"
#: a scope as :meth:`RollupIndex._scope` returns it: the AND of some
#: per-coordinate masks and ``(kept, dim, keep)`` code filters, ``None``
#: for no leaf
Scope: TypeAlias = "tuple[np.ndarray | None, list[tuple[int, int, np.ndarray]]] | None"
#: a point read: address -> the leaf's value, ``None`` where there is none
LeafReader: TypeAlias = "Callable[[Address], float | None]"
#: one dimension's hierarchy levels in :meth:`RollupIndex._block_sums`:
#: per level, the leaf codes under its coordinates, slot by slot, and how
#: many each slot has
_Levels: TypeAlias = "list[tuple[list[int], list[int]]]"

#: soft cap on the per-index rollup memo (entries), to bound worst-case
#: memory on long-lived cubes queried at ever-changing addresses
_MEMO_CAP = 65536
#: soft cap on the row memo (:meth:`RollupIndex.row_table`), in values
#: across its rows: its own bound, so rows never evict a memoised cell
_ROW_CAP = 65536
#: soft cap on a generation's cached per-coordinate masks (``masks`` and
#: ``carried`` together, each one byte per leaf id): a grid scopes a few
#: dozen coordinates, while σ with a value predicate scopes every
#: candidate once — uncapped, 494 masks (48 MB) on the ledger's cube
_MASK_CAP = 64
#: written leaf ids the write record buffers before it settles them into
#: coordinates (:meth:`RollupIndex._settle_written`)
_WRITTEN_BUFFER = 4096


def _renumber(at: np.ndarray, bucket: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Mixed-radix buckets renumbered ``0 .. k-1`` among the ``k`` distinct
    ones the cells ``at`` name, with ``k`` for every id ``bucket`` holds in
    none: the cells' and the ids' new buckets, and how many there are."""
    keys, at = np.unique(at, return_inverse=True)
    place = np.minimum(np.searchsorted(keys, bucket), len(keys) - 1)
    return at, np.where(keys[place] == bucket, place, len(keys)), len(keys) + 1

class RollupIndex:
    """A cube's leaf store (:mod:`repro.perf.leaf_store`) served under one
    lock, and the memoised reduction over it.

    Thread-safety: one reentrant lock guards both maintenance (structure
    and value writes from ``Cube.set_value``) and the query paths that
    read columns or the rollup memo.  Queries on *frozen* snapshot cubes
    never contend with maintenance (a frozen cube cannot mutate), so the
    lock there is uncontended overhead only; for a writable cube it makes
    interleaved query/mutation safe.  The sanctioned lock-free reads are
    the memo probes through :meth:`memo_table` and :meth:`row_table` — a
    single dict ``get`` on a table that is only ever cleared in place
    (atomic under the GIL) — and the point reads of :meth:`leaf_reader`,
    which ``Cube.value`` and ``Cube.effective_value`` read through, and
    whose held reader is handed out without the lock until a structural
    write drops it.
    """

    def __init__(self, schema: "CubeSchema", struct: "_Structure | None" = None) -> None:
        # ``struct``: the generation to serve, an empty one by default
        self.schema = schema
        #: memo and build counters; a fork shares its parent's, so the
        #: numbers describe the cube however many snapshots served it
        self.stats = CacheStats()
        self._lock = make_lock("RollupIndex._lock")
        if struct is None:
            no_leaf = [(np.empty(0, dtype=np.int32), []) for _ in range(schema.n_dims)]
            struct = _Structure.over(schema, no_leaf, 0)
        self._struct = struct
        #: True while ``_struct`` is shared with a fork; the next
        #: structural write replaces it first
        self._struct_shared = False
        #: whether a structural write replaced the generation since the
        #: last fork (reported by the ``cube.snapshot`` span)
        self._struct_copied = False
        # address -> strict sum; cleared *in place* on invalidation so
        # refs handed out via memo_table() stay live
        self._memo: dict[Address, CellValue] = {}
        #: the row memo (:meth:`row_table`): (row address, segment) -> the
        #: segment's values in that row, cleared with ``_memo``
        self._rows: dict[tuple[Address, object], Sequence[CellValue]] = {}
        #: values in the row memo, a row of ``n`` values counting ``n``
        self._row_count = 0
        #: memo flushes so far: a row is stored only if none came since
        #: its grid began (:meth:`store_rows`)
        self._flushes = 0
        #: the last frozen fork's memo, as its queries fill it, and the
        #: leaves written since that fork — per dimension the coordinates
        #: settled so far, plus the ids of the writes not yet settled
        #: (:meth:`_settle_written`): what the next fork carries forward
        #: (:meth:`_carry_memo`)
        self._inherited: "dict[Address, CellValue] | None" = None
        self._written: list[set[str]] = [set() for _ in range(schema.n_dims)]
        self._written_ids: list[int] = []
        #: the value column; row == leaf id
        self._values = ColumnarLeafStore()
        #: the point read (:meth:`leaf_reader`) over ``_struct`` and
        #: ``_values``; dropped where a write replaces them
        self._reader: "LeafReader | None" = None

    @classmethod
    def _serving(
        cls, schema: "CubeSchema", struct: _Structure, values: np.ndarray
    ) -> "RollupIndex":
        # the index over a finished generation and its value column (row
        # == leaf id); the arrays are adopted: every caller passes ones it
        # has just built
        index = cls(schema, struct)
        index._values = ColumnarLeafStore.from_values(values)
        return index

    @classmethod
    def from_columns(
        cls, schema: "CubeSchema", columns: Sequence[Column], values: np.ndarray
    ) -> "RollupIndex":
        """The index over finished columns — what :meth:`columns` of
        another index read, possibly in another process (a shard's slice):
        leaf id == row, ``columns[d]`` the ``(codes, coords)`` pair of
        schema dimension ``d``, every row a distinct live leaf.  Arrays
        only, like every derived generation, with the sorted row keys as
        its point lookup; nothing is validated per cell and the arrays
        become the index's own."""
        struct = _Structure.over(schema, columns, len(values))
        if not struct.sorted_part.distinct():
            raise ValueError("two rows of the columns share one address")
        return cls._serving(schema, struct, values)

    @classmethod
    def from_writes(
        cls,
        schema: "CubeSchema",
        columns: Sequence[Column],
        values: np.ndarray,
        deleted: "np.ndarray | None",
    ) -> "tuple[RollupIndex, int]":
        """The index a stream of leaf writes leaves behind on an empty
        one, and how many of the writes changed it — ``Cube.load``'s leaf
        half, and a derived output whose rows clash
        (:meth:`_Structure.from_writes`: row ``k`` of ``columns`` writes
        ``values[k]``, or deletes where ``deleted[k]``, as ``set_leaf`` /
        ``remove_leaf`` one at a time would)."""
        with trace_span("rollup_index.build") as span:
            struct, values, changed = _Structure.from_writes(
                schema, columns, values, deleted
            )
            index = cls._serving(schema, struct, values)
            index.stats.builds += 1
            if span is not None:
                span.set(leaves=index.n_leaves)
        return index, changed

    @classmethod
    def build(cls, cube: "Cube") -> "RollupIndex":
        """A point-in-time copy of a cube's leaf cells, built column-wise
        from one full read of its index (``Cube.leaf_cells``)."""
        return cls.from_cells(cube.schema, dict(cube.leaf_cells()))

    @classmethod
    def from_cells(
        cls, schema: "CubeSchema", leaf_cells: Mapping[Address, float]
    ) -> "RollupIndex":
        """The index of a leaf mapping, its columns coded off the addresses
        (:func:`~repro.perf.leaf_store.scan_columns`): leaf ids follow the
        mapping's iteration order, and the index keeps the columns only.
        Nothing is validated — the caller guarantees leaf addresses of
        ``schema`` with float values."""
        dims = range(schema.n_dims)
        cols = scan_columns(leaf_cells, dims)
        columns = [(cols.codes[dim], cols.coords[dim]) for dim in dims]
        return cls.from_writes(schema, columns, cols.values, None)[0]

    # -- column reads / derivation (the what-if operators' interface) -------------

    def columns(
        self, dims: Sequence[int], ids: "np.ndarray | None" = None
    ) -> LeafColumns:
        """The live leaf cells column-wise in insertion order, with the
        coordinate columns of ``dims`` — one consistent read under the
        index lock.  ``ids`` (ascending live leaf ids, e.g. from
        :meth:`ids_under`) reads those leaves and no other: the gathers
        cost what is kept, not what the cube holds."""
        with self._lock:
            struct = self._struct
            if ids is None:
                ids = struct.ordered_ids()
            return LeafColumns(
                self._values.gather(ids),
                {dim: struct.codes[dim][ids] for dim in dims},
                {dim: list(struct.tables[dim].coords) for dim in dims},
                self,
                ids,
                struct,
            )

    def derive(
        self, ids: np.ndarray, values: np.ndarray, recoded: Mapping[int, Column]
    ) -> "RollupIndex":
        """The index of a cube whose leaf ``k`` is this index's leaf
        ``ids[k]`` with value ``values[k]``, moved on the dimensions in
        ``recoded`` to the coordinate their new ``(codes, coords)``
        columns give.

        Every other column is this index's own, permuted by ``ids``, and
        every coordinate table shares this index's roll-up map
        (:meth:`_Structure.derived`).  Output leaf ids are the output
        rows, so ascending id == the operator's emission order.  Nothing
        per leaf is built: whether two rows landed on one address is read
        off the sorted row keys, which the output keeps as its point lookup
        (:meth:`_Structure.index_rows`).  If two did, rows and leaves no
        longer line up, and the output's code columns are replayed as a
        stream of writes (:meth:`from_writes`), which keeps the later value
        at the earlier position — no address is built.  A leaf's codes
        never change, so the read is consistent with the :meth:`columns`
        call that produced ``ids`` as long as no structural write came
        between the two (the operators run on snapshots and scenario
        views, which have none).
        """
        with trace_span("rollup_index.derive") as span, self._lock:
            struct = self._struct.derived(self.schema, ids, recoded)
            distinct = struct.sorted_part.distinct()
            if span is not None:
                span.set(
                    leaves_in=self._struct.n_live,
                    leaves_out=len(values),
                    distinct=distinct,
                )
        if distinct:
            return RollupIndex._serving(self.schema, struct, values)
        columns = [(codes, table.coords) for codes, table in zip(struct.codes, struct.tables)]
        return RollupIndex.from_writes(self.schema, columns, values, None)[0]

    def coords_with_data(self, dim_index: int) -> list[str]:
        """Distinct leaf coordinates on one dimension that hold a leaf."""
        with self._lock:
            table = self._struct.tables[dim_index]
            return [c for c, count in zip(table.coords, table.counts) if count]

    def coord_labels(
        self,
        dim_index: int,
        key: object,
        label: "Callable[[list[str]], Iterable[int]]",
    ) -> "tuple[list[str], np.ndarray, np.ndarray]":
        """One dimension's coordinate table as arrays: its coordinates, the
        live leaves at each, and ``label`` of each as an ``int64`` — the
        last computed once per coordinate list (``key`` names the
        labelling), which every generation derived from this one and
        every snapshot shares, so a per-coordinate property costs a query
        nothing after the first."""
        with self._lock:
            table = self._struct.tables[dim_index]
            return (
                list(table.coords),
                np.array(table.counts, dtype=np.int64),
                table.labelled(key, label),
            )

    def codes_under(self, dim_index: int, coord: str) -> np.ndarray:
        """The codes of the leaf coordinates rolling up into ``coord`` on
        one dimension, leaves there or not."""
        with self._lock:
            return np.array(
                self._struct.tables[dim_index].under.get(coord, ()), dtype=np.int64
            )

    # -- the leaf store: writes and point reads ------------------------------------

    def _writable_structure(self) -> _Structure:  # reprolint: locked
        """The generation a structural write may mutate.  Dead ids that
        outnumber the live ones are squeezed out first, generation and
        value store together (:meth:`_Structure.renumbered`), after the
        write record is settled: a buffered id names a leaf of the old
        numbering, a deleted one among them.  Otherwise a generation shared
        with forks is replaced by a private copy, and one that is already
        private is prepared in place (:meth:`_Structure.writable`)."""
        struct = self._struct
        if struct.n_ids - struct.n_live > struct.n_live:
            self._settle_written()
            struct, self._values = struct.renumbered(self.schema, self._values)
        else:
            struct = struct.writable(self._struct_shared)
            if struct is self._struct:
                return struct
        self._struct = struct
        self._struct_shared = False
        self._struct_copied = True
        self._reader = None  # it reads the generation (and store) replaced
        return struct

    def set_leaf(self, addr: Address, value: float) -> bool:
        """Store ``value`` at leaf ``addr``: a value-column write when the leaf
        exists (one lookup, no structure is touched), an insert at the next
        id otherwise — ``True`` for an insert.  Either way the write is
        recorded (:meth:`_wrote`)."""
        with self._lock:
            ident = self._struct.find(addr)
            if ident is not None:
                self._values.update(ident, value)
                # :meth:`_wrote`, inline: this is the hot write
                written = self._written_ids
                written.append(ident)
                if len(written) >= _WRITTEN_BUFFER:
                    self._settle_written()
                if self._memo or self._row_count:
                    self._flush_memo()
                return False
            struct = self._writable_structure()
            self._wrote(struct.insert(self.schema, addr, self._values, value))
            return True

    def remove_leaf(self, addr: Address) -> bool:
        """Delete the leaf at ``addr``; ``False`` when there is none (not
        a mutation).  Its id is not reused."""
        with self._lock:
            if self._struct.find(addr) is None:
                return False
            self._wrote(self._writable_structure().delete(self.schema, addr))
            return True

    def _wrote(self, ident: int) -> None:  # reprolint: locked
        # after every leaf write: the leaf's id joins the record the next
        # fork's memo carry reads, and the live memo — whose lock-free
        # probes must never see a value older than a write — is flushed
        written = self._written_ids
        written.append(ident)
        if len(written) >= _WRITTEN_BUFFER:
            self._settle_written()
        if self._memo or self._row_count:
            self._flush_memo()

    def _settle_written(self) -> None:  # reprolint: locked
        """Move the buffered written leaf ids into the per-dimension
        coordinate sets: per dimension one gather of the code column, its
        distinct codes read through the coordinate table.  A deleted leaf
        keeps its codes, so its coordinates stay in the record.  Runs
        before the record is read, before renumbering changes what an id
        names, and whenever the buffer fills — so the record holds at most
        the distinct coordinates plus one buffer."""
        ids = self._written_ids
        if not ids:
            return
        struct = self._struct
        rows = np.array(ids, dtype=np.int64)
        for coords, codes, table in zip(self._written, struct.codes, struct.tables):
            coords.update(map(table.coords.__getitem__, set(codes[rows].tolist())))
        ids.clear()

    def leaf_reader(self) -> "LeafReader":
        """The one point read: a callable address -> value (``None`` =
        absent) that takes no lock per read.  ``Cube.value`` reads through
        it; a grid reads blocks instead (:meth:`leaf_block`).

        Like :meth:`memo_table`, it snapshots the generation's lookup
        (:meth:`_Structure.find`) and the value store under the lock;
        value updates show through (it holds the store's ``get``, not the
        array a write may replace), so a caller that holds one across
        writes sees the staleness profile of the live memo table.  The
        index holds the reader it made and hands it out again with no
        lock until a structural write replaces the generation, or a
        renumbering the generation and the store
        (:meth:`_writable_structure` drops it, under the lock, so it pins
        neither): a reader handed out while a writer swaps them reads the
        state before the write."""
        reader = self._reader
        if reader is None:
            with self._lock:
                find, values_get = self._struct.find, self._values.get

                def read(addr: Address) -> "float | None":
                    ident = find(addr)
                    return None if ident is None else values_get(ident)

                reader = self._reader = read
        return reader

    def leaf_block(
        self,
        rows: "Sequence[Sequence[str]]",
        dims: Sequence[int],
        columns: "Sequence[Sequence[str]]",
    ) -> "tuple[list[list[float | None]], dict[int, list[int]]]":
        """The block point read: the value at every address ``rows[r]``
        with, on ``dims``, the coordinates ``columns[c]`` (one per entry
        of ``dims``) — ``None`` where there is no leaf — and, per row
        that has such a miss, the columns it misses.  Every value equals
        :meth:`leaf_reader`'s at the same address; the generation and the
        value store are read once, under the lock (:meth:`_Structure.find_block`),
        and nothing is cached: a grid asks each block once."""
        with self._lock:
            ids = self._struct.find_block(rows, dims, columns)
            found = ids >= 0
            values = self._values.gather(ids[found])
        if found.all():
            return values.reshape(found.shape).tolist(), {}
        cells = np.full(found.shape, None, dtype=object)
        cells[found] = values
        misses: dict[int, list[int]] = {}
        for row, column in zip(*(axis.tolist() for axis in np.nonzero(~found))):
            misses.setdefault(row, []).append(column)
        return cells.tolist(), misses

    def _flush_memo(self) -> None:  # reprolint: locked
        self._memo.clear()
        self._rows.clear()
        self._row_count = 0
        self._flushes += 1

    # -- fork (snapshot copy-on-write) -------------------------------------------

    def writes_since_fork(self) -> dict[str, object]:
        """What the writes since the previous fork cost: whether one
        replaced the structure generation, and whether one copied the
        value column (the ``cube.snapshot`` span's attributes)."""
        with self._lock:
            return {
                "structure_copied": self._struct_copied,
                "values_copied": self._values.copied,
            }

    def fork(self, frozen: bool = False) -> "RollupIndex":
        """A copy-on-write clone: ``frozen`` for ``Cube.frozen_copy``,
        writable for ``Cube.copy``.

        The structure generation is shared until either side's next
        structural write and the value column until either side's next
        value write (:meth:`ColumnarLeafStore.fork`); the counters are
        shared for good; the memo is carried (:meth:`_carry_memo`).  A
        frozen clone is never written, so it is the one the next fork
        inherits from, and the write record starts again.
        """
        with self._lock:
            struct = self._struct
            clone = RollupIndex(self.schema, struct)
            clone.stats = self.stats
            clone._struct_shared = self._struct_shared = True
            self._struct_copied = False
            clone._values = self._values.fork()
            if not frozen:
                self._carry_memo(clone)
                return clone
            with trace_span("rollup_index.carry") as span:
                dropped = self._carry_memo(clone)
                if span is not None:
                    span.set(
                        memo_kept=len(clone._memo),
                        memo_dropped=dropped,
                        masks_kept=len(struct.masks) + len(struct.carried),
                    )
            self._inherited = clone._memo
            for coords in self._written:
                coords.clear()
            self._written_ids.clear()
            return clone

    def _carry_memo(self, clone: "RollupIndex") -> int:  # reprolint: locked
        """Start ``clone``'s memo: the last frozen fork's entries that no
        leaf written since can reach, plus the live memo (flushed by every
        write, so all of it is current); returns the number dropped.

        An entry is dropped when its coordinate on every dimension lies in
        the union of the written coordinates' ancestor chains — a
        per-dimension test that may drop a cell no single write reaches,
        never one a write does.  A kept entry is bit-identical to a
        recomputation: its scope holds the same leaves in the same
        ascending-id order with the same values (renumbering keeps
        relative order; an insert or delete is in its own cone).  A
        writable fork is never inherited from: it may take writes this
        index never saw.  The inherited table belongs to a snapshot whose
        queries may be filling it: it is read with one ``dict.copy()``,
        which no concurrent insert can tear."""
        memo = (self._inherited or {}).copy()
        dropped = 0
        if memo:
            self._settle_written()
            if any(self._written):
                chain = self.schema.ancestor_chain
                cone = [
                    {up for coord in coords for up in chain(dim, coord)}
                    for dim, coords in enumerate(self._written)
                ]
                reached = set.__contains__
                kept = {
                    addr: value
                    for addr, value in memo.items()
                    if not all(map(reached, cone, addr))
                }
                dropped = len(memo) - len(kept)
                memo = kept
        memo.update(self._memo)
        clone._memo = memo
        return dropped

    # -- memo -------------------------------------------------------------------

    def _memo_put(self, address: Address, value: CellValue) -> None:  # reprolint: locked
        if len(self._memo) >= _MEMO_CAP:
            self.stats.evictions += len(self._memo)
            self._flush_memo()
        self._memo[address] = value

    def memo_table(self) -> dict[Address, CellValue]:
        """The live memo: address -> the strict sum of its scope.
        Invalidation clears it *in place*, so a held reference is always
        current: a lock-free ``table.get(addr)`` is either a fresh value or
        a miss, never a stale value.  Callers must treat it as read-only.

        Its cells are also read a row at a time through the row
        memo (:meth:`row_table`), keyed by (row address, segment): cleared
        with this table by every write and cap flush, bounded on its own
        (a full row memo never evicts a cell), stored only if no flush
        came since the epoch a grid read before its first row, and not
        carried by a fork."""
        with self._lock:
            return self._memo

    def row_table(self) -> "tuple[dict[tuple[Address, object], Sequence[CellValue]], int]":
        """The live row memo and the flush epoch, read together.

        A grid row's derived cells in one column segment are keyed by
        ``(row address, segment)`` — the segment an immutable object of the
        grid's layout, so one key names one list of addresses — and hold
        the values :meth:`memo_table` or :meth:`rollup_block` gave them, in
        column order.  Every leaf write and every cap flush
        of the cell memo clears it in place, so a lock-free ``get`` is a
        current row or a miss.  Its bound is its own, ``_ROW_CAP`` values
        (a row of ``n`` values counting ``n``): a grid's rows never evict
        a memoised cell (:meth:`store_rows`).  A fork does not carry it: a
        snapshot rebuilds its rows from the cell memo it carries.  The
        epoch is the number of flushes so far; a grid reads it before its
        first row and hands it to :meth:`store_rows`.  Callers must treat
        the table as read-only."""
        with self._lock:
            return self._rows, self._flushes

    def store_rows(
        self, epoch: int, rows: "Sequence[tuple[tuple[Address, object], Sequence[CellValue]]]"
    ) -> None:
        """Store a grid's finished rows in the row memo (:meth:`row_table`)
        — only if no flush came since ``epoch`` was read: a write after a
        row's lock-free memo probes may have changed its values, and every
        write flushes memos that hold an entry.  Rows that would pass
        ``_ROW_CAP`` empty the row memo alone first — rows of a layout
        built per request are never asked again, so a full table is
        renewed, not frozen — and a grid's rows beyond the bound on their
        own are not stored.  The cell memo is never touched."""
        with self._lock:
            if epoch != self._flushes:
                return
            table = self._rows
            if self._row_count + sum(len(values) for _, values in rows) > _ROW_CAP:
                table.clear()
                self._row_count = 0
            for key, values in rows:
                if key in table:
                    continue
                if self._row_count + len(values) > _ROW_CAP:
                    break
                self._row_count += len(values)
                table[key] = values

    def count_hits(self, hits: int) -> None:
        """Record ``hits`` lock-free memo probe hits (stats only)."""
        self.stats.hits += hits

    # -- queries ----------------------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return self._struct.n_live

    def coord_count(self, dim_index: int, coord: str) -> int:
        """Number of live leaves under ``coord`` on one dimension — the
        probe :meth:`_scope` makes per coordinate, and what EXPLAIN's scope
        estimates read.

        An unknown member of a non-varying dimension raises
        :class:`~repro.errors.MemberNotFoundError`, matching the contract
        of the hierarchy lookup the naive scan performs.
        """
        with self._lock:  # the count may be filled in here
            return self._coord_count(dim_index, coord)

    def _coord_count(self, dim_index: int, coord: str) -> int:  # reprolint: locked
        table = self._struct.tables[dim_index]
        count = table.count(coord)
        if count == 0:
            dimension = self.schema.dimensions[dim_index]
            if not self.schema.is_varying(dimension.name):
                dimension.member(coord)  # raises MemberNotFoundError if unknown
        return count

    def _rolls_up(self, dim_index: int, coord: str) -> np.ndarray:  # reprolint: locked
        # per coordinate *code* of the dimension: does it roll up to ``coord``
        table = self._struct.tables[dim_index]
        rolls_up = np.zeros(len(table.coords), dtype=np.bool_)
        rolls_up[table.under.get(coord, [])] = True
        return rolls_up

    def _coord_mask(self, dim_index: int, coord: str) -> np.ndarray:  # reprolint: locked
        # under self._lock; the coordinate is known to hold leaves.  A
        # carried mask is patched (``_Structure.carried``), not recomputed
        struct = self._struct
        key = (dim_index, coord)
        mask = struct.masks.get(key)
        if mask is None:
            n = struct.n_ids
            codes = struct.codes[dim_index]
            rolls_up = self._rolls_up(dim_index, coord)
            stale = struct.carried.get(key)
            if stale is None:
                mask = rolls_up[codes[:n]]
            else:
                done = len(stale)
                mask = np.empty(n, dtype=np.bool_)
                mask[:done] = stale
                mask[done:] = rolls_up[codes[done:n]]
            if struct.n_live != n:
                mask &= struct.live[:n]
            if len(struct.masks) + len(struct.carried) >= _MASK_CAP:
                # a cache, flushed whole like the memo: a clear is atomic
                # against a fork's reader of the same generation
                struct.masks.clear()
                struct.carried.clear()
            struct.masks[key] = mask
            # after the store: a concurrent reader finds one or the other
            struct.carried.pop(key, None)
        return mask

    def _scope(self, named: Mapping[int, "Sequence[str] | frozenset[str] | np.ndarray"]) -> Scope:  # reprolint: locked
        """The one scope: the live leaves that, on every dimension of
        ``named``, roll up into one of its coordinates, as ``(mask,
        filters)`` — ``None`` when no leaf does, ``(None, [])`` when every
        live leaf does.  A dimension may name the codes of its leaf
        coordinates instead (an ``int`` array, as
        :meth:`coord_labels` numbers them).

        A coordinate costs one ``n_under`` probe (:meth:`coord_count`);
        one that every live leaf rolls up into adds no constraint, one that
        none does empties the scope.  The cached masks (:meth:`_coord_mask`)
        of the dimensions naming one coordinate are ANDed into ``mask``; a
        dimension naming several is a ``(kept, dim, keep)`` filter over its
        codes, applied to the ids that survive (:meth:`_ids`).  An unknown
        member of a non-varying dimension raises
        :class:`~repro.errors.MemberNotFoundError`, the naive scan's
        contract; an unknown instance path keeps nothing.
        """
        struct = self._struct
        n_live = struct.n_live
        mask: "np.ndarray | None" = None
        filters: list[tuple[int, int, np.ndarray]] = []
        for dim, coords in named.items():
            if len(coords) == 1 and not isinstance(coords, np.ndarray):
                (coord,) = coords
                kept = self._coord_count(dim, coord)
                if kept == n_live:
                    continue
                if kept == 0:
                    return None
                coord_mask = self._coord_mask(dim, coord)
                mask = coord_mask if mask is None else mask & coord_mask
                continue
            table = struct.tables[dim]
            if isinstance(coords, np.ndarray):
                codes = coords
            else:
                found: set[int] = set()
                for coord in coords:
                    under = table.under.get(coord)
                    if under is None:
                        self._coord_count(dim, coord)  # an unknown member raises
                    else:
                        found.update(under)
                codes = np.fromiter(found, dtype=np.int64, count=len(found))
            kept = int(np.array(table.counts, dtype=np.int64)[codes].sum())
            if kept == n_live:
                continue
            if kept == 0:
                return None
            keep = np.zeros(len(table.coords), dtype=np.bool_)
            keep[codes] = True
            filters.append((kept, dim, keep))
        filters.sort(key=lambda item: item[0])
        return mask, filters

    def _ids(self, scope: Scope) -> "np.ndarray | None":  # reprolint: locked
        # a scope (``_scope``) as ascending leaf ids, ``None`` = every live
        # leaf: the masks' survivors (without a mask, the first filter's
        # over the code column), then the other filters on those ids
        if scope is None:
            return _EMPTY_IDS
        mask, filters = scope
        struct = self._struct
        if mask is None:
            if not filters:
                return None
            (_, dim, keep), *filters = filters
            n = struct.n_ids
            mask = keep[struct.codes[dim][:n]]
            if struct.n_live != n:
                mask &= struct.live[:n]
        ids = np.flatnonzero(mask)
        for _, dim, keep in filters:
            ids = ids[keep[struct.codes[dim][ids]]]
        return ids

    def _point_ids(self, address: Sequence[str]) -> np.ndarray:  # reprolint: locked
        # a cell's scope — one coordinate per dimension — as ascending ids
        ids = self._ids(self._scope({dim: (coord,) for dim, coord in enumerate(address)}))
        return self._struct.ordered_ids() if ids is None else ids

    def ids_under(
        self, named: Mapping[int, "Sequence[str] | frozenset[str] | np.ndarray"]
    ) -> "np.ndarray | None":
        """:meth:`_scope` as ascending leaf ids, ``None`` when it is every
        live leaf: σ's rows, a scenario footprint's and a value
        predicate's.  An unknown member of a non-varying dimension raises
        ``MemberNotFoundError``; an unknown instance path keeps nothing.
        Callers must not mutate the array."""
        with self._lock:
            return self._ids(self._scope(named))

    def scope_ids(self, address: Sequence[str]) -> list[int]:
        """Ids of the leaf cells in a cell's scope, in insertion order."""
        with self._lock:
            return self._point_ids(address).tolist()

    def scope_cells(self, address: Sequence[str]) -> list[tuple[Address, float]]:
        """(address, value) of the leaf cells in a cell's scope, in
        insertion order — materialised under the lock (a lazy generator
        would read columns and values at the caller's pace, racing
        concurrent maintenance)."""
        with self._lock:
            ids = self._point_ids(address)
            return list(
                zip(self._struct.addresses(ids), self._values.gather(ids).tolist())
            )

    def scope_values(self, address: Sequence[str]) -> list[float]:
        """Values of the leaf cells in a cell's scope, in insertion order
        (no address is built)."""
        with self._lock:
            return self._values.gather(self._point_ids(address)).tolist()

    def rollup(self, address: Address) -> CellValue:
        """The strict sum of the address's scope, memoised until the next
        leaf write: a memo probe, then on a miss the one-cell block
        reduction (:meth:`_block_sums`)."""
        with self._lock:
            value = self._memo.get(address)  # a memoised value is never None
            if value is not None:
                self.stats.hits += 1
                return value
            self.stats.misses += 1
            (value,) = self._block_sums([address])
            self._memo_put(address, value)
            return value

    def rollup_block(self, addresses: Sequence[Address]) -> list[CellValue]:
        """:meth:`rollup` of every address, in one pass and one lock
        acquisition: a memo hit — or an address met earlier in the call —
        counts as a hit, and every other distinct address is reduced by
        :meth:`_block_sums`, memoised and counted as a miss, exactly as one
        ``rollup`` call per address would count and store it."""
        with self._lock:
            table = self._memo
            found: "list[CellValue | None]" = []
            todo: dict[Address, CellValue] = {}
            for address in addresses:
                value = table.get(address)  # a memoised value is never None
                if value is None and address not in todo:
                    todo[address] = MISSING
                else:
                    self.stats.hits += 1
                found.append(value)
            if todo:
                self.stats.misses += len(todo)
                missed = list(todo)
                for address, value in zip(missed, self._block_sums(missed)):
                    todo[address] = value
                    self._memo_put(address, value)
            return [
                todo[address] if value is None else value
                for address, value in zip(addresses, found)
            ]

    def _block_sums(self, addresses: list[Address]) -> list[CellValue]:  # reprolint: locked
        """The strict sum of each address's scope, the cells at one
        combination of hierarchy levels by one ``np.bincount``: the index's
        one reduction.

        The dimensions on which the addresses name one coordinate are one
        :meth:`_scope`: their cached masks, nothing for one that every
        live leaf rolls up into, ⊥ for every cell when none does.  A dimension
        naming several is split into levels, each a set of coordinates
        whose leaf codes (``_CoordTable.under``) are disjoint — Period's
        members make three: the root, the quarters, the months — and a
        level labels each leaf code with the slot of the coordinate it
        rolls up into, or with one past the last slot.  The scope's
        ascending ids are gathered once; the cells at one combination of
        levels are then one ``bincount`` of the ids' mixed-radix buckets
        weighted by their values and one of the buckets alone, and a
        bucket that counts no leaf is ⊥.  Where the product of the radices
        would pass the count of ids and cells, the buckets are first
        renumbered among the cells' distinct ones (:func:`_renumber`), so
        a ``bincount`` has at most that many buckets and memory stays
        O(ids + cells) however the coordinates combine.  ``bincount``
        folds each bucket from ``0.0`` in input order, so every cell is
        ``agg_sum`` of its scope in ascending id order, NaN and the sign
        of zero included.  Where no dimension names two coordinates — one
        address — the scope is one bucket, with no level to combine."""
        struct = self._struct
        n_cells = len(addresses)
        out: list[CellValue] = [MISSING] * n_cells
        single: dict[int, Sequence[str]] = {}  # the filters: one coordinate each
        #: per dimension naming several coordinates: its index, its levels,
        #: and each cell's level there (-1 where no leaf coordinate rolls
        #: up into its coordinate: ⊥) and slot in that level
        varying: "list[tuple[int, _Levels, np.ndarray, np.ndarray]]" = []
        for dim, column in enumerate(zip(*addresses)):
            if column.count(column[0]) == n_cells:
                single[dim] = column[:1]
                continue
            coords = dict.fromkeys(column)
            table = struct.tables[dim]
            levels: _Levels = []
            taken: list[set[int]] = []
            level_of: dict[str, int] = {}
            slot_of: dict[str, int] = {}
            for coord in coords:
                codes = table.under.get(coord)
                if codes is None:
                    self._coord_count(dim, coord)  # an unknown member raises
                    level_of[coord] = slot_of[coord] = -1
                    continue
                for level, held in enumerate(taken):  # the first level it fits
                    if held.isdisjoint(codes):
                        break
                else:
                    level = len(taken)
                    levels.append(([], []))
                    taken.append(set())
                level_codes, sizes = levels[level]
                level_of[coord], slot_of[coord] = level, len(sizes)
                taken[level].update(codes)
                level_codes.extend(codes)
                sizes.append(len(codes))
            varying.append(
                (
                    dim,
                    levels,
                    np.fromiter(map(level_of.__getitem__, column), np.int64, n_cells),
                    np.fromiter(map(slot_of.__getitem__, column), np.int64, n_cells),
                )
            )

        scope = self._scope(single)
        if scope is None:
            return out
        ids = self._ids(scope)
        if ids is None:
            ids = self._struct.ordered_ids()
        values = self._values.gather(ids)
        if not varying:  # one address: its scope is one bucket
            if len(ids):
                bucket = np.zeros(len(ids), dtype=np.intp)
                out = np.bincount(bucket, weights=values).tolist() * n_cells
            return out
        # each cell's combination of levels, as one number
        alive = np.ones(n_cells, dtype=np.bool_)
        combo = np.zeros(n_cells, dtype=np.int64)
        for _, levels, cell_levels, _ in varying:
            alive &= cell_levels >= 0
            combo = combo * len(levels) + cell_levels
        labels: dict[tuple[int, int], np.ndarray] = {}  # each id's slot at a level
        for key in np.unique(combo[alive]).tolist():
            cells = np.flatnonzero(alive & (combo == key))
            first = int(cells[0])
            at = np.zeros(len(cells), dtype=np.int64)  # each cell's bucket
            bucket = np.zeros(len(ids), dtype=np.int64)  # each id's
            bound = len(ids) + len(cells)
            n = 1
            for dim, levels, cell_levels, cell_slots in varying:
                level = int(cell_levels[first])
                codes, sizes = levels[level]
                radix = len(sizes) + 1  # every slot, then "none"
                label = labels.get((dim, level))
                if label is None:
                    by_code = np.full(len(struct.tables[dim].coords), len(sizes), dtype=np.int64)
                    by_code[codes] = np.repeat(np.arange(len(sizes)), sizes)
                    label = labels[dim, level] = by_code[struct.codes[dim][ids]]
                if n * radix > bound:
                    at, bucket, n = _renumber(at, bucket)
                bucket *= radix
                bucket += label
                at *= radix
                at += cell_slots[cells]
                n *= radix
            if n > bound:
                at, bucket, n = _renumber(at, bucket)
            sums = np.bincount(bucket, weights=values, minlength=n)[at].tolist()
            counts = np.bincount(bucket, minlength=n)[at].tolist()
            for k, total, count in zip(cells.tolist(), sums, counts):
                if count:
                    out[k] = total
        return out

    # -- introspection ----------------------------------------------------------

    @property
    def plane_store(self) -> ColumnarLeafStore:
        """The value store (tests / bench introspection).  There are no
        planes; the name stays because ``benchmarks/ledger/layers.py``
        reads ``plane_store.nbytes`` / ``.gather`` and a PR may not edit
        the benchmark it is measured by."""
        return self._values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [len(table.coords) for table in self._struct.tables]
        return f"RollupIndex({self._struct.n_live} leaves, coords/dim={sizes})"
