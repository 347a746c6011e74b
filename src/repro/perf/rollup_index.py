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

Leaf store
----------
Leaf *values* are one more column over the same id space: a
:class:`ColumnarLeafStore` is one contiguous ``float64`` array where row
== leaf id, grown and copied on write exactly like the code columns.  A
scope's values are ``column[ids]`` — one fancy-indexed gather — summed
by :meth:`RollupIndex._block_sums`, a fold from ``0.0`` in ascending id
order whose result is bit-identical to the naive scan.  Which rows are
leaves is the structure's business (``_Structure.live`` and the point
lookup); the value column keeps no liveness of its own, and a row is read
only after the structure resolved it to a live id.

Every cube holds one index from construction and that index *is* its
leaf store: the cube keeps no address-keyed dict and no wrapper around
the index — it reads a leaf through :meth:`RollupIndex.leaf_reader`, all
of them through one ``columns(())`` and their count off
:attr:`RollupIndex.n_leaves` — and ``Cube.set_value`` writes here and
nowhere else (:meth:`RollupIndex.set_leaf` /
:meth:`RollupIndex.remove_leaf`).  An index built with
:meth:`RollupIndex.build` and not handed to ``Cube.adopt`` is a
point-in-time copy of the cube it was built from.

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

Structure generations
---------------------
Everything that depends only on *which* leaves exist — code columns,
coordinate tables, liveness, the point lookup, and the caches read off
them (ordered id array, per-coordinate masks) — is one
:class:`_Structure` generation.
``Cube.frozen_copy`` and ``Cube.copy`` *fork* the index: the fork shares
the generation (so a mask computed by one snapshot serves every later
one) and shares the value column the same way: the first value write on
either side copies it (``ColumnarLeafStore.fork``).  The column, not a
4,096-row plane of it, is the copy-on-write unit: plane-granular sharing
was measured (ISSUE 22) and lost on every path that is driven — each
write dropped the end-to-end read copy of the planes, so write → snapshot
→ query re-concatenated the cube anyway (55 µs against 36 µs for
copy-write-gather at 96,000 rows, 775 against 673 µs at 10^6; 1,000 point
reads 276 against 100 µs; bulk load 101 µs at 96k and 1.4 ms at 10^6
against adopting the gathered array) — and every served generation held
its values twice (884,736 B of planes + a 768,000 B mirror at 96,000
leaves).  A value write touches no structure.
An insert or delete on either side first replaces a shared generation
with a private copy (the other side keeps the old one): its arrays and
per-coordinate counts are copied, its roll-up maps and sorted keys
shared and its masks carried (:meth:`_Structure.copy`).  Ids are never
reused, and once dead ids outnumber live
ones the next structural write renumbers, so churn cannot grow the id
space past twice the cube.  The what-if operators (ρ, S) and the restrictions (σ,
the shard's slice) *derive* the index of their output from the input's:
the unchanged dimensions' columns are permuted, a moved dimension's
column is recoded, every coordinate table shares its parent's roll-up
map (:class:`_CoordTable`: built once per coordinate list, the derived
generation counting only its own leaves), and the gathered values are
bulk-loaded — no rebuild.
No generation holds a per-leaf Python object: every one is arrays only.
Columns are coded from addresses in two places: a bulk ``Cube.load``
codes its stream a chunk at a time (``_read_stream`` in
:mod:`repro.olap.cube`) and hands the code columns over
(:meth:`RollupIndex.from_writes`), and :meth:`RollupIndex.from_cells`
codes a mapping — :meth:`RollupIndex.build`, an output whose rows clash
on one address, and anything computed under ``naive_mode()``.  Neither
keeps the addresses past the call.

Addresses and point lookup
--------------------------
A leaf's address is row ``k`` of the code columns read through the
coordinate tables (:meth:`_Structure.addresses`): built for the rows
somebody names (a scope, an error message) and for all of them only when
somebody asks for all (an export) — never on a query path.  The
``rollup_index.materialize`` span marks every such full read.

Every generation has one point lookup (:meth:`_Structure.find`): the
sorted mixed-radix keys of its code columns (:class:`_SortedPart`, the
same sort that proves a derived generation's rows distinct), searched once
per address and remembered; a small dict of the leaves inserted since the
sort; and the liveness mask, which confirms a sorted hit.  A structural
write sorts the inserts in once they outnumber an eighth of the sorted
rows, and every copy of a generation shares its sorted part, so a
resolved address stays resolved across snapshots.

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

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Mapping,
    Sequence,
    TypeAlias,
)

import numpy as np

from repro.lint.lockdep import make_lock
from repro.obs.trace import trace_span
from repro.olap.missing import MISSING, Missing
from repro.storage.io_stats import CacheStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.olap.cube import Cube
    from repro.olap.schema import CubeSchema

__all__ = ["ColumnarLeafStore", "LeafColumns", "RollupIndex", "scan_columns"]

Address = tuple[str, ...]
CellValue: TypeAlias = "float | Missing"
#: one coordinate column: per-row codes plus the code -> coordinate list
Column: TypeAlias = "tuple[np.ndarray, list[str]]"
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

#: soft cap on the per-index rollup memo (entries) and on a generation's
#: resolved-address cache, to bound worst-case memory on long-lived cubes
#: queried at ever-changing addresses
_MEMO_CAP = 65536
#: soft cap on the row memo (:meth:`RollupIndex.row_table`), in values
#: across its rows: its own bound, so rows never evict a memoised cell
_ROW_CAP = 65536
#: soft cap on a generation's cached per-coordinate masks (``masks`` and
#: ``carried`` together, each one byte per leaf id): a grid scopes a few
#: dozen coordinates, while σ with a value predicate scopes every
#: candidate once — uncapped, 494 masks (48 MB) on the ledger's cube
_MASK_CAP = 64
#: a generation's mixed-radix address key must fit ``int64``: the product
#: of its coordinate-table sizes must stay below this
_KEY_LIMIT = 2**63
#: written leaf ids the write record buffers before it settles them into
#: coordinates (:meth:`RollupIndex._settle_written`)
_WRITTEN_BUFFER = 4096

_EMPTY_IDS = np.empty(0, dtype=np.int64)
#: "not in the resolved-address cache" (``None`` there means "no such
#: row"); no row id is negative
_UNSEEN = -1


@dataclass(slots=True, eq=False)
class LeafColumns:
    """A cube's leaf cells column-wise, rows in cube insertion order.

    This is what the what-if operators read instead of iterating cells:
    ``codes[d][row]`` is the code of the row's coordinate on dimension
    ``d`` and ``coords[d][code]`` the coordinate itself, for the
    dimensions that were asked for.  ``index``/``ids`` name the rollup
    index the columns were read from and each row's leaf id in it
    (``None`` for columns scanned off the addresses under
    ``naive_mode()``), which is what :meth:`derive` needs to build the
    output's index.

    The rows' addresses are not part of the read: columns scanned off
    addresses keep the list they scanned, columns read from an index
    build :attr:`addresses` — all of them, kept for this read — or
    :meth:`addresses_at` — the rows named — from the generation they were
    read from when somebody asks.  The operators never do.
    """

    values: np.ndarray
    codes: dict[int, np.ndarray]
    coords: dict[int, list[str]]
    index: "RollupIndex | None" = None
    ids: "np.ndarray | None" = None
    #: the generation ``ids`` are ids of; it may have been replaced in
    #: ``index`` since, but a replaced generation no longer changes
    _struct: "_Structure | None" = None
    _addresses: "list[Address] | None" = None

    @property
    def addresses(self) -> list[Address]:
        """Every row's address.  On columns read from an index this builds
        one address per row (tens of ms at 96k leaves), so nothing on a query
        path may ask."""
        if self._addresses is None:
            with trace_span("rollup_index.materialize") as span:
                self._addresses = self._struct.addresses(self.ids)
                if span is not None:
                    span.set(leaves=len(self.ids), what="addresses")
        return self._addresses

    def addresses_at(self, rows: np.ndarray) -> list[Address]:
        """The addresses of the given rows, and of no other."""
        if self._addresses is not None:
            return [self._addresses[row] for row in rows.tolist()]
        return self._struct.addresses(self.ids[rows])

    def code_of(self, dim: int) -> Mapping[str, int]:
        """Coordinate -> code on dimension ``dim``: the coordinate table's
        own map for columns read from an index — where a code at or past
        ``len(coords[dim])`` was added after this read — built from
        ``coords[dim]`` for scanned ones."""
        if self._struct is None:
            return {coord: code for code, coord in enumerate(self.coords[dim])}
        return self._struct.tables[dim].code_of

    def labels(
        self, dim: int, key: object, label: "Callable[[list[str]], Iterable[int]]"
    ) -> np.ndarray:
        """``label`` of each coordinate of ``coords[dim]``, one ``int64``
        per code: off the coordinate table's labels for columns read from
        an index (:meth:`RollupIndex.coord_labels`), computed for scanned
        ones."""
        coords = self.coords[dim]
        if self._struct is None:
            return np.array(list(label(coords)), dtype=np.int64)
        return self._struct.tables[dim].labelled(key, label)[: len(coords)]

    def derive(
        self, schema: "CubeSchema", rows: np.ndarray, recoded: Mapping[int, Column]
    ) -> "RollupIndex":
        """The leaf store of the cube whose leaf ``k`` is row ``rows[k]``
        with, on every dimension in ``recoded``, the coordinate of that
        dimension's new ``(codes, coords)`` column: derived from the index
        the columns were read from (:meth:`RollupIndex.derive`), or, for
        columns scanned off addresses, built from the rows' patched
        addresses (two rows on one address collapse to the later value)."""
        values = self.values[rows]
        if self.index is not None:
            return self.index.derive(self.ids[rows], values, recoded)
        addresses = self.addresses_at(rows)
        for dim, (codes, coords) in recoded.items():
            after = dim + 1
            addresses = [
                addr[:dim] + (coords[code],) + addr[after:]
                for addr, code in zip(addresses, codes.tolist())
            ]
        return RollupIndex.from_cells(schema, dict(zip(addresses, values.tolist())))


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
    """Read :class:`LeafColumns` straight off a leaf mapping (no index is
    consulted for the coordinates): the requested coordinate columns are
    factorised in one pass each."""
    addresses = list(leaf_cells)
    values = np.fromiter(
        leaf_cells.values(), dtype=np.float64, count=len(addresses)
    )
    codes: dict[int, np.ndarray] = {}
    coords: dict[int, list[str]] = {}
    for dim in dims:
        codes[dim], coords[dim] = _factorize([addr[dim] for addr in addresses])
    return LeafColumns(values, codes, coords, _addresses=addresses)


def _renumber(at: np.ndarray, bucket: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Mixed-radix buckets renumbered ``0 .. k-1`` among the ``k`` distinct
    ones the cells ``at`` name, with ``k`` for every id ``bucket`` holds in
    none: the cells' and the ids' new buckets, and how many there are."""
    keys, at = np.unique(at, return_inverse=True)
    place = np.minimum(np.searchsorted(keys, bucket), len(keys) - 1)
    return at, np.where(keys[place] == bucket, place, len(keys)), len(keys) + 1


class _CoordTable:
    """The distinct leaf coordinates of one dimension, what they roll up
    to, and how many live leaves each holds.

    ``under[c]`` lists the codes of the leaf coordinates below (or equal
    to) coordinate ``c`` — of every coordinate the table lists, whether a
    leaf is there now or not — and ``counts[code]`` the live leaves at
    each: one ``bincount`` of the generation's code column when first
    asked (every row is live when a generation is made, and every write
    asks before it changes a count).  ``n_under`` (live leaves under a
    coordinate) is filled on demand (:meth:`count`), and ``labels`` holds
    per-code arrays read off the coordinates (:meth:`labelled`).

    The roll-up map — ``coords``, ``code_of``, ``under`` and ``labels`` —
    depends on the coordinate list alone, resolved from
    ``CubeSchema.ancestor_chain`` once per coordinate.  So a derived
    generation shares its parent's map and keeps only its own counts
    (:meth:`derived`: one ``bincount``), and so does the private copy a
    structural write makes (:meth:`copy`).  A shared map is never
    changed: a table that must add a coordinate to one copies it first
    (``own`` says whether the map is this table's alone)."""

    __slots__ = (
        "coords", "code_of", "under", "labels", "n_under", "own", "_column", "_counts"
    )

    def __init__(
        self,
        schema: "CubeSchema",
        dim_index: int,
        coords: list[str],
        column: np.ndarray,
    ) -> None:
        self.coords = coords
        self.code_of = {coord: code for code, coord in enumerate(coords)}
        self.under: dict[str, list[int]] = {}
        under, chain = self.under, schema.ancestor_chain
        for code, coord in enumerate(coords):
            for ancestor in chain(dim_index, coord):
                codes = under.get(ancestor)
                if codes is None:
                    under[ancestor] = [code]
                else:
                    codes.append(code)
        self.n_under: dict[str, int] = {}
        self.labels: dict[object, np.ndarray] = {}
        self.own = True
        self._column: "np.ndarray | None" = column
        self._counts: "list[int] | None" = None

    @property
    def counts(self) -> list[int]:
        counts = self._counts
        if counts is None:
            counts = self._counts = np.bincount(
                self._column, minlength=len(self.coords)
            ).tolist()
        return counts

    def _sharing(self, column: "np.ndarray | None") -> "_CoordTable":
        # a table over this one's map counting ``column``; neither side
        # may change the map in place from now on
        clone = _CoordTable.__new__(_CoordTable)
        clone.coords, clone.code_of = self.coords, self.code_of
        clone.under, clone.labels = self.under, self.labels
        clone.n_under = {}
        clone.own = self.own = False
        clone._column, clone._counts = column, None
        return clone

    def copy(self) -> "_CoordTable":
        clone = self._sharing(None)
        clone._counts = list(self.counts)
        clone.n_under = dict(self.n_under)
        return clone

    def derived(
        self,
        schema: "CubeSchema",
        dim_index: int,
        coords: list[str],
        column: np.ndarray,
    ) -> "_CoordTable":
        """The table of a derived generation whose coordinate list is
        ``coords`` and whose rows' codes are ``column``: this table's map,
        shared — extended by the coordinates ``coords`` adds past this
        table's (a moved dimension's new instances) — or, for a list that
        does not extend this one, a map of its own."""
        n = len(self.coords)
        if coords is not self.coords and coords[:n] != self.coords:
            return _CoordTable(schema, dim_index, list(coords), column)
        clone = self._sharing(column)
        if len(coords) > n:
            # copy the lists the new coordinates join, and no other
            clone.coords = list(coords)
            clone.code_of = dict(self.code_of)
            clone.under = dict(self.under)
            clone.labels = dict(self.labels)
            chain = schema.ancestor_chain
            for code in range(n, len(coords)):
                coord = coords[code]
                clone.code_of[coord] = code
                for ancestor in chain(dim_index, coord):
                    clone.under[ancestor] = [*clone.under.get(ancestor, ()), code]
        return clone

    def count(self, coord: str) -> int:
        """Live leaves under (or at) ``coord``; 0 for a coordinate the
        table does not know."""
        count = self.n_under.get(coord)
        if count is None:
            codes = self.under.get(coord)
            if codes is None:
                return 0
            count = self.n_under[coord] = sum(map(self.counts.__getitem__, codes))
        return count

    def labelled(
        self, key: object, label: "Callable[[list[str]], Iterable[int]]"
    ) -> np.ndarray:
        """``label`` of every coordinate, one ``int64`` per code: computed
        once per coordinate list and ``key``, and for the codes added since
        only when the list has grown."""
        n = len(self.coords)
        known = self.labels.get(key, _EMPTY_IDS)
        if len(known) < n:
            more = np.array(list(label(self.coords[len(known) : n])), dtype=np.int64)
            known = self.labels[key] = np.concatenate((known, more))
        return known[:n]

    def add_leaf(self, coord: str, chain: tuple[str, ...]) -> int:
        """Count one more leaf at ``coord``; returns its code."""
        counts = self.counts  # counted before the table grows
        code = self.code_of.get(coord)
        if code is None:
            if not self.own:
                self.coords = list(self.coords)
                self.code_of = dict(self.code_of)
                self.under = {c: list(codes) for c, codes in self.under.items()}
                self.labels = dict(self.labels)
                self.own = True
            code = len(self.coords)
            self.coords.append(coord)
            self.code_of[coord] = code
            counts.append(0)
            for ancestor in chain:
                self.under.setdefault(ancestor, []).append(code)
        counts[code] += 1
        n_under = self.n_under
        for ancestor in chain:
            if ancestor in n_under:
                n_under[ancestor] += 1
        return code

    def remove_leaf(self, coord: str, chain: tuple[str, ...]) -> None:
        self.counts[self.code_of[coord]] -= 1
        n_under = self.n_under
        for ancestor in chain:
            if ancestor in n_under:
                n_under[ancestor] -= 1


def _with_headroom(array: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` entries of ``array`` in a fresh array with an
    eighth (plus a few) spare slots — appends stay amortised O(1) while a
    column never carries more than that past the id space."""
    out = np.empty(n + (n >> 3) + 8, dtype=array.dtype)
    out[:n] = array[:n]
    out[n:] = 0  # only the spare slots: zeroing all of it is a second pass
    return out


class ColumnarLeafStore:
    """The value column of a rollup index: one contiguous ``float64``
    array over the leaf-id space (row == leaf id), with the same spare
    capacity rule as the code columns.

    The column is the copy-on-write unit.  :meth:`fork` shares the array
    and marks both sides shared; the first write either side makes copies
    it, so a pinned snapshot keeps reading the old bytes.  ``copied``
    says whether a write since the last fork paid that copy.

    The store knows nothing about liveness: a deleted leaf keeps its row
    and its bytes, and only ids the structure resolved are ever read.

    Thread-safety: writes happen under the owning index's lock.  A write
    that replaces the array installs it only after the new value is in
    it, so the lock-free point readers — which hold :meth:`get`, never
    the array — read a complete column before or after the write.
    """

    __slots__ = ("_column", "_size", "_shared", "copied")

    def __init__(self) -> None:
        self._column = np.empty(0, dtype=np.float64)
        self._size = 0
        self._shared = False
        self.copied = False

    @classmethod
    def from_values(cls, values: np.ndarray) -> "ColumnarLeafStore":
        """The store whose row ``i`` holds ``values[i]``.  The array is
        adopted, not copied: the caller hands over a ``float64`` array
        nobody else will write."""
        store = cls()
        store._column = values
        store._size = len(values)
        return store

    @property
    def n_rows(self) -> int:
        """Row slots in use — the size of the id space."""
        return self._size

    @property
    def nbytes(self) -> int:
        return self._column.nbytes

    def fork(self) -> "ColumnarLeafStore":
        """A copy-on-write clone: the array is shared until either side
        writes."""
        clone = ColumnarLeafStore.from_values(self._column)
        clone._size = self._size
        clone._shared = self._shared = True
        self.copied = False
        return clone

    def update(self, row: int, value: float) -> None:
        """Write one row, first copying a shared column or regrowing a
        full one."""
        column = self._column
        if self._shared or row == len(column):
            column = _with_headroom(column, self._size)
            self.copied |= self._shared
            self._shared = False
        column[row] = value
        self._column = column

    def append(self, value: float) -> int:
        """Store ``value`` at the next row; returns the row id."""
        row = self._size
        self.update(row, value)
        self._size = row + 1
        return row

    def get(self, row: int) -> float:
        return float(self._column[row])

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """Values at the given row ids, as a fresh array."""
        return self._column[rows]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarLeafStore({self._size} rows, {len(self._column)} slots)"


class _SortedPart:
    """The sorted part of a generation's point lookup: the mixed-radix key
    of some live rows' codes, sorted, and the row behind each.  The
    radices are the coordinate-table sizes at sort time, so a coordinate
    coded at or above its radix came later and is in no key: inserts that
    grow a table never re-key anything.  The keys are ``int64`` while
    their product of radices fits, Python ints otherwise — one code path,
    two dtypes.

    A part never changes once built, except ``resolved``, which remembers
    every address :meth:`search` was asked, hit or miss, so a repeat read
    is one dict probe.  Every generation that shares the part shares the
    cache: below its radix a coordinate has one code in all of them.  A
    block search (:meth:`partial_keys`, :meth:`search_block`) remembers
    nothing: a grid asks each of its blocks once."""

    __slots__ = ("keys", "rows", "radices", "strides", "resolved")

    def __init__(
        self, codes: Sequence[np.ndarray], tables: Sequence[_CoordTable], rows: np.ndarray
    ) -> None:
        radices = [len(table.coords) for table in tables]
        wide = math.prod(radices) >= _KEY_LIMIT
        key = np.zeros(len(rows), dtype=object if wide else np.int64)
        for column, radix in zip(codes, radices):
            if radix > 1:  # a one-coordinate table's digit is always 0
                key *= radix
                key += column[rows].astype(object) if wide else column[rows]
        order = np.argsort(key)
        self.keys = key[order]
        self.rows = rows[order]
        self.radices = radices
        #: a dimension's place value in the key: the product of the
        #: radices after it
        self.strides = [math.prod(radices[dim + 1 :]) for dim in range(len(radices))]
        self.resolved: "dict[Address, int | None]" = {}

    def distinct(self) -> bool:
        """Whether no two sorted rows share a key — an address."""
        keys = self.keys
        return not (keys[1:] == keys[:-1]).any()

    def search(self, tables: Sequence[_CoordTable], addr: Address) -> "int | None":
        """The sorted row at ``addr``: one ``code_of`` probe per
        dimension, one binary search."""
        key = 0
        for table, radix, coord in zip(tables, self.radices, addr):
            code = table.code_of.get(coord, radix)
            if code >= radix:
                return None  # a coordinate no sorted row has
            key = key * radix + code
        keys = self.keys
        at = int(keys.searchsorted(key))
        if at < len(keys) and keys[at] == key:
            return int(self.rows[at])
        return None

    def partial_keys(
        self,
        tables: Sequence[_CoordTable],
        dims: Sequence[int],
        coords: "Sequence[Sequence[str]]",
        n: int,
    ) -> "tuple[np.ndarray, np.ndarray | None]":
        """For ``n`` addresses whose coordinates on ``dims`` are
        ``coords`` (one sequence of ``n`` per dimension): the part of each
        one's key those dimensions make — code times stride, summed — and
        which of them have every coordinate in some sorted key (a
        coordinate coded at or above its radix is in none); ``None`` when
        all do.  A dimension with one coordinate for every address costs
        one ``code_of`` probe, any other one probe per address."""
        dtype = self.keys.dtype
        if not n:
            return np.zeros(0, dtype=dtype), None
        base = 0
        ok: "np.ndarray | None" = None
        varying: list[tuple[np.ndarray, int]] = []
        for dim, column in zip(dims, coords):
            radix, stride = self.radices[dim], self.strides[dim]
            code_of = tables[dim].code_of
            if column.count(column[0]) == n:
                code = code_of.get(column[0], radix)
                if code >= radix:
                    return np.zeros(n, dtype=dtype), np.zeros(n, dtype=np.bool_)
                base += code * stride
                continue
            codes = np.fromiter(map(code_of.get, column, repeat(radix, n)), np.int64, n)
            # a code at or above the radix may wrap an ``int64`` key; ``ok``
            # rules that address out whatever its key reads
            valid = codes < radix
            ok = valid if ok is None else ok & valid
            varying.append((codes if dtype == codes.dtype else codes.astype(object), stride))
        keys = np.full(n, base, dtype=dtype)
        for codes, stride in varying:
            keys += codes * stride
        return keys, ok

    def search_block(
        self,
        rows: "tuple[np.ndarray, np.ndarray | None]",
        cols: "tuple[np.ndarray, np.ndarray | None]",
    ) -> np.ndarray:
        """The sorted row at every address whose key is ``rows`` key
        ``r`` plus ``cols`` key ``c`` (both :meth:`partial_keys`), as an
        ``int64`` array of shape (rows, columns), -1 where there is none:
        one broadcast add, one ``searchsorted`` and one gather, whichever
        dtype the keys are."""
        (row_keys, row_ok), (col_keys, col_ok) = rows, cols
        key = row_keys[:, None] + col_keys[None, :]
        keys = self.keys
        if not len(keys):
            return np.full(key.shape, -1, dtype=np.int64)
        at = keys.searchsorted(key)
        np.minimum(at, len(keys) - 1, out=at)
        hit = keys[at] == key
        if row_ok is not None:
            hit &= row_ok[:, None]
        if col_ok is not None:
            hit &= col_ok[None, :]
        return np.where(hit, self.rows[at], -1)


@dataclass(slots=True, eq=False)
class _Structure:
    """One generation of an index's structure: everything that depends
    only on *which* leaves exist, never on their values.

    ``n_ids`` is the size of the id space; ``codes`` holds per dimension
    the int32 coordinate code of every leaf id and ``live`` their liveness
    (both may carry spare capacity past the id space; a deleted id keeps
    its codes); ``tables`` are the per-dimension :class:`_CoordTable`.
    The address of leaf ``k`` is row ``k`` of the code columns read
    through the tables (:meth:`addresses`); nothing is kept per leaf.

    The point lookup (:meth:`find`) is ``recent`` — address -> id of the
    leaves inserted since the last sort — over ``sorted_part`` (a
    :class:`_SortedPart`), whose hits ``live`` confirms: a delete pops
    ``recent`` or clears a sorted row's liveness.

    The rest is a cache: ``ordered`` (ascending live ids), ``masks``
    ((dim_index, coord) -> boolean mask over the id space) and
    ``carried`` — masks computed before the last structural write(s),
    each over the id space as it was then (:meth:`RollupIndex._coord_mask`
    patches one on first use: a leaf's codes never change, so only the
    ids appended since are looked up and the deleted ones cleared).  A
    key is in ``masks`` or ``carried``, never both, and the two together
    hold at most ``_MASK_CAP`` masks: the next mask past the cap empties
    both first.

    An index and its forks share one generation.  An index mutates a
    generation in place only while nothing shares it; otherwise the
    structural write replaces it with :meth:`copy` first (frozen
    snapshots never write; a writable ``Cube.copy`` does, and diverges the
    same way).  The caches are filled lazily by whichever index asks
    first: every filler computes the same value and the store is one
    attribute or dict assignment, atomic under the GIL, so a mask computed
    for one snapshot serves all later ones.
    """

    n_ids: int
    codes: list[np.ndarray]
    tables: list[_CoordTable]
    live: np.ndarray
    n_live: int
    sorted_part: _SortedPart
    recent: dict[Address, int] = field(default_factory=dict)
    ordered: "np.ndarray | None" = None
    masks: dict[tuple[int, str], np.ndarray] = field(default_factory=dict)
    carried: dict[tuple[int, str], np.ndarray] = field(default_factory=dict)

    @classmethod
    def over(
        cls, schema: "CubeSchema", columns: Sequence[Column], n: int
    ) -> "_Structure":
        """The generation of ``n`` live leaves, leaf id == row: ``columns``
        holds one ``(codes, coords)`` pair per schema dimension, adopted,
        and every row is sorted."""
        codes = [column for column, _ in columns]
        tables = [
            _CoordTable(schema, i, coords, column[:n])
            for i, (column, coords) in enumerate(columns)
        ]
        return cls(
            n,
            codes,
            tables,
            np.ones(n, dtype=np.bool_),
            n,
            _SortedPart(codes, tables, np.arange(n)),
        )

    def derived(
        self, schema: "CubeSchema", ids: np.ndarray, recoded: Mapping[int, Column]
    ) -> "_Structure":
        """The generation of ``len(ids)`` live leaves, leaf ``k`` being
        this generation's leaf ``ids[k]`` — with, on the dimensions of
        ``recoded``, the code of that dimension's new ``(codes, coords)``
        column instead — every row sorted.  Each dimension's table shares
        this generation's roll-up map (:meth:`_CoordTable.derived`) and
        counts its own leaves when asked, one ``bincount``."""
        codes: list[np.ndarray] = []
        tables: list[_CoordTable] = []
        for dim, table in enumerate(self.tables):
            column, coords = (
                recoded[dim] if dim in recoded else (self.codes[dim][ids], table.coords)
            )
            codes.append(column)
            tables.append(table.derived(schema, dim, coords, column))
        n = len(ids)
        return _Structure(
            n, codes, tables, np.ones(n, dtype=np.bool_), n,
            _SortedPart(codes, tables, np.arange(n)),
        )

    def copy(self) -> "_Structure":
        """A private generation for a structural write: same ids, columns
        trimmed to the id space plus headroom — arrays and per-coordinate
        counts (the roll-up maps are shared), nothing per leaf.  The
        sorted part is shared, ``recent`` copied, and every mask is
        carried for patching; the ordered ids of the old id space are left
        behind."""
        n = self.n_ids
        return _Structure(
            n,
            [_with_headroom(codes, n) for codes in self.codes],
            [table.copy() for table in self.tables],
            _with_headroom(self.live, n),
            self.n_live,
            self.sorted_part,
            dict(self.recent),
            carried={**self.carried, **self.masks},
        )

    def addresses(self, ids: np.ndarray) -> list[Address]:
        """The addresses of the given leaf ids, and the one place an
        address is defined: row ``k`` of the code columns through the
        coordinate tables."""
        return list(
            zip(
                *(
                    map(table.coords.__getitem__, codes[ids].tolist())
                    for codes, table in zip(self.codes, self.tables)
                )
            )
        )

    # -- point lookup ------------------------------------------------------------

    def index_rows(self) -> None:
        """Sort every live row, the leaves in ``recent`` among them, into
        a new sorted part.  The part is installed before ``recent`` is
        emptied, so a lock-free reader finds a leaf in one or the other."""
        self.sorted_part = _SortedPart(
            self.codes, self.tables, np.flatnonzero(self.live[: self.n_ids])
        )
        self.recent = {}

    def find(self, addr: Address) -> "int | None":
        """The live leaf id at ``addr`` (``None`` = no such leaf):
        ``recent``, then the sorted part's resolved cache or search, then
        ``live`` — which only a generation that has seen a delete needs."""
        recent = self.recent
        if recent:  # an empty one is not worth hashing ``addr`` for
            ident = recent.get(addr)
            if ident is not None:
                return ident
        part = self.sorted_part
        resolved = part.resolved
        row = resolved.get(addr, _UNSEEN)
        if row == _UNSEEN:
            row = part.search(self.tables, addr)
            if len(resolved) >= _MEMO_CAP:
                resolved.clear()
            resolved[addr] = row
        if row is None or (self.n_live != self.n_ids and not self.live[row]):
            return None
        return row


class RollupIndex:
    """Per-dimension coordinate-code columns over the leaf-cell id space.

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
            struct = _Structure.over(
                schema, [(np.empty(0, dtype=np.int32), []) for _ in range(schema.n_dims)], 0
            )
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
    def _from_columns(
        cls,
        schema: "CubeSchema",
        columns: Sequence[Column],
        values: np.ndarray,
    ) -> "RollupIndex":
        # leaf id == row (:meth:`_Structure.over`); the arrays are
        # adopted: every caller passes ones it has just gathered
        index = cls(schema, _Structure.over(schema, columns, len(values)))
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
        index = cls._from_columns(schema, columns, values)
        if not index._struct.sorted_part.distinct():
            raise ValueError("two rows of the columns share one address")
        return index

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
        half.  Row ``k`` of ``columns`` (one ``(codes, coords)`` pair per
        schema dimension) writes ``values[k]`` at its address, or deletes
        the leaf there where ``deleted[k]`` (``None``: no row deletes), as
        ``set_leaf`` / ``remove_leaf`` one at a time would: the last value
        wins, a leaf keeps the place of the write that inserted it, a
        delete of an absent leaf changes nothing and a re-insert goes to
        the end.  Every row is sorted once; only the rows that share an
        address with another, or delete, are replayed one by one, and a
        coordinate no leaf is left at is dropped from its table.  The
        arrays are adopted; nothing is validated per cell."""
        with trace_span("rollup_index.build") as span:
            index = cls._from_columns(schema, columns, values)
            struct = index._struct
            n = len(values)
            if (
                deleted is not None
                or not struct.sorted_part.distinct()
                or not all(all(table.counts) for table in struct.tables)
            ):
                index, n = cls._replayed(
                    schema, columns, values, deleted, struct.sorted_part
                )
            index.stats.builds += 1
            if span is not None:
                span.set(leaves=index.n_leaves)
        return index, n

    @classmethod
    def _replayed(
        cls,
        schema: "CubeSchema",
        columns: Sequence[Column],
        values: np.ndarray,
        deleted: "np.ndarray | None",
        part: _SortedPart,
    ) -> "tuple[RollupIndex, int]":
        # :meth:`from_writes` for rows that clash or delete, or a table
        # listing a coordinate no row holds: the sorted keys group the rows
        # by address, the groups with two rows or a delete are replayed in
        # row order, and the surviving rows are factorised again so every
        # coordinate table lists, in order of first appearance, only
        # coordinates some leaf holds
        n = len(values)
        keys, rows = part.keys, part.rows
        same = keys[1:] == keys[:-1]
        starts = np.ones(n, dtype=np.bool_)
        starts[1:] = ~same
        group = np.cumsum(starts)  # the address of each sorted row, numbered
        touched = np.zeros(n, dtype=np.bool_)
        touched[1:] |= same
        touched[:-1] |= same
        if deleted is not None:
            touched |= deleted[rows]
        at = np.flatnonzero(np.isin(group, group[touched]))
        order = np.argsort(rows[at])
        replay, groups = rows[at][order], group[at][order]
        kept = np.ones(n, dtype=np.bool_)
        kept[replay] = False
        source = np.arange(n)  # the row whose value each row ends with
        changed = n - len(replay)
        present: dict[int, int] = {}  # group -> the row that inserted it
        gone = repeat(False) if deleted is None else deleted[replay].tolist()
        for row, key, delete in zip(replay.tolist(), groups.tolist(), gone):
            if delete:
                changed += present.pop(key, None) is not None
                continue
            changed += 1
            source[present.setdefault(key, row)] = row
        kept[list(present.values())] = True
        keep = np.flatnonzero(kept)
        refactored = []
        for codes, coords in columns:
            used, first, inverse = np.unique(
                codes[keep], return_index=True, return_inverse=True
            )
            by_first = np.argsort(first)
            rank = np.empty(len(used), dtype=np.int32)
            rank[by_first] = np.arange(len(used), dtype=np.int32)
            refactored.append(
                (rank[inverse], [coords[code] for code in used[by_first].tolist()])
            )
        return cls._from_columns(schema, refactored, values[source[keep]]), changed

    @classmethod
    def build(cls, cube: "Cube") -> "RollupIndex":
        """A point-in-time copy of a cube's leaf cells, built column-wise
        from one full read of its index (``Cube.leaf_cells``)."""
        return cls.from_cells(cube.schema, dict(cube.leaf_cells()))

    @classmethod
    def from_cells(
        cls, schema: "CubeSchema", leaf_cells: Mapping[Address, float]
    ) -> "RollupIndex":
        """The one place columns are built from addresses: leaf ids follow
        the mapping's iteration order, and the index keeps the columns
        only.  Nothing is validated — the caller guarantees leaf addresses
        of ``schema`` with float values."""
        with trace_span("rollup_index.build") as span:
            n_dims = schema.n_dims
            cols = scan_columns(leaf_cells, range(n_dims))
            index = cls._from_columns(
                schema,
                [(cols.codes[dim], cols.coords[dim]) for dim in range(n_dims)],
                cols.values,
            )
            index.stats.builds += 1
            if span is not None:
                span.set(leaves=index.n_leaves)
        return index

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
                ids = self._ordered_array()
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
        longer line up and the output is rebuilt from its addresses, where
        the later value wins at the earlier position as a dict write
        would.  A leaf's codes never change, so the read is consistent
        with the :meth:`columns` call that produced ``ids`` as long as no
        structural write came between the two (the operators run on
        snapshots and scenario views, which have none).
        """
        with trace_span("rollup_index.derive") as span, self._lock:
            child = RollupIndex(self.schema, self._struct.derived(self.schema, ids, recoded))
            child._values = ColumnarLeafStore.from_values(values)
            distinct = child._struct.sorted_part.distinct()
            if span is not None:
                span.set(
                    leaves_in=self._struct.n_live,
                    leaves_out=len(values),
                    distinct=distinct,
                )
        if distinct:
            return child
        cols = child.columns(())
        return RollupIndex.from_cells(self.schema, dict(zip(cols.addresses, cols.values.tolist())))

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
        outnumber the live ones are squeezed out first; a generation
        shared with forks is replaced by a private copy; one that is
        already private only loses the ordered ids and sets its masks
        aside for patching.  Once the leaves inserted since the last sort
        outnumber an eighth of the sorted ones (plus a few), they are
        sorted in (:meth:`_Structure.index_rows`; amortised: the eighth
        was paid in inserts)."""
        struct = self._struct
        if struct.n_ids - struct.n_live > struct.n_live:
            struct = self._renumbered()
        else:
            if self._struct_shared:
                struct = struct.copy()
            else:
                struct.carried.update(struct.masks)
                struct.masks.clear()
                struct.ordered = None
            if len(struct.recent) > (len(struct.sorted_part.rows) >> 3) + 8:
                struct.index_rows()
            if struct is self._struct:
                return struct
        self._struct = struct
        self._struct_shared = False
        self._struct_copied = True
        self._reader = None  # it reads the generation (and store) replaced
        return struct

    def _renumbered(self) -> _Structure:  # reprolint: locked
        """A generation (and value store) without the dead ids: live
        leaves keep their relative order, so ascending id is still
        insertion order and strict reductions are unchanged.  The write
        record is settled first: a buffered id names a leaf of the old
        numbering, a deleted one among them."""
        self._settle_written()
        ids = self._ordered_array()
        struct = self._struct.derived(self.schema, ids, {})
        # a new store, not a rewrite of the old one: a point reader that
        # still holds the old generation's lookup holds the old store
        self._values = ColumnarLeafStore.from_values(self._values.gather(ids))
        self._values.copied = True
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
            ident = struct.n_ids
            if ident == len(struct.live):
                struct.codes = [_with_headroom(c, ident) for c in struct.codes]
                struct.live = _with_headroom(struct.live, ident)
            chain = self.schema.ancestor_chain
            for i, coord in enumerate(addr):
                struct.codes[i][ident] = struct.tables[i].add_leaf(
                    coord, chain(i, coord)
                )
            self._values.append(value)  # row == ident by construction
            struct.live[ident] = True
            struct.n_live += 1
            struct.n_ids += 1
            # published last: a lock-free point reader that finds the
            # id finds its row in the (possibly regrown) value column
            struct.recent[addr] = ident
            self._wrote(ident)
            return True

    def remove_leaf(self, addr: Address) -> bool:
        """Delete the leaf at ``addr``; ``False`` when there is none (not
        a mutation).  Its id is not reused."""
        with self._lock:
            if self._struct.find(addr) is None:
                return False
            struct = self._writable_structure()
            ident = struct.find(addr)
            struct.live[ident] = False
            struct.recent.pop(addr, None)
            struct.n_live -= 1
            chain = self.schema.ancestor_chain
            for i, coord in enumerate(addr):
                struct.tables[i].remove_leaf(coord, chain(i, coord))
            self._wrote(ident)
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
        value store are read once, under the lock (:meth:`_read_block`),
        and nothing is cached: a grid asks each block once."""
        with self._lock:
            found, values = self._read_block(rows, dims, columns)
        if found.all():
            return values.reshape(found.shape).tolist(), {}
        cells = np.full(found.shape, None, dtype=object)
        cells[found] = values
        misses: dict[int, list[int]] = {}
        for row, column in zip(*(axis.tolist() for axis in np.nonzero(~found))):
            misses.setdefault(row, []).append(column)
        return cells.tolist(), misses

    def _read_block(
        self,
        rows: "Sequence[Sequence[str]]",
        dims: Sequence[int],
        columns: "Sequence[Sequence[str]]",
    ) -> "tuple[np.ndarray, np.ndarray]":  # reprolint: locked
        # :meth:`_Structure.find` for a block: each row's and column's half
        # of the sorted key once (:meth:`_SortedPart.partial_keys`), one
        # search for all of them, ``live`` where the generation has
        # deletes, and ``recent`` only for the misses.  Returns the found
        # mask and the found leaves' values, row-major
        if not rows or not columns:
            return np.zeros((len(rows), len(columns)), dtype=np.bool_), np.empty(0)
        struct = self._struct
        part, tables = struct.sorted_part, struct.tables
        by_dim = list(zip(*rows))
        free = [dim for dim in range(len(tables)) if dim not in dims]
        ids = part.search_block(
            part.partial_keys(tables, free, [by_dim[dim] for dim in free], len(rows)),
            part.partial_keys(tables, dims, list(zip(*columns)), len(columns)),
        )
        if struct.n_live != struct.n_ids:
            hit = ids >= 0
            ids[hit & ~struct.live[np.where(hit, ids, 0)]] = -1
        recent = struct.recent
        if recent:
            for at, column in zip(*(axis.tolist() for axis in np.nonzero(ids < 0))):
                addr = list(rows[at])
                for dim, coord in zip(dims, columns[column]):
                    addr[dim] = coord
                ident = recent.get(tuple(addr))
                if ident is not None:
                    ids[at, column] = ident
        found = ids >= 0
        return found, self._values.gather(ids[found])

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

    def _ordered_array(self) -> np.ndarray:  # reprolint: locked
        struct = self._struct
        arr = struct.ordered
        if arr is None:
            arr = struct.ordered = np.flatnonzero(struct.live[: struct.n_ids])
        return arr

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
        return self._ordered_array() if ids is None else ids

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
            ids = self._ordered_array()
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
