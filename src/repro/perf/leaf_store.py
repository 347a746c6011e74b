"""The leaf store: a cube's leaf cells as code columns over a leaf-id space.

Every leaf has an integer id (assigned in insertion order, never reused).
Per dimension one ``int32`` column holds the *code* of each leaf's
coordinate, and a small per-dimension coordinate table
(:class:`_CoordTable`) maps the few hundred **distinct** coordinates to
what they roll up to (``CubeSchema.ancestor_chain``, resolved once per
distinct coordinate, never per cell).  Leaf *values* are one more column
over the same id space: a :class:`ColumnarLeafStore` is one contiguous
``float64`` array where row == leaf id, grown and copied on write exactly
like the code columns.  Which rows are leaves is the structure's business
(``_Structure.live`` and the point lookup); the value column keeps no
liveness of its own, and a row is read only after the structure resolved
it to a live id.  No generation holds a per-leaf Python object: every one
is arrays only.

:class:`~repro.perf.rollup_index.RollupIndex` serves this store — one
structure generation (``_struct``) and one value column (``_values``)
under its lock — and computes every derived cell from it.  The operations
it and its callers use are these, and there is one implementation of each:

* building: :meth:`_Structure.over` (finished columns, one leaf a row),
  :meth:`_Structure.from_writes` (a stream of writes, ``Cube.load``),
  :func:`scan_columns` (a leaf mapping, the
  ``naive_mode()`` scan and ``RollupIndex.from_cells``) and
  :meth:`_Structure.derived` (the what-if operators' output);
* writing: :meth:`_Structure.writable`, :meth:`_Structure.insert`,
  :meth:`_Structure.delete`, :meth:`_Structure.renumbered` and
  :meth:`ColumnarLeafStore.update`;
* reading: :meth:`_Structure.find`, :meth:`_Structure.find_block`,
  :meth:`_Structure.ordered_ids`, :meth:`_Structure.addresses`,
  :meth:`ColumnarLeafStore.gather` / :meth:`~ColumnarLeafStore.get`, the
  coordinate tables, and :class:`LeafColumns` — what the operators read
  (``Cube.leaf_columns``) and derive the output's store from;
* forking: :meth:`_Structure.copy` and :meth:`ColumnarLeafStore.fork`.

Coding columns
--------------
Columns are coded from addresses in one place, :func:`code_columns`: a
bulk ``Cube.load`` codes its stream a chunk at a time (leaf-testing each
coordinate the coder adds) and hands the code columns to
:meth:`_Structure.from_writes`, and :func:`scan_columns` codes a mapping —
``RollupIndex.build``/``from_cells`` and anything computed under
``naive_mode()``.  One step drops the coordinates no kept row holds
(:func:`_held`): ``from_writes`` takes it when a write deletes, two rows
share an address — a derived output whose rows clash among them — or a
table lists a coordinate only a stored aggregate names.  Nothing keeps
the addresses past the call.

Structure generations
---------------------
Everything that depends only on *which* leaves exist — code columns,
coordinate tables, liveness, the point lookup, and the caches read off
them (ordered id array, per-coordinate masks) — is one
:class:`_Structure` generation.
``Cube.frozen_copy`` and ``Cube.copy`` *fork* the index: the fork shares
the generation (so a mask computed by one snapshot serves every later
one) and shares the value column the same way: the first value write on
either side copies it (:meth:`ColumnarLeafStore.fork`).  The column, not
a 4,096-row plane of it, is the copy-on-write unit: plane-granular
sharing was measured and lost on every path that is driven —
each write dropped the end-to-end read copy of the planes, so write →
snapshot → query re-concatenated the cube anyway (55 µs against 36 µs for
copy-write-gather at 96,000 rows, 775 against 673 µs at 10^6; 1,000 point
reads 276 against 100 µs; bulk load 101 µs at 96k and 1.4 ms at 10^6
against adopting the gathered array) — and every served generation held
its values twice (884,736 B of planes + a 768,000 B mirror at 96,000
leaves).  A value write touches no structure.
An insert or delete on either side first replaces a shared generation
with a private copy (the other side keeps the old one): its arrays and
per-coordinate counts are copied, its roll-up maps and sorted keys
shared and its masks carried (:meth:`_Structure.copy`).  Ids are never
reused, and once dead ids outnumber live ones the next structural write
renumbers (:meth:`_Structure.renumbered`), so churn cannot grow the id
space past twice the cube.  The what-if operators (ρ, S) and the
restrictions (σ, the shard's slice) *derive* the store of their output
from the input's: the unchanged dimensions' columns are permuted, a moved
dimension's column is recoded, every coordinate table shares its
parent's roll-up map (:class:`_CoordTable`: built once per coordinate
list, the derived generation counting only its own leaves), and the
gathered values are bulk-loaded — no rebuild.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence, TypeAlias

import numpy as np

from repro.obs.trace import trace_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.olap.schema import CubeSchema
    from repro.perf.rollup_index import RollupIndex

__all__ = ["ColumnarLeafStore", "LeafColumns", "code_columns", "scan_columns"]

Address = tuple[str, ...]
#: one coordinate column: per-row codes plus the code -> coordinate list
Column: TypeAlias = "tuple[np.ndarray, list[str]]"

#: soft cap on a generation's resolved-address cache, to bound worst-case
#: memory on long-lived cubes read at ever-changing addresses
_RESOLVED_CAP = 65536
#: a generation's mixed-radix address key must fit ``int64``: the product
#: of its coordinate-table sizes must stay below this
_KEY_LIMIT = 2**63

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
        an index (``RollupIndex.coord_labels``), computed for scanned
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
        the columns were read from (``RollupIndex.derive``), or, for
        columns scanned off addresses, built from the rows' columns coded
        afresh and the recoded ones, as a stream of writes
        (``RollupIndex.from_writes``: two rows on one address keep the
        later value at the earlier place)."""
        values = self.values[rows]
        if self.index is not None:
            return self.index.derive(self.ids[rows], values, recoded)
        # the index module imports this one
        from repro.perf.rollup_index import RollupIndex

        tables: dict[int, dict[str, int]] = {dim: {} for dim in range(schema.n_dims)}
        codes = code_columns(self.addresses_at(rows), tables)
        columns = [recoded.get(dim, (codes[dim], list(tables[dim]))) for dim in tables]
        return RollupIndex.from_writes(schema, columns, values, None)[0]


def code_columns(
    addresses: Sequence[Sequence[str]], tables: Mapping[int, dict[str, int]]
) -> dict[int, np.ndarray]:
    """The one coder of columns from addresses: for every dimension ``d``
    of ``tables``, the ``int32`` code of each address's coordinate there
    in ``tables[d]`` (coordinate -> code, in order of first appearance),
    which gains every coordinate it meets for the first time at the next
    code — so a stream coded a chunk at a time against the same tables
    reads as one column, and ``list(tables[d])`` is its coordinate list.
    A column with one coordinate costs one probe; the addresses are
    transposed once."""
    n = len(addresses)
    by_dim = list(zip(*addresses))
    codes: dict[int, np.ndarray] = {}
    for dim, table in tables.items():
        column = by_dim[dim] if n else ()
        distinct = set(column)
        if not distinct.issubset(table):
            for coord in dict.fromkeys(column):
                table.setdefault(coord, len(table))
        if len(distinct) == 1:
            codes[dim] = np.full(n, table[column[0]], dtype=np.int32)
        else:
            codes[dim] = np.fromiter(map(table.__getitem__, column), np.int32, n)
    return codes


def scan_columns(
    leaf_cells: Mapping[Address, float], dims: Iterable[int]
) -> LeafColumns:
    """Read :class:`LeafColumns` straight off a leaf mapping (no index is
    consulted for the coordinates): the columns of ``dims``, coded by
    :func:`code_columns`, and the mapping's addresses."""
    addresses = list(leaf_cells)
    values = np.fromiter(
        leaf_cells.values(), dtype=np.float64, count=len(addresses)
    )
    tables: dict[int, dict[str, int]] = {dim: {} for dim in dims}
    codes = code_columns(addresses, tables)
    coords = {dim: list(table) for dim, table in tables.items()}
    return LeafColumns(values, codes, coords, _addresses=addresses)


def _held(columns: Sequence[Column], rows: np.ndarray) -> list[Column]:
    """The rows ``rows`` of ``columns``, every coordinate list cut to the
    coordinates those rows hold, in its own order: the one step that
    drops a coordinate no kept row holds.  The lists are new ones."""
    out: list[Column] = []
    for codes, coords in columns:
        codes = codes[rows]
        held = np.bincount(codes, minlength=len(coords)) > 0
        new_code = np.cumsum(held, dtype=np.int32) - 1
        out.append(
            (new_code[codes], [coord for coord, h in zip(coords, held.tolist()) if h])
        )
    return out


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
    """The value column of a leaf store: one contiguous ``float64``
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


def _keys(codes: Sequence[np.ndarray], radices: list[int], rows: np.ndarray) -> np.ndarray:
    """The mixed-radix key of each of ``rows``' codes: ``int64`` while the
    product of the radices fits, Python ints otherwise."""
    wide = math.prod(radices) >= _KEY_LIMIT
    key = np.zeros(len(rows), dtype=object if wide else np.int64)
    for column, radix in zip(codes, radices):
        if radix > 1:  # a one-coordinate table's digit is always 0
            key *= radix
            key += column[rows].astype(object) if wide else column[rows]
    return key


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
        self, codes: Sequence[np.ndarray], radices: list[int], rows: np.ndarray
    ) -> None:
        key = _keys(codes, radices, rows)
        order = np.argsort(key)
        self._adopt(key[order], rows[order], radices)

    def recoded(self, codes: Sequence[np.ndarray], radices: list[int]) -> "_SortedPart":
        """These rows, in this order, keyed by ``codes`` under ``radices``:
        codes renumbered per dimension in their old order (:func:`_held`)
        keep the keys sorted, so nothing is sorted again."""
        part = object.__new__(_SortedPart)
        part._adopt(_keys(codes, radices, self.rows), self.rows, radices)
        return part

    def _adopt(self, keys: np.ndarray, rows: np.ndarray, radices: list[int]) -> None:
        self.keys = keys
        self.rows = rows
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


def _replay(
    part: _SortedPart, deleted: "np.ndarray | None"
) -> "tuple[np.ndarray, np.ndarray, int]":
    """:meth:`_Structure.from_writes` for rows that clash or delete: the
    sorted keys group the rows by address, and the groups with two rows or
    a delete are replayed in row order.  Returns the rows that stay a
    leaf, ascending — each at the place of the write that inserted it —
    the row whose value each ends with, and how many writes changed the
    store."""
    keys, rows = part.keys, part.rows
    n = len(rows)
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
    return keep, source[keep], changed


@dataclass(slots=True, eq=False)
class _Structure:
    """One generation of a leaf store's structure: everything that
    depends only on *which* leaves exist, never on their values.

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

    The rest is a cache: ``ordered`` (ascending live ids,
    :meth:`ordered_ids`), ``masks`` ((dim_index, coord) -> boolean mask
    over the id space) and ``carried`` — masks computed before the last
    structural write(s), each over the id space as it was then
    (``RollupIndex._coord_mask`` patches one on first use: a leaf's codes
    never change, so only the ids appended since are looked up and the
    deleted ones cleared).  A key is in ``masks`` or ``carried``, never
    both; the index bounds the two together.

    An index and its forks share one generation.  The index that owns it
    mutates a generation in place (:meth:`insert`, :meth:`delete`) only
    while nothing shares it, and only under its lock — the lint holds
    every method that writes an attribute to that (``_Structure`` in
    ``lint/lock_hierarchy.py``); otherwise the
    structural write replaces it with :meth:`copy` first (frozen
    snapshots never write; a writable ``Cube.copy`` does, and diverges the
    same way) — :meth:`writable` decides.  The caches are filled lazily
    by whichever index asks first: every filler computes the same value
    and the store is one attribute or dict assignment, atomic under the
    GIL, so a mask computed for one snapshot serves all later ones.
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
        cls,
        schema: "CubeSchema",
        columns: Sequence[Column],
        n: int,
        part: "_SortedPart | None" = None,
    ) -> "_Structure":
        """The generation of ``n`` live leaves, leaf id == row: ``columns``
        holds one ``(codes, coords)`` pair per schema dimension, adopted,
        and every row is sorted — into ``part`` when the caller has sorted
        them already."""
        codes = [column for column, _ in columns]
        tables = [
            _CoordTable(schema, i, coords, column[:n])
            for i, (column, coords) in enumerate(columns)
        ]
        if part is None:
            part = _SortedPart(codes, [len(coords) for _, coords in columns], np.arange(n))
        return cls(n, codes, tables, np.ones(n, dtype=np.bool_), n, part)

    @classmethod
    def from_writes(
        cls,
        schema: "CubeSchema",
        columns: Sequence[Column],
        values: np.ndarray,
        deleted: "np.ndarray | None",
    ) -> "tuple[_Structure, np.ndarray, int]":
        """The generation and value column a stream of leaf writes leaves
        behind on an empty store, and how many of the writes changed it.
        Row ``k`` of ``columns`` (one ``(codes, coords)`` pair per schema
        dimension) writes ``values[k]`` at its address, or deletes the
        leaf there where ``deleted[k]`` (``None``: no row deletes), as
        :meth:`insert` / :meth:`delete` one at a time would: the last value
        wins, a leaf keeps the place of the write that inserted it, a
        delete of an absent leaf changes nothing and a re-insert goes to
        the end.  A coordinate no leaf is left at is dropped from its list
        (:func:`_held`) before any table is built — a coordinate only a
        stored aggregate names may not be a leaf one.  Every row is sorted
        once, and while no row clashes or deletes that sort stands: the
        cut renumbers each list in order, so the rows are re-keyed, not
        re-sorted (:meth:`_SortedPart.recoded`).  Otherwise the rows that
        share an address with another, or delete, are replayed one by one
        (:func:`_replay`) and the rows left are sorted again.  The arrays
        are adopted; nothing is validated per cell."""
        n = len(values)
        codes = [column for column, _ in columns]
        part = _SortedPart(codes, [len(coords) for _, coords in columns], np.arange(n))
        if deleted is None and part.distinct():
            if not all(np.bincount(c, minlength=len(coords)).all() for c, coords in columns):
                columns = _held(columns, np.arange(n))
                part = part.recoded(
                    [column for column, _ in columns], [len(coords) for _, coords in columns]
                )
            return cls.over(schema, columns, n, part), values, n
        keep, source, changed = _replay(part, deleted)
        return cls.over(schema, _held(columns, keep), len(keep)), values[source], changed

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
            _SortedPart(codes, [len(table.coords) for table in tables], np.arange(n)),
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

    def ordered_ids(self) -> np.ndarray:  # reprolint: locked
        """The live leaf ids, ascending — insertion order; cached."""
        ordered = self.ordered
        if ordered is None:
            ordered = self.ordered = np.flatnonzero(self.live[: self.n_ids])
        return ordered

    # -- structural writes -------------------------------------------------------

    def writable(self, shared: bool) -> "_Structure":  # reprolint: locked
        """The generation a structural write may mutate: a private
        :meth:`copy` of one ``shared`` with a fork, else this one, which
        only loses its ordered ids and sets its masks aside for patching.
        Once the leaves inserted since the last sort outnumber an eighth
        of the sorted ones (plus a few), they are sorted in
        (:meth:`index_rows`; amortised: the eighth was paid in
        inserts)."""
        if shared:
            struct = self.copy()
        else:
            struct = self
            self.carried.update(self.masks)
            self.masks.clear()
            self.ordered = None
        if len(struct.recent) > (len(struct.sorted_part.rows) >> 3) + 8:
            struct.index_rows()
        return struct

    def renumbered(
        self, schema: "CubeSchema", values: ColumnarLeafStore
    ) -> "tuple[_Structure, ColumnarLeafStore]":
        """The generation and value store without the dead ids: live
        leaves keep their relative order, so ascending id is still
        insertion order and strict reductions are unchanged.  The store is
        a new one, not a rewrite of ``values``: a point reader that still
        holds the old generation's lookup holds the old store."""
        ids = self.ordered_ids()
        store = ColumnarLeafStore.from_values(values.gather(ids))
        store.copied = True
        return self.derived(schema, ids, {}), store

    def insert(  # reprolint: locked
        self, schema: "CubeSchema", addr: Address, values: ColumnarLeafStore, value: float
    ) -> int:
        """Add the leaf ``addr`` at the next id, its value the next row of
        ``values``; returns the id.  The caller found no live leaf there."""
        ident = self.n_ids
        if ident == len(self.live):
            self.codes = [_with_headroom(c, ident) for c in self.codes]
            self.live = _with_headroom(self.live, ident)
        chain = schema.ancestor_chain
        for i, coord in enumerate(addr):
            self.codes[i][ident] = self.tables[i].add_leaf(coord, chain(i, coord))
        values.append(value)  # row == ident by construction
        self.live[ident] = True
        self.n_live += 1
        self.n_ids += 1
        # published last: a lock-free point reader that finds the id
        # finds its row in the (possibly regrown) value column
        self.recent[addr] = ident
        return ident

    def delete(self, schema: "CubeSchema", addr: Address) -> int:  # reprolint: locked
        """Remove the live leaf at ``addr``; returns its id, which is not
        reused.  The caller found one there."""
        ident = self.find(addr)
        self.live[ident] = False
        self.recent.pop(addr, None)
        self.n_live -= 1
        chain = schema.ancestor_chain
        for i, coord in enumerate(addr):
            self.tables[i].remove_leaf(coord, chain(i, coord))
        return ident

    # -- point lookup ------------------------------------------------------------

    def index_rows(self) -> None:  # reprolint: locked
        """Sort every live row, the leaves in ``recent`` among them, into
        a new sorted part.  The part is installed before ``recent`` is
        emptied, so a lock-free reader finds a leaf in one or the other."""
        self.sorted_part = _SortedPart(
            self.codes,
            [len(table.coords) for table in self.tables],
            np.flatnonzero(self.live[: self.n_ids]),
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
            if len(resolved) >= _RESOLVED_CAP:
                resolved.clear()
            resolved[addr] = row
        if row is None or (self.n_live != self.n_ids and not self.live[row]):
            return None
        return row

    def find_block(
        self,
        rows: "Sequence[Sequence[str]]",
        dims: Sequence[int],
        columns: "Sequence[Sequence[str]]",
    ) -> np.ndarray:
        """:meth:`find` for a block: the live leaf id at every address
        ``rows[r]`` with, on ``dims``, the coordinates ``columns[c]`` (one
        per entry of ``dims``), as an ``int64`` array of shape (rows,
        columns), -1 where there is none.  Each row's and column's half of
        the sorted key is computed once (:meth:`_SortedPart.partial_keys`),
        one search serves all of them, ``live`` is read where the
        generation has deletes, and ``recent`` only for the misses."""
        if not rows or not columns:
            return np.full((len(rows), len(columns)), -1, dtype=np.int64)
        part, tables = self.sorted_part, self.tables
        by_dim = list(zip(*rows))
        free = [dim for dim in range(len(tables)) if dim not in dims]
        ids = part.search_block(
            part.partial_keys(tables, free, [by_dim[dim] for dim in free], len(rows)),
            part.partial_keys(tables, dims, list(zip(*columns)), len(columns)),
        )
        if self.n_live != self.n_ids:
            hit = ids >= 0
            ids[hit & ~self.live[np.where(hit, ids, 0)]] = -1
        recent = self.recent
        if recent:
            for at, column in zip(*(axis.tolist() for axis in np.nonzero(ids < 0))):
                addr = list(rows[at])
                for dim, coord in zip(dims, columns[column]):
                    addr[dim] = coord
                ident = recent.get(tuple(addr))
                if ident is not None:
                    ids[at, column] = ident
        return ids
