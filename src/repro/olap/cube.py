"""The semantic (sparse) cube.

An n-dimensional cube maps the cross product of member sets to a numeric
domain (Sec. 2).  We store it sparsely: absent cells are ⊥ (MISSING).  Leaf
cells (every coordinate at leaf level) are *base*; non-leaf cells are
*derived* — their value comes from a rule, defaulting to sum-rollup over
descendant leaf cells.  Derived values may also be *stored* (materialised
aggregates): the paper's non-visual mode keeps such stored values even when
leaf data hypothetically moves, while visual mode re-evaluates rules.

Coordinate conventions are defined in :mod:`repro.olap.schema`.

Leaf store and rollup serving
-----------------------------
A cube is columnar from its first cell: it holds one
:class:`~repro.perf.rollup_index.RollupIndex` from construction and that
index serves its leaf store (:mod:`repro.perf.leaf_store`).  The cube
reads it directly — a point read
through :meth:`~repro.perf.rollup_index.RollupIndex.leaf_reader`, a full
read (:meth:`Cube.leaf_cells`, the naive scans) through one
``columns(())`` —, :meth:`Cube.set_value` writes the index and nothing
beside it, derived-cell scopes are served from it at O(|scope|) per query,
and :meth:`Cube.frozen_copy` / :meth:`Cube.copy` are forks of it — nothing
proportional to the cube is copied.  The index is arrays only: no address
tuple, list or dict is kept per leaf, whether the cube was loaded,
derived or written.  :meth:`Cube.load` is the bulk entry point: on an
empty cube it codes the stream a chunk at a time with the leaf store's
one coder (:func:`~repro.perf.leaf_store.code_columns`), tests each
distinct coordinate once and builds the index once from the columns — no
address is kept past its chunk.
``repro.perf.config.naive_mode()`` selects the full-scan reference path
(over the leaf cells' addresses and values; it trusts no code column);
both paths produce bit-identical values.  Every mutation bumps
:attr:`version`, which the warehouse's scenario cache uses for
invalidation; a leaf insert or delete also moves
:attr:`structure_generation`, which is all the warehouse's prepared query
plans depend on.

One cell rule
-------------
Which store answers an address is decided in one place,
:meth:`Cube._cell`, by the address's leaf test (Sec. 2): a leaf address
is base data and reads the leaf store, any other address is derived and
reads the stored aggregates, then its rule or roll-up.  A row left at an
address that is no longer a leaf (``add_member`` under a leaf that holds
data) is never read back as that cell: it counts in the cell's roll-up,
as the grid's block fill and the ``naive_mode()`` oracle count it.

Bulk transforms
---------------
The what-if operators never write cells one by one: they read the leaf
cells column-wise (:meth:`Cube.leaf_columns`), compute their output as an
array program and hand the finished rollup index — *derived* from the
input's: no address is built per leaf — to :meth:`Cube.adopt`.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence, TypeAlias

import numpy as np

from repro.errors import RuleError, SchemaError, SnapshotImmutableError
from repro.lint.lockdep import make_lock
from repro.obs.trace import trace_span
from repro.olap.dimension import next_generation
from repro.olap.missing import MISSING, Missing, is_missing
from repro.olap.schema import Address, CubeSchema
from repro.perf import config as perf_config
from repro.perf.leaf_store import Column, LeafColumns, code_columns, scan_columns
from repro.perf.rollup_index import RollupIndex

__all__ = ["Cube"]

CellValue: TypeAlias = "float | Missing"


def _kept_rows(
    cols: "LeafColumns", dim_index: int, keep: Callable[[str], bool]
) -> np.ndarray:
    """The rows whose coordinate on one dimension satisfies ``keep`` — a
    mask over its code column, ``keep`` asked once per distinct coordinate
    that holds a leaf."""
    codes = cols.codes[dim_index]
    coords = cols.coords[dim_index]
    kept = np.zeros(len(coords), dtype=np.bool_)
    for code in np.unique(codes).tolist():
        kept[code] = keep(coords[code])
    return np.flatnonzero(kept[codes])


#: cells :meth:`Cube.load` transposes at a time: its transient is one
#: chunk's tuples, not the stream's.  Building the ledger's 96,000-cell
#: cube grows the resident set by 24 MB at 32,768 cells a chunk and by
#: 14-15 MB at 8,192 or fewer, and no smaller chunk loads slower
_LOAD_CHUNK = 1 << 12


def _read_stream(
    schema: CubeSchema, cells: Iterable[tuple[Sequence[str], object]]
) -> "tuple[list[Column], np.ndarray, np.ndarray | None, dict[Address, float], int]":
    """A stream of cell writes read column by column, for :meth:`Cube.load`
    on an empty cube: the leaf writes as one ``(codes, coords)`` column per
    dimension, their values and which of them delete (``None``: none
    does), for :meth:`RollupIndex.from_writes`; and the stored aggregates
    the other writes leave, with how many of those changed something.

    The stream is consumed a chunk at a time and each chunk coded against
    one table per dimension that grows with the stream
    (:func:`~repro.perf.leaf_store.code_columns`); each coordinate the
    tables gain is leaf-tested once (:meth:`CubeSchema.coordinate_is_leaf`,
    the test :meth:`CubeSchema.is_leaf_address` asks of each coordinate).
    A coordinate only a stored aggregate names stays in its table, and
    ``from_writes`` drops it.  A chunk that fails anywhere is replayed cell
    by cell (:func:`_first_error`), which raises what :meth:`Cube.set_value`
    raises at the first cell that names what is wrong."""
    n_dims = schema.n_dims
    tables: dict[int, dict[str, int]] = {dim: {} for dim in range(n_dims)}
    is_leaf: list[list[bool]] = [[] for _ in range(n_dims)]
    code_parts: list[list[np.ndarray]] = [[] for _ in range(n_dims)]
    value_parts: list[np.ndarray] = []
    gone_parts: list[np.ndarray] = []
    deletes = False
    derived: dict[Address, float] = {}
    changed = 0
    stream = iter(cells)
    while chunk := list(islice(stream, _LOAD_CHUNK)):
        try:
            addresses = [tuple(address) for address, _ in chunk]
            raw = [value for _, value in chunk]
            if set(map(len, addresses)) != {n_dims}:
                raise SchemaError("an address of the wrong length")
            n = len(raw)
            try:
                values = np.fromiter(map(float, raw), np.float64, n)
                gone = np.zeros(n, dtype=np.bool_)
            except TypeError:  # a ⊥ or None among them: it deletes
                gone = np.fromiter((is_missing(v) for v in raw), np.bool_, n)
                values = np.fromiter(
                    (0.0 if g else float(v) for v, g in zip(raw, gone.tolist())),
                    np.float64,
                    n,
                )
            codes = code_columns(addresses, tables)
            leaf_rows: "np.ndarray | None" = None
            for dim, leaf in enumerate(is_leaf):
                leaf.extend(
                    schema.coordinate_is_leaf(dim, coord)
                    for coord in islice(tables[dim], len(leaf), None)
                )
                if not all(leaf):
                    at_leaf = np.array(leaf)[codes[dim]]
                    leaf_rows = at_leaf if leaf_rows is None else leaf_rows & at_leaf
        except Exception:
            # whatever a per-cell write would raise (a bad length, member,
            # value or cell): the replay finds the first cell that raises
            _first_error(schema, chunk)
            raise
        if leaf_rows is not None:
            for row in np.flatnonzero(~leaf_rows).tolist():
                addr = addresses[row]
                if gone[row]:
                    changed += derived.pop(addr, None) is not None
                else:
                    derived[addr] = float(raw[row])  # type: ignore[arg-type]
                    changed += 1
            values, gone = values[leaf_rows], gone[leaf_rows]
        for dim, parts in enumerate(code_parts):
            parts.append(codes[dim] if leaf_rows is None else codes[dim][leaf_rows])
        value_parts.append(values)
        gone_parts.append(gone)
        deletes = deletes or bool(gone.any())
    columns = [
        (_joined(parts, np.int32), list(tables[dim]))
        for dim, parts in enumerate(code_parts)
    ]
    deleted = _joined(gone_parts, np.bool_) if deletes else None
    return columns, _joined(value_parts, np.float64), deleted, derived, changed


def _joined(parts: list[np.ndarray], dtype: type) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


def _first_error(schema: CubeSchema, chunk: list) -> None:
    """Validate a chunk's cells one at a time as :meth:`Cube.set_value`
    does — the address (:meth:`CubeSchema.is_leaf_address`), then the
    value of a write that is no delete — so the first bad cell raises."""
    for address, value in chunk:
        schema.is_leaf_address(tuple(address))
        if not is_missing(value):
            float(value)  # type: ignore[arg-type]


class Cube:
    """A sparse multidimensional cube over a :class:`CubeSchema`.

    Parameters
    ----------
    schema:
        The cube's schema (dimension line-up + varying registry).
    rules:
        Optional rule engine (:class:`repro.olap.rules.RuleEngine`) used to
        evaluate derived cells; without one, derived cells use sum-rollup.
    """

    def __init__(self, schema: CubeSchema, rules: "object | None" = None) -> None:
        self._init(schema, rules, RollupIndex(schema), {})

    def _init(  # reprolint: locked
        self,
        schema: CubeSchema,
        rules: "object | None",
        index: "RollupIndex",
        stored_derived: dict[Address, float],
    ) -> None:
        self.schema = schema
        self.rules = rules
        #: the leaf store
        self._index = index
        self._stored_derived = stored_derived
        #: mutation counter; bumped by every write so caches keyed on it
        #: (scenario cache, rollup memo) can invalidate
        self._version = 0
        #: which leaves exist: moved by every leaf insert or delete, not by
        #: an in-place value write (:attr:`structure_generation`)
        self._structure_generation = next_generation()
        #: serialises writers against each other (and against snapshot
        #: copies); readers stay lock-free — concurrent readers of a
        #: *mutating* cube use ``Warehouse.snapshot()`` views instead
        self._lock = make_lock("Cube._lock")
        #: frozen cubes are immutable snapshot views; writes raise
        self._frozen = False

    # -- versioning / index ------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic mutation counter (any leaf or stored-derived write)."""
        return self._version

    def wrote_since(self, version: int) -> bool:
        """Whether a write committed since :attr:`version` read
        ``version``: asked under the write lock, so a write whose cells
        have landed but whose version has not moved yet is waited for."""
        with self._lock:
            return self._version != version

    @property
    def structure_generation(self) -> int:
        """Which leaves the cube holds: a fresh number after every leaf
        insert or delete, unchanged by an in-place value write or a
        stored-aggregate write.  Numbers come from one process-wide
        counter, so two cubes share one only when one is a
        :meth:`frozen_copy` of the other."""
        return self._structure_generation

    @property
    def frozen(self) -> bool:
        """True for immutable snapshot views (see :meth:`frozen_copy`)."""
        return self._frozen

    def freeze(self) -> "Cube":
        """Make this cube immutable: every later mutation raises
        :class:`~repro.errors.SnapshotImmutableError`.  Irreversible —
        take a :meth:`copy` to get a writable cube back."""
        # under the write lock so a freeze can never interleave with an
        # in-flight mutation: the writer either completes before the
        # cube is immutable or sees SnapshotImmutableError
        with self._lock:
            self._frozen = True
        return self

    def _check_writable(self) -> None:
        # call under self._lock, or a freeze can land between check and write
        if self._frozen:
            raise SnapshotImmutableError(
                "cube is a frozen snapshot view (pinned at version "
                f"{self._version}); write to the live warehouse cube instead"
            )

    def frozen_copy(self) -> "Cube":
        """An immutable copy pinned at the current version.

        Taken under the write lock, so the copy can never observe a torn
        mutation: concurrent ``set_value`` calls either happen-before the
        copy entirely or not at all.  Unlike :meth:`copy`, the clone keeps
        the source's ``version`` — it *is* that version, and the scenario
        cache keys on it.

        The snapshot *forks* the rollup index — shared structure, a
        shared value column, a warm memo — so nothing proportional to the
        cube is copied until one side writes.  The memo is the previous
        snapshot's, less what the writes since can reach
        (``RollupIndex.fork(frozen=True)``).  Lock order here is
        Cube._lock -> RollupIndex._lock, as declared in the lint hierarchy.
        """
        with trace_span("cube.snapshot") as span, self._lock:
            if span is not None:
                span.set(forked=True, **self._index.writes_since_fork())
            clone = self.adopt(
                self._index.fork(frozen=True), dict(self._stored_derived)
            )
            clone._version = self._version
            clone._structure_generation = self._structure_generation
            clone._frozen = True
            return clone

    def rollup_index(self) -> "RollupIndex":
        """The cube's rollup index — its leaf store."""
        return self._index

    @property
    def has_rollup_index(self) -> bool:
        """Always true: a cube is indexed from construction."""
        return True

    # -- write path ------------------------------------------------------------

    def _write(self, addr: Address, is_leaf: bool, value: object) -> bool:  # reprolint: locked
        """Store one validated cell (MISSING/None deletes it) in the one
        place it lives; ``False`` when nothing changed (the cell to delete
        was absent).  A value at a leaf comes first: the index writes it in
        place when the leaf exists and inserts it otherwise."""
        if is_leaf:
            if value is not MISSING and value is not None:
                if self._index.set_leaf(addr, float(value)):  # type: ignore[arg-type]
                    self._structure_generation = next_generation()
                return True
            if not self._index.remove_leaf(addr):
                return False
            self._structure_generation = next_generation()
        elif is_missing(value):
            return self._stored_derived.pop(addr, None) is not None
        else:
            self._stored_derived[addr] = float(value)  # type: ignore[arg-type]
        return True

    def set_value(self, address: Sequence[str], value: object) -> None:
        """Store a cell value; MISSING/None deletes the cell (deleting an
        absent cell is not a mutation).

        Writers serialise on the cube lock, so the version bump and the
        cell write commit as one unit — a snapshot copy taken
        concurrently sees all of it or none.  The address is validated by
        its classification (:meth:`CubeSchema.is_leaf_address` raises for
        a wrong length or an unknown member).
        """
        addr = tuple(address)
        is_leaf = self.schema.is_leaf_address(addr)
        with self._lock:
            if self._frozen:
                self._check_writable()
            if self._write(addr, is_leaf, value):
                self._version += 1

    def set(self, value: object, **coords: str) -> None:
        """Keyword-style :meth:`set_value` (``cube.set(10, Time="Jan", ...)``)."""
        self.set_value(self.schema.address(**coords), value)

    def load(self, cells: Iterable[tuple[Sequence[str], object]]) -> None:
        """:meth:`set_value` every cell of a stream, in order.

        On an empty cube — how the workloads and :mod:`repro.io` fill one
        — the stream is read column by column (:func:`_read_stream`) and
        the leaf store is built once from code columns
        (:meth:`RollupIndex.from_writes`): the cube ends up exactly as the
        per-cell writes would leave it (insertion order, values, stored
        aggregates, version), except that a stream which fails validation
        leaves it empty.  A wrong length or an unknown member raises what
        :meth:`set_value` raises, at the cell that first names it.
        """
        with self._lock:
            self._check_writable()
            if not (self._index.n_leaves or self._stored_derived):
                columns, values, deleted, derived, changed = _read_stream(
                    self.schema, cells
                )
                self._index, leaf_changed = RollupIndex.from_writes(
                    self.schema, columns, values, deleted
                )
                self._stored_derived = derived
                self._version += changed + leaf_changed
                self._structure_generation = next_generation()
                return
        for address, value in cells:
            self.set_value(address, value)

    def apply_overrides(
        self, cells: Iterable[tuple[Sequence[str], object]]
    ) -> None:
        """Bulk-apply cell overrides (MISSING/``None`` deletes) as *one*
        mutation: a single version bump and one locked pass, instead of a
        per-cell :meth:`set_value` round trip.  Scenario materialisation
        (:mod:`repro.catalog`) applies whole deltas through this.
        Deleting absent cells is a no-op and does not bump the version,
        matching :meth:`set_value`.
        """
        schema = self.schema
        validated = []
        for address, value in cells:
            addr = tuple(address)
            validated.append((addr, schema.is_leaf_address(addr), value))
        with self._lock:
            self._check_writable()
            mutated = False
            for addr, is_leaf, value in validated:
                mutated |= self._write(addr, is_leaf, value)
            if mutated:
                self._version += 1

    def clear_stored_derived(self) -> None:
        """Drop all materialised aggregate cells."""
        with self._lock:
            self._check_writable()
            if self._stored_derived:
                self._version += 1
            self._stored_derived.clear()

    # -- read path ---------------------------------------------------------------

    def value(self, address: Sequence[str]) -> CellValue:
        """The *stored* value of a cell (MISSING if not stored): the leaf
        store's at a leaf address, the stored aggregate's at any other —
        by the address's one leaf test, which validates it as
        :meth:`effective_value` does."""
        addr = tuple(address)
        if self.schema.is_leaf_address(addr):
            return self._stored_leaf(addr)
        return self._stored_derived.get(addr, MISSING)

    def at(self, **coords: str) -> CellValue:
        """Keyword-style :meth:`value`."""
        return self.value(self.schema.address(**coords))

    def effective_value(self, address: Sequence[str]) -> CellValue:
        """The value of a cell by the one cell rule (:meth:`_cell`); the
        address is validated and leaf-tested once
        (:meth:`CubeSchema.is_leaf_address` raises for a wrong length or
        an unknown member)."""
        addr = tuple(address)
        return self._cell(addr, self.schema.is_leaf_address(addr))

    def _cell(self, addr: Address, is_leaf: bool) -> CellValue:
        """The one cell rule, for a validated address and its leaf test: a
        leaf address reads the leaf store — on a miss, a formula rule for
        its measure if one governs it (still derived), else ⊥ — and any
        other address reads the stored aggregates, then its rule or
        roll-up, and never the leaf store."""
        if not is_leaf:
            value = self._stored_derived.get(addr, MISSING)
            return self._derived(addr) if value is MISSING else value
        value = self._stored_leaf(addr)
        rules = self.rules
        if value is MISSING and rules is not None and rules.has_rule_for(self, addr):
            return rules.evaluate_cell(self, addr)
        return value

    def _stored_leaf(self, addr: Address) -> CellValue:
        # the index's one point read, held by the index until its
        # generation or value store is replaced (a stored NaN reads back
        # as NaN)
        value = self._index.leaf_reader()(addr)
        return MISSING if value is None else value

    def derive(self, address: Sequence[str]) -> CellValue:
        """Evaluate the rule for a (derived) cell, ignoring any stored value."""
        return self._derived(self.schema.validate_address(address))

    def _derived(self, addr: Address) -> CellValue:
        if self.rules is not None:
            return self.rules.evaluate_cell(self, addr)
        return self._rollup(addr, "sum")

    def rollup(self, address: Sequence[str], aggregator: str = "sum") -> CellValue:
        """Default derived-cell rule: aggregate descendant leaf cells.

        The scope of a non-leaf cell is the set of its descendant leaf cells
        (Sec. 4.3); leaf coordinates contribute themselves.  The engine
        answers ``sum`` from the rollup index's memo; every other
        aggregator, and ``sum`` under ``naive_mode()``, is the streaming
        fold of :mod:`repro.olap.aggregation` over the scope's values.
        """
        return self._rollup(self.schema.validate_address(address), aggregator)

    def _rollup(self, addr: Address, aggregator: str) -> CellValue:
        if aggregator == "sum" and perf_config.engine_enabled():
            return self._index.rollup(addr)
        from repro.olap.aggregation import aggregate

        return aggregate(aggregator, self._scope_values(addr))

    def scope_values(self, address: Sequence[str]) -> Iterator[float]:
        """Values of the leaf cells in a cell's scope."""
        return self._scope_values(self.schema.validate_address(address))

    def _scope_values(self, addr: Address) -> Iterator[float]:
        if perf_config.engine_enabled():
            yield from self._index.scope_values(addr)
            return
        for _, value in self._scope_cells(addr):
            yield value

    def scope_cells(self, address: Sequence[str]) -> Iterator[tuple[Address, float]]:
        """(address, value) of leaf cells in a cell's scope."""
        return self._scope_cells(self.schema.validate_address(address))

    def _scope_cells(self, addr: Address) -> Iterator[tuple[Address, float]]:
        if perf_config.engine_enabled():
            yield from self._index.scope_cells(addr)
            return
        # the naive path: one full pass over all leaf cells
        for leaf_addr, value in self.leaf_cells():
            if self._address_under(leaf_addr, addr):
                yield leaf_addr, value

    def coord_rolls_up(self, dim_index: int, leaf_coord: str, coord: str) -> bool:
        """Memoised :meth:`CubeSchema.is_under` (public query helper)."""
        return self.schema.is_under_cached(dim_index, leaf_coord, coord)

    def _address_under(self, leaf_addr: Address, addr: Address) -> bool:
        is_under = self.schema.is_under_cached
        return all(
            is_under(i, leaf_addr[i], addr[i])
            for i in range(self.schema.n_dims)
        )

    # -- iteration ------------------------------------------------------------

    def leaf_cells(self) -> Iterator[tuple[Address, float]]:
        """Every leaf cell in insertion order: one ``columns(())`` read of
        the index, which builds every address — for exports, oracles and
        tests, not queries."""
        columns = self._index.columns(())
        yield from zip(columns.addresses, columns.values.tolist())

    def stored_derived_cells(self) -> Iterator[tuple[Address, float]]:
        yield from self._stored_derived.items()

    def cells(self) -> Iterator[tuple[Address, float]]:
        yield from self.leaf_cells()
        yield from self._stored_derived.items()

    @property
    def n_leaf_cells(self) -> int:
        return self._index.n_leaves

    @property
    def n_stored_derived(self) -> int:
        return len(self._stored_derived)

    def coordinates_used(self, dim_name: str) -> set[str]:
        """Distinct leaf-cell coordinates appearing on a dimension."""
        dim_index = self.schema.dim_index(dim_name)
        if perf_config.engine_enabled():
            return set(self._index.coords_with_data(dim_index))
        return {addr[dim_index] for addr, _ in self.leaf_cells()}

    def leaf_columns(
        self, *dim_indexes: int, ids: "np.ndarray | None" = None
    ) -> "LeafColumns":
        """The leaf cells column-wise, in insertion order, with the
        coordinate-code columns of the given dimensions — what the what-if
        operators read instead of iterating cells.  ``ids`` (ascending
        leaf ids of the rollup index, :meth:`RollupIndex.ids_under`) reads
        a row subset.  Served by the rollup index; under ``naive_mode()``
        the columns are scanned off the leaf addresses and name no index,
        so whatever is computed from them rebuilds its own columns — and
        there are no ids to restrict by."""
        if perf_config.engine_enabled():
            return self._index.columns(dim_indexes, ids)
        if ids is not None:
            raise ValueError("naive_mode() reads whole cubes: leaf ids name index rows")
        return scan_columns(dict(self.leaf_cells()), dim_indexes)

    # -- structure-preserving transforms -----------------------------------------

    def copy(self) -> "Cube":
        """A writable cube with the same cells: a fork of the rollup index,
        so neither cube ever observes the other's writes (the structure
        generation and the value column both copy on first write from
        either side).  Copying a frozen cube is how a snapshot is thawed
        back into a scratch cube."""
        with self._lock:
            return self.adopt(self._index.fork(), dict(self._stored_derived))

    def empty_like(self) -> "Cube":
        return Cube(self.schema, self.rules)

    def adopt(
        self, index: "RollupIndex", stored_derived: dict[Address, float]
    ) -> "Cube":
        """New cube over this cube's schema and rules that takes ownership
        of a finished leaf store — the bulk entry point of the transforms.

        Nothing is validated per cell: the caller guarantees that every
        leaf of ``index`` is a leaf address of the schema with a float
        value (it validates once per *distinct* new coordinate) and that
        ``stored_derived`` holds only non-leaf addresses.
        """
        clone = Cube.__new__(Cube)
        clone._init(self.schema, self.rules, index, stored_derived)
        return clone

    def restrict_leaves(
        self, dim_name: str, keep: Callable[[str], bool]
    ) -> "RollupIndex":
        """The leaf store of the leaves whose coordinate on ``dim_name``
        satisfies ``keep`` — a mask over one code column, ``keep`` asked
        once per distinct coordinate that holds a leaf — in this cube's
        insertion order."""
        dim_index = self.schema.dim_index(dim_name)
        cols = self.leaf_columns(dim_index)
        return cols.derive(self.schema, _kept_rows(cols, dim_index, keep), {})

    def slice_cells(
        self, dim_name: str, keep: Callable[[str], bool]
    ) -> "tuple[list[Column], np.ndarray, dict[Address, float], int]":
        """What :meth:`restrict_leaves` keeps, as bare arrays that can
        cross a process boundary instead of an index: ``(columns, values,
        stored_derived, version)`` — per schema dimension the kept
        leaves' ``(codes, coords)`` column, their values, a copy of the
        stored-derived cells, and the version all of it was read at.  One
        consistent read under the write lock;
        :meth:`RollupIndex.from_columns` and :meth:`adopt` open it again."""
        dim_index = self.schema.dim_index(dim_name)
        dims = range(self.schema.n_dims)
        with self._lock:
            cols = self.leaf_columns(*dims)
            stored_derived = dict(self._stored_derived)
            version = self._version
        rows = _kept_rows(cols, dim_index, keep)
        columns = [(cols.codes[dim][rows], cols.coords[dim]) for dim in dims]
        return columns, cols.values[rows], stored_derived, version

    def filter_dimension(
        self, dim_name: str, keep: Callable[[str], bool]
    ) -> "Cube":
        """New cube keeping only cells whose coordinate on ``dim_name``
        satisfies ``keep`` (used by the selection operator σ)."""
        dim_index = self.schema.dim_index(dim_name)
        return self.adopt(
            self.restrict_leaves(dim_name, keep),
            {
                addr: value
                for addr, value in self._stored_derived.items()
                if keep(addr[dim_index])
            },
        )

    # -- materialisation ----------------------------------------------------------

    def materialize_derived(self, addresses: Iterable[Sequence[str]]) -> None:
        """Evaluate and store derived values for the given addresses."""
        for address in addresses:
            addr = tuple(address)
            if self.schema.is_leaf_address(addr):
                raise RuleError(
                    f"cannot materialise a leaf address as derived: {addr!r}"
                )
            value = self._derived(addr)
            with self._lock:
                self._check_writable()
                if self._write(addr, False, value):
                    self._version += 1

    # -- comparison helpers (for tests) ----------------------------------------------

    def leaf_equal(self, other: "Cube", tolerance: float = 1e-9) -> bool:
        """Whether two cubes have identical leaf cells (within tolerance;
        a stored NaN equals a stored NaN)."""
        left, right = dict(self.leaf_cells()), dict(other.leaf_cells())
        if left.keys() != right.keys():
            return False
        def same(mine: float, theirs: float) -> bool:
            return (
                mine == theirs
                or (mine != mine and theirs != theirs)
                or abs(mine - theirs) <= tolerance
            )

        return all(
            same(value, right[addr]) for addr, value in left.items()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cube({self.schema!r}, {self._index.n_leaves} leaf cells, "
            f"{len(self._stored_derived)} stored derived)"
        )
