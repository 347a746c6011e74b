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
index **is** the leaf store.  ``_leaf_cells`` is a read-only
:class:`~repro.perf.rollup_index.LeafView` over the index's point lookup
and value column, :meth:`Cube.set_value` writes the index and nothing beside
it, derived-cell scopes are served from it at O(|scope|) per query, and
:meth:`Cube.frozen_copy` / :meth:`Cube.copy` are forks of it — nothing
proportional to the cube is copied.  :meth:`Cube.load` is the bulk entry
point: on an empty cube it validates every cell and builds the columns
once.  ``repro.perf.config.naive_mode()`` selects the full-scan reference
path (over the view's addresses and values; it trusts no code column);
both paths produce bit-identical values.  Every mutation bumps
:attr:`version`, which the warehouse's scenario cache uses for
invalidation.

Bulk transforms
---------------
The what-if operators never write cells one by one: they read the leaf
cells column-wise (:meth:`Cube.leaf_columns`), compute their output as an
array program and hand the finished rollup index — *derived* from the
input's, arrays only: no address is built per leaf — to
:meth:`Cube.adopt`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TypeAlias

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.perf.rollup_index import Column, LeafColumns, LeafView, RollupIndex

from repro.errors import RuleError, SnapshotImmutableError
from repro.lint.lockdep import make_lock
from repro.olap.missing import MISSING, Missing, is_missing
from repro.olap.schema import Address, CubeSchema
from repro.perf import config as perf_config

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
        # function-local: the index imports repro.obs and repro.storage,
        # whose package __init__s import this module
        from repro.perf.rollup_index import RollupIndex

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
        #: the leaf store, and the leaf cells as a read-only mapping over it
        self._index = index
        self._leaf_cells: "LeafView" = index.leaf_view()
        self._stored_derived = stored_derived
        #: mutation counter; bumped by every write so caches keyed on it
        #: (scenario cache, rollup memo) can invalidate
        self._version = 0
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
        from repro.obs.trace import trace_span  # repro.obs imports this module

        with trace_span("cube.snapshot") as span, self._lock:
            if span is not None:
                span.set(forked=True, **self._index.writes_since_fork())
            clone = self.adopt(
                self._index.fork(frozen=True), dict(self._stored_derived)
            )
            clone._version = self._version
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
        was absent)."""
        if is_leaf:
            if is_missing(value):
                return self._index.remove_leaf(addr)
            self._index.set_leaf(addr, float(value))  # type: ignore[arg-type]
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
        concurrently sees all of it or none.
        """
        addr = self.schema.validate_address(address)
        is_leaf = self.schema.is_leaf_address(addr)
        with self._lock:
            self._check_writable()
            if self._write(addr, is_leaf, value):
                self._version += 1

    def set(self, value: object, **coords: str) -> None:
        """Keyword-style :meth:`set_value` (``cube.set(10, Time="Jan", ...)``)."""
        self.set_value(self.schema.address(**coords), value)

    def load(self, cells: Iterable[tuple[Sequence[str], object]]) -> None:
        """:meth:`set_value` every cell of a stream, in order.

        On an empty cube — how the workloads and :mod:`repro.io` fill one
        — every cell is validated as :meth:`set_value` would, collected,
        and the columns are built once; the cube ends up exactly as the
        per-cell writes would leave it (insertion order, values, version),
        except that a stream which fails validation leaves it empty.

        Each cell is classified by :meth:`CubeSchema.is_leaf_address`, as
        :meth:`set_value` classifies it — a set probe per coordinate — so
        an unknown member raises what the per-cell path raises, at the
        cell that first names it.
        """
        from repro.perf.rollup_index import RollupIndex

        schema = self.schema
        with self._lock:
            self._check_writable()
            if not (self._leaf_cells or self._stored_derived):
                leaves: dict[Address, float] = {}
                derived: dict[Address, float] = {}
                mutations = 0
                for address, value in cells:
                    addr = schema.validate_address(address)
                    store = leaves if schema.is_leaf_address(addr) else derived
                    if is_missing(value):
                        mutations += store.pop(addr, None) is not None
                    else:
                        store[addr] = float(value)  # type: ignore[arg-type]
                        mutations += 1
                self._index = RollupIndex.from_cells(schema, leaves)
                self._leaf_cells = self._index.leaf_view()
                self._stored_derived = derived
                self._version += mutations
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
            addr = schema.validate_address(address)
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
        """The *stored* value of a cell (MISSING if not stored)."""
        addr = self.schema.validate_address(address)
        value = self._leaf_cells.get(addr)
        if value is not None:
            return value
        return self._stored_derived.get(addr, MISSING)

    def at(self, **coords: str) -> CellValue:
        """Keyword-style :meth:`value`."""
        return self.value(self.schema.address(**coords))

    def effective_value(self, address: Sequence[str]) -> CellValue:
        """Stored value if present; otherwise rule/rollup for derived cells.

        Leaf cells that are not stored are ⊥ by definition.
        """
        addr = self.schema.validate_address(address)
        value = self._leaf_cells.get(addr)
        if value is None:
            value = self._stored_derived.get(addr)
        if value is not None:
            return value
        if self.schema.is_leaf_address(addr):
            # A leaf measure governed by a formula rule is still derived.
            if self.rules is not None and self.rules.has_rule_for(self, addr):
                return self.rules.evaluate_cell(self, addr)
            return MISSING
        return self.derive(addr)

    def derive(self, address: Sequence[str]) -> CellValue:
        """Evaluate the rule for a (derived) cell, ignoring any stored value."""
        addr = self.schema.validate_address(address)
        if self.rules is not None:
            return self.rules.evaluate_cell(self, addr)
        return self.rollup(addr)

    def rollup(self, address: Sequence[str], aggregator: str = "sum") -> CellValue:
        """Default derived-cell rule: aggregate descendant leaf cells.

        The scope of a non-leaf cell is the set of its descendant leaf cells
        (Sec. 4.3); leaf coordinates contribute themselves.
        """
        from repro.olap.aggregation import aggregate

        addr = self.schema.validate_address(address)
        if perf_config.engine_enabled():
            return self._index.rollup(addr, aggregator)
        return aggregate(aggregator, self.scope_values(addr))

    def scope_values(self, address: Sequence[str]) -> Iterator[float]:
        """Values of the leaf cells in a cell's scope."""
        for _, value in self.scope_cells(address):
            yield value

    def scope_cells(self, address: Sequence[str]) -> Iterator[tuple[Address, float]]:
        """(address, value) of leaf cells in a cell's scope."""
        addr = self.schema.validate_address(address)
        if perf_config.engine_enabled():
            yield from self._index.scope_cells(addr)
            return
        # the naive path: one full pass over all leaf cells
        for leaf_addr, value in self._leaf_cells.items():
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
        yield from self._leaf_cells.items()

    def stored_derived_cells(self) -> Iterator[tuple[Address, float]]:
        yield from self._stored_derived.items()

    def cells(self) -> Iterator[tuple[Address, float]]:
        yield from self._leaf_cells.items()
        yield from self._stored_derived.items()

    @property
    def n_leaf_cells(self) -> int:
        return len(self._leaf_cells)

    @property
    def n_stored_derived(self) -> int:
        return len(self._stored_derived)

    def coordinates_used(self, dim_name: str) -> set[str]:
        """Distinct leaf-cell coordinates appearing on a dimension."""
        dim_index = self.schema.dim_index(dim_name)
        if perf_config.engine_enabled():
            return set(self._index.coords_with_data(dim_index))
        return {addr[dim_index] for addr in self._leaf_cells}

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
        from repro.perf.rollup_index import scan_columns

        return scan_columns(self._leaf_cells, dim_indexes)

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
            addr = self.schema.validate_address(address)
            if self.schema.is_leaf_address(addr):
                raise RuleError(
                    f"cannot materialise a leaf address as derived: {addr!r}"
                )
            value = self.derive(addr)
            with self._lock:
                self._check_writable()
                if self._write(addr, False, value):
                    self._version += 1

    # -- comparison helpers (for tests) ----------------------------------------------

    def leaf_equal(self, other: "Cube", tolerance: float = 1e-9) -> bool:
        """Whether two cubes have identical leaf cells (within tolerance;
        a stored NaN equals a stored NaN)."""
        if set(self._leaf_cells) != set(other._leaf_cells):
            return False
        def same(mine: float, theirs: float) -> bool:
            return (
                mine == theirs
                or (mine != mine and theirs != theirs)
                or abs(mine - theirs) <= tolerance
            )

        return all(
            same(value, other._leaf_cells[addr])
            for addr, value in self._leaf_cells.items()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cube({self.schema!r}, {len(self._leaf_cells)} leaf cells, "
            f"{len(self._stored_derived)} stored derived)"
        )
