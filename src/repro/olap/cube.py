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
A cube that was never asked for a derived value keeps its leaf cells in a
plain ``dict`` — bulk loads pay one dict store per cell and nothing else.
The first derived read, column read or snapshot builds a
:class:`~repro.perf.rollup_index.RollupIndex` (column-wise, once), and
from then on that index **is** the leaf store: the dict is dropped,
``_leaf_cells`` becomes a read-only
:class:`~repro.perf.rollup_index.LeafView` over the index's id map and
value planes, and :meth:`Cube.set_value` writes the index and nothing
beside it.  Derived-cell scopes are served from it at O(|scope|) per
query, and :meth:`Cube.frozen_copy` is a fork of it — nothing
proportional to the cube is copied.  ``repro.perf.config.naive_mode()``
restores the pre-index full-scan path (over the dict or the view,
whichever the cube has; it never builds an index); both paths produce
bit-identical values.  Every mutation bumps :attr:`version`, which the
warehouse's scenario cache uses for invalidation.

Bulk transforms
---------------
The what-if operators never write cells one by one: they read the leaf
cells column-wise (:meth:`Cube.leaf_columns`), compute their output as an
array program and hand the finished leaf store to :meth:`Cube.adopt` — a
rollup index *derived* from the input's when it has one, a dict otherwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TypeAlias

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.perf.rollup_index import LeafColumns, LeafView, RollupIndex

from repro.errors import RuleError, SnapshotImmutableError
from repro.lint.lockdep import make_lock
from repro.olap.missing import MISSING, Missing, is_missing
from repro.olap.schema import Address, CubeSchema
from repro.perf import config as perf_config

__all__ = ["Cube"]

CellValue: TypeAlias = "float | Missing"


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
        self.schema = schema
        self.rules = rules
        #: the leaf cells: a dict until the cube is indexed, then a
        #: read-only view over the index (see the module docstring)
        self._leaf_cells: "dict[Address, float] | LeafView" = {}
        self._stored_derived: dict[Address, float] = {}
        #: mutation counter; bumped by every write so caches keyed on it
        #: (scenario cache, rollup memo) can invalidate
        self._version = 0
        self._index: "RollupIndex | None" = None  # lazily built
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

        The first snapshot builds this cube's rollup index (unless the
        engine is off); every snapshot *forks* it — shared structure,
        plane-granular value sharing, a warm memo — so nothing
        proportional to the cube is copied and the first query on a fresh
        snapshot pays no index build.  Lock order here is
        Cube._lock -> RollupIndex._lock, as declared in the lint hierarchy.
        """
        from repro.obs.trace import trace_span  # repro.obs imports this module

        with trace_span("cube.snapshot") as span, self._lock:
            index = self.rollup_index() if self._use_index() else self._index
            clone = Cube(self.schema, self.rules)
            clone._stored_derived = dict(self._stored_derived)
            clone._version = self._version
            clone._frozen = True
            if span is not None:
                span.set(forked=index is not None)
            if index is None:
                clone._leaf_cells = dict(self._leaf_cells)
            else:
                if span is not None:
                    span.set(**index.writes_since_fork())
                clone._rollup_index = index.fork()
            return clone

    def rollup_index(self) -> "RollupIndex":
        """The cube's rollup index, built on first use.

        The build is guarded by the cube lock: two queries sharing one
        snapshot cube must not race to build two indexes (the loser's
        memo/stats would be silently discarded mid-use).
        """
        index = self._index
        if index is None:
            from repro.perf.rollup_index import RollupIndex

            with self._lock:
                index = self._index
                if index is None:
                    index = RollupIndex.build(self)
                    self._rollup_index = index
        return index

    @property
    def _rollup_index(self) -> "RollupIndex | None":
        return self._index

    @_rollup_index.setter
    def _rollup_index(self, index: "RollupIndex") -> None:  # reprolint: locked
        """Install ``index`` — which must hold exactly this cube's leaf
        cells — as the leaf store: the dict (if any) is dropped."""
        self._index = index
        self._leaf_cells = index.leaf_view()

    @property
    def has_rollup_index(self) -> bool:
        return self._index is not None

    def _use_index(self) -> bool:
        return perf_config.engine_enabled()

    # -- write path ------------------------------------------------------------

    def _write(self, addr: Address, is_leaf: bool, value: object) -> bool:  # reprolint: locked
        """Store one validated cell (MISSING/None deletes it) in the one
        place it lives; ``False`` when nothing changed (the cell to delete
        was absent)."""
        index = self._index if is_leaf else None
        store = self._leaf_cells if is_leaf else self._stored_derived
        if is_missing(value):
            if index is not None:
                return index.remove_leaf(addr)
            return store.pop(addr, None) is not None  # type: ignore[union-attr]
        if index is not None:
            index.set_leaf(addr, float(value))  # type: ignore[arg-type]
        else:
            store[addr] = float(value)  # type: ignore[arg-type,index]
        return True

    def set_value(self, address: Sequence[str], value: object) -> None:
        """Store a cell value; MISSING/None deletes the cell (deleting an
        absent cell is not a mutation).

        Writers serialise on the cube lock, so the version bump and the
        cell write commit as one unit — a snapshot copy taken
        concurrently sees all of it or none.
        """
        self._check_writable()
        addr = self.schema.validate_address(address)
        is_leaf = self.schema.is_leaf_address(addr)
        with self._lock:
            if self._write(addr, is_leaf, value):
                self._version += 1

    def set(self, value: object, **coords: str) -> None:
        """Keyword-style :meth:`set_value` (``cube.set(10, Time="Jan", ...)``)."""
        self.set_value(self.schema.address(**coords), value)

    def load(self, cells: Iterable[tuple[Sequence[str], object]]) -> None:
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
        self._check_writable()
        schema = self.schema
        validated = []
        for address, value in cells:
            addr = schema.validate_address(address)
            validated.append((addr, schema.is_leaf_address(addr), value))
        with self._lock:
            mutated = False
            for addr, is_leaf, value in validated:
                mutated |= self._write(addr, is_leaf, value)
            if mutated:
                self._version += 1

    def clear_stored_derived(self) -> None:
        """Drop all materialised aggregate cells."""
        self._check_writable()
        with self._lock:
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
        if self._use_index():
            return self.rollup_index().rollup(self._leaf_cells, addr, aggregator)
        return aggregate(aggregator, self.scope_values(addr))

    def scope_values(self, address: Sequence[str]) -> Iterator[float]:
        """Values of the leaf cells in a cell's scope."""
        for _, value in self.scope_cells(address):
            yield value

    def scope_cells(self, address: Sequence[str]) -> Iterator[tuple[Address, float]]:
        """(address, value) of leaf cells in a cell's scope."""
        addr = self.schema.validate_address(address)
        if self._use_index():
            yield from self.rollup_index().scope_cells(addr)
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
        index = self._index
        if index is not None and self._use_index():
            return set(index.coords_with_data(dim_index))
        return {addr[dim_index] for addr in self._leaf_cells}

    def leaf_columns(self, *dim_indexes: int) -> "LeafColumns":
        """The leaf cells column-wise, in insertion order, with the
        coordinate-code columns of the given dimensions — what the what-if
        operators read instead of iterating cells.  Served by the rollup
        index (built on first use); under ``naive_mode()`` the columns are
        scanned off the leaf mapping and no index is built."""
        if self._use_index():
            return self.rollup_index().columns(dim_indexes)
        from repro.perf.rollup_index import scan_columns

        return scan_columns(self._leaf_cells, dim_indexes)

    # -- structure-preserving transforms -----------------------------------------

    def copy(self) -> "Cube":
        # The clone is a plain-dict cube: the rollup index is deliberately
        # not carried over (it is rebuilt lazily), so the two cubes never
        # share mutable state (ancestor verdicts are shared safely via the
        # schema's cache).  Copying a frozen cube yields a writable one —
        # this is how a snapshot is thawed back into a scratch cube.
        with self._lock:
            clone = Cube(self.schema, self.rules)
            clone._leaf_cells = self._leaf_cells.copy()
            clone._stored_derived = dict(self._stored_derived)
            return clone

    def empty_like(self) -> "Cube":
        return Cube(self.schema, self.rules)

    def adopt(
        self,
        leaves: "dict[Address, float] | RollupIndex",
        stored_derived: dict[Address, float],
    ) -> "Cube":
        """New cube over this cube's schema and rules that takes ownership
        of a finished leaf store — the bulk entry point of the transforms.
        ``leaves`` is a dict of leaf cells or a rollup index that already
        holds them (the cube is then indexed from the start).

        Nothing is validated per cell: the caller guarantees that every
        leaf is a leaf address of the schema with a float value (it
        validates once per *distinct* new coordinate) and that
        ``stored_derived`` holds only non-leaf addresses.
        """
        clone = Cube(self.schema, self.rules)
        if isinstance(leaves, dict):
            clone._leaf_cells = leaves
        else:
            clone._rollup_index = leaves
        clone._stored_derived = stored_derived
        return clone

    def filter_dimension(
        self, dim_name: str, keep: Callable[[str], bool]
    ) -> "Cube":
        """New cube keeping only cells whose coordinate on ``dim_name``
        satisfies ``keep`` (used by the selection operator σ)."""
        index = self.schema.dim_index(dim_name)
        return self.adopt(
            {
                addr: value
                for addr, value in self._leaf_cells.items()
                if keep(addr[index])
            },
            {
                addr: value
                for addr, value in self._stored_derived.items()
                if keep(addr[index])
            },
        )

    # -- materialisation ----------------------------------------------------------

    def materialize_derived(self, addresses: Iterable[Sequence[str]]) -> None:
        """Evaluate and store derived values for the given addresses."""
        self._check_writable()
        for address in addresses:
            addr = self.schema.validate_address(address)
            if self.schema.is_leaf_address(addr):
                raise RuleError(
                    f"cannot materialise a leaf address as derived: {addr!r}"
                )
            value = self.derive(addr)
            with self._lock:
                self._version += 1
                if is_missing(value):
                    self._stored_derived.pop(addr, None)
                else:
                    self._stored_derived[addr] = float(value)  # type: ignore[arg-type]

    # -- comparison helpers (for tests) ----------------------------------------------

    def leaf_equal(self, other: "Cube", tolerance: float = 1e-9) -> bool:
        """Whether two cubes have identical leaf cells (within tolerance)."""
        if set(self._leaf_cells) != set(other._leaf_cells):
            return False
        return all(
            abs(value - other._leaf_cells[addr]) <= tolerance
            for addr, value in self._leaf_cells.items()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cube({self.schema!r}, {len(self._leaf_cells)} leaf cells, "
            f"{len(self._stored_derived)} stored derived)"
        )
