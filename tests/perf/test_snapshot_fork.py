"""The cube's rollup index as its leaf store, snapshots and copies as forks.

The index *is* the leaf store from the cube's first cell: the cube reads
it with nothing in between, ``set_value`` writes it alone, ``load`` builds it in
one step, ``frozen_copy`` and ``copy`` fork it.  The contract is that
none of this is visible: every snapshot answers exactly what a
``naive_mode()`` replay of the writes up to its version answers
(``repr``-equal, so NaN and the sign of zero count), older snapshots and
writable copies never move, and the index is built once.

The CI stress-smoke job runs this module under ``REPRO_LOCKDEP=1`` as
well, so the threaded test's lock order is witnessed.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.io import load_warehouse, save_warehouse
from repro.olap.aggregation import AGGREGATORS
from repro.olap.cube import Cube
from repro.olap.dimension import Dimension
from repro.olap.missing import MISSING
from repro.olap.schema import CubeSchema
from repro.perf.config import naive_mode
from repro.perf.rollup_index import RollupIndex
from repro.warehouse import Warehouse

MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun")
MEASURES = ("Sales", "COGS")
LEAVES = [(m, s) for m in MONTHS for s in MEASURES]


def _schema() -> CubeSchema:
    time_dim = Dimension("Time", ordered=True)
    time_dim.add_member("H1")
    time_dim.add_children("H1", MONTHS[:3])
    time_dim.add_member("H2")
    time_dim.add_children("H2", MONTHS[3:])
    measures = Dimension("Measures", is_measures=True)
    measures.add_children(None, list(MEASURES))
    return CubeSchema([time_dim, measures])


def _addresses(schema: CubeSchema) -> list[tuple[str, str]]:
    per_dim = [
        [m.name for m in d.root.descendants(include_self=True)]
        for d in schema.dimensions
    ]
    return [(t, s) for t in per_dim[0] for s in per_dim[1]]


def _grid(cube: Cube) -> str:
    """Every cell under every aggregator plus the leaf cells in order —
    ``repr``, so NaN == NaN and 0.0 != -0.0."""
    cells = [
        (addr, agg, cube.rollup(addr, agg))
        for addr in _addresses(cube.schema)
        for agg in AGGREGATORS
    ]
    points = [(addr, cube.effective_value(addr)) for addr in LEAVES]
    return repr((cells, points, list(cube.leaf_cells())))


def _naive_grid(cube: Cube) -> str:
    with naive_mode():
        return _grid(cube)


def _indexed(schema: CubeSchema) -> Cube:
    cube = Cube(schema)
    return cube.adopt(RollupIndex.build(cube), {})


values = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from([float("nan"), 0.0, -0.0]),
)
slots = st.integers(min_value=0, max_value=len(LEAVES) - 1)


class SnapshotForkMachine(RuleBasedStateMachine):
    """Writes of every kind against a cube, snapshots and
    writable copies in between; a twin takes the same writes and is only
    ever read under ``naive_mode()``."""

    @initialize(filled=st.lists(st.tuples(slots, values), max_size=12))
    def build(self, filled):
        schema = _schema()
        self.cube = _indexed(schema)
        self.twin = Cube(schema)
        self.index = self.cube.rollup_index()
        #: (pinned cube, the naive grid it must keep answering)
        self.snapshots: list[tuple[Cube, str]] = []
        for slot, value in filled:
            self._write(slot, value)

    def _write(self, slot, value):
        self.cube.set_value(LEAVES[slot], value)
        self.twin.set_value(LEAVES[slot], value)

    @rule(slot=slots, value=values)
    def set_value(self, slot, value):
        """In place when the leaf exists, an insert otherwise."""
        self._write(slot, value)

    @rule(slot=slots)
    def delete(self, slot):
        self._write(slot, MISSING)

    @rule(slot=slots, value=values)
    def reinsert(self, slot, value):
        """A deleted address comes back: new id, end of insertion order."""
        self._write(slot, MISSING)
        self._write(slot, value)

    @rule(
        overrides=st.lists(
            st.tuples(slots, st.one_of(st.none(), values)), min_size=1, max_size=6
        )
    )
    def apply_overrides(self, overrides):
        cells = [(LEAVES[slot], value) for slot, value in overrides]
        self.cube.apply_overrides(cells)
        self.twin.apply_overrides(cells)

    @rule()
    def snapshot(self):
        snap = self.cube.frozen_copy()
        assert snap.version == self.cube.version == self.twin.version
        self.snapshots.append((snap, _naive_grid(self.twin)))

    @rule(
        overrides=st.lists(
            st.tuples(slots, st.one_of(st.none(), values)), min_size=1, max_size=4
        )
    )
    def copy_and_diverge(self, overrides):
        """A writable copy takes writes its source never sees, and none of
        the source's later writes reach it.  Its expected grid comes from a
        cube filled cell by cell, which shares nothing with either."""
        scratch, model = self.cube.copy(), Cube(self.cube.schema)
        assert not scratch.frozen and scratch.version == 0
        for addr, value in self.twin.leaf_cells():
            model.set_value(addr, value)
        cells = [(LEAVES[slot], value) for slot, value in overrides]
        scratch.apply_overrides(cells)
        model.apply_overrides(cells)
        self.snapshots.append((scratch, _naive_grid(model)))

    @rule(
        kept=st.sets(st.sampled_from(MONTHS)),
        overrides=st.lists(
            st.tuples(slots, st.one_of(st.none(), values)), min_size=1, max_size=4
        ),
    )
    def derive_then_write(self, kept, overrides):
        """A σ view is derived — code columns and a key lookup, nothing
        per leaf — and then written to before anything read it: the write
        goes to the view's own generation."""
        view = self.cube.filter_dimension("Time", kept.__contains__)
        struct = view.rollup_index()._struct
        assert not struct.recent and not struct.sorted_part.resolved
        model = Cube(self.cube.schema)
        for addr, value in self.twin.leaf_cells():
            if addr[0] in kept:
                model.set_value(addr, value)
        cells = [(LEAVES[slot], value) for slot, value in overrides]
        view.apply_overrides(cells)
        model.apply_overrides(cells)
        self.snapshots.append((view, _naive_grid(model)))

    @rule()
    def query(self):
        """The live cube answers like its twin; every snapshot still
        answers what the twin answered at its version."""
        assert _grid(self.cube) == _naive_grid(self.twin)
        for snap, expected in self.snapshots:
            assert _grid(snap) == expected
            assert _naive_grid(snap) == expected

    @invariant()
    def built_once(self):
        if hasattr(self, "cube"):
            assert self.cube.rollup_index() is self.index
            assert self.index.stats.builds == 1
            assert self.cube.n_leaf_cells == self.twin.n_leaf_cells


SnapshotForkMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestSnapshotForkMachine = SnapshotForkMachine.TestCase


def test_snapshots_under_concurrent_writes(monkeypatch):
    """The state machine's claim with real threads, lock order witnessed:
    readers snapshot and query while a writer updates in place, deletes,
    re-inserts and applies bulk overrides."""
    monkeypatch.setenv("REPRO_LOCKDEP", "1")  # read when a lock is made
    schema = _schema()
    cube, twin = _indexed(schema), Cube(schema)
    script: list[list[tuple[tuple[str, str], object]]] = []
    for i, addr in enumerate(LEAVES):
        script.append([(addr, float(i + 1))])
    for i in range(0, len(LEAVES), 3):
        a, b, c = LEAVES[i : i + 3]
        script += [
            [(a, 0.5 + i)],  # in place
            [(b, MISSING)],  # delete
            [(b, float("nan"))],  # re-insert at a new id
            [(a, -0.0), (c, MISSING), (b, 2.0 * i)],  # one bulk mutation
            [(c, 7.0)],
        ]
    expected = {twin.version: _naive_grid(twin)}
    for writes in script:
        twin.apply_overrides(writes)
        expected[twin.version] = _naive_grid(twin)

    seen: list[tuple[int, str]] = []
    errors: list[BaseException] = []
    done = threading.Event()

    def reader() -> None:
        try:
            while not done.is_set():
                snap = cube.frozen_copy()
                seen.append((snap.version, _grid(snap)))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def writer() -> None:
        try:
            for writes in script:
                cube.apply_overrides(writes)
                answered, deadline = len(seen), time.monotonic() + 2.0
                while len(seen) == answered and time.monotonic() < deadline:
                    time.sleep(0.0005)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        finally:
            done.set()

    threads = [threading.Thread(target=reader) for _ in range(3)]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len({version for version, _ in seen}) >= 5, "readers saw few versions"
    for version, answered in seen:
        assert answered == expected[version], f"version {version}"
    assert _grid(cube) == expected[cube.version]
    assert cube.rollup_index().stats.builds == 1


def test_lock_free_point_reads_while_the_structure_churns(monkeypatch):
    """Readers probe the live cube itself — ``Cube.value`` and a
    ``leaf_reader`` — while a writer inserts and deletes other leaves past
    the re-sort threshold and past a renumber: a leaf nobody writes always
    hits with its value, an address nobody inserts always misses."""
    monkeypatch.setenv("REPRO_LOCKDEP", "1")  # read when a lock is made
    rows = [f"r{i}" for i in range(120)]
    row_dim = Dimension("Row")
    row_dim.add_children(None, rows)
    measures = Dimension("Measures", is_measures=True)
    measures.add_children(None, list(MEASURES))
    cube = Cube(CubeSchema([row_dim, measures]))
    hits = [(r, m) for r in rows[:30] for m in MEASURES]
    stable = {addr: float(i) for i, addr in enumerate(hits)}
    cube.load(stable.items())
    churn = [(r, m) for r in rows[30:90] for m in MEASURES]
    never = [(r, m) for r in rows[90:] for m in MEASURES]
    index = cube.rollup_index()
    generations: set[object] = set()
    sorted_parts: set[object] = set()
    reads = [0]
    errors: list[BaseException] = []
    done = threading.Event()
    start = threading.Barrier(4)

    def reader(turn: int) -> None:
        try:
            start.wait(timeout=30)
            i = turn
            while not done.is_set():
                if i % 64 == turn:
                    read = index.leaf_reader()
                addr, miss = hits[i % len(hits)], never[i % len(never)]
                assert cube.value(addr) == stable[addr]
                assert read(addr) == stable[addr]
                assert cube.value(miss) is MISSING
                assert read(miss) is None
                i += 1
                reads[0] += 1
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def writer() -> None:
        try:
            start.wait(timeout=30)
            for _ in range(2):
                for value in (1.0, MISSING):
                    for addr in churn:
                        cube.set_value(addr, value)
                        struct = index._struct
                        generations.add(struct)
                        sorted_parts.add(struct.sorted_part)
                        time.sleep(0)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        finally:
            done.set()

    threads = [threading.Thread(target=reader, args=(turn,)) for turn in range(3)]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert reads[0] >= 3, "readers barely ran"
    # 120 inserts against 60 sorted leaves re-sort in place; after 120
    # deletes against 60 live ones the next insert renumbers (a new
    # generation)
    assert len(generations) > 1
    assert len(sorted_parts) > len(generations)
    assert dict(cube.leaf_cells()) == stable


DERIVED = [("H1", "Sales"), ("H2", "COGS")]


@settings(max_examples=80, deadline=None)
@given(
    cells=st.lists(
        st.tuples(st.sampled_from(LEAVES + DERIVED), st.one_of(st.none(), values)),
        max_size=30,
    )
)
@example(
    cells=[
        (LEAVES[0], 1.5),
        (LEAVES[1], 2.0),
        (DERIVED[0], 99.0),  # a stored-derived cell in the stream
        (LEAVES[0], -0.0),  # a repeated address keeps its place
        (LEAVES[1], None),  # a ⊥ delete ...
        (LEAVES[2], float("nan")),
        (LEAVES[1], 4.0),  # ... and the address comes back at the end
        (DERIVED[0], None),
        (LEAVES[3], None),  # deleting an absent cell is not a mutation
    ]
)
def test_bulk_load_equals_per_cell_writes(cells):
    """``Cube.load`` on an empty cube builds the columns once and leaves
    the cube exactly as ``set_value`` of the same stream would."""
    schema = _schema()
    bulk, single = Cube(schema), Cube(schema)
    bulk.load(cells)
    for address, value in cells:
        single.set_value(address, value)
    assert bulk.version == single.version
    assert bulk.n_leaf_cells == single.n_leaf_cells
    assert repr(list(bulk.leaf_cells())) == repr(list(single.leaf_cells()))
    assert list(bulk.stored_derived_cells()) == list(single.stored_derived_cells())

    dims = range(schema.n_dims)
    loaded, written = bulk.rollup_index(), single.rollup_index()
    b, s = loaded.columns(dims), written.columns(dims)
    assert b.addresses == s.addresses
    for dim in dims:
        assert [b.coords[dim][c] for c in b.codes[dim]] == [
            s.coords[dim][c] for c in s.codes[dim]
        ]
    # leaf ids: the k-th live id is the same leaf on both sides.  A bulk
    # load is born renumbered, so the ids themselves coincide whenever no
    # delete left a hole in the per-cell id space.
    assert b.ids.tolist() == list(range(len(b.addresses)))
    if written.plane_store.n_rows == written.n_leaves:
        assert s.ids.tolist() == b.ids.tolist()
    assert repr(loaded.plane_store.gather(b.ids).tolist()) == repr(
        written.plane_store.gather(s.ids).tolist()
    )
    assert loaded.stats.builds == 1
    assert _grid(bulk) == _grid(single) == _naive_grid(single)

    # on a cube that already holds cells, load is the per-cell loop
    bulk.load(cells[:4])
    for address, value in cells[:4]:
        single.set_value(address, value)
    assert bulk.version == single.version
    assert _grid(bulk) == _grid(single)


class TestViewBackedCube:
    """The public cube API on a cube whose leaf store is its index, read
    with no wrapper in between."""

    @pytest.fixture
    def cube(self, example):
        cube = example.cube
        before = dict(cube.leaf_cells())
        cube.rollup_index()
        assert dict(cube.leaf_cells()) == before
        assert list(cube.leaf_cells()) == list(before.items())
        return cube

    def test_build_reads_the_view(self, cube):
        rebuilt = RollupIndex.build(cube)
        assert rebuilt.columns(()).addresses == [addr for addr, _ in cube.leaf_cells()]
        assert rebuilt.plane_store.nbytes > 0
        assert cube.rollup_index().plane_store.nbytes > 0
        root = tuple(d.root.name for d in cube.schema.dimensions)
        assert repr(rebuilt.rollup(root)) == repr(cube.rollup(root))

    def test_point_reads_and_membership(self, cube):
        read = cube.rollup_index().leaf_reader()
        addr, value = next(iter(cube.leaf_cells()))
        assert cube.value(addr) == value and read(addr) == value
        gone = ("Organization/FTE/Lisa", "MA", "Feb", "Benefits")
        assert read(gone) is None
        assert cube.value(gone) is MISSING
        assert len(list(cube.leaf_cells())) == cube.n_leaf_cells

    def test_copy_thaws_to_a_writable_fork(self, cube):
        clone = cube.frozen_copy().copy()
        assert not clone.frozen and clone.version == 0
        assert clone.rollup_index()._struct is cube.rollup_index()._struct
        assert clone.leaf_equal(cube) and cube.leaf_equal(clone)
        addr, value = next(iter(clone.leaf_cells()))
        new = ("Organization/FTE/Lisa", "MA", "Feb", "Benefits")
        # value and structural writes on either side stay on that side
        clone.set_value(addr, value + 1.0)
        clone.set_value(new, 7.0)
        cube.set_value(addr, MISSING)
        assert clone.value(addr) == value + 1.0 and clone.value(new) == 7.0
        assert cube.value(addr) is MISSING and cube.value(new) is MISSING
        root = tuple(d.root.name for d in cube.schema.dimensions)
        for side in (cube, clone):
            with naive_mode():
                expected = side.rollup(root)
            assert repr(side.rollup(root)) == repr(expected)

    def test_writes_go_to_the_index_alone(self, cube):
        index, version = cube.rollup_index(), cube.version
        addr, value = next(iter(cube.leaf_cells()))
        cube.set_value(addr, value + 1.0)
        new = ("Organization/FTE/Lisa", "MA", "Feb", "Benefits")
        cube.set_value(new, 7.0)
        cube.set_value(new, MISSING)
        cube.set_value(new, MISSING)  # absent: not a mutation
        assert cube.version == version + 3
        assert cube.rollup_index() is index and index.stats.builds == 1
        assert cube.value(addr) == value + 1.0 and cube.value(new) is MISSING
        root = tuple(d.root.name for d in cube.schema.dimensions)
        with naive_mode():
            expected = cube.rollup(root)
        assert repr(cube.rollup(root)) == repr(expected)

    def test_save_load_round_trip(self, cube, example, tmp_path):
        warehouse = Warehouse(example.schema, cube, name="Warehouse")
        save_warehouse(warehouse, tmp_path / "wh")
        loaded = load_warehouse(tmp_path / "wh")
        assert dict(loaded.cube.leaf_cells()) == dict(cube.leaf_cells())
        assert loaded.cube.leaf_equal(cube) and cube.leaf_equal(loaded.cube)

    def test_view_does_not_keep_a_cycle_alive(self, example):
        import gc
        import weakref

        snap = example.cube.frozen_copy()
        index = weakref.ref(snap.rollup_index())
        gc.disable()
        try:
            del snap
            assert index() is None, "view <-> index cycle: needs a gc pass to die"
        finally:
            gc.enable()


def test_churn_keeps_the_id_space_bounded():
    """Ids are never reused, so only renumbering keeps insert/delete churn
    from growing the columns; it must not change any rollup."""
    schema = _schema()
    cube, twin = _indexed(schema), Cube(schema)
    for round_ in range(11):
        for i, addr in enumerate(LEAVES):
            for target in (cube, twin):
                target.set_value(addr, MISSING)
                target.set_value(addr, float(round_ * 100 + i) / 7.0)
        struct = cube.rollup_index()._struct
        assert len(struct.codes[0]) <= 2 * cube.n_leaf_cells
        assert struct.n_ids <= 2 * cube.n_leaf_cells
        assert cube.rollup_index().plane_store.n_rows == struct.n_ids
        assert _grid(cube) == _naive_grid(twin)
    assert cube.rollup_index().stats.builds == 1


def test_a_resort_after_deletes_and_reinserts_keeps_live_rows_only():
    """Leaves deleted out of the sorted part and re-inserted past the
    re-sort threshold: the new sort holds each address once, at its live
    id, so every leaf still reads back."""
    rows = [f"r{i}" for i in range(100)]
    row_dim = Dimension("Row")
    row_dim.add_children(None, rows)
    measures = Dimension("Measures", is_measures=True)
    measures.add_children(None, ["Sales"])
    cube = Cube(CubeSchema([row_dim, measures]))
    cube.load(((row, "Sales"), float(i)) for i, row in enumerate(rows))
    for row in rows[:30]:
        cube.set_value((row, "Sales"), MISSING)
    for row in rows[:30]:
        cube.set_value((row, "Sales"), -1.0)
    struct = cube.rollup_index()._struct
    assert len(struct.sorted_part.rows) + len(struct.recent) == 100  # re-sorted
    assert struct.n_ids > 100  # no renumber: the dead ids are still there
    assert [cube.value((row, "Sales")) for row in rows] == [-1.0] * 30 + [
        float(i) for i in range(30, 100)
    ]
