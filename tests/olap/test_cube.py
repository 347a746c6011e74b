"""Tests for the sparse semantic Cube: storage, ⊥, rollup, transforms."""

from __future__ import annotations

import os
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    MemberNotFoundError,
    RuleError,
    SchemaError,
    SnapshotImmutableError,
)
from repro.olap import cube as cube_module
from repro.olap.cube import Cube
from repro.olap.dimension import Dimension
from repro.olap.missing import MISSING, is_missing
from repro.olap.schema import CubeSchema
from repro.perf.config import naive_mode
from repro.perf.rollup_index import RollupIndex
from repro.warehouse import Warehouse
from repro.workload import build_running_example


class TestStorage:
    def test_set_and_get(self, tiny_cube):
        assert tiny_cube.at(Time="Jan", Measures="Sales") == 10.0

    def test_absent_cell_is_missing(self, tiny_cube):
        cube = tiny_cube
        cube.set_value(cube.schema.address(Time="Jan", Measures="Sales"), MISSING)
        assert is_missing(cube.at(Time="Jan", Measures="Sales"))

    def test_none_deletes(self, tiny_cube):
        tiny_cube.set(None, Time="Jan", Measures="Sales")
        assert is_missing(tiny_cube.at(Time="Jan", Measures="Sales"))

    def test_wrong_arity_rejected(self, tiny_cube):
        with pytest.raises(SchemaError):
            tiny_cube.value(("Jan",))

    def test_unknown_dimension_kw_rejected(self, tiny_cube):
        with pytest.raises(SchemaError):
            tiny_cube.at(Nope="Jan")

    def test_load_bulk(self, tiny_schema):
        cube = Cube(tiny_schema)
        cube.load([(("Jan", "Sales"), 1), (("Feb", "Sales"), 2)])
        assert cube.n_leaf_cells == 2

    def test_leaf_vs_derived_store(self, tiny_cube):
        tiny_cube.set(99.0, Time="H1", Measures="Sales")
        assert tiny_cube.n_stored_derived == 1
        assert tiny_cube.at(Time="H1", Measures="Sales") == 99.0

    def test_clear_stored_derived(self, tiny_cube):
        tiny_cube.set(99.0, Time="H1", Measures="Sales")
        tiny_cube.clear_stored_derived()
        assert tiny_cube.n_stored_derived == 0


class TestOneCellRule:
    def test_a_former_leaf_is_read_by_its_leaf_test(self):
        """``add_member`` under a leaf that holds data leaves a row at an
        address that is no longer a leaf: the row is rolled up into that
        cell, never read back as it, and a write there is a stored
        aggregate that reads back — on the engine and under
        ``naive_mode()`` alike."""
        time_dim = Dimension("Time", ordered=True)
        time_dim.add_children(None, ["Jan", "Feb"])
        measures = Dimension("Measures", is_measures=True)
        measures.add_children(None, ["Sales"])
        schema = CubeSchema([time_dim, measures])
        cube = Cube(schema)
        cube.set_value(("Jan", "Sales"), -0.0)
        cube.set_value(("Feb", "Sales"), 2.0)
        time_dim.add_member("Jan1", "Jan")
        cube.set_value(("Jan1", "Sales"), 5.0)
        warehouse = Warehouse(schema, cube, name="C")
        query = "SELECT {Time.[Jan], Time.[Feb]} ON COLUMNS FROM C WHERE ([Sales])"

        def grid() -> str:
            engine = repr(warehouse.query(query).cells)
            with naive_mode():
                assert repr(warehouse.query(query).cells) == engine
            return engine

        jan = ("Jan", "Sales")
        assert grid() == "[[5.0, 2.0]]"
        assert cube.value(jan) is MISSING
        assert cube.effective_value(jan) == cube.rollup(jan) == 5.0
        cube.set_value(jan, 7.0)
        assert cube.n_stored_derived == 1
        assert cube.value(jan) == cube.effective_value(jan) == 7.0
        assert grid() == "[[7.0, 2.0]]"


class TestWritesNameKnownMembers:
    """Every coordinate of a written address is checked, not only those up
    to the first non-leaf one: a derived cell at a member that does not
    exist is refused by every write entry point, as a read refuses it."""

    BAD = ("Organization", "Location", "Time", "NoSuchMeasure")

    def _state(self, cube):
        return repr((list(cube.cells()), cube.version))

    @pytest.mark.parametrize("write", ["set_value", "load", "apply_overrides"])
    def test_unknown_member_after_a_non_leaf_coordinate(self, example, write):
        cube = example.cube if write != "load" else example.cube.empty_like()
        before = self._state(cube)
        with pytest.raises(MemberNotFoundError, match="NoSuchMeasure"):
            if write == "set_value":
                cube.set_value(self.BAD, 1.0)
            else:
                getattr(cube, write)([(self.BAD, 1.0)])
        assert self._state(cube) == before
        assert list(cube.stored_derived_cells()) == list(
            example.cube.stored_derived_cells() if write != "load" else []
        )
        with pytest.raises(MemberNotFoundError):
            cube.effective_value(self.BAD)


class TestOneProbePerWrite:
    """Work counts, not timings: a value write to an existing leaf is one
    classification pass and one lookup, so it resolves no member and no
    ancestor chain; an insert and a delete still resolve their chains."""

    @staticmethod
    def _counting(monkeypatch) -> "dict[str, int]":
        from repro.olap.dimension import Dimension
        from repro.olap.schema import CubeSchema

        calls = {"member": 0, "leaf_names": 0, "ancestor_chain": 0}
        counted_methods = (
            (Dimension, "member"),
            (Dimension, "leaf_names"),
            (CubeSchema, "ancestor_chain"),
        )
        for cls, name in counted_methods:
            original = getattr(cls, name)

            def counted(self, *args, _original=original, _name=name):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counted)
        return calls

    def test_a_value_write_to_an_existing_leaf_resolves_nothing(self, example, monkeypatch):
        """Not a member, not a per-dimension leaf-name read, not a chain:
        the chains of the written coordinates are the next fork's to
        resolve, once per distinct coordinate."""
        cube = example.cube
        leaves = [addr for addr, _ in cube.leaf_cells()]
        cube.frozen_copy()  # a fork: the next write copies the value column
        calls = self._counting(monkeypatch)
        version = cube.version
        for i, addr in enumerate(leaves):
            cube.set_value(addr, float(i))
        assert calls == {"member": 0, "leaf_names": 0, "ancestor_chain": 0}
        assert cube.version == version + len(leaves)
        assert [value for _, value in cube.leaf_cells()] == [
            float(i) for i in range(len(leaves))
        ]

    def test_an_insert_and_a_delete_resolve_their_chains(self, example, monkeypatch):
        cube = example.cube
        addr, value = next(iter(cube.leaf_cells()))
        n_dims = cube.schema.n_dims
        calls = self._counting(monkeypatch)
        cube.set_value(addr, MISSING)
        assert calls["ancestor_chain"] == n_dims
        cube.set_value(addr, value)
        assert calls["ancestor_chain"] == 2 * n_dims
        assert cube.value(addr) == value


class TestRollup:
    def test_rollup_over_time(self, tiny_cube):
        # Jan+Feb+Mar sales = 10+20+30
        assert tiny_cube.effective_value(("H1", "Sales")) == 60.0

    def test_rollup_full_root(self, tiny_cube):
        assert tiny_cube.effective_value(("Time", "Sales")) == 210.0

    def test_rollup_two_nonleaf_coords(self, tiny_cube):
        assert tiny_cube.effective_value(("H1", "Measures")) == 60.0 + 24.0

    def test_rollup_of_empty_scope_is_missing(self, tiny_schema):
        cube = Cube(tiny_schema)
        assert is_missing(cube.effective_value(("H1", "Sales")))

    def test_stored_derived_wins_over_rollup(self, tiny_cube):
        tiny_cube.set(999.0, Time="H1", Measures="Sales")
        assert tiny_cube.effective_value(("H1", "Sales")) == 999.0
        # derive() ignores the stored value
        assert tiny_cube.derive(("H1", "Sales")) == 60.0

    def test_rollup_other_aggregators(self, tiny_cube):
        assert tiny_cube.rollup(("H1", "Sales"), "max") == 30.0
        assert tiny_cube.rollup(("H1", "Sales"), "min") == 10.0
        assert tiny_cube.rollup(("H1", "Sales"), "avg") == 20.0
        assert tiny_cube.rollup(("H1", "Sales"), "count") == 3.0

    def test_scope_cells(self, tiny_cube):
        cells = dict(tiny_cube.scope_cells(("H1", "Sales")))
        assert set(cells) == {("Jan", "Sales"), ("Feb", "Sales"), ("Mar", "Sales")}

    def test_materialize_derived(self, tiny_cube):
        tiny_cube.materialize_derived([("H1", "Sales")])
        assert tiny_cube.value(("H1", "Sales")) == 60.0

    def test_materialize_bumps_version_only_on_change(self, tiny_schema):
        cube = Cube(tiny_schema)
        cube.set(1.0, Time="Jan", Measures="Sales")
        version = cube.version
        # ⊥ derived value, nothing stored to drop: not a mutation
        cube.materialize_derived([("H2", "Sales"), ("H2", "COGS")])
        assert cube.version == version and cube.n_stored_derived == 0
        cube.materialize_derived([("H1", "Sales")])
        assert cube.version == version + 1
        # the scope empties: the stored aggregate is dropped, once
        cube.set(None, Time="Jan", Measures="Sales")
        cube.materialize_derived([("H1", "Sales"), ("H1", "Sales")])
        assert cube.version == version + 3 and cube.n_stored_derived == 0

    def test_materialize_leaf_rejected(self, tiny_cube):
        with pytest.raises(RuleError):
            tiny_cube.materialize_derived([("Jan", "Sales")])


class TestTransforms:
    def test_copy_is_deep_for_cells(self, tiny_cube):
        clone = tiny_cube.copy()
        clone.set(0.0, Time="Jan", Measures="Sales")
        assert tiny_cube.at(Time="Jan", Measures="Sales") == 10.0

    def test_filter_dimension(self, tiny_cube):
        filtered = tiny_cube.filter_dimension("Measures", lambda c: c == "Sales")
        assert filtered.n_leaf_cells == 6
        assert is_missing(filtered.at(Time="Jan", Measures="COGS"))

    def test_filter_also_drops_stored_derived(self, tiny_cube):
        tiny_cube.set(99.0, Time="H1", Measures="COGS")
        filtered = tiny_cube.filter_dimension("Measures", lambda c: c == "Sales")
        assert filtered.n_stored_derived == 0

    def test_adopt_takes_finished_stores(self, tiny_cube):
        kept = {
            addr: value * 2
            for addr, value in tiny_cube.leaf_cells()
            if addr[0] != "Jan"  # drop Jan
        }
        index = RollupIndex.from_cells(tiny_cube.schema, kept)
        doubled = tiny_cube.adopt(index, dict(tiny_cube.stored_derived_cells()))
        assert doubled.schema is tiny_cube.schema
        assert doubled.rules is tiny_cube.rules
        assert doubled.rollup_index() is index
        assert is_missing(doubled.at(Time="Jan", Measures="Sales"))
        assert doubled.at(Time="Feb", Measures="Sales") == 40.0
        assert doubled.rollup(("H1", "Sales")) == 40.0 + 60.0

    def test_coordinates_used(self, tiny_cube):
        assert tiny_cube.coordinates_used("Measures") == {"Sales", "COGS"}

    def test_empty_like_shares_schema(self, tiny_cube):
        empty = tiny_cube.empty_like()
        assert empty.schema is tiny_cube.schema
        assert empty.n_leaf_cells == 0


class TestVaryingCoordinates:
    def test_instance_rollup(self, example):
        """Aggregate row FTE at Qtr1 sums only instances routed via FTE."""
        value = example.cube.effective_value(
            example.schema.address(
                Organization="FTE", Location="NY", Time="Qtr1", Measures="Salary"
            )
        )
        # Lisa 10+10+10 plus FTE/Joe Jan 10
        assert value == 40.0

    def test_two_instances_never_roll_into_each_other(self, example):
        schema = example.schema
        dim = schema.dim_index("Organization")
        assert not schema.is_under(
            dim, "Organization/FTE/Joe", "Organization/PTE/Joe"
        )

    def test_leaf_equal(self, example):
        assert example.cube.leaf_equal(example.cube.copy())
        other = example.cube.copy()
        other.set(
            1.0,
            Organization="Organization/FTE/Lisa",
            Location="NY",
            Time="Dec",
            Measures="Salary",
        )
        assert not example.cube.leaf_equal(other)

    def test_leaf_equal_with_stored_nan_and_infinity(self, tiny_cube):
        """A stored NaN is a value like any other: a cube equals its own
        copy, and differs from one that holds a number there."""
        tiny_cube.set(float("nan"), Time="Jan", Measures="Sales")
        tiny_cube.set(float("inf"), Time="Feb", Measures="Sales")
        other = tiny_cube.copy()
        assert tiny_cube.leaf_equal(other) and other.leaf_equal(tiny_cube)
        other.set(10.0, Time="Jan", Measures="Sales")
        assert not tiny_cube.leaf_equal(other)
        assert not other.leaf_equal(tiny_cube)


class _AnnouncedLock:
    """A cube's write lock that says when another thread is about to wait
    for it."""

    def __init__(self, lock):
        self._lock = lock
        self._owner = threading.current_thread()
        self.contended = threading.Event()

    def __enter__(self):
        if threading.current_thread() is not self._owner:
            self.contended.set()
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


class TestFreezeAgainstAParkedWriter:
    """``freeze`` promises that a writer either completes before the cube
    is immutable or sees ``SnapshotImmutableError`` — also the writer that
    was already waiting for the write lock when the freeze happened."""

    WRITES = {
        "set_value": lambda cube: cube.set_value(("Jan", "Sales"), 123.0),
        "apply_overrides": lambda cube: cube.apply_overrides(
            [(("Jan", "Sales"), 123.0), (("Feb", "COGS"), None)]
        ),
        "clear_stored_derived": lambda cube: cube.clear_stored_derived(),
        "materialize_derived": lambda cube: cube.materialize_derived(
            [("H2", "Sales")]
        ),
    }

    @pytest.mark.parametrize("name", list(WRITES))
    def test_writer_waiting_for_the_lock_sees_the_freeze(self, tiny_cube, name):
        cube = tiny_cube
        cube.set(99.0, Time="H1", Measures="Sales")  # something to clear
        version, cells = cube.version, list(cube.cells())
        lock = cube._lock = _AnnouncedLock(cube._lock)
        raised: list[BaseException] = []

        def writer() -> None:
            try:
                self.WRITES[name](cube)
            except SnapshotImmutableError as exc:
                raised.append(exc)

        thread = threading.Thread(target=writer)
        with lock:
            thread.start()
            assert lock.contended.wait(timeout=10.0)
            time.sleep(0.05)  # from "about to wait" to waiting
            cube.freeze()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert len(raised) == 1, "the parked writer wrote a frozen cube"
        assert cube.frozen and cube.version == version
        assert list(cube.cells()) == cells


class TestBulkLoad:
    """``Cube.load`` on an empty cube: the cube per-cell ``set_value``
    would leave, the same error at the same cell, and leaf level read
    from the schema as it is at each call."""

    def _stream(self, example):
        """The running example's cells plus everything a stream may hold:
        a repeated address, a stored-derived cell on the varying and on a
        plain dimension, and ⊥ deleting an earlier leaf and an absent one."""
        cells = [(addr, value) for addr, value in example.cube.leaf_cells()]
        first, second = cells[0][0], cells[1][0]
        return cells + [
            (first, -0.0),
            (("FTE", "NY", "Jan", "Salary"), 99.0),
            (("Organization/FTE/Lisa", "East", "Qtr1", "Salary"), 7.0),
            (second, MISSING),
            (("Organization/FTE/Sue", "NY", "Dec", "Salary"), None),
            (second, 4.25),
        ]

    def test_equals_per_cell_set_value(self, example):
        stream = self._stream(example)
        bulk, single = example.cube.empty_like(), example.cube.empty_like()
        bulk.load(stream)
        for address, value in stream:
            single.set_value(address, value)
        assert repr(list(bulk.leaf_cells())) == repr(list(single.leaf_cells()))
        assert list(bulk.stored_derived_cells()) == list(single.stored_derived_cells())
        assert bulk.n_stored_derived == 2
        assert bulk.version == single.version
        # the deleted leaf came back at the end of the insertion order
        assert list(bulk.leaf_cells())[-1] == (stream[1][0], 4.25)

    def test_unknown_member_half_way_raises_and_leaves_the_cube_empty(self, example):
        stream = self._stream(example)
        half = len(stream) // 2
        stream.insert(half, (("Organization/FTE/Lisa", "Atlantis", "Jan", "Salary"), 1.0))
        single = example.cube.empty_like()
        with pytest.raises(MemberNotFoundError, match="Atlantis") as per_cell:
            for address, value in stream:
                single.set_value(address, value)
        assert single.n_leaf_cells == half  # the per-cell path stops there
        bulk = example.cube.empty_like()
        with pytest.raises(MemberNotFoundError) as in_bulk:
            bulk.load(stream)
        assert str(in_bulk.value) == str(per_cell.value)
        assert bulk.n_leaf_cells == bulk.n_stored_derived == bulk.version == 0
        assert list(bulk.cells()) == []

    def test_leaf_level_is_not_remembered_between_loads(self, tiny_schema):
        # ``add_member`` can turn a leaf into a parent: the table of what
        # is leaf level lives for one call, not on the schema
        before = Cube(tiny_schema)
        before.load([(("Jan", "Sales"), 1.0)])
        assert (before.n_leaf_cells, before.n_stored_derived) == (1, 0)
        tiny_schema.dimension("Time").add_children("Jan", ["Jan-w1", "Jan-w2"])
        after = Cube(tiny_schema)
        after.load([(("Jan", "Sales"), 1.0), (("Jan-w1", "Sales"), 2.0)])
        assert (after.n_leaf_cells, after.n_stored_derived) == (1, 1)


# -- the load law ------------------------------------------------------------------

#: examples per run of the load law: the CI ``faults`` job
#: (``REPRO_FAULTS=ci-matrix``) draws the wide run
LOAD_EXAMPLES = 300 if "ci-matrix" in os.environ.get("REPRO_FAULTS", "") else 25

_LOAD_SCHEMA = build_running_example().schema
_LEAF_COORDS = (
    ("Organization/FTE/Joe", "Organization/PTE/Joe", "Organization/FTE/Lisa"),
    ("NY", "MA", "CA"),
    ("Jan", "Feb", "Jun"),
    ("Salary", "Benefits"),
)
#: stored aggregates: a parent on a plain dimension, a member on the
#: varying one, and a non-path coordinate there that no member has —
#: the per-cell leaf test looks up no coordinate of a varying dimension
_NON_LEAF = (
    ("FTE", "NY", "Jan", "Salary"),
    ("Organization/FTE/Joe", "East", "Jan", "Salary"),
    ("Organization/PTE/Joe", "NY", "Qtr1", "Benefits"),
    ("Nobody", "MA", "Feb", "Salary"),
)
#: a bad cell: the wrong length either way, or an unknown member of a
#: plain dimension (at a leaf address and at a non-leaf one)
_BAD = (
    ("Organization/FTE/Joe", "NY", "Jan"),
    ("Organization/FTE/Joe", "NY", "Jan", "Salary", "Extra"),
    ("Organization/FTE/Joe", "Atlantis", "Jan", "Salary"),
    ("FTE", "NY", "Jan", "Bonus"),
)

_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=False, width=64),
    st.sampled_from([0.0, -0.0, float("nan")]),
    st.integers(-1000, 1000),
    st.just(MISSING),
    st.none(),
)
_addresses = st.one_of(
    st.tuples(*(st.sampled_from(coords) for coords in _LEAF_COORDS)),
    st.sampled_from(_NON_LEAF),
)


@settings(max_examples=LOAD_EXAMPLES, deadline=None)
@given(
    stream=st.lists(st.tuples(_addresses, _values), max_size=40),
    bad=st.one_of(st.none(), st.tuples(st.integers(0, 40), st.sampled_from(_BAD))),
    chunk=st.integers(1, 9),
)
def test_load_is_a_set_value_replay_on_an_empty_cube(stream, bad, chunk):
    """``load(stream)`` leaves the cube a ``set_value`` replay of the
    stream leaves: leaf cells in order by ``repr``, stored aggregates,
    version — over duplicates, deletes and re-inserts, non-leaf cells,
    NaN, ±0 and ints, read in chunks of any size; with one bad cell at a
    random place, the same exception type and message, and an empty
    cube."""
    if bad is not None:
        stream.insert(min(bad[0], len(stream)), (bad[1], 1.0))
    single = Cube(_LOAD_SCHEMA)
    error: "Exception | None" = None
    try:
        for address, value in stream:
            single.set_value(address, value)
    except (SchemaError, MemberNotFoundError) as exc:
        error = exc
    bulk = Cube(_LOAD_SCHEMA)
    with mock.patch.object(cube_module, "_LOAD_CHUNK", chunk):
        if error is None:
            bulk.load(stream)
        else:
            with pytest.raises(type(error)) as raised:
                bulk.load(stream)
            assert str(raised.value) == str(error)
            single = Cube(_LOAD_SCHEMA)
    assert repr(list(bulk.leaf_cells())) == repr(list(single.leaf_cells()))
    assert repr(list(bulk.stored_derived_cells())) == repr(
        list(single.stored_derived_cells())
    )
    assert bulk.version == single.version
    assert bulk.n_leaf_cells == single.n_leaf_cells
