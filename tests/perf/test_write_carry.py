"""A write invalidates what it wrote: the memo, masks and address lookup
across writes and snapshots.

A leaf write can change exactly the cells whose coordinate on every
dimension is the leaf's own or one of its ancestors (its roll-up cone,
"Hierarchical Datacubes", arXiv:2501.03647).  So a snapshot starts from
the previous snapshot's memo less the entries the writes since can reach,
a structure copied for an insert or delete keeps the old masks (patched
on first use) and layers the old address dict instead of copying it.  The
contract is that none of this is visible:

* every snapshot, queried under every aggregator, is ``repr``-equal to a
  ``naive_mode()`` twin that took the same writes, and so is every memo
  entry it starts with;
* no entry it inherits has a written leaf in its scope, and the entries
  dropped are exactly those the per-dimension cone test names;
* a writable ``Cube.copy()`` that diverged never hands its memo on;
* a carried mask equals one recomputed from the code columns;
* with real threads — a writer and two ``QueryService`` readers — every
  answer equals the twin's at the version the reader's snapshot pinned.

Tier-1 draws a few examples; the CI chaos job (``REPRO_FAULTS=ci-matrix``)
draws the wide run under the lockdep witness.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.olap.aggregation import AGGREGATORS
from repro.olap.cube import Cube
from repro.olap.dimension import Dimension
from repro.olap.missing import MISSING
from repro.olap.schema import CubeSchema
from repro.perf.config import naive_mode
from repro.warehouse import Warehouse

FULL_MATRIX = "ci-matrix" in os.environ.get("REPRO_FAULTS", "")
EXAMPLES = 40 if FULL_MATRIX else 6

#: Time and Geo are four levels deep (root, half / region, quarter /
#: state, month / city); the leaves are 5 months x 3 cities x 2 measures
TIME = {"H1": {"Q1": ["Jan", "Feb"], "Q2": ["Apr"]}, "H2": {"Q3": ["Jul", "Aug"]}}
GEO = {"East": {"NY": ["NYC", "Albany"]}, "West": {"CA": ["LA"]}}
MEASURES = ("Sales", "COGS")


def _nested(name: str, tree: dict) -> Dimension:
    dim = Dimension(name, ordered=name == "Time")
    for top, middle in tree.items():
        dim.add_member(top)
        for mid, leaves in middle.items():
            dim.add_member(mid, top)
            dim.add_children(mid, leaves)
    return dim


def _schema() -> CubeSchema:
    measures = Dimension("Measures", is_measures=True)
    measures.add_children(None, list(MEASURES))
    return CubeSchema([_nested("Time", TIME), _nested("Geo", GEO), measures])


SCHEMA = _schema()
LEAVES = list(
    itertools.product(*(d.leaf_names() for d in SCHEMA.dimensions))
)
LEAVES.sort()
ADDRESSES = list(
    itertools.product(
        *([m.name for m in d.members()] for d in SCHEMA.dimensions)
    )
)


def _rollups(cube: Cube) -> "dict[tuple, str]":
    """``repr`` of every cell under every aggregator."""
    return {
        (addr, agg): repr(cube.rollup(addr, agg))
        for addr in ADDRESSES
        for agg in AGGREGATORS
    }


def _naive(cube: Cube) -> "dict[tuple, str]":
    with naive_mode():
        return _rollups(cube)


def _under(leaf: tuple, addr: tuple) -> bool:
    return all(
        SCHEMA.is_under(dim, coord, at)
        for dim, (coord, at) in enumerate(zip(leaf, addr))
    )


def _mutated(cube: Cube, cells) -> list:
    """The leaves ``cube.apply_overrides(cells)`` is about to write —
    deleting an absent leaf writes nothing."""
    present = {addr for addr, _ in cube.leaf_cells()}
    leaves = []
    for addr, value in cells:
        if value is None or value is MISSING:
            if addr not in present:
                continue
            present.discard(addr)
        else:
            present.add(addr)
        leaves.append(addr)
    return leaves


def _memo_entries(cube: Cube) -> "dict[tuple, str]":
    """The memo as ``(address, "sum")`` -> ``repr``, keyed like ``_rollups``."""
    return {(addr, "sum"): repr(value) for addr, value in cube.rollup_index()._memo.items()}


def _assert_masks_fresh(cube: Cube) -> None:
    """Every mask the cube's generation serves equals one computed from
    the code columns and liveness alone."""
    index = cube.rollup_index()
    struct = index._struct
    n = struct.n_ids
    for (dim, coord), mask in struct.masks.items():
        fresh = index._rolls_up(dim, coord)[struct.codes[dim][:n]] & struct.live[:n]
        assert np.array_equal(mask, fresh), (dim, coord)


values = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from([float("nan"), 0.0, -0.0]),
)
slots = st.integers(min_value=0, max_value=len(LEAVES) - 1)
overrides = st.lists(
    st.tuples(slots, st.one_of(st.none(), values)), min_size=1, max_size=6
)


class WriteCarryMachine(RuleBasedStateMachine):
    """Writes of every kind against a live cube, snapshots that are queried
    before the next write, writable copies that diverge, and churn that
    renumbers; a twin takes the same writes and is read only under
    ``naive_mode()``."""

    @initialize(filled=st.lists(st.tuples(slots, values), max_size=20))
    def build(self, filled):
        self.cube, self.twin = Cube(SCHEMA), Cube(SCHEMA)
        #: leaf addresses written since the last snapshot
        self.written: set = set()
        self._naive_at: "tuple[int, dict] | None" = None
        for slot, value in filled:
            self._write([(LEAVES[slot], value)])

    def _write(self, cells):
        self.written.update(_mutated(self.twin, cells))
        self.cube.apply_overrides(cells)
        self.twin.apply_overrides(cells)

    def _naive_now(self) -> "dict[tuple, str]":
        if self._naive_at is None or self._naive_at[0] != self.twin.version:
            self._naive_at = (self.twin.version, _naive(self.twin))
        return self._naive_at[1]

    @rule(slot=slots, value=values)
    def set_value(self, slot, value):
        """In place when the leaf exists, an insert otherwise."""
        self._write([(LEAVES[slot], value)])

    @rule(slot=slots)
    def delete(self, slot):
        self._write([(LEAVES[slot], MISSING)])

    @rule(slot=slots, value=values)
    def reinsert(self, slot, value):
        """A deleted address comes back: new id, end of insertion order."""
        self._write([(LEAVES[slot], MISSING)])
        self._write([(LEAVES[slot], value)])

    @rule(cells=overrides)
    def apply_overrides(self, cells):
        self._write([(LEAVES[slot], value) for slot, value in cells])

    @rule()
    def churn(self):
        """Every leaf deleted and re-inserted: dead ids outnumber live ones,
        so a structural write renumbers."""
        present = list(self.twin.leaf_cells())
        self._write([(addr, MISSING) for addr, _ in present])
        self._write(present)

    @rule()
    def query_live(self):
        """The live memo fills; a later snapshot carries it too."""
        assert _rollups(self.cube) == self._naive_now()

    @rule()
    def snapshot(self):
        live = set(_memo_entries(self.cube))
        snap = self.cube.frozen_copy()
        expected = self._naive_now()
        for key, value in _memo_entries(snap).items():
            assert value == expected[key], key  # bit-identical, carried or live
            if key not in live:
                assert not any(_under(leaf, key[0]) for leaf in self.written), key
        self.written.clear()
        assert _rollups(snap) == expected
        _assert_masks_fresh(snap)

    @rule(cells=overrides)
    def copy_and_diverge(self, cells):
        """A writable copy, queried before and after writes its source
        never sees, answers like a cube filled cell by cell — and its memo
        never reaches the source's next snapshot (which ``snapshot``
        checks entry by entry against the source's twin)."""
        scratch, model = self.cube.copy(), Cube(SCHEMA)
        for addr, value in self.twin.leaf_cells():
            model.set_value(addr, value)
        assert _rollups(scratch) == self._naive_now()
        written = [(LEAVES[slot], value) for slot, value in cells]
        scratch.apply_overrides(written)
        model.apply_overrides(written)
        assert _rollups(scratch) == _naive(model)
        _assert_masks_fresh(scratch)


WriteCarryMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=15, deadline=None
)
TestWriteCarryMachine = WriteCarryMachine.TestCase


@settings(max_examples=4 * EXAMPLES, deadline=None)
@given(
    filled=st.lists(st.tuples(slots, values), min_size=1, max_size=30),
    writes=st.lists(st.tuples(slots, st.one_of(st.none(), values)), max_size=4),
)
def test_no_carried_entry_reaches_a_written_leaf(filled, writes):
    """The snapshot after some writes keeps exactly the previous
    snapshot's entries that, on some dimension, lie outside every written
    coordinate's ancestor chain — none of which has a written leaf in its
    scope — and each is bit-identical to a recomputation."""
    cube = Cube(SCHEMA)
    cube.apply_overrides([(LEAVES[slot], value) for slot, value in filled])
    first = cube.frozen_copy()
    _rollups(first)
    before = _memo_entries(first)
    written = [(LEAVES[slot], value) for slot, value in writes]
    leaves = _mutated(cube, written)
    cube.apply_overrides(written)
    second = cube.frozen_copy()
    carried = _memo_entries(second)

    cone = [
        {up for leaf in leaves for up in SCHEMA.ancestor_chain(dim, leaf[dim])}
        for dim in range(SCHEMA.n_dims)
    ]
    reached = {
        key for key in before if leaves and all(c in s for c, s in zip(key[0], cone))
    }
    assert set(carried) == set(before) - reached
    expected = _naive(cube)
    for key, value in carried.items():
        assert not any(_under(leaf, key[0]) for leaf in leaves), key
        assert value == expected[key], key


def test_a_written_copy_never_reaches_the_next_snapshot():
    cube = Cube(SCHEMA)
    cube.apply_overrides([(leaf, float(i + 1)) for i, leaf in enumerate(LEAVES)])
    root = tuple(d.root.name for d in SCHEMA.dimensions)
    first = cube.frozen_copy()
    first.rollup(root)

    scratch = cube.copy()
    assert repr(scratch.rollup(root)) == repr(first.rollup(root))  # inherited
    scratch.apply_overrides([(leaf, 1000.0) for leaf in LEAVES])
    diverged = scratch.rollup(root)
    assert diverged == 1000.0 * len(LEAVES)
    scratch.frozen_copy()  # the copy's own snapshots are the copy's business

    second = cube.frozen_copy()  # no write on the source: everything carries
    assert _memo_entries(second) == _memo_entries(first)
    assert second.rollup_index()._memo[root] == sum(range(1, len(LEAVES) + 1))
    cube.set_value(LEAVES[0], 0.5)
    third = cube.frozen_copy()
    assert root not in third.rollup_index()._memo  # the root reaches every leaf
    with naive_mode():
        expected = cube.rollup(root)
    assert repr(third.rollup(root)) == repr(expected) != repr(diverged)


def test_a_carried_mask_equals_a_recomputed_one():
    """Masks a snapshot filled survive an insert and a delete on the live
    side: the copied generation carries them, each is patched on first use
    (no ``rolls_up[codes]`` over the whole id space; the query after the
    writes reads most cells from the carried memo and needs few) and
    equals a fresh one."""
    cube = Cube(SCHEMA)
    cube.apply_overrides([(leaf, float(i)) for i, leaf in enumerate(LEAVES[::2])])
    first = cube.frozen_copy()
    _rollups(first)
    used = set(first.rollup_index()._struct.masks)
    assert used
    cube.set_value(LEAVES[1], 7.0)  # an insert: the shared generation is copied
    cube.set_value(LEAVES[0], MISSING)  # a delete in place on the copy
    struct = cube.rollup_index()._struct
    assert struct is not first.rollup_index()._struct
    assert set(struct.carried) == used and not struct.masks
    second = cube.frozen_copy()
    assert _rollups(second) == _naive(cube)
    assert not set(struct.carried) & set(struct.masks)
    index = second.rollup_index()
    with index._lock:
        for key in used:
            index._coord_mask(*key)
    assert used <= set(struct.masks) and not struct.carried
    _assert_masks_fresh(second)
    _assert_masks_fresh(first)  # the old generation's masks never changed


def test_one_row_edit_misses_exactly_that_departments_cells():
    """After a planner rewrites one employee's row, the next snapshot's
    dashboard recomputes that employee's department and nothing else."""
    from repro.workload.workforce import MONTHS, WorkforceConfig, build_workforce

    wf = build_workforce(
        WorkforceConfig(
            n_employees=40,
            n_departments=4,
            n_changing=6,
            max_moves=3,
            n_accounts=3,
            n_scenarios=2,
        )
    )
    warehouse = wf.warehouse
    dashboard = (
        "SELECT {Period.Members} ON COLUMNS, "
        "{CrossJoin({Department.Children}, {Scenario.Children})} ON ROWS "
        "FROM [App].[Db] WHERE ([Acct000], [Local], [BU Version_1], [HSP_InputValue])"
    )
    warehouse.snapshot().query(dashboard)
    moving = set(wf.changing_employees)
    employee = next(
        m for m in wf.schema.dimension("Department").leaf_members() if m.name not in moving
    )
    department = employee.parent.name
    row = [
        (
            (f"Department/{department}/{employee.name}", month, "Acct000", scenario,
             "Local", "BU Version_1", "HSP_InputValue"),
            float(i),
        )
        for i, (month, scenario) in enumerate(itertools.product(MONTHS, wf.scenarios))
    ]
    cube, stats = warehouse.cube, warehouse.cube.rollup_index().stats
    for addr, value in row:
        cube.set_value(addr, value)
    snap = warehouse.snapshot()
    carried = set(snap.cube.rollup_index()._memo)
    misses, hits = stats.misses, stats.hits
    result = snap.query(dashboard)
    n_cells = len(result.rows) * len(result.columns)
    recomputed = set(snap.cube.rollup_index()._memo) - carried
    periods = len(list(wf.schema.dimension("Period").members()))
    assert stats.misses - misses == len(recomputed) == len(wf.scenarios) * periods
    assert stats.hits - hits == n_cells - len(recomputed)
    assert {addr[0] for addr in recomputed} == {department}
    with naive_mode():
        expected = warehouse.query(dashboard)
    assert repr(result.cells) == repr(expected.cells)


def test_readers_through_the_service_see_the_twin_at_their_version(monkeypatch):
    """A writer and two ``QueryService`` readers, lock order witnessed:
    every answer equals the twin's at the version its snapshot pinned, so
    no carried memo entry and no lock-free memo probe was ever stale."""
    from repro.service import QueryService

    monkeypatch.setenv("REPRO_LOCKDEP", "1")  # read when a lock is made
    cube, twin = Cube(SCHEMA), Cube(SCHEMA)
    warehouse = Warehouse(SCHEMA, cube, name="W")
    query = (
        "SELECT {Time.Members} ON COLUMNS, {Geo.Members} ON ROWS "
        "FROM W WHERE ([Sales])"
    )
    script: list[list[tuple[tuple, object]]] = []
    for i, addr in enumerate(LEAVES):
        script.append([(addr, float(i + 1))])
    rounds = 6 if FULL_MATRIX else 2
    for round_ in range(rounds):
        for i in range(0, len(LEAVES) - 2, 3):
            a, b, c = LEAVES[i : i + 3]
            script += [
                [(a, 0.5 + i + round_)],  # in place
                [(b, MISSING)],  # delete
                [(b, float("nan") if round_ % 2 else -0.0)],  # re-insert at a new id
                [(a, -1.0), (c, MISSING), (b, 2.0 * i)],  # one bulk mutation
                [(c, 7.0 + round_)],
            ]
    twin_warehouse = Warehouse(SCHEMA, twin, name="W")

    def naive_cells() -> str:
        with naive_mode():
            return repr(twin_warehouse.query(query).cells)

    expected = {twin.version: naive_cells()}
    for writes in script:
        twin.apply_overrides(writes)
        expected[twin.version] = naive_cells()

    seen: list[tuple[int, str]] = []
    errors: list[BaseException] = []
    done = threading.Event()

    with QueryService(warehouse, workers=2) as service:

        def reader() -> None:
            try:
                while not done.is_set():
                    ticket = service.submit(query)
                    cells = ticket.result(timeout=30.0).cells
                    seen.append((ticket.snapshot_version, repr(cells)))
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

        threads = [threading.Thread(target=reader) for _ in range(2)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            done.set()
            sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len({version for version, _ in seen}) >= 5, "readers saw few versions"
    for version, answered in seen:
        assert answered == expected[version], f"version {version}"


def _cone_of(written: list) -> "list[set[str]]":
    """The reference cone of some written leaf addresses: per dimension,
    every written coordinate's ancestor chain."""
    return [
        {up for leaf in written for up in SCHEMA.ancestor_chain(dim, leaf[dim])}
        for dim in range(SCHEMA.n_dims)
    ]


def _reached(keys, cone) -> set:
    return {key for key in keys if all(c in s for c, s in zip(key[0], cone))}


def test_the_record_survives_a_renumbering_between_forks():
    """Deletes that leave dead ids outnumbering live ones renumber the
    index between two frozen forks; the record keeps leaf ids, so it must
    settle them before the ids change.  The carried memo drops exactly
    what a cone built from the written addresses drops — the deleted
    leaves' coordinates among them — and every kept entry is current."""
    sales = [leaf for leaf in LEAVES if leaf[2] == "Sales"][:5]
    cogs = [leaf for leaf in LEAVES if leaf[2] == "COGS"]
    cube = Cube(SCHEMA)
    cube.apply_overrides([(leaf, float(i + 1)) for i, leaf in enumerate(sales + cogs)])
    first = cube.frozen_copy()
    _rollups(first)
    before = _memo_entries(first)
    index = cube.rollup_index()
    n_ids = index._struct.n_ids

    for leaf in cogs:  # deletes; the twelfth one renumbers
        cube.set_value(leaf, MISSING)
    assert index._struct.n_ids < n_ids, "no renumbering"
    cube.set_value(cogs[-1], 3.5)  # an insert
    cube.set_value(cogs[-1], -0.0)  # a value write
    second = cube.frozen_copy()

    reached = _reached(before, _cone_of(cogs))
    carried = _memo_entries(second)
    assert reached and carried
    assert set(carried) == set(before) - reached
    assert {key[0][2] for key in carried} == {"Sales"}
    expected = _naive(cube)
    for key, value in carried.items():
        assert value == expected[key], key
    assert _rollups(second) == expected


def test_a_live_index_holds_a_bounded_record():
    """Ten buffers' worth of writes and no fork: the record holds at most
    one buffer of ids plus the distinct written coordinates, and the next
    fork still drops exactly the writes' cone."""
    from repro.perf.rollup_index import _WRITTEN_BUFFER

    cube = Cube(SCHEMA)
    cube.apply_overrides([(leaf, float(i + 1)) for i, leaf in enumerate(LEAVES)])
    first = cube.frozen_copy()
    _rollups(first)
    before = _memo_entries(first)
    written = [leaf for leaf in LEAVES if leaf[2] == "Sales" and leaf[0] != "Jan"]
    index = cube.rollup_index()
    for i in range(10 * _WRITTEN_BUFFER):
        cube.set_value(written[i % len(written)], float(i % 97))
        assert len(index._written_ids) < _WRITTEN_BUFFER
    tables = index._struct.tables
    for coords, table in zip(index._written, tables):
        assert coords <= set(table.coords)

    second = cube.frozen_copy()
    carried = _memo_entries(second)
    assert set(carried) == set(before) - _reached(before, _cone_of(written))
    assert not index._written_ids and not any(index._written)
    assert _rollups(second) == _naive(cube)
