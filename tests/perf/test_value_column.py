"""What a cube's value store must do, stated once against a model.

A rollup index keeps its leaf values in one ``float64`` column over the
leaf-id space (:class:`~repro.perf.leaf_store.ColumnarLeafStore`);
which rows are leaves is the structure's business.  The contract, for
every way a row comes to hold a value — appended, re-valued, deleted and
re-inserted, on either side of any number of forks: every index of the
family reads exactly what an insertion-ordered dict that took the same
writes holds (``repr``-equal, so NaN and the sign of zero count), through
the bulk gather, a gather of any ascending live subset, and point reads.
"""

from __future__ import annotations

import gc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.perf.leaf_store as leaf_store_module
from repro.olap.cube import Cube
from repro.olap.dimension import Dimension
from repro.olap.schema import CubeSchema
from repro.perf.leaf_store import ColumnarLeafStore
from repro.perf.rollup_index import RollupIndex

MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun")
MEASURES = ("Sales", "COGS")
LEAVES = [(m, s) for m in MONTHS for s in MEASURES]


def _schema() -> CubeSchema:
    time_dim = Dimension("Time", ordered=True)
    time_dim.add_children(None, list(MONTHS))
    measures = Dimension("Measures", is_measures=True)
    measures.add_children(None, list(MEASURES))
    return CubeSchema([time_dim, measures])


def _slots(n_ids: int) -> int:
    """The most slots a column over ``n_ids`` ids may carry."""
    return n_ids + (n_ids >> 3) + 8


values = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from([float("nan"), 0.0, -0.0]),
)
slots = st.integers(min_value=0, max_value=len(LEAVES) - 1)
sides = st.integers(min_value=0, max_value=7)
ops = st.one_of(
    st.tuples(st.just("set"), sides, slots, values),
    st.tuples(st.just("delete"), sides, slots),
    st.tuples(st.just("fork"), sides),
    # bit k of the mask keeps the k-th live leaf
    st.tuples(st.just("gather"), sides, st.integers(min_value=0, max_value=2**24)),
)


def _check(index: RollupIndex, model: dict) -> None:
    store, struct = index.plane_store, index._struct
    assert store.n_rows == struct.n_ids
    assert store.nbytes <= 8 * _slots(struct.n_ids)
    cols = index.columns(())
    assert cols.ids.tolist() == sorted(cols.ids.tolist())
    assert cols.addresses == list(model)
    assert repr(cols.values.tolist()) == repr(list(model.values()))
    reader = index.leaf_reader()
    for addr in LEAVES:
        assert repr(reader(addr)) == repr(model.get(addr))


@settings(max_examples=120, deadline=None)
@given(
    filled=st.lists(st.tuples(slots, values), max_size=12),
    script=st.lists(ops, max_size=40),
)
# on a fork, inserts at coordinates the loaded cells never used: each side
# grows its own coordinate table past the radix of the sort they share
@example(
    filled=[(0, 1.0)],
    script=[("fork", 0), ("set", 1, 11, 2.0), ("set", 0, 4, 3.0), ("set", 1, 4, 4.0)],
)
# a sorted-part address deleted and re-inserted, on both sides of a fork
@example(
    filled=[(0, 1.0), (1, 2.0), (2, 3.0)],
    script=[
        ("fork", 0),
        ("delete", 0, 1),
        ("set", 0, 1, 5.0),
        ("delete", 1, 0),
        ("set", 1, 0, -0.0),
    ],
)
# enough inserts past the sort to sort them in, then a delete and re-insert
@example(
    filled=[],
    script=[("set", 0, k, float(k)) for k in range(12)] + [("delete", 0, 3), ("set", 0, 3, 1.0)],
)
def test_value_store_agrees_with_its_model(filled, script):
    schema = _schema()
    model: dict = {}
    for slot, value in filled:
        model[LEAVES[slot]] = value
    #: every index of the family with the dict that took the same writes
    family = [(RollupIndex.from_cells(schema, model), model)]
    for op, side, *args in script:
        index, model = family[side % len(family)]
        if op == "set":
            slot, value = args
            index.set_leaf(LEAVES[slot], value)
            model[LEAVES[slot]] = value
        elif op == "delete":
            addr = LEAVES[args[0]]
            assert index.remove_leaf(addr) == (addr in model)
            model.pop(addr, None)
        elif op == "fork":
            family.append((index.fork(), dict(model)))
        else:
            ids = index.columns(()).ids
            keep = [bool(args[0] >> k & 1) for k in range(len(ids))]
            expected = [v for v, kept in zip(model.values(), keep) if kept]
            got = index.plane_store.gather(ids[np.array(keep, dtype=np.bool_)])
            assert repr(got.tolist()) == repr(expected)
        # a write on one side is seen by that side alone
        for member, expected_cells in family:
            _check(member, expected_cells)


def test_object_keys_take_the_same_writes(monkeypatch):
    """The same contract with every sorted key a Python int."""
    monkeypatch.setattr(leaf_store_module, "_KEY_LIMIT", 1)
    test_value_store_agrees_with_its_model()


def _float64_arrays(root: object) -> list[np.ndarray]:
    """Every ``float64`` array reachable from ``root``."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.dtype == np.float64:
                found.append(obj)
            if obj.base is not None:
                stack.append(obj.base)
            continue
        stack.extend(gc.get_referents(obj))
    return found


def test_a_served_generation_holds_its_values_once():
    """After queries whose scopes span the whole id space, a snapshot's
    store is one column of at most the headroom rule's slots, and nothing
    reachable from it mirrors the values."""
    rows = [f"r{i}" for i in range(80)]
    cols = [f"c{i}" for i in range(64)]
    row_dim = Dimension("Row")
    row_dim.add_children(None, rows)
    col_dim = Dimension("Measures", is_measures=True)
    col_dim.add_children(None, cols)
    cube = Cube(CubeSchema([row_dim, col_dim]))
    addresses = [(r, c) for r in rows for c in cols]
    cube.load((addr, float(i)) for i, addr in enumerate(addresses))
    cube.set_value(addresses[0], -1.0)

    snap = cube.frozen_copy()
    n = snap.n_leaf_cells
    every_row, every_col = row_dim.root.name, col_dim.root.name
    assert snap.rollup((every_row, every_col)) == sum(range(n)) - 1.0
    assert snap.rollup((every_row, cols[-1])) == sum(range(63, n, 64))
    assert snap.rollup((rows[-1], every_col)) == sum(range(n - 64, n))

    store = snap.rollup_index().plane_store
    assert n == 80 * 64 and store.n_rows == n
    assert store.nbytes <= 8 * _slots(n)
    (column,) = _float64_arrays(store)
    assert len(column) >= n


def test_from_values_adopts_the_array():
    """A bulk load is the caller's freshly gathered array, not a copy of
    it: reads are served from that buffer, and a fork's first write moves
    the writer off it."""
    a = np.arange(10.0)
    store = ColumnarLeafStore.from_values(a)
    rows = np.array([0, 3, 9])
    a[3] = -0.0
    assert repr(store.gather(rows).tolist()) == "[0.0, -0.0, 9.0]"
    assert store.nbytes == a.nbytes and store.n_rows == 10

    fork = store.fork()
    store.update(3, 7.0)
    assert store.copied and not fork.copied
    assert a[3] == 0.0 and repr(fork.get(3)) == "-0.0" and store.get(3) == 7.0
    fork.update(0, 5.0)
    assert a[0] == 0.0 and store.get(0) == 0.0 and fork.get(0) == 5.0
    assert store.append(1.5) == 10 and fork.n_rows == 10
