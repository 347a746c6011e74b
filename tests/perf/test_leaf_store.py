"""The leaf store's contract, checked against a ``dict``.

A cube's leaf store (:mod:`repro.perf.leaf_store`, served by
:class:`~repro.perf.rollup_index.RollupIndex`) is an insertion-ordered
map from leaf address to value, and nothing more is visible: an
overwrite keeps the leaf's place, a delete drops it, a re-insert goes to
the end, a fork shares nothing a write can see, and a derived store is
the map its rows build, two rows on one address keeping the later value
at the earlier place.  A Python ``dict`` does exactly that, so every
member of a family of stores — the first one, its forks, frozen or
writable, and stores derived from any of them — is driven alongside a
``dict`` model and, after every step, read every way the store can be
read: the point read (``leaf_reader``), two block reads (``leaf_block``),
one full read (``columns(())``: addresses and values in id order),
``n_leaves`` and ``coords_with_data``.  Values are compared by ``repr``,
so NaN and the sign of zero count.

The steps are inserts, overwrites, deletes, re-inserts, churn that
deletes most leaves so the next insert renumbers, ``derive`` with rows
dropped, reordered and moved onto each other, and forks with writes on
either side.  A store that replaces or wraps this one must pass the
machine unmodified.  Tier-1 draws a few runs; the CI ``faults`` job
(``REPRO_FAULTS=ci-matrix``) draws the wide run.
"""

from __future__ import annotations

import os

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.olap.cube import Cube
from repro.olap.dimension import Dimension
from repro.olap.missing import MISSING
from repro.olap.schema import CubeSchema
from repro.perf.rollup_index import RollupIndex

FULL_MATRIX = "ci-matrix" in os.environ.get("REPRO_FAULTS", "")

MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun")
GEOS = ("NY", "MA")
MEASURES = ("Sales", "COGS")
LEAVES = [(m, g, s) for m in MONTHS for g in GEOS for s in MEASURES]
#: a coordinate no dimension has: every read of it is a miss
NOWHERE = "Nowhere"
#: stores in one family at most: forks and derivations stop there
FAMILY_CAP = 5


def _schema() -> CubeSchema:
    time_dim = Dimension("Time", ordered=True)
    time_dim.add_member("H1")
    time_dim.add_children("H1", MONTHS[:3])
    time_dim.add_member("H2")
    time_dim.add_children("H2", MONTHS[3:])
    geo = Dimension("Geo")
    geo.add_children(None, list(GEOS))
    measures = Dimension("Measures", is_measures=True)
    measures.add_children(None, list(MEASURES))
    return CubeSchema([time_dim, geo, measures])


SCHEMA = _schema()

#: NaN, signed zeros and plain floats; mostly distinct, so a store that
#: keeps the wrong one of two clashing rows reads differently
values = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), 1e16]),
    st.integers(-(2**40), 2**40).map(float),
    st.floats(-1e6, 1e6, allow_nan=False),
)
slots = st.integers(0, len(LEAVES) - 1)


class _Member:
    """One store of the family and the ``dict`` it must read as."""

    def __init__(self, index: RollupIndex, model: dict, frozen: bool = False) -> None:
        self.index = index
        self.model = model
        self.frozen = frozen


def _check(member: _Member) -> None:
    index, model = member.index, member.model
    want = list(model.items())
    cols = index.columns(())
    assert repr(list(zip(cols.addresses, cols.values.tolist()))) == repr(want)
    assert index.n_leaves == len(model)
    read = index.leaf_reader()
    for addr in [*LEAVES, (NOWHERE, GEOS[0], MEASURES[0])]:
        assert repr(read(addr)) == repr(model.get(addr))
    for dim in range(SCHEMA.n_dims):
        assert set(index.coords_with_data(dim)) == {addr[dim] for addr in model}
    # every address as rows x measures, and again as rows x months, with a
    # row and a column nobody holds
    _check_block(index, model, [(m, g, None) for m in (*MONTHS, NOWHERE) for g in GEOS],
                 [2], [(s,) for s in (*MEASURES, NOWHERE)])
    _check_block(index, model, [(None, g, s) for g in (*GEOS, NOWHERE) for s in MEASURES],
                 [0], [(m,) for m in (*MONTHS, NOWHERE)])


def _check_block(index, model, rows, dims, columns) -> None:
    cells, misses = index.leaf_block(rows, dims, columns)
    expected_misses: dict[int, list[int]] = {}
    for r, row in enumerate(rows):
        for c, column in enumerate(columns):
            addr = list(row)
            for dim, coord in zip(dims, column):
                addr[dim] = coord
            want = model.get(tuple(addr))
            assert repr(cells[r][c]) == repr(want)
            if want is None:
                expected_misses.setdefault(r, []).append(c)
    assert misses == expected_misses


class LeafStoreMachine(RuleBasedStateMachine):
    """A family of stores, each beside its ``dict`` model."""

    @initialize(
        how=st.sampled_from(["writes", "from_cells", "load"]),
        stream=st.lists(
            st.tuples(slots, st.one_of(st.none(), values)), max_size=len(LEAVES)
        ),
    )
    def build(self, how, stream):
        model: dict = {}
        for slot, value in stream:
            if value is None:
                model.pop(LEAVES[slot], None)
            else:
                model[LEAVES[slot]] = value
        if how == "writes":
            index = RollupIndex(SCHEMA)
            for slot, value in stream:
                if value is None:
                    index.remove_leaf(LEAVES[slot])
                else:
                    index.set_leaf(LEAVES[slot], value)
        elif how == "from_cells":
            index = RollupIndex.from_cells(SCHEMA, dict(model))
        else:
            cube = Cube(SCHEMA)
            cube.load(
                (LEAVES[slot], MISSING if value is None else value)
                for slot, value in stream
            )
            index = cube.rollup_index()
        self.family = [_Member(index, model)]

    def _writable(self, pick: int) -> _Member:
        writable = [member for member in self.family if not member.frozen]
        return writable[pick % len(writable)]

    @rule(pick=st.integers(0, FAMILY_CAP), slot=slots, value=values)
    def write(self, pick, slot, value):
        """An overwrite in place, or an insert at the end."""
        member, addr = self._writable(pick), LEAVES[slot]
        inserted = addr not in member.model
        assert member.index.set_leaf(addr, value) is inserted
        member.model[addr] = value

    @rule(pick=st.integers(0, FAMILY_CAP), slot=slots)
    def delete(self, pick, slot):
        member, addr = self._writable(pick), LEAVES[slot]
        present = addr in member.model
        assert member.index.remove_leaf(addr) is present
        member.model.pop(addr, None)

    @rule(pick=st.integers(0, FAMILY_CAP), slot=slots, value=values)
    def reinsert(self, pick, slot, value):
        """A deleted leaf comes back at the end of the order."""
        member, addr = self._writable(pick), LEAVES[slot]
        member.index.remove_leaf(addr)
        member.model.pop(addr, None)
        assert member.index.set_leaf(addr, value) is True
        member.model[addr] = value

    @rule(
        pick=st.integers(0, FAMILY_CAP),
        keep=st.integers(0, 2),
        slots_in=st.lists(slots, min_size=1, max_size=3),
        value=values,
    )
    def churn(self, pick, keep, slots_in, value):
        """Delete all but ``keep`` leaves, so dead ids outnumber live ones
        and the next insert renumbers, then insert a few."""
        member = self._writable(pick)
        for addr in list(member.model)[keep:]:
            assert member.index.remove_leaf(addr) is True
            del member.model[addr]
        for slot in slots_in:
            member.index.set_leaf(LEAVES[slot], value)
            member.model[LEAVES[slot]] = value

    @precondition(lambda self: len(self.family) < FAMILY_CAP)
    @rule(pick=st.integers(0, FAMILY_CAP), frozen=st.booleans())
    def fork(self, pick, frozen):
        """A copy-on-write clone; writes on either side stay there."""
        member = self.family[pick % len(self.family)]
        clone = member.index.fork(frozen=frozen)
        self.family.append(_Member(clone, dict(member.model), frozen))

    @precondition(lambda self: len(self.family) < FAMILY_CAP)
    @rule(pick=st.integers(0, FAMILY_CAP), data=st.data())
    def derive(self, pick, data):
        """The store of an operator's output: some rows, in any order,
        with Time recoded — onto a month another row holds, too."""
        member = self.family[pick % len(self.family)]
        cols = member.index.columns((0,))
        n = len(cols.values)
        rows = data.draw(
            st.lists(st.integers(0, n - 1), unique=True, max_size=n) if n else st.just([])
        )
        coords = cols.coords[0] + [m for m in MONTHS if m not in cols.coords[0]]
        codes = cols.codes[0][rows] if rows else np.empty(0, dtype=np.int32)
        # one target month for every moved row: moved rows that share
        # Geo and Measures clash, and so may a moved and an unmoved one
        target = coords.index(data.draw(st.sampled_from(coords)))
        move = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        out = np.array(
            [target if go else int(c) for go, c in zip(move, codes.tolist())], dtype=np.int32
        )
        index = cols.derive(SCHEMA, np.array(rows, dtype=np.int64), {0: (out, coords)})
        addresses = cols.addresses_at(np.array(rows, dtype=np.int64))
        model: dict = {}
        for addr, code, value in zip(addresses, out.tolist(), cols.values[rows].tolist()):
            model[(coords[code], *addr[1:])] = value
        self.family.append(_Member(index, model))

    @invariant()
    def reads_as_its_model(self):
        for member in getattr(self, "family", ()):
            _check(member)


LeafStoreMachine.TestCase.settings = settings(
    max_examples=150 if FULL_MATRIX else 12,
    stateful_step_count=40 if FULL_MATRIX else 15,
    deadline=None,
)
TestLeafStoreMachine = LeafStoreMachine.TestCase


def test_a_clash_is_replayed_from_the_code_columns():
    """Two derived rows on one address: the output's code columns are
    replayed as a stream of writes — one ``rollup_index.build``, the later
    value at the earlier place — and no address is built for it."""
    from repro.obs.trace import TRACER, tracing

    cube = Cube(SCHEMA)
    cube.load([(("Jan", "NY", "Sales"), 1.0), (("Feb", "NY", "Sales"), 2.0)])
    cols = cube.leaf_columns(0)
    with tracing():
        with TRACER.start("test") as span:
            index = cols.derive(
                SCHEMA, np.arange(2), {0: (np.zeros(2, dtype=np.int32), cols.coords[0])}
            )
    names = [s.name for s in span.iter_spans()]
    assert "rollup_index.build" in names and "rollup_index.materialize" not in names
    _check(_Member(index, {("Jan", "NY", "Sales"): 2.0}))


def test_a_stored_aggregate_in_a_load_costs_no_second_sort(monkeypatch):
    """A load whose stream holds a root aggregate beside its leaves sorts
    the leaves once: cutting the aggregate's coordinates out of the coded
    lists renumbers each in order, so the first sort's order stands."""
    from repro.perf import leaf_store

    sorts = []
    init = leaf_store._SortedPart.__init__

    def counting(self, *args):
        sorts.append(args)
        init(self, *args)

    cells = [(leaf, float(k)) for k, leaf in enumerate(LEAVES[::3])]
    cube = Cube(SCHEMA)
    monkeypatch.setattr(leaf_store._SortedPart, "__init__", counting)
    cube.load([*cells[:2], (("Time", "Geo", "Measures"), 99.0), *cells[2:]])
    assert len(sorts) == 1
    assert list(cube.stored_derived_cells()) == [(("Time", "Geo", "Measures"), 99.0)]
    _check(_Member(cube.rollup_index(), dict(cells)))
