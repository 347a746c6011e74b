"""Unit tests for the per-cube rollup index (repro.perf.rollup_index)."""

from __future__ import annotations

import math
import os
import random
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.perf.leaf_store as leaf_store_module
import repro.perf.rollup_index as rollup_index_module
from repro.core.operators import ChangeTuple
from repro.core.perspective import Mode, Semantics
from repro.core.scenario import NegativeScenario, PositiveScenario, apply_scenarios
from repro.errors import MemberNotFoundError, RuleError
from repro.olap.aggregation import AGGREGATORS, aggregate
from repro.olap.cube import Cube
from repro.olap.missing import MISSING, is_missing
from repro.perf.batch import GridLayout, evaluate_grid
from repro.perf.config import naive_mode
from repro.perf.rollup_index import RollupIndex
from repro.workload.running_example import build_running_example

#: draws of the block-reduction law: a few in tier-1, the wide run in the
#: CI ``faults`` job (``REPRO_FAULTS=ci-matrix``)
BLOCK_EXAMPLES = 300 if "ci-matrix" in os.environ.get("REPRO_FAULTS", "") else 30


def _all_addresses(schema):
    """Every addressable cell of a (small) schema, leaf and derived."""
    addresses = [()]
    for coords in _schema_coords(schema):
        addresses = [a + (c,) for a in addresses for c in coords]
    return addresses


def _schema_coords(schema):
    """Per dimension, every coordinate of the schema (varying dimensions:
    their non-leaf members and instance paths)."""
    per_dim = []
    for i, dimension in enumerate(schema.dimensions):
        coords = [
            m.name for m in dimension.root.descendants(include_self=True)
        ]
        if schema.is_varying(dimension.name):
            varying = schema.varying_dimension(dimension.name)
            leaf_paths = [
                instance.full_path
                for member in dimension.root.leaves()
                for instance in varying.instances_of(member.name)
            ]
            coords = [
                c for c in coords if not schema.coordinate_is_leaf(i, c)
            ] + leaf_paths
        per_dim.append(coords)
    return per_dim


def _naive_rollup(cube, addr, aggregator):
    with naive_mode():
        return cube.rollup(addr, aggregator)


def _naive_sums(cube, addresses):
    """The reference for the block reduction: ``repr`` of each address's
    sum on the full scan, never the block reduction itself."""
    with naive_mode():
        return [repr(cube.rollup(addr)) for addr in addresses]


class TestAgreementWithNaive:
    def test_every_address_every_aggregator(self, example):
        """Under ``naive_mode()`` ``Cube.rollup(addr, agg)`` *is*
        ``aggregate(agg, scope_values(addr))``, so the naive scope of an
        address is scanned once and every aggregator folded over it."""
        cube = example.cube
        for addr in _all_addresses(cube.schema):
            with naive_mode():
                scope = list(cube.scope_values(addr))
            for aggregator in AGGREGATORS:
                indexed = cube.rollup(addr, aggregator)
                naive = aggregate(aggregator, scope)
                assert indexed == naive or (
                    is_missing(indexed) and is_missing(naive)
                ), (addr, aggregator)

    def test_sum_is_bit_identical(self, example):
        """Same leaf visit order => same float summation order."""
        cube = example.cube
        for addr in _all_addresses(cube.schema):
            indexed = cube.rollup(addr)
            naive = _naive_rollup(cube, addr, "sum")
            if is_missing(indexed):
                assert is_missing(naive)
            else:
                assert indexed == naive
                assert repr(indexed) == repr(naive)

    def test_scope_cells_match_naive_order(self, example):
        cube = example.cube
        for addr in _all_addresses(cube.schema):
            indexed = list(cube.scope_cells(addr))
            with naive_mode():
                naive = list(cube.scope_cells(addr))
            assert indexed == naive


class _Axis(NamedTuple):
    """An axis position as ``evaluate_grid`` reads one."""

    coordinates: tuple


def _grid_cell(cube, addr, split):
    """The cell at ``addr`` through the grid, its dimensions split at
    ``split`` between one row and one column."""
    pairs = tuple(zip((d.name for d in cube.schema.dimensions), addr))
    layout = GridLayout(cube.schema, dict(pairs), [_Axis(pairs[:split])], [_Axis(pairs[split:])])
    cells, _, _ = evaluate_grid(cube, layout, None, None)
    return cells[0][0]


class TestPointRollupParity:
    """One cell read three ways — ``Cube.rollup``, the grid and the naive
    scan — is one value, bit for bit, before and after inserts and deletes."""

    def _assert_three_reads_agree(self, cube):
        schema = cube.schema
        # every 37th of the ~22,600 derived addresses: every coordinate of
        # every dimension still recurs, and a state takes under a second
        derived = [a for a in _all_addresses(schema) if not schema.is_leaf_address(a)][::37]
        # a fresh index per split: each grid read reduces, none is a memo hit
        grids = [cube.adopt(RollupIndex.build(cube), {}) for _ in range(schema.n_dims + 1)]
        for addr in derived:
            engine = repr(cube.rollup(addr))
            with naive_mode():
                naive = repr(cube.rollup(addr))
            assert engine == naive, addr
            for split, grid in enumerate(grids):
                assert repr(_grid_cell(grid, addr, split)) == engine, (addr, split)

    def test_before_and_after_inserts_and_deletes(self, example):
        cube = example.cube
        self._assert_three_reads_agree(cube)
        victim, _ = next(iter(cube.leaf_cells()))
        cube.set_value(("Organization/FTE/Lisa", "MA", "Feb", "Benefits"), 0.1)
        cube.set_value(victim, MISSING)
        self._assert_three_reads_agree(cube)
        cube.set_value(victim, -0.0)
        self._assert_three_reads_agree(cube)

    @pytest.mark.parametrize("dim_name", ["Location", "Time", "Measures"])
    def test_an_unknown_member_raises_on_every_read(self, example, dim_name):
        cube = example.cube
        roots = {d.name: d.root.name for d in cube.schema.dimensions}
        bad = cube.schema.address(**{**roots, dim_name: "Nowhere"})
        with pytest.raises(MemberNotFoundError):
            cube.rollup(bad)
        with naive_mode(), pytest.raises(MemberNotFoundError):
            cube.rollup(bad)
        for split in range(cube.schema.n_dims + 1):
            with pytest.raises(MemberNotFoundError):
                _grid_cell(cube, bad, split)


def _block_parity(cube, seed: int = 0, grids: int = 60, also=()) -> "tuple[int, int]":
    """Generated grids read through :meth:`RollupIndex.leaf_block` equal
    the per-address point read at every row x column, by ``repr``; the
    misses it reports are exactly its ``None`` cells.  Rows and columns
    mostly come from stored leaves and the addresses ``also`` names, the
    rest from every coordinate the tables or the schema know and one
    nobody does.  Returns the numbers of hits and misses seen."""
    schema = cube.schema
    index = cube.rollup_index()
    tables = index._struct.tables
    stored = [addr for addr, _ in cube.leaf_cells()] + list(also)
    per_dim = []
    for i, dimension in enumerate(schema.dimensions):
        coords = {*tables[i].coords, "Nowhere"}
        if not schema.is_varying(dimension.name):
            coords.update(m.name for m in dimension.root.leaves())
        per_dim.append(sorted(coords))
    rng = random.Random(seed)

    def coord(dim: int) -> str:
        if stored and rng.random() < 0.7:
            return rng.choice(stored)[dim]
        return rng.choice(per_dim[dim])

    read = index.leaf_reader()
    hits = misses = 0
    for _ in range(grids):
        dims = sorted(rng.sample(range(schema.n_dims), rng.randint(0, schema.n_dims)))
        rows = [
            list(rng.choice(stored)) if stored and rng.random() < 0.5
            else [coord(dim) for dim in range(schema.n_dims)]
            for _ in range(rng.randint(1, 5))
        ]
        columns = [tuple(coord(dim) for dim in dims) for _ in range(rng.randint(1, 5))]
        values, missed = index.leaf_block(rows, dims, columns)
        assert len(values) == len(rows)
        for r, row in enumerate(rows):
            expected = []
            for column in columns:
                addr = list(row)
                for dim, value in zip(dims, column):
                    addr[dim] = value
                expected.append(read(tuple(addr)))
            assert repr(values[r]) == repr(expected), (row, dims, columns)
            assert list(missed.get(r, ())) == [
                c for c, value in enumerate(expected) if value is None
            ]
            hits += sum(value is not None for value in expected)
            misses += sum(value is None for value in expected)
    return hits, misses


class TestBlockReadParity:
    """The grid's block read and the one point read agree on every state
    a generation's lookup can be in, for ``int64`` and ``object`` keys."""

    @pytest.fixture(params=["int64", "object"])
    def keys(self, request, monkeypatch):
        if request.param == "object":
            # no radix product fits: Python-int keys in an object array
            monkeypatch.setattr(leaf_store_module, "_KEY_LIMIT", 0)
        return request.param

    @staticmethod
    def _assert_keys(cube, keys):
        dtype = cube.rollup_index()._struct.sorted_part.keys.dtype
        assert dtype == (object if keys == "object" else np.int64)

    def test_loaded(self, example, keys):
        cube = example.cube.adopt(RollupIndex.build(example.cube), {})
        self._assert_keys(cube, keys)
        hits, misses = _block_parity(cube)
        assert hits and misses

    def test_every_leaf_in_recent_and_none_sorted(self, tiny_schema, keys):
        cube = Cube(tiny_schema)
        for i, month in enumerate(("Jan", "Feb", "Mar", "Apr", "May")):
            cube.set_value((month, "Sales"), float(i))
        cube.set_value(("Jun", "COGS"), 7.0)
        struct = cube.rollup_index()._struct
        assert len(struct.sorted_part.keys) == 0 and len(struct.recent) == 6
        self._assert_keys(cube, keys)
        hits, misses = _block_parity(cube)
        assert hits and misses

    def test_inserts_deletes_and_reinserts_since_the_sort(self, example, keys):
        cube = example.cube.adopt(RollupIndex.build(example.cube), {})
        stored = [addr for addr, _ in cube.leaf_cells()]
        # a coordinate coded after the sort, and one known since
        cube.set_value(("Organization/FTE/Lisa", "CA", "Feb", "Benefits"), 0.5)
        cube.set_value(("Organization/FTE/Lisa", "MA", "Feb", "Benefits"), 1.5)
        cube.set_value(stored[0], MISSING)  # a delete
        cube.set_value(stored[1], MISSING)
        cube.set_value(stored[1], 2.5)  # re-inserted at a new id
        struct = cube.rollup_index()._struct
        assert struct.recent and struct.n_live != struct.n_ids
        location = struct.tables[1]
        assert location.code_of["CA"] >= struct.sorted_part.radices[1]
        self._assert_keys(cube, keys)
        # the deleted leaf: its sorted row is dead
        values, missed = cube.rollup_index().leaf_block([list(stored[0])], [], [()])
        assert values == [[None]] and missed == {0: [0]}
        hits, misses = _block_parity(cube, seed=1, also=stored[:2])
        assert hits and misses

    def test_nan_and_negative_zero_read_back_bit_for_bit(self, example, keys):
        cube = example.cube.adopt(RollupIndex.build(example.cube), {})
        stored = [addr for addr, _ in cube.leaf_cells()]
        cube.set_value(stored[2], float("nan"))
        cube.set_value(stored[3], -0.0)
        cube.set_value(("Organization/FTE/Lisa", "CA", "Mar", "Salary"), float("nan"))
        cube.set_value(("Organization/FTE/Lisa", "CA", "Apr", "Salary"), -0.0)
        self._assert_keys(cube, keys)
        values, _ = cube.rollup_index().leaf_block(
            [list(stored[2]), list(stored[3])], [], [()]
        )
        assert repr(values) == "[[nan], [-0.0]]"
        _block_parity(cube, seed=2)


class TestIncrementalMaintenance:
    def _assert_consistent(self, cube):
        rebuilt = RollupIndex.build(cube)
        live = cube.rollup_index()
        for addr in _all_addresses(cube.schema):
            assert live.scope_ids(addr) == rebuilt.scope_ids(addr), addr

    def test_add_then_remove_leaf(self, example):
        cube = example.cube
        cube.rollup_index()  # build before mutating
        addr = cube.schema.address(
            Organization="Organization/FTE/Lisa",
            Location="MA",
            Time="Feb",
            Measures="Benefits",
        )
        cube.set_value(addr, 123.0)
        self._assert_consistent(cube)
        cube.set_value(addr, MISSING)
        self._assert_consistent(cube)

    def test_revalue_in_place_updates_rollups(self, example):
        cube = example.cube
        addr, old = next(iter(cube.leaf_cells()))
        parent = tuple(
            cube.schema.dimensions[i].root.name for i in range(cube.schema.n_dims)
        )
        before = cube.rollup(parent)
        cube.set_value(addr, old + 5.0)
        after = cube.rollup(parent)
        assert after == _naive_rollup(cube, parent, "sum")
        assert after != before

    def test_delete_missing_cell_is_noop(self, example):
        cube = example.cube
        version = cube.version
        cube.set_value(
            cube.schema.address(
                Organization="Organization/FTE/Lisa",
                Location="MA",
                Time="Feb",
                Measures="Benefits",
            ),
            MISSING,
        )
        assert cube.version == version

    def test_copy_is_isolated(self, example):
        cube = example.cube
        clone = cube.copy()
        addr, old = next(iter(clone.leaf_cells()))
        clone.set_value(addr, old + 100.0)
        parent = tuple(
            d.root.name for d in cube.schema.dimensions
        )
        assert cube.rollup(parent) == _naive_rollup(cube, parent, "sum")
        assert clone.rollup(parent) == _naive_rollup(clone, parent, "sum")
        assert clone.rollup(parent) != cube.rollup(parent)


class TestContracts:
    def test_unknown_member_raises_like_naive(self, example):
        cube = example.cube
        bad = cube.schema.address(
            Organization="FTE", Location="Nowhere", Time="Jan",
            Measures="Salary",
        )
        with pytest.raises(MemberNotFoundError):
            cube.rollup(bad)
        with naive_mode(), pytest.raises(MemberNotFoundError):
            cube.rollup(bad)

    def test_an_unknown_aggregator_raises_on_both_paths(self, example):
        """``median`` over TX, a scope that holds no leaf, raises
        ``RuleError`` with the engine as under ``naive_mode()``, and the
        index neither memoises nor counts it."""
        cube = example.cube
        index = cube.rollup_index()
        addr = ("Organization", "TX", "Time", "Measures")
        assert is_missing(cube.rollup(addr))  # the scope is empty
        memo, misses = dict(index._memo), index.stats.misses
        with pytest.raises(RuleError):
            cube.rollup(addr, "median")
        with naive_mode(), pytest.raises(RuleError):
            cube.rollup(addr, "median")
        assert index._memo == memo
        assert index.stats.misses == misses

    def test_empty_cube_rollup_is_missing(self, tiny_schema):
        cube = Cube(tiny_schema)
        root = tuple(d.root.name for d in tiny_schema.dimensions)
        assert is_missing(cube.rollup(root))

    def test_memo_counts_hits(self, example):
        cube = example.cube
        index = cube.rollup_index()
        root = tuple(d.root.name for d in cube.schema.dimensions)
        index.rollup(root)
        misses = index.stats.misses
        hits = index.stats.hits
        index.rollup(root)
        assert index.stats.hits == hits + 1
        assert index.stats.misses == misses

    def test_mutation_flushes_memo(self, example):
        cube = example.cube
        root = tuple(d.root.name for d in cube.schema.dimensions)
        before = cube.rollup(root)
        addr, old = next(iter(cube.leaf_cells()))
        cube.set_value(addr, old + 1.0)
        assert cube.rollup(root) == float(before) + 1.0


class TestPlaneScopes:
    """A grid's misses are one block reduction (``rollup_block``): every
    cell of it is the sum of the address's own scope on the naive scan."""

    def test_grid_reduction_matches_rollup(self, example):
        cube = example.cube
        addresses = _all_addresses(cube.schema)[::7]
        block = RollupIndex.build(cube).rollup_block(addresses)
        assert [repr(v) for v in block] == _naive_sums(cube, addresses)

    def test_the_block_memoises_and_counts_like_rollup(self, example):
        """A memo hit and a repeat within the block are hits, each other
        distinct address one miss; a later ``rollup`` of a block cell is a
        hit."""
        index = RollupIndex.build(example.cube)
        addresses = _all_addresses(example.cube.schema)[:40]
        index.rollup(addresses[3])
        hits, misses = index.stats.hits, index.stats.misses
        index.rollup_block(addresses + addresses[:5])
        assert index.stats.misses - misses == len(addresses) - 1
        assert index.stats.hits - hits == 1 + 5
        index.rollup(addresses[10])
        assert index.stats.misses - misses == len(addresses) - 1

    @pytest.mark.parametrize("shape", ["cross product", "diagonal"])
    def test_a_block_of_every_level_at_once(self, example, shape):
        """Every address of the running example, or a diagonal whose cell
        ``i`` names the ``i``-th coordinate of every dimension (each list
        cycled), in one block — every dimension at every level; on the
        diagonal the product of the radices far exceeds ids + cells, so
        the buckets are renumbered among the cells' own — to the naive
        sums."""
        cube = example.cube
        per_dim = _schema_coords(cube.schema)
        if shape == "cross product":
            addresses = _all_addresses(cube.schema)
        else:
            addresses = [
                tuple(coords[i % len(coords)] for coords in per_dim)
                for i in range(max(map(len, per_dim)))
            ]
        block = RollupIndex.build(cube).rollup_block(addresses)
        assert [repr(v) for v in block] == _naive_sums(cube, addresses)

    def test_a_grid_of_one_dimension_at_three_levels(self, example):
        """Rows Time's root, quarters and months; columns Location's root,
        regions — South holds no leaf — and states: the empty coordinate
        reads ⊥ and no level leaks into another."""
        cube = example.cube
        schema = cube.schema
        times = [m.name for m in schema.dimensions[2].root.descendants(include_self=True)]
        places = [m.name for m in schema.dimensions[1].root.descendants(include_self=True)]
        addresses = [
            ("Organization", place, time, "Salary") for time in times for place in places
        ]
        block = RollupIndex.build(cube).rollup_block(addresses)
        assert [repr(v) for v in block] == _naive_sums(cube, addresses)
        south = addresses.index(("Organization", "South", "Time", "Salary"))
        assert is_missing(block[south])


class TestBlockSumsOverASharedMap:
    """A block reduced on a generation, then on a derived generation that
    shares and extends its roll-up map."""

    def _addresses(self, orgs):
        times = ["Time", "Jan", "Apr"]
        return [(org, "Location", time, "Salary") for org in orgs for time in times]

    def test_a_derived_generation_that_extends_the_map_reads_right(self, example):
        """A block naming ``FTE, PTE, Contractor`` is reduced on the base
        cube; S moves Lisa to PTE, so the derived generation's map gains
        ``Organization/PTE/Lisa``, which rolls up into PTE.  The same
        block on the derived cube — and one naming the new coordinate —
        reads the naive sums."""
        cube = example.cube
        org = cube.schema.dim_index("Organization")
        levels = ["Organization", "FTE", "PTE", "Contractor"]
        cube.rollup_index().rollup_block(self._addresses(levels))
        table = cube.rollup_index()._struct.tables[org]

        derived = PositiveScenario(
            "Organization", [ChangeTuple("Lisa", "FTE", "PTE", "Apr")]
        ).apply(cube).leaf_cube
        grown = derived.rollup_index()._struct.tables[org]
        (new,) = grown.coords[len(table.coords) :]
        assert new == "Organization/PTE/Lisa"
        for orgs in (levels, levels + [new], [new, "PTE", "Organization/PTE/Tom"]):
            addresses = self._addresses(orgs)
            block = derived.rollup_index().rollup_block(addresses)
            assert [repr(v) for v in block] == _naive_sums(derived, addresses)
        pte_apr = ("PTE", "Location", "Apr", "Salary")
        assert block[3 + 2] == _naive_rollup(derived, pte_apr, "sum") != cube.rollup(pte_apr)

    def test_an_unknown_member_raises_every_time(self, example):
        cube = example.cube
        addresses = [("Organization", loc, "Time", "Salary") for loc in ("Location", "NY", "Nowhere")]
        for _ in range(2):
            with pytest.raises(MemberNotFoundError):
                RollupIndex.build(cube).rollup_block(addresses)
        index = cube.rollup_index()
        for _ in range(2):
            with pytest.raises(MemberNotFoundError):
                index.rollup_block(addresses)


def _coord_pool(schema, index):
    """Per dimension, every coordinate of the schema and of ``index``'s
    tables (a derived generation's appended instance paths)."""
    return [
        sorted({*coords, *table.coords})
        for coords, table in zip(_schema_coords(schema), index._struct.tables)
    ]


#: ⊥ (a delete), NaN, signed zeros, and values whose sum depends on the
#: order they are added in (0.1 + 0.2 + 0.3, 1e16 + 1.0 - 1e16)
_LEAF_VALUES = st.one_of(
    st.none(),
    st.sampled_from([math.nan, 0.0, -0.0, 0.1, 0.2, 0.3, 1.0, 1e16, -1e16]),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@settings(max_examples=BLOCK_EXAMPLES, deadline=None)
@given(
    values=st.lists(_LEAF_VALUES, min_size=38, max_size=38),
    derive=st.booleans(),
    data=st.data(),
)
def test_the_block_reduction_is_each_address_rollup(values, derive, data):
    """``rollup_block(addresses)`` is the naive sum of every address, by
    ``repr``: NaN and ±0 leaves, sums that depend on the
    order of their terms, deleted ids, a derived generation with an
    appended instance coordinate (S moves Lisa to PTE), a grid whose rows
    and columns are at mixed levels of one or two dimensions, coordinates
    holding no leaf (South, TX, a deleted leaf's), repeats, and a memo
    some cells were read into first."""
    example = build_running_example()
    cube = example.cube
    leaves = [addr for addr, _ in cube.leaf_cells()]
    assert len(leaves) == len(values)
    for addr, value in zip(leaves, values):  # after the load: deletes leave dead ids
        cube.set_value(addr, MISSING if value is None else value)
    if derive:
        cube = PositiveScenario(
            "Organization", [ChangeTuple("Lisa", "FTE", "PTE", "Apr")]
        ).apply(cube).leaf_cube
    index = cube.rollup_index()
    pool = _coord_pool(cube.schema, index)
    n_dims = len(pool)
    # the root half the time, so that most scopes hold many leaves
    roots = [d.root.name for d in cube.schema.dimensions]
    base = [
        data.draw(st.one_of(st.just(root), st.sampled_from(coords)))
        for root, coords in zip(roots, pool)
    ]
    row_dim = data.draw(st.integers(0, n_dims - 1))
    col_dim = data.draw(st.integers(0, n_dims - 1))
    rows = data.draw(st.lists(st.sampled_from(pool[row_dim]), min_size=1, max_size=5))
    cols = data.draw(st.lists(st.sampled_from(pool[col_dim]), min_size=1, max_size=5))
    addresses = []
    for row in rows:
        for col in cols:
            addr = list(base)
            addr[row_dim] = row
            addr[col_dim] = col
            addresses.append(tuple(addr))
    warm = data.draw(st.lists(st.sampled_from(addresses), max_size=4))
    for addr in warm:
        index.rollup(addr)
    expected = _naive_sums(cube, addresses)
    misses = index.stats.misses
    assert [repr(value) for value in index.rollup_block(addresses)] == expected
    assert index.stats.misses - misses == len(set(addresses) - set(warm))
    # the block's cells are memoised: a second block is all hits
    assert [repr(value) for value in index.rollup_block(addresses)] == expected
    assert index.stats.misses - misses == len(set(addresses) - set(warm))


def _derived_grid(cube, orgs):
    """Organization coordinates × Time's root and quarters, at Location's
    root and Salary: every cell derived, in one column group."""
    return GridLayout(
        cube.schema,
        {"Organization": "Organization", "Location": "Location", "Time": "Time",
         "Measures": "Salary"},
        [_Axis((("Organization", org),)) for org in orgs],
        [_Axis((("Time", time),)) for time in ("Time", "Qtr1", "Qtr2")],
    )


def _naive_grid(cube, layout):
    with naive_mode():
        return repr(
            [
                [cube.effective_value(layout.address(r, c)) for c in range(layout.n_cols)]
                for r in range(len(layout.row_addrs))
            ]
        )


class TestRowMemo:
    """A whole row's derived cells are one row-memo probe once the row has
    been filled; the row memo is flushed with the cell memo, and bounded
    on its own."""

    ORGS = ("Organization", "FTE", "PTE")

    def test_a_warm_row_is_one_probe_with_the_same_cells_and_counts(self, example):
        cube = example.cube
        index = cube.rollup_index()
        layout = _derived_grid(cube, self.ORGS)
        cold = evaluate_grid(cube, layout, None, None)
        assert len(index._rows) == len(self.ORGS)
        assert len(index._memo) == index._row_count == len(self.ORGS) * layout.n_cols
        hits = index.stats.hits
        index.memo_table().clear()  # only the row memo can answer now
        warm = evaluate_grid(cube, layout, None, None)
        assert repr(warm) == repr(cold)
        assert repr(warm[0]) == _naive_grid(cube, layout)
        assert index.stats.hits - hits == len(self.ORGS) * layout.n_cols

    def test_a_write_a_cap_flush_and_a_fork_drop_the_rows(self, example, monkeypatch):
        cube = example.cube
        index = cube.rollup_index()
        layout = _derived_grid(cube, self.ORGS)
        evaluate_grid(cube, layout, None, None)
        snapshot = cube.frozen_copy()
        assert snapshot.rollup_index()._rows == {}
        assert len(snapshot.rollup_index()._memo) == len(self.ORGS) * layout.n_cols
        cube.set_value(("Organization/FTE/Lisa", "NY", "Feb", "Salary"), 99.0)
        assert index._rows == {} and len(index._memo) == 0
        assert repr(evaluate_grid(cube, layout, None, None)[0]) == _naive_grid(cube, layout)
        assert repr(evaluate_grid(snapshot, layout, None, None)[0]) == _naive_grid(
            snapshot, layout
        )
        # a cap flush of the cell memo clears the rows too
        monkeypatch.setattr(rollup_index_module, "_MEMO_CAP", len(index._memo))
        evictions = index.stats.evictions
        other = _derived_grid(cube, ("Contractor",))
        assert repr(evaluate_grid(cube, other, None, None)[0]) == _naive_grid(cube, other)
        assert index.stats.evictions > evictions
        assert set(index._rows) <= {(other.row_addrs[0], other.groups[0].every)}

    def test_a_grid_above_half_the_cap_stays_warm(self, example, monkeypatch):
        """Rows never count toward the cell memo's cap: a grid whose cells
        and rows together pass it, each alone not, is all hits from its
        second fill on, and nothing is evicted."""
        cube = example.cube
        index = cube.rollup_index()
        layout = _derived_grid(cube, self.ORGS)
        cells = len(self.ORGS) * layout.n_cols
        for name in ("_MEMO_CAP", "_ROW_CAP"):
            monkeypatch.setattr(rollup_index_module, name, cells + cells // 2)
        cold = repr(evaluate_grid(cube, layout, None, None)[0])
        misses, evictions = index.stats.misses, index.stats.evictions
        for _ in range(2):
            assert repr(evaluate_grid(cube, layout, None, None)[0]) == cold
        assert (index.stats.misses, index.stats.evictions) == (misses, evictions)
        assert len(index._rows) == len(self.ORGS)
        assert len(index._memo) == index._row_count == cells
        assert cold == _naive_grid(cube, layout)

    def test_a_full_row_memo_empties_itself_not_the_cell_memo(self, example, monkeypatch):
        cube = example.cube
        index = cube.rollup_index()
        layout = _derived_grid(cube, self.ORGS)
        cells = len(self.ORGS) * layout.n_cols
        monkeypatch.setattr(rollup_index_module, "_ROW_CAP", cells)
        evaluate_grid(cube, layout, None, None)
        other = _derived_grid(cube, ("Contractor",))
        evaluate_grid(cube, other, None, None)
        assert set(index._rows) == {(other.row_addrs[0], other.groups[0].every)}
        assert len(index._memo) == cells + other.n_cols
        misses = index.stats.misses
        assert repr(evaluate_grid(cube, layout, None, None)[0]) == _naive_grid(cube, layout)
        assert index.stats.misses == misses, "answered by the cell memo"
        assert len(index._rows) == len(self.ORGS) and index._row_count == cells
        # a grid whose rows pass the bound on their own stores what fits
        monkeypatch.setattr(rollup_index_module, "_ROW_CAP", cells - 1)
        cube.set_value(("Organization/FTE/Lisa", "NY", "Feb", "Salary"), 99.0)
        assert repr(evaluate_grid(cube, layout, None, None)[0]) == _naive_grid(cube, layout)
        assert len(index._rows) == len(self.ORGS) - 1

    def test_a_row_swept_before_a_racing_write_is_not_stored(self, example, monkeypatch):
        """Rows swept from the cell memo, then a write flushes it before
        the grid's one block reduction: the grid read is the lock-free
        one, but none of its rows is stored, so the next fill is the
        written cube's."""
        cube = example.cube
        index = cube.rollup_index()
        evaluate_grid(cube, _derived_grid(cube, self.ORGS[:2]), None, None)
        layout = _derived_grid(cube, self.ORGS)  # its third row misses
        reduce_block = index.rollup_block

        def write_then_reduce(addresses):
            cube.set_value(("Organization/FTE/Lisa", "NY", "Feb", "Salary"), 99.0)
            return reduce_block(addresses)

        monkeypatch.setattr(index, "rollup_block", write_then_reduce)
        evaluate_grid(cube, layout, None, None)
        monkeypatch.undo()
        assert index._rows == {}
        assert repr(evaluate_grid(cube, layout, None, None)[0]) == _naive_grid(cube, layout)


class TestHeldLeafReader:
    """``Cube.value`` reads through the index's held reader, which the
    index takes again when its generation or value store is replaced."""

    def test_writes_inserts_and_deletes_read_back(self, example):
        cube = example.cube
        index = cube.rollup_index()
        (addr, old), (other, _) = list(cube.leaf_cells())[:2]
        new_leaf = ("Organization/FTE/Lisa", "MA", "Feb", "Benefits")
        assert cube.value(addr) == old and is_missing(cube.value(new_leaf))
        reader = index.leaf_reader()
        assert index.leaf_reader() is reader, "held, not taken per read"

        cube.set_value(addr, -0.0)  # in place: same generation and store
        assert repr(cube.value(addr)) == "-0.0"
        assert index.leaf_reader() is reader

        snapshot = cube.frozen_copy()  # shares the generation from now on
        cube.set_value(new_leaf, 7.0)  # an insert: the live side copies
        assert cube.value(new_leaf) == 7.0
        assert index.leaf_reader() is not reader
        assert is_missing(snapshot.value(new_leaf))

        cube.set_value(other, MISSING)  # a delete
        assert is_missing(cube.value(other))
        assert repr(snapshot.value(addr)) == "-0.0"

    def test_a_renumbering_replaces_the_reader(self, example):
        cube = example.cube
        index = cube.rollup_index()
        cells = list(cube.leaf_cells())
        kept = cells[-1]
        assert cube.value(kept[0]) == kept[1]
        struct, store = index._struct, index._values
        for addr, _ in cells[:-1]:
            cube.set_value(addr, MISSING)
        cube.set_value(cells[0][0], 3.5)  # dead ids outnumber live ones: renumbered
        assert index._struct is not struct and index._values is not store
        assert cube.value(kept[0]) == kept[1]
        assert cube.value(cells[0][0]) == 3.5
        assert all(is_missing(cube.value(addr)) for addr, _ in cells[1:-1])


def _assert_agrees_with_rebuild(cube, index):
    """``index`` serves the same ids, in insertion order, and the same
    strict rollups as a from-scratch build over ``cube`` (itself held to
    the naive scan by ``TestAgreementWithNaive``), at every address."""
    rebuilt = RollupIndex.build(cube)
    assert index.columns(()).addresses == [addr for addr, _ in cube.leaf_cells()]
    dense = index.n_leaves == index._struct.n_ids  # no deleted ids
    for addr in _all_addresses(cube.schema):
        ids = index.scope_ids(addr)
        assert ids == sorted(ids)
        if dense:
            assert ids == rebuilt.scope_ids(addr), addr
        else:
            assert index.scope_cells(addr) == rebuilt.scope_cells(addr)
        served = index.rollup(addr)
        assert repr(served) == repr(rebuilt.rollup(addr)), addr


class TestDerivedAndForkedIndexes:
    """An index is built, forked or derived; all three must agree."""

    def _indexed(self, example):
        cube = example.cube
        return cube.adopt(
            RollupIndex.build(cube), dict(cube.stored_derived_cells())
        )

    @pytest.mark.parametrize("semantics", list(Semantics))
    def test_derived_by_relocate(self, example, semantics):
        cube = self._indexed(example)
        applied = NegativeScenario(
            "Organization", ["Feb", "Apr"], semantics, Mode.VISUAL
        ).apply(cube)
        out = applied.leaf_cube
        assert out.has_rollup_index, "ρ derives the output's index"
        assert out.rollup_index().stats.builds == 0
        _assert_agrees_with_rebuild(out, out.rollup_index())

    def test_derived_by_split_then_relocate(self, example):
        cube = self._indexed(example)
        chain = [
            PositiveScenario(
                "Organization", [ChangeTuple("Lisa", "FTE", "PTE", "Apr")]
            ),
            NegativeScenario("Organization", ["Mar"], Semantics.FORWARD),
        ]
        first = chain[0].apply(cube)
        _assert_agrees_with_rebuild(first.leaf_cube, first.leaf_cube.rollup_index())
        out = apply_scenarios(cube, chain).leaf_cube
        _assert_agrees_with_rebuild(out, out.rollup_index())

    def test_derived_index_is_maintained_like_a_built_one(self, example):
        cube = self._indexed(example)
        out = NegativeScenario(
            "Organization", ["Feb"], Semantics.FORWARD
        ).apply(cube).leaf_cube
        victim, value = next(iter(out.leaf_cells()))
        out.set_value(victim, value + 1.0)
        out.set_value(victim, MISSING)
        out.set_value(
            ("Organization/FTE/Lisa", "MA", "Feb", "Benefits"), 7.0
        )
        _assert_agrees_with_rebuild(out, out.rollup_index())

    def test_forked_then_mutated(self, example):
        cube = self._indexed(example)
        live = cube.rollup_index()
        snap = cube.frozen_copy()
        assert snap.rollup_index()._struct is live._struct, "structure is shared"
        cells = list(cube.leaf_cells())
        cube.set_value(cells[0][0], cells[0][1] + 1.0)  # in place: still shared
        assert snap.rollup_index()._struct is live._struct
        cube.set_value(cells[1][0], MISSING)  # structural: the live side copies
        assert snap.rollup_index()._struct is not live._struct
        cube.set_value(
            ("Organization/FTE/Lisa", "MA", "Feb", "Benefits"), 7.0
        )
        _assert_agrees_with_rebuild(cube, live)
        _assert_agrees_with_rebuild(snap, snap.rollup_index())
        # a fork of the diverged live index shares again
        again = cube.frozen_copy()
        assert again.rollup_index()._struct is live._struct
        _assert_agrees_with_rebuild(again, again.rollup_index())


class TestStreamingAggregators:
    def test_agg_count_single_pass(self):
        values = iter([1.0, MISSING, 2.0, MISSING, 3.0])
        assert aggregate("count", values) == 3.0

    def test_all_missing(self):
        # count distinguishes "no cells seen" (⊥) from "cells seen, none
        # present" (0.0); the value aggregators are ⊥ either way.
        assert aggregate("count", iter([MISSING, MISSING])) == 0.0
        for name in ("sum", "avg", "min", "max"):
            assert is_missing(aggregate(name, iter([MISSING, MISSING])))

    def test_empty_is_missing(self):
        for name in AGGREGATORS:
            assert is_missing(aggregate(name, iter([])))


class TestMaskCacheBound:
    def test_sigma_with_a_value_predicate_keeps_the_masks_bounded(self):
        """σ scopes every candidate coordinate once; the generation keeps
        at most ``_MASK_CAP`` of their masks, however many it scoped."""
        from repro.core.operators import select
        from repro.core.predicates import value_predicate
        from repro.workload.workforce import WorkforceConfig, build_workforce

        cube = build_workforce(
            WorkforceConfig(
                n_employees=120, n_departments=4, n_changing=12, max_moves=2, n_accounts=2
            )
        ).warehouse.cube
        dept = cube.schema.dim_index("Department")
        struct = cube.rollup_index()._struct
        candidates = len(struct.tables[dept].coords)
        assert candidates > 2 * rollup_index_module._MASK_CAP
        kept = select(
            cube,
            "Department",
            value_predicate({"Account": "Acct000", "Period": "Jan"}, ">", 50.0),
        )
        assert 0 < kept.n_leaf_cells < cube.n_leaf_cells
        assert 0 < len(struct.masks) + len(struct.carried) <= rollup_index_module._MASK_CAP
        # the bound changes no answer
        with naive_mode():
            naive = select(
                cube,
                "Department",
                value_predicate({"Account": "Acct000", "Period": "Jan"}, ">", 50.0),
            )
        assert dict(kept.leaf_cells()) == dict(naive.leaf_cells())
