"""A scenario view is its code columns.

The output of ρ, S, σ (and the shard's slice, and renumbering) is a
*derived* structure generation: arrays only, like every generation.
Addresses are read off the columns, all of them only when somebody asks
for all; "two rows on one address" is one sort of the rows' mixed-radix
keys; and that sorted key array is the view's point lookup, with every
resolved address remembered.  None of this may be visible: every way of
reading a cell of a view answers what a plain dict of the per-cell
reference operators' output answers, and a view that is written to
behaves like any other cube.

The CI chaos job runs this module under ``REPRO_LOCKDEP=1`` as well, so
the threaded test's lock order is witnessed.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# the parity suite's generators and its per-cell oracle live beside it
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
import reference_operators as reference  # noqa: E402
from test_operator_parity import (  # noqa: E402
    MEASURES,
    _oracle_operators,
    worlds_with_changes,
)

import repro.perf.leaf_store as leaf_store_module  # noqa: E402
from repro.core.operators import ChangeTuple, split  # noqa: E402
from repro.core.perspective import Mode, Semantics  # noqa: E402
from repro.core.scenario import (  # noqa: E402
    NegativeScenario,
    PositiveScenario,
    apply_scenarios,
)
from repro.obs.trace import TRACER, tracing  # noqa: E402
from repro.olap.cube import Cube  # noqa: E402
from repro.olap.missing import MISSING  # noqa: E402
from repro.perf.config import naive_mode  # noqa: E402
from repro.warehouse import Warehouse  # noqa: E402
from repro.workload.running_example import build_running_example  # noqa: E402
from repro.workload.workforce import WorkforceConfig, build_workforce  # noqa: E402


def _struct(cube: Cube):
    return cube.rollup_index()._struct


def _is_columns_only(cube: Cube) -> bool:
    """Nothing inserted since the sort, nothing resolved: a fresh
    generation holds no per-leaf Python object."""
    struct = _struct(cube)
    return not struct.recent and not struct.sorted_part.resolved


def _filled_per_cell(schema, cells) -> Cube:
    model = Cube(schema)
    for addr, value in cells:
        model.set_value(addr, value)
    return model


def _probes(world, expected: Cube) -> "list[tuple[str, ...]]":
    """Every leaf address of the expected output, every other slot the
    structure could address, coordinates no table of the view has seen,
    and two derived addresses."""
    paths = [f"Org/{g}/{e}" for g in world.groups for e in world.employees + ["ghost"]]
    slots = [(p, m, measure) for p in paths for m in world.months for measure in MEASURES]
    derived = [(world.groups[0], world.months[0], "A"), ("Org", "Q0", "B")]
    return [addr for addr, _ in expected.leaf_cells()] + slots + derived


def _assert_reads_agree(out: Cube, expected: Cube, probes) -> None:
    """A ``leaf_reader``, ``Cube.value`` and ``effective_value`` against
    plain dicts of the expected cube — every probe twice, so the second
    read comes from the resolved cache."""
    leaves = dict(expected.leaf_cells())
    stored = dict(expected.stored_derived_cells())
    schema = out.schema
    read = out.rollup_index().leaf_reader()
    for addr in probes + probes:
        want = leaves.get(addr)
        assert read(addr) == want, addr
        stored_want = stored.get(addr, MISSING) if want is None else want
        assert out.value(addr) is stored_want or out.value(addr) == stored_want, addr
        if schema.is_leaf_address(addr):
            got = out.effective_value(addr)
            assert (got is MISSING) if want is None else (got == want), addr
    assert out.n_leaf_cells == len(leaves)


def _outputs(world, changes, negative, kept):
    """(label, engine output, per-cell reference output) for ρ, S, S→ρ, σ."""
    with _oracle_operators():
        expected = negative.apply(world.cube).leaf_cube
    yield "ρ", negative.apply(world.cube).leaf_cube, expected
    if changes:
        yield (
            "S",
            split(world.cube, "Org", changes)[0],
            reference.split(world.cube, "Org", changes)[0],
        )
        chain = [PositiveScenario("Org", changes), negative]
        with _oracle_operators():
            expected = apply_scenarios(world.cube, chain).leaf_cube
        yield "S→ρ", apply_scenarios(world.cube, chain).leaf_cube, expected

    def keep(coord: str) -> bool:
        return coord.rsplit("/", 1)[-1] in kept

    model = _filled_per_cell(
        world.schema, [c for c in world.cube.leaf_cells() if keep(c[0][0])]
    )
    for addr, value in world.cube.stored_derived_cells():
        if keep(addr[0]):
            model.set_value(addr, value)
    yield "σ", world.cube.filter_dimension("Org", keep), model


@st.composite
def _scenario_inputs(draw):
    world, changes = draw(worlds_with_changes())
    perspectives = draw(
        st.lists(st.sampled_from(world.months), min_size=1, max_size=4, unique=True)
    )
    semantics = draw(st.sampled_from(list(Semantics)))
    negative = NegativeScenario("Org", perspectives, semantics, Mode.VISUAL)
    kept = draw(st.sets(st.sampled_from(world.employees + world.groups)))
    return world, changes, negative, kept


class TestPointReads:
    @settings(max_examples=15, deadline=None)
    @given(inputs=_scenario_inputs())
    def test_every_read_path_agrees_with_the_reference(self, inputs):
        world, changes, negative, kept = inputs
        for label, out, expected in _outputs(world, changes, negative, kept):
            assert _is_columns_only(out), label
            probes = _probes(world, expected)
            _assert_reads_agree(out, expected, probes)
            struct = _struct(out)
            assert not struct.recent, label
            assert set(struct.sorted_part.resolved) <= set(probes), label

    def test_four_threads_reading_one_fresh_view(self, monkeypatch):
        """Concurrent first reads of a view fill its resolved cache from
        four sides at once; lock order witnessed."""
        monkeypatch.setenv("REPRO_LOCKDEP", "1")  # read when a lock is made
        example = build_running_example()
        negative = NegativeScenario(
            "Organization", ["Feb", "Apr"], Semantics.FORWARD, Mode.VISUAL
        )
        with _oracle_operators():
            expected = dict(negative.apply(example.cube).leaf_cube.leaf_cells())
        out = negative.apply(example.cube).leaf_cube
        assert _is_columns_only(out)
        probes = [addr for addr, _ in example.cube.leaf_cells()] + list(expected)
        probes.append(("Organization/FTE/Nobody", "NY", "Jan", "Salary"))
        want = [expected.get(addr) for addr in probes]
        errors: list[BaseException] = []
        start = threading.Barrier(4)

        def reader(turn: int) -> None:
            try:
                start.wait(timeout=30)
                order = probes[turn:] + probes[:turn]
                read = out.rollup_index().leaf_reader()
                for addr in order:
                    value = expected.get(addr)
                    assert read(addr) == value
                    assert out.value(addr) == (MISSING if value is None else value)
                    assert out.effective_value(addr) == (
                        MISSING if value is None else value
                    )
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i * 7,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        read = out.rollup_index().leaf_reader()
        assert [read(addr) for addr in probes] == want
        struct = _struct(out)
        assert not struct.recent
        assert set(struct.sorted_part.resolved) == set(probes)


WITH = "WITH PERSPECTIVE {(Feb)} FOR Organization DYNAMIC FORWARD VISUAL "
TAIL = " FROM Warehouse WHERE ([NY], [Salary])"
DERIVED_GRID = WITH + "SELECT {Time.[Jan], Time.[Feb]} ON COLUMNS, {[FTE], [PTE]} ON ROWS" + TAIL
EMPLOYEE_GRID = WITH + "SELECT {Time.[Jan], Time.[Feb]} ON COLUMNS, {[Joe], [Lisa]} ON ROWS" + TAIL


class TestLaziness:
    """Exact counts, not timings: what a query makes a fresh view build."""

    def _traced_query(self, warehouse, text):
        with tracing():
            result = warehouse.query(text)
            root = TRACER.take_last()
        return result, [span.name for span in root.iter_spans()], root

    def test_a_cold_query_builds_no_address_and_no_dict(self, example, monkeypatch):
        warehouse = Warehouse(example.schema, example.cube, name="Warehouse")
        _, names, root = self._traced_query(warehouse, DERIVED_GRID)
        assert "rollup_index.derive" in names
        assert root.find("rollup_index.derive").attrs["distinct"] is True
        assert "rollup_index.materialize" not in names
        assert "rollup_index.build" not in names
        key = (
            NegativeScenario(
                "Organization", ["Feb"], Semantics.FORWARD, Mode.VISUAL
            ).fingerprint(),
        )
        view = warehouse.scenario_cache.get(key, example.cube.version)[1]
        # derived cells only: nothing resolved
        assert _is_columns_only(view.leaf_cube)

        # the leaf grid is one block read: no address list is built from
        # the columns, and no address is remembered, hit or miss
        built = []
        addresses = leaf_store_module._Structure.addresses
        monkeypatch.setattr(
            leaf_store_module._Structure,
            "addresses",
            lambda struct, ids: built.append(len(ids)) or addresses(struct, ids),
        )
        result, names, _ = self._traced_query(warehouse, EMPLOYEE_GRID)
        monkeypatch.undo()
        assert "rollup_index.materialize" not in names
        assert built == []
        assert _is_columns_only(view.leaf_cube)
        # and it answers what the per-cell point read answers, hits and
        # misses alike
        read = view.leaf_cube.rollup_index().leaf_reader()
        asked = [
            [
                example.schema.address(
                    **dict(row.coordinates + column.coordinates),
                    Location="NY",
                    Measures="Salary",
                )
                for column in result.columns
            ]
            for row in result.rows
        ]
        assert len({addr for line in asked for addr in line}) == 4
        expected = [
            [MISSING if read(addr) is None else read(addr) for addr in line]
            for line in asked
        ]
        assert repr(result.cells) == repr(expected)
        assert any(read(addr) is None for line in asked for addr in line)
        assert any(read(addr) is not None for line in asked for addr in line)

    def test_asking_for_everything_is_one_visible_materialisation(self, example):
        negative = NegativeScenario("Organization", ["Feb"], Semantics.FORWARD)
        out = negative.apply(example.cube).leaf_cube
        root = tuple(d.root.name for d in example.schema.dimensions)
        # a scope names its own rows and caches nothing
        assert len(out.rollup_index().scope_cells(root)) == out.n_leaf_cells
        assert _is_columns_only(out)
        with tracing():
            with TRACER.start("test") as span:
                addresses = [addr for addr, _ in out.leaf_cells()]
                again = [addr for addr, _ in out.leaf_cells()]
        # each ask is one full read, and none of them is kept
        spans = [s for s in span.iter_spans() if s.name == "rollup_index.materialize"]
        assert [s.attrs for s in spans] == [
            {"leaves": out.n_leaf_cells, "what": "addresses"}
        ] * 2
        assert addresses == again == [a for a, _ in out.rollup_index().scope_cells(root)]
        assert _is_columns_only(out)


def _cells(index) -> "list[tuple[tuple[str, ...], float]]":
    """An index's leaf cells in id order, off one full column read."""
    cols = index.columns(())
    return list(zip(cols.addresses, cols.values.tolist()))


def _three_months(tiny_schema, values=(1.0, 2.0, 3.0)):
    cube = Cube(tiny_schema)
    cube.load(
        ((month, "Sales"), value) for month, value in zip(("Jan", "Feb", "Mar"), values)
    )
    cols = cube.leaf_columns(0)
    assert cols.coords[0] == ["Jan", "Feb", "Mar"]
    return cube, cols


class TestClashIsASort:
    """Two output rows on one address, decided on the columns."""

    def _derive(self, tiny_schema, out_codes, coords, values=(1.0, 2.0, 3.0)):
        _, cols = _three_months(tiny_schema, values)
        with tracing():
            with TRACER.start("test") as span:
                index = cols.derive(
                    tiny_schema,
                    np.arange(3),
                    {0: (np.array(out_codes, dtype=np.int32), coords)},
                )
        return index, span.find("rollup_index.derive").attrs["distinct"]

    def test_a_moved_row_lands_on_an_unmoved_one(self, tiny_schema):
        index, distinct = self._derive(tiny_schema, [1, 1, 2], ["Jan", "Feb", "Mar"])
        assert distinct is False and index.stats.builds == 1
        # later value wins at the earlier position, as a dict write would
        assert _cells(index) == [(("Feb", "Sales"), 2.0), (("Mar", "Sales"), 3.0)]

    def test_two_moved_rows_land_on_each_other(self, tiny_schema):
        index, distinct = self._derive(
            tiny_schema, [3, 2, 3], ["Jan", "Feb", "Mar", "Apr"]
        )
        assert distinct is False and index.stats.builds == 1
        assert _cells(index) == [(("Apr", "Sales"), 3.0), (("Mar", "Sales"), 2.0)]

    def test_repeated_values_are_not_a_clash(self, tiny_schema):
        index, distinct = self._derive(
            tiny_schema, [3, 1, 0], ["Jan", "Feb", "Mar", "Apr"], values=(5.0, 5.0, 5.0)
        )
        assert distinct is True and index.stats.builds == 0
        assert not index._struct.recent and not index._struct.sorted_part.resolved
        assert _cells(index) == [
            (("Apr", "Sales"), 5.0),
            (("Feb", "Sales"), 5.0),
            (("Jan", "Sales"), 5.0),
        ]

    @pytest.mark.parametrize(
        ("out_codes", "cells"),
        [
            ([1, 1, 2], [(("Feb", "Sales"), 2.0), (("Mar", "Sales"), 3.0)]),
            ([0, 1, 2], [(("Jan", "Sales"), 1.0), (("Feb", "Sales"), 2.0), (("Mar", "Sales"), 3.0)]),
        ],
    )
    def test_a_key_too_wide_for_int64_falls_back_to_the_dict(
        self, tiny_schema, monkeypatch, out_codes, cells
    ):
        """3 x 1 coordinates need a key below 3; with the limit lowered
        under that, the keys are Python ints, which decide the clash and
        serve the reads through the same sort and search."""
        monkeypatch.setattr(leaf_store_module, "_KEY_LIMIT", 2)
        index, distinct = self._derive(tiny_schema, out_codes, ["Jan", "Feb", "Mar"])
        assert distinct is (len(cells) == 3)
        assert _cells(index) == cells
        part = index._struct.sorted_part
        assert part.keys.dtype == object and not index._struct.recent
        for addr in [("Jan", "Sales"), ("Feb", "Sales"), ("Mar", "Sales")]:
            assert index.leaf_reader()(addr) == dict(cells).get(addr)
        assert {a: i for a, i in part.resolved.items() if i is not None} == {
            addr: i for i, (addr, _) in enumerate(cells)
        }


class TestRadixOverflow:
    @settings(max_examples=10, deadline=None)
    @given(inputs=_scenario_inputs())
    def test_views_without_keys_read_the_same(self, inputs):
        world, changes, negative, kept = inputs
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(leaf_store_module, "_KEY_LIMIT", 1)
            outputs = list(_outputs(world, changes, negative, kept))
        for label, out, expected in outputs:
            if out.n_leaf_cells:
                assert _struct(out).sorted_part.keys.dtype == object, label
            assert list(out.leaf_cells()) == list(expected.leaf_cells()), label
            _assert_reads_agree(out, expected, _probes(world, expected))


class TestWriteAfterDerive:
    @settings(max_examples=15, deadline=None)
    @given(inputs=_scenario_inputs(), data=st.data())
    def test_a_copy_of_a_never_read_view_takes_writes(self, inputs, data):
        """``copy()`` forks the view's generation; the first structural
        write replaces it with a private copy of its arrays, and the view
        itself takes none of the writes."""
        world, changes, negative, kept = inputs
        for label, out, expected in _outputs(world, changes, negative, kept):
            scratch = out.copy()
            model = _filled_per_cell(world.schema, expected.cells())
            present = [addr for addr, _ in expected.leaf_cells()]
            absent = [
                addr
                for addr in _probes(world, expected)
                if world.schema.is_leaf_address(addr) and addr not in set(present)
            ]
            writes = []
            if present:
                writes.append((data.draw(st.sampled_from(present)), 123.25))  # re-value
                writes.append((data.draw(st.sampled_from(present)), MISSING))  # delete
            writes.append((data.draw(st.sampled_from(absent)), -7.5))  # insert
            if present:
                writes.append((present[0], 1.5))  # maybe a re-insert at the end
            for addr, value in writes:
                scratch.set_value(addr, value)
                model.set_value(addr, value)
            assert list(scratch.leaf_cells()) == list(model.leaf_cells()), label
            root = tuple(d.root.name for d in world.schema.dimensions)
            with naive_mode():
                naive = model.rollup(root)
            assert repr(scratch.rollup(root)) == repr(naive), label
            probes = _probes(world, expected)
            _assert_reads_agree(scratch, model, probes)
            # the view never saw any of it, and built nothing for it (the
            # copy resolves through the sorted part the two share)
            struct = _struct(out)
            assert not struct.recent, label
            assert set(struct.sorted_part.resolved) <= set(probes), label
            assert list(out.leaf_cells()) == list(expected.leaf_cells()), label

    def test_a_value_write_on_a_view_touches_no_structure(self, example):
        out = NegativeScenario(
            "Organization", ["Feb"], Semantics.FORWARD
        ).apply(example.cube).leaf_cube
        before = _struct(out)
        victim, value = out.rollup_index().scope_cells(
            tuple(d.root.name for d in example.schema.dimensions)
        )[3]
        n_live = before.n_live
        out.set_value(victim, value + 1.0)
        assert _struct(out) is before and before.n_live == n_live
        assert not before.recent
        assert out.value(victim) == value + 1.0
        out.set_value(victim, MISSING)  # structural: the view's own generation
        assert _struct(out) is before and before.n_live == n_live - 1
        assert out.value(victim) is MISSING
        assert not before.recent


def test_positive_change_on_the_running_example_is_columns_only(example):
    """The end-to-end shape the ledger's ``cold_whatif`` runs: S then ρ,
    neither builds a per-leaf object."""
    chain = [
        PositiveScenario("Organization", [ChangeTuple("Lisa", "FTE", "PTE", "Apr")]),
        NegativeScenario("Organization", ["Mar"], Semantics.FORWARD),
    ]
    first = chain[0].apply(example.cube).leaf_cube
    out = apply_scenarios(example.cube, chain).leaf_cube
    assert _is_columns_only(first) and _is_columns_only(out)
    assert _is_columns_only(example.cube)  # born from addresses, kept as columns


def test_no_generation_builds_a_per_leaf_object():
    """Point reads, a snapshot, inserts and deletes on a loaded cube, and
    an insert into a σ view of it: no step builds a whole address list or
    an address → id map (each would open ``rollup_index.materialize``)."""
    cube = build_workforce(
        WorkforceConfig(
            n_employees=40, n_departments=4, n_changing=6, max_moves=3, n_accounts=3
        )
    ).warehouse.cube
    leaves = dict(cube.leaf_cells())  # an export, before the trace starts
    months = sorted({addr[1] for addr in leaves})

    def absent(keep) -> tuple[str, ...]:
        return next(
            moved
            for addr in leaves
            if keep(addr[0])
            for moved in (addr[:1] + (month,) + addr[2:] for month in months)
            if moved not in leaves
        )

    addr, value = next(iter(leaves.items()))
    new = absent(lambda path: True)
    def in_view(path: str) -> bool:
        return "/Dept001/" in path

    with tracing():
        with TRACER.start("test") as span:
            assert cube.value(addr) == value
            assert cube.rollup_index().leaf_reader()(addr) == value
            snap = cube.frozen_copy()
            cube.set_value(new, 1.5)  # insert
            cube.set_value(addr, MISSING)  # delete
            cube.set_value(addr, value + 1.0)  # re-insert
            view = cube.filter_dimension("Department", in_view)
            view.set_value(absent(in_view), 2.5)
    assert "rollup_index.materialize" not in [s.name for s in span.iter_spans()]
    assert cube.value(new) == 1.5 and cube.value(addr) == value + 1.0
    assert snap.value(addr) == value and snap.value(new) is MISSING
    assert view.n_leaf_cells == 1 + sum(map(in_view, (a[0] for a in leaves)))
