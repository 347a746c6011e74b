"""Law-style parity: the columnar ρ / S against the per-cell oracle.

``repro.core.operators.relocate`` / ``split`` are array programs over
coordinate-code columns; ``reference_operators`` keeps the per-cell loops
they replaced.  For generated hierarchies, move plans, ⊥ months, sparse
members and every way the operators are reached (bare, through
``NegativeScenario`` / ``PositiveScenario``, chained, with caller-built
validity sets) the two must agree on

* ``list(out.leaf_cells())`` — same cells, same values, **same order**
  (the order strict rollups sum in),
* the stored derived cells, ``validity_out`` and ``varying_out``,
* the error raised on malformed input, message included,

both with the engine on (columns read from the rollup index, output index
derived) and under ``naive_mode()`` (columns scanned off the dict, no
index anywhere).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from unittest import mock

import pytest
import reference_operators as reference
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.scenario as scenario_module
from repro.core.operators import ChangeTuple, relocate, split
from repro.core.perspective import Mode, Semantics
from repro.core.scenario import NegativeScenario, PositiveScenario, apply_scenarios
from repro.errors import InvalidChangeError, QueryError
from repro.olap.cube import Cube
from repro.olap.dimension import Dimension
from repro.olap.instances import VaryingDimension
from repro.olap.schema import CubeSchema
from repro.perf.config import naive_mode
from repro.validity import ValiditySet

MEASURES = ("A", "B")


@dataclass
class World:
    schema: CubeSchema
    varying: VaryingDimension
    cube: Cube
    months: list[str]
    groups: list[str]
    employees: list[str]


@st.composite
def worlds(draw, min_months: int = 3) -> World:
    """A generated hierarchy (groups / employees), a move plan with ⊥
    months, and a sparse cube filled in a drawn order."""
    n_months = draw(st.integers(min_value=min_months, max_value=12))
    months = [f"M{i:02d}" for i in range(n_months)]
    groups = [f"G{i}" for i in range(draw(st.integers(2, 4)))]
    employees = [f"e{i}" for i in range(draw(st.integers(2, 6)))]

    org = Dimension("Org")
    org.add_children(None, groups)
    for employee in employees:
        org.add_member(employee, draw(st.sampled_from(groups)))
    time = Dimension("Time", ordered=True)
    for start in range(0, n_months, 3):
        quarter = time.add_member(f"Q{start // 3}")
        time.add_children(quarter, months[start : start + 3])
    measures = Dimension("Measures", is_measures=True)
    measures.add_children(None, MEASURES)
    schema = CubeSchema([org, time, measures])
    varying = schema.make_varying("Org", "Time")

    moment = st.integers(0, n_months - 1)
    for employee in employees:
        for at, group in draw(
            st.lists(st.tuples(moment, st.sampled_from(groups)), max_size=3)
        ):
            varying.reparent(employee, group, at)
        gone = draw(st.sets(moment, max_size=2))
        if gone:
            varying.set_invalid(employee, gone)

    slots = [
        (varying.instance_at(employee, t).full_path, months[t], measure)
        for employee in employees
        for t in range(n_months)
        if varying.instance_at(employee, t) is not None
        for measure in MEASURES
    ]
    cube = Cube(schema)
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    for slot in draw(st.permutations(slots)):
        if draw(st.integers(0, 3)):  # sparse: a quarter of the slots stay ⊥
            cube.set_value(slot, draw(values))
    for group in draw(st.sets(st.sampled_from(groups), max_size=2)):
        cube.set_value((group, months[0], "A"), 99.0)  # a stored derived cell
    return World(schema, varying, cube, months, groups, employees)


def _same_cube(out: Cube, expected: Cube) -> None:
    assert list(out.leaf_cells()) == list(expected.leaf_cells())
    assert list(out.stored_derived_cells()) == list(expected.stored_derived_cells())


def _index_follows_insertion_order(out: Cube) -> None:
    """Ascending leaf id == insertion order, in a derived index too."""
    index = out.rollup_index()
    cells = list(out.leaf_cells())
    assert index.columns(()).addresses == [addr for addr, _ in cells]
    for addr, value in cells[:5]:
        assert out.rollup(addr) == value


@contextmanager
def _oracle_operators():
    """Run the scenario layer over the per-cell reference operators."""
    with mock.patch.object(scenario_module, "relocate", reference.relocate):
        with mock.patch.object(scenario_module, "split", reference.split):
            yield


def _engines():
    """(label, context) for the two ways columns are read."""
    return [("engine", nullcontext), ("naive", naive_mode)]


def _a_change(draw, world: World, taken: "set[str]") -> "ChangeTuple | None":
    employee = draw(st.sampled_from(world.employees))
    if employee in taken:
        return None
    t = draw(st.integers(0, len(world.months) - 1))
    old = world.varying.parent_at(employee, t)
    if old is None:
        return None
    new = draw(st.sampled_from([g for g in world.groups if g != old]))
    taken.add(employee)
    return ChangeTuple(employee, old, new, world.months[t])


@st.composite
def worlds_with_changes(draw):
    world = draw(worlds())
    taken: set[str] = set()
    changes = [c for c in (_a_change(draw, world, taken) for _ in range(3)) if c]
    return world, changes


class TestNegativeScenarios:
    @settings(max_examples=60, deadline=None)
    @given(
        world=worlds(),
        semantics=st.sampled_from(list(Semantics)),
        mode=st.sampled_from(list(Mode)),
        data=st.data(),
    )
    def test_all_semantics_and_perspective_counts(self, world, semantics, mode, data):
        perspectives = data.draw(
            st.lists(
                st.sampled_from(world.months),
                min_size=1,
                max_size=len(world.months),
                unique=True,
            )
        )
        scenario = NegativeScenario("Org", perspectives, semantics, mode)
        with _oracle_operators():
            expected = scenario.apply(world.cube)
        for label, engine in _engines():
            with engine():
                got = scenario.apply(world.cube)
                _same_cube(got.leaf_cube, expected.leaf_cube)
                assert got.validity_out == expected.validity_out, label
                assert (got.aggregate_cube is world.cube) == (mode is Mode.NON_VISUAL)
                if label == "engine":
                    _index_follows_insertion_order(got.leaf_cube)
                else:
                    # the scan trusts no derived code column: columns rebuilt
                    assert got.leaf_cube.rollup_index().stats.builds == 1


class TestPositiveScenarios:
    @settings(max_examples=60, deadline=None)
    @given(pair=worlds_with_changes(), mode=st.sampled_from(list(Mode)))
    def test_change_relations(self, pair, mode):
        world, changes = pair
        if not changes:
            return
        scenario = PositiveScenario("Org", changes, mode)
        with _oracle_operators():
            expected = scenario.apply(world.cube)
        for label, engine in _engines():
            with engine():
                got = scenario.apply(world.cube)
                _same_cube(got.leaf_cube, expected.leaf_cube)
                assert got.validity_out == expected.validity_out, label
                assert (
                    got.varying_out.assignments()
                    == expected.varying_out.assignments()
                )
                if label == "engine":
                    _index_follows_insertion_order(got.leaf_cube)

    @settings(max_examples=40, deadline=None)
    @given(
        pair=worlds_with_changes(),
        semantics=st.sampled_from(list(Semantics)),
        data=st.data(),
    )
    def test_chained_positive_then_negative(self, pair, semantics, data):
        world, changes = pair
        if not changes:
            return
        perspectives = data.draw(
            st.lists(st.sampled_from(world.months), min_size=1, max_size=4, unique=True)
        )
        chain = [
            PositiveScenario("Org", changes),
            NegativeScenario("Org", perspectives, semantics, Mode.VISUAL),
        ]
        with _oracle_operators():
            expected = apply_scenarios(world.cube, chain)
        for label, engine in _engines():
            with engine():
                got = apply_scenarios(world.cube, chain)
                _same_cube(got.leaf_cube, expected.leaf_cube)
                assert got.validity_out == expected.validity_out, label
                if label == "engine":
                    _index_follows_insertion_order(got.leaf_cube)


class TestCallerSuppliedValidity:
    @settings(max_examples=60, deadline=None)
    @given(world=worlds(), data=st.data())
    def test_overlapping_instances_and_unknown_paths(self, world, data):
        """``validity_out`` built by hand: instances of one member may
        overlap on a moment (the cell is then emitted once per instance),
        name paths the structure never had, or members without data."""
        n = len(world.months)
        paths = sorted(
            {
                f"Org/{group}/{employee}"
                for group in world.groups
                for employee in world.employees + ["ghost"]
            }
        )
        chosen = data.draw(st.lists(st.sampled_from(paths), unique=True, max_size=8))
        validity_out = {
            path: ValiditySet(data.draw(st.sets(st.integers(0, n - 1))), n)
            for path in chosen
        }
        expected = reference.relocate(world.cube, "Org", validity_out)
        for label, engine in _engines():
            with engine():
                got = relocate(world.cube, "Org", validity_out)
                _same_cube(got, expected)
                if label == "engine":
                    _index_follows_insertion_order(got)


def _raised(call) -> "tuple[type, str]":
    with pytest.raises((QueryError, InvalidChangeError)) as caught:
        call()
    return type(caught.value), str(caught.value)


class TestMalformedInputs:
    @settings(max_examples=60, deadline=None)
    @given(world=worlds(min_months=4), data=st.data())
    def test_same_query_error_on_the_same_cell(self, world, data):
        """Two instances of one member with data at one moment, and a
        parameter coordinate the (hypothetical) structure does not know:
        whichever offending cell comes first in input order decides the
        error, exactly as in the cell-by-cell scan."""
        cells = list(world.cube.leaf_cells())
        if not cells:
            return
        # a structure over a shorter year: the last month is "not a leaf"
        short_time = Dimension("Time", ordered=True)
        short_time.add_children(None, world.months[:-1])
        short = VaryingDimension(world.schema.dimension("Org"), short_time)
        use_short = data.draw(st.booleans())
        # a second instance of some member at a moment it already has data
        addr, value = data.draw(st.sampled_from(cells))
        group, employee = addr[0].split("/")[1:]
        other = next(g for g in world.groups if g != group)
        if data.draw(st.booleans()):
            world.cube.set_value((f"Org/{other}/{employee}",) + addr[1:], value)
        elif not use_short or all(a[1] != world.months[-1] for a, _ in cells):
            return  # nothing malformed drawn
        validity_out = {
            addr[0]: ValiditySet.full(len(world.months)) for addr, _ in cells
        }
        varying = short if use_short else None
        expected = _raised(
            lambda: reference.relocate(world.cube, "Org", validity_out, varying)
        )
        for _label, engine in _engines():
            with engine():
                got = _raised(lambda: relocate(world.cube, "Org", validity_out, varying))
                assert got == expected

    @settings(max_examples=30, deadline=None)
    @given(world=worlds(), data=st.data())
    def test_split_rejects_the_same_change_relations(self, world, data):
        employee = data.draw(st.sampled_from(world.employees))
        t = data.draw(st.integers(0, len(world.months) - 1))
        actual = world.varying.parent_at(employee, t)
        wrong = next(g for g in world.groups if g != actual)
        changes = [ChangeTuple(employee, wrong, world.groups[0], world.months[t])]
        expected = _raised(lambda: reference.split(world.cube, "Org", changes))
        assert expected[0] is InvalidChangeError
        assert _raised(lambda: split(world.cube, "Org", changes)) == expected

    @settings(max_examples=40, deadline=None)
    @given(pair=worlds_with_changes(), data=st.data())
    def test_split_of_a_cube_with_clashing_instances(self, pair, data):
        """S does not police disjointness; when two input cells land on
        one output address the later value wins at the earlier position,
        as a dict write would — and no index is derived from the clash."""
        world, changes = pair
        cells = [c for c in world.cube.leaf_cells() if any(
            c[0][0].endswith("/" + change.member) for change in changes
        )]
        if not cells:
            return
        addr, value = data.draw(st.sampled_from(cells))
        group, employee = addr[0].split("/")[1:]
        other = next(g for g in world.groups if g != group)
        world.cube.set_value((f"Org/{other}/{employee}",) + addr[1:], value + 1.0)
        expected, expected_hypo = reference.split(world.cube, "Org", changes)
        for _label, engine in _engines():
            with engine():
                got, hypo = split(world.cube, "Org", changes)
                _same_cube(got, expected)
                assert hypo.assignments() == expected_hypo.assignments()
                root = tuple(d.root.name for d in world.schema.dimensions)
                with naive_mode():
                    naive = got.rollup(root)
                assert repr(got.rollup(root)) == repr(naive)
