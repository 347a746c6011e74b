"""σ below ρ as a law: a chain applied to a row subset is the subset of
the chain applied to the cube.

The query path applies a scenario chain to the base rows its cells can
reach (resolve → footprint → σ → ρ/S) instead of to the cube.  The only
admissible ground for that rewrite is the σ/ρ commutation law ("A Formal
Algebra for OLAP", arXiv:1609.05020; ROADMAP item 5a), stated here on the
generated worlds of ``test_operator_parity.py`` (hierarchies, move plans,
⊥ months, sparse cubes, stored derived cells) over cubes
``check_warehouse`` accepts:

* for a generated footprint ``F`` — a box on the dimensions the chain does
  not touch (months / quarters, measures) × a member set on the varying
  one — ``σ_F(ρ(C)) == ρ(σ_F(C))``, and the same for S and for S→ρ:
  leaves, values **and order** (the order strict rollups sum in), under
  all five semantics and both modes;
* at query level, every cell of a generated grid — read through the
  scenario cache's footprint entry, first cold, then after a second grid
  widened it — is the cell ``apply_scenarios(base, chain)`` holds.

A counter-example is reported with the containment / overlap operators of
``repro.catalog.diff`` ("A Cube Algebra with Comparative Operations",
arXiv:2203.09390), so it names the diverging cells.

Tier-1 draws a few worlds per law; the CI ``faults`` job
(``REPRO_FAULTS=ci-matrix``) draws the wide run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_operator_parity import MEASURES, World, worlds, worlds_with_changes
from test_theorem41 import changes_clause, perspective_clause

from repro.catalog.diff import diff_states
from repro.catalog.model import ScenarioState
from repro.core.perspective import Mode, Semantics
from repro.core.scenario import NegativeScenario, PositiveScenario, apply_scenarios
from repro.core.validation import check_warehouse
from repro.warehouse import Warehouse

FULL_MATRIX = "ci-matrix" in os.environ.get("REPRO_FAULTS", "")
EXAMPLES = 300 if FULL_MATRIX else 8


def _accepted(world: World) -> None:
    """The laws' precondition: no value at a ⊥ (instance, moment)."""
    assume(not check_warehouse(Warehouse(world.schema, world.cube)))


def _quarters(world: World) -> "list[str]":
    return [f"Q{start // 3}" for start in range(0, len(world.months), 3)]


@dataclass(frozen=True)
class Footprint:
    """A member set on Org × a box on Time and Measures (``None``: the
    dimension is unrestricted)."""

    members: "frozenset[str]"
    times: "frozenset[str] | None"
    measures: "frozenset[str] | None"

    def keeps(self, world: World, address: "tuple[str, str, str]") -> bool:
        org, time, measure = address
        is_under = world.schema.is_under
        return (
            org.rsplit("/", 1)[-1] in self.members
            and (self.times is None or any(is_under(1, time, t) for t in self.times))
            and (self.measures is None or measure in self.measures)
        )

    def rows(self, world: World):
        """σ_F(C) as leaf ids of the base cube's index."""
        index = world.cube.rollup_index()
        named: "dict[int, object]" = {
            0: [
                coord
                for coord in index.coords_with_data(0)
                if coord.rsplit("/", 1)[-1] in self.members
            ]
        }
        if self.times is not None:
            named[1] = self.times
        if self.measures is not None:
            named[2] = self.measures
        return index.ids_under(named)


@st.composite
def footprints(draw, world: World) -> Footprint:
    some = lambda values: st.none() | st.frozensets(  # noqa: E731
        st.sampled_from(values), min_size=1
    )
    return Footprint(
        draw(st.frozensets(st.sampled_from(world.employees))),
        draw(some(world.months + _quarters(world))),
        draw(some(list(MEASURES))),
    )


def _assert_commutes(world: World, footprint: Footprint, label: str, part, full) -> None:
    """``part`` — the operator over σ_F(C) — lists exactly the leaves of
    ``full`` that F keeps, in ``full``'s order."""
    got = list(part.leaf_cells())
    expected = [cell for cell in full.leaf_cells() if footprint.keeps(world, cell[0])]
    if got == expected:
        return
    state = lambda name, cells: ScenarioState(name, "", "", 0, delta=dict(cells))  # noqa: E731
    diff = diff_states(
        state(f"σ_F({label}(C))", expected), state(f"{label}(σ_F(C))", got), chunk_depth=1
    )
    order = next(
        (i for i, pair in enumerate(zip(got, expected)) if pair[0] != pair[1]),
        min(len(got), len(expected)),
    )
    pytest.fail(
        f"{label} does not commute with σ_F for {footprint}: "
        f"{json.dumps(diff.to_dict())}; emission order first differs at leaf {order}"
    )


def _perspectives(data, world: World) -> "list[str]":
    return data.draw(
        st.lists(st.sampled_from(world.months), min_size=1, max_size=4, unique=True)
    )


def _restriction_is_sigma(world: World, footprint: Footprint, rows) -> None:
    cells = list(world.cube.leaf_cells())
    kept = cells if rows is None else [cells[i] for i in rows.tolist()]
    assert kept == [cell for cell in cells if footprint.keeps(world, cell[0])]


@pytest.mark.parametrize("semantics", list(Semantics))
@settings(max_examples=EXAMPLES, deadline=None)
@given(world=worlds(), mode=st.sampled_from(list(Mode)), data=st.data())
def test_sigma_commutes_with_relocate(semantics, world, mode, data):
    _accepted(world)
    footprint = data.draw(footprints(world))
    rows = footprint.rows(world)
    _restriction_is_sigma(world, footprint, rows)
    scenario = NegativeScenario("Org", _perspectives(data, world), semantics, mode)
    full = scenario.apply(world.cube)
    part = scenario.apply(world.cube, rows=rows)
    _assert_commutes(world, footprint, "ρ", part.leaf_cube, full.leaf_cube)
    # non-visual aggregates keep reading the stage's input: the whole base cube
    assert (part.aggregate_cube is world.cube) == (mode is Mode.NON_VISUAL)
    assert part.validity_out == full.validity_out  # Φ saw the whole cube's members


@settings(max_examples=EXAMPLES, deadline=None)
@given(pair=worlds_with_changes(), mode=st.sampled_from(list(Mode)), data=st.data())
def test_sigma_commutes_with_split(pair, mode, data):
    world, changes = pair
    assume(changes)
    _accepted(world)
    footprint = data.draw(footprints(world))
    scenario = PositiveScenario("Org", changes, mode)
    full = scenario.apply(world.cube)
    part = scenario.apply(world.cube, rows=footprint.rows(world))
    _assert_commutes(world, footprint, "S", part.leaf_cube, full.leaf_cube)
    assert part.varying_out.assignments() == full.varying_out.assignments()


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    pair=worlds_with_changes(),
    semantics=st.sampled_from(list(Semantics)),
    mode=st.sampled_from(list(Mode)),
    data=st.data(),
)
def test_sigma_commutes_with_split_then_relocate(pair, semantics, mode, data):
    world, changes = pair
    assume(changes)
    _accepted(world)
    footprint = data.draw(footprints(world))
    chain = [
        PositiveScenario("Org", changes, mode),
        NegativeScenario("Org", _perspectives(data, world), semantics, mode),
    ]
    full = apply_scenarios(world.cube, chain)
    part = apply_scenarios(world.cube, chain, rows=footprint.rows(world))
    _assert_commutes(world, footprint, "ρ∘S", part.leaf_cube, full.leaf_cube)


# -- query level: every cell read through a footprint entry -------------------------


@st.composite
def grids(draw, world: World) -> "tuple[str, str, str]":
    """(rows, columns, slicer measure) of a grid over some employees and
    groups × some months and quarters — each axis possibly the root."""
    org = draw(
        st.just(["[Org]"])
        | st.lists(
            st.sampled_from([f"[{name}]" for name in world.employees + world.groups]),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    time = draw(
        st.just(["[Time]"])
        | st.lists(
            st.sampled_from(
                [f"Time.[{name}]" for name in world.months + _quarters(world)]
            ),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    return ", ".join(org), ", ".join(time), draw(st.sampled_from(MEASURES))


def _chains(draw, world: World, changes, mode: Mode) -> "tuple[list, str]":
    """A chain MDX can express (≤ 1 S, then ≤ 1 ρ) and its WITH clause."""
    chain, clauses = [], []
    if changes and draw(st.booleans()):
        chain.append(PositiveScenario("Org", changes, mode))
        clauses.append(changes_clause(changes, mode))
    if not chain or draw(st.booleans()):
        semantics = draw(st.sampled_from(list(Semantics)))
        perspectives = draw(
            st.lists(st.sampled_from(world.months), min_size=1, max_size=4, unique=True)
        )
        chain.append(NegativeScenario("Org", perspectives, semantics, mode))
        clauses.append(perspective_clause(perspectives, semantics, mode))
    return chain, " ".join(clauses)


@settings(max_examples=3 * EXAMPLES, deadline=None)
@given(pair=worlds_with_changes(), mode=st.sampled_from(list(Mode)), data=st.data())
def test_every_grid_cell_read_through_a_footprint_is_the_full_views(pair, mode, data):
    world, changes = pair
    _accepted(world)
    chain, with_clause = _chains(data.draw, world, changes, mode)
    whole = apply_scenarios(world.cube, chain)
    warehouse = Warehouse(world.schema, world.cube, name="W")
    key = tuple(scenario.fingerprint() for scenario in chain)
    n_leaves = world.cube.n_leaf_cells
    # the second grid finds the first one's entry: covered, or widened
    for rows, columns, measure in (data.draw(grids(world)), data.draw(grids(world))):
        result = warehouse.query(
            f"WITH {with_clause} SELECT {{{columns}}} ON COLUMNS, "
            f"{{{rows}}} ON ROWS FROM W WHERE ([{measure}])",
            analyze=False,
        )
        entry = warehouse.scenario_cache.get(key, world.cube.version)
        assert entry.view.leaf_cube.n_leaf_cells <= whole.leaf_cube.n_leaf_cells
        assert entry.footprint_rows <= n_leaves
        for row, cells in zip(result.rows, result.cells):
            for column, cell in zip(result.columns, cells):
                address = (row.coordinate("Org"), column.coordinate("Time"), measure)
                assert repr(cell) == repr(whole.effective_value(address)), (
                    with_clause, rows, columns, address, dict(entry.named)
                )
    assert len(warehouse.scenario_cache) == 1
