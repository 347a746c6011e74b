"""Theorem 4.1 as a property: every extended-MDX what-if query equals an
algebra expression over the core query's result.

Stated on the generated worlds of ``test_operator_parity.py`` (hierarchies,
move plans, ⊥ months, sparse cubes, stored derived cells), with cells *and
order* compared — the order strict rollups sum in:

* **negative scenarios**: ``NegativeScenario.apply`` ≡
  ``ρ(C, Φ_sem(VS_in, P))`` with Φ taken by ``phi`` over every instance of
  every member with data, for all five semantics;
* **positive scenarios**: ``PositiveScenario.apply`` ≡ ``S(C, R)``;
* **chains**: CHANGES then PERSPECTIVE ≡ ρ over S's output under S's
  hypothetical structure;
* **visual mode**: non-leaf values ≡ ``E(C, ·)`` over the moved leaves, on
  unmaterialised and stored-derived addresses alike;
* **non-visual mode** reads non-leaf values off the *stage's* input cube
  (DESIGN.md §5, pinned here so that changing it is a decision);
* an MDX text with the same WITH clause reads those values at its grid
  addresses;
* a NON_VISUAL grid with no leaf cell is ``repr``-identical whether or not
  the last stage's leaves were ever moved (the query path never moves
  them), and VISUAL and NON_VISUAL agree on every leaf cell — for ρ under
  all five semantics, S and S→ρ ("A Formal Algebra for OLAP",
  arXiv:1609.05020).  Tier-1 draws a few worlds per law; the CI ``faults``
  job (``REPRO_FAULTS=ci-matrix``) draws the wide run.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_operator_parity import MEASURES, World, worlds, worlds_with_changes

from repro.core.operators import evaluate, relocate, split
from repro.core.perspective import Mode, PerspectiveSet, Semantics, phi
from repro.core.scenario import (
    NegativeScenario,
    PositiveScenario,
    WhatIfCube,
    apply_scenarios,
)
from repro.core.validation import check_warehouse
from repro.olap.cube import Cube
from repro.olap.instances import VaryingDimension
from repro.validity import ValiditySet
from repro.warehouse import Warehouse


def perspective_points(world: World, max_size: int = 4):
    return st.lists(
        st.sampled_from(world.months), min_size=1, max_size=max_size, unique=True
    )


def phi_of_members_with_data(
    cube: Cube,
    varying: VaryingDimension,
    perspectives: "list[str]",
    semantics: Semantics,
) -> "dict[str, ValiditySet]":
    """Φ_sem(VS_in, P), member by member, every instance through ``phi``."""
    pset = PerspectiveSet.from_names(perspectives, varying)
    members = sorted({c.rsplit("/", 1)[-1] for c in cube.coordinates_used("Org")})
    validity_out: dict[str, ValiditySet] = {}
    for member in members:
        validity_in = {i.full_path: i.validity for i in varying.instances_of(member)}
        validity_out.update(phi(validity_in, pset, semantics))
    return validity_out


def same_leaves(got: Cube, expected: Cube) -> None:
    assert list(got.leaf_cells()) == list(expected.leaf_cells())


def non_leaf_addresses(world: World, moved: Cube) -> "list[tuple[str, str, str]]":
    """Addresses with a non-leaf coordinate: (group | root) × (root |
    quarter | month) — the world's stored-derived (group, first month,
    "A") cells among them — and a few of ``moved``'s instances × (root |
    quarter)."""
    quarters = [f"Q{i // 3}" for i in range(0, len(world.months), 3)]
    upper_times = ["Time"] + quarters
    pairs = [
        (org, time)
        for org in ["Org"] + world.groups
        for time in upper_times + world.months[:2]
    ]
    pairs += [
        (instance, time)
        for instance in sorted(moved.coordinates_used("Org"))[:3]
        for time in upper_times
    ]
    return [(org, time, measure) for org, time in pairs for measure in ("A", "B")]


def same_values(got, expected, addresses) -> None:
    for address in addresses:
        assert repr(got.effective_value(address)) == repr(
            expected.effective_value(address)
        ), address


def grid_reads(world: World, with_clause: str, whatif: WhatIfCube) -> None:
    """The MDX text with this WITH clause answers, at every grid address
    (instances × months, and groups × quarters), what ``whatif`` holds."""
    warehouse = Warehouse(world.schema, world.cube, name="W")
    for rows, columns in (
        ("[Org].Levels(0).Members", "[Time].Levels(0).Members"),
        ("[Org].Children", "[Time].Children"),
    ):
        result = warehouse.query(
            f"WITH {with_clause} SELECT {{{columns}}} ON COLUMNS, "
            f"{{{rows}}} ON ROWS FROM W WHERE ([A])",
            analyze=False,
        )
        for row, cells in zip(result.rows, result.cells):
            for column, cell in zip(result.columns, cells):
                address = (row.coordinate("Org"), column.coordinate("Time"), "A")
                assert repr(cell) == repr(whatif.effective_value(address)), address


def changes_clause(changes, mode: Mode) -> str:
    tuples = ", ".join(
        f"([{c.member}], [{c.old_parent}], [{c.new_parent}], [{c.moment}])"
        for c in changes
    )
    return f"CHANGES {{{tuples}}} FOR Org {mode.value.upper()}"


def perspective_clause(perspectives, semantics: Semantics, mode: Mode) -> str:
    points = ", ".join(f"({p})" for p in perspectives)
    keywords = semantics.value.replace("_", " ").upper()  # e.g. EXTENDED FORWARD
    return f"PERSPECTIVE {{{points}}} FOR Org {keywords} {mode.value.upper()}"


@settings(max_examples=10, deadline=None)
@given(
    world=worlds(),
    semantics=st.sampled_from(list(Semantics)),
    mode=st.sampled_from(list(Mode)),
    data=st.data(),
)
def test_negative_scenario_equals_algebra_plan(world, semantics, mode, data):
    perspectives = data.draw(perspective_points(world, len(world.months)))
    whatif = NegativeScenario("Org", perspectives, semantics, mode).apply(world.cube)
    validity_out = phi_of_members_with_data(
        world.cube, world.varying, perspectives, semantics
    )
    moved = relocate(world.cube, "Org", validity_out)
    same_leaves(whatif.leaf_cube, moved)
    assert whatif.validity_out == validity_out
    grid_reads(world, perspective_clause(perspectives, semantics, mode), whatif)


@settings(max_examples=10, deadline=None)
@given(pair=worlds_with_changes(), mode=st.sampled_from(list(Mode)))
def test_positive_scenario_equals_algebra_plan(pair, mode):
    world, changes = pair
    if not changes:
        return
    whatif = PositiveScenario("Org", changes, mode).apply(world.cube)
    moved, hypo = split(world.cube, "Org", changes)
    same_leaves(whatif.leaf_cube, moved)
    assert whatif.varying_out.assignments() == hypo.assignments()
    grid_reads(world, changes_clause(changes, mode), whatif)


@settings(max_examples=10, deadline=None)
@given(
    pair=worlds_with_changes(),
    semantics=st.sampled_from(list(Semantics)),
    mode=st.sampled_from(list(Mode)),
    data=st.data(),
)
def test_chain_equals_relocate_over_split_under_its_structure(
    pair, semantics, mode, data
):
    world, changes = pair
    if not changes:
        return
    perspectives = data.draw(perspective_points(world))
    chain = [
        PositiveScenario("Org", changes, mode),
        NegativeScenario("Org", perspectives, semantics, mode),
    ]
    whatif = apply_scenarios(world.cube, chain)
    after_s, hypo = split(world.cube, "Org", changes)
    validity_out = phi_of_members_with_data(after_s, hypo, perspectives, semantics)
    same_leaves(whatif.leaf_cube, relocate(after_s, "Org", validity_out, hypo))
    # ... and the runner hands the query what it resolves axes with
    assert whatif.varying["Org"].assignments() == hypo.assignments()
    assert whatif.surviving == {"Org": frozenset(validity_out)}
    grid_reads(
        world,
        f"{changes_clause(changes, mode)} "
        f"{perspective_clause(perspectives, semantics, mode)}",
        whatif,
    )


@settings(max_examples=10, deadline=None)
@given(
    pair=worlds_with_changes(),
    semantics=st.sampled_from(list(Semantics)),
    data=st.data(),
)
def test_visual_aggregates_equal_E_over_algebra_result(pair, semantics, data):
    """Visual mode = E(C, ·): the input's rules over the moved leaves,
    stored aggregates re-evaluated, for ρ and for S."""
    world, changes = pair
    perspectives = data.draw(perspective_points(world))
    visual = NegativeScenario("Org", perspectives, semantics, Mode.VISUAL).apply(
        world.cube
    )
    validity_out = phi_of_members_with_data(
        world.cube, world.varying, perspectives, semantics
    )
    moved = relocate(world.cube, "Org", validity_out)
    same_values(
        visual, evaluate(world.cube, moved), non_leaf_addresses(world, moved)
    )
    if changes:
        visual = PositiveScenario("Org", changes, Mode.VISUAL).apply(world.cube)
        moved, _ = split(world.cube, "Org", changes)
        same_values(
            visual, evaluate(world.cube, moved), non_leaf_addresses(world, moved)
        )


@settings(max_examples=10, deadline=None)
@given(pair=worlds_with_changes(), data=st.data())
def test_non_visual_aggregates_come_from_the_stage_input(pair, data):
    """What a NON_VISUAL chain means today: each stage keeps its *input*
    cube's non-leaf values — so CHANGES alone reads aggregates off the
    base cube, while CHANGES + PERSPECTIVE reads stored aggregates as ρ
    carried them and unmaterialised ones off S's output leaves (the
    second stage's input), not off the query's base cube."""
    world, changes = pair
    if not changes:
        return
    perspectives = data.draw(perspective_points(world))
    positive = PositiveScenario("Org", changes, Mode.NON_VISUAL)
    alone = positive.apply(world.cube)
    same_values(alone, world.cube, non_leaf_addresses(world, world.cube))

    chained = apply_scenarios(
        world.cube,
        [positive, NegativeScenario("Org", perspectives, mode=Mode.NON_VISUAL)],
    )
    after_s = alone.leaf_cube  # stored aggregates carried over from the base
    same_leaves(chained.aggregate_cube, after_s)
    same_values(chained, after_s, non_leaf_addresses(world, chained.leaf_cube))


# -- a NON_VISUAL last stage's leaves are read only by leaf cells ---------------------

#: the wide run of the two laws below keys on the CI ``faults`` job
LEAF_LAW_EXAMPLES = 150 if "ci-matrix" in os.environ.get("REPRO_FAULTS", "") else 8

#: grids with no cell at leaf level on every dimension: instances × quarters,
#: groups × months
AGGREGATE_GRIDS = (
    ("[Org].Levels(0).Members", "[Time].Children"),
    ("[Org].Children", "[Time].Levels(0).Members"),
)
LEAF_GRID = ("[Org].Levels(0).Members", "[Time].Levels(0).Members")


def _stages(kind: str, world: World, changes, semantics, perspectives, mode: Mode):
    """(chain, WITH clause) of one chain kind MDX can express: ρ, S or S→ρ."""
    chain, clauses = [], []
    if kind in ("S", "S→ρ"):
        chain.append(PositiveScenario("Org", changes, mode))
        clauses.append(changes_clause(changes, mode))
    if kind in ("ρ", "S→ρ"):
        chain.append(NegativeScenario("Org", perspectives, semantics, mode))
        clauses.append(perspective_clause(perspectives, semantics, mode))
    return chain, " ".join(clauses)


def _grid_text(with_clause: str, rows: str, columns: str, measure: str) -> str:
    return (
        f"WITH {with_clause} SELECT {{{columns}}} ON COLUMNS, "
        f"{{{rows}}} ON ROWS FROM W WHERE ([{measure}])"
    )


def _shown(result) -> str:
    return repr((result.row_labels(), result.column_labels(), result.cells))


def _law_world(pair, kind: str):
    world, changes = pair
    assume(changes or kind == "ρ")
    assume(not check_warehouse(Warehouse(world.schema, world.cube)))
    return world, changes


@pytest.mark.parametrize("kind", ["ρ", "S", "S→ρ"])
@settings(max_examples=LEAF_LAW_EXAMPLES, deadline=None)
@given(
    pair=worlds_with_changes(), semantics=st.sampled_from(list(Semantics)), data=st.data()
)
def test_a_non_visual_grid_with_no_leaf_cell_never_moves_the_last_stages_leaves(
    kind, pair, semantics, data
):
    """Sec. 3.3: a NON_VISUAL stage's non-leaf cells are its input's.  So a
    grid with no cell at leaf level answers the same whether or not the
    last stage's leaves were ever moved — and the query path never moves
    them."""
    world, changes = _law_world(pair, kind)
    chain, with_clause = _stages(
        kind, world, changes, semantics, data.draw(perspective_points(world)),
        Mode.NON_VISUAL,
    )
    moved = apply_scenarios(world.cube, chain)  # every stage's leaves moved
    warehouse = Warehouse(world.schema, world.cube, name="W")
    key = tuple(scenario.fingerprint() for scenario in chain)
    grids = [(grid, measure) for grid in AGGREGATE_GRIDS for measure in MEASURES]
    texts = [_grid_text(with_clause, *grid, measure) for grid, measure in grids]
    first = []
    for text, (_, measure) in zip(texts, grids):
        result = warehouse.query(text, analyze=False)
        for row, cells in zip(result.rows, result.cells):
            for column, cell in zip(result.columns, cells):
                address = (row.coordinate("Org"), column.coordinate("Time"), measure)
                assert repr(cell) == repr(moved.effective_value(address)), address
        first.append(_shown(result))
    view = warehouse.scenario_cache.get(key, world.cube.version).view
    assert not view.leaves_moved
    view.leaf_cube  # move them now: the same entry answers the same grids
    assert view.leaves_moved
    assert [_shown(warehouse.query(text, analyze=False)) for text in texts] == first


@pytest.mark.parametrize("kind", ["ρ", "S", "S→ρ"])
@settings(max_examples=LEAF_LAW_EXAMPLES, deadline=None)
@given(
    pair=worlds_with_changes(), semantics=st.sampled_from(list(Semantics)), data=st.data()
)
def test_visual_and_non_visual_agree_on_every_leaf_cell(kind, pair, semantics, data):
    """The mode decides where non-leaf cells come from, never what a leaf
    holds: the chain's leaves, and every cell of a leaf grid, agree."""
    world, changes = _law_world(pair, kind)
    perspectives = data.draw(perspective_points(world))
    views, shown = {}, {}
    for mode in Mode:
        chain, with_clause = _stages(kind, world, changes, semantics, perspectives, mode)
        views[mode] = apply_scenarios(world.cube, chain)
        warehouse = Warehouse(world.schema, world.cube, name="W")
        results = [
            warehouse.query(_grid_text(with_clause, *LEAF_GRID, m), analyze=False)
            for m in MEASURES
        ]
        shown[mode] = [_shown(result) for result in results]
        key = tuple(scenario.fingerprint() for scenario in chain)
        view = warehouse.scenario_cache.get(key, world.cube.version).view
        # a VISUAL stage always moves them; a NON_VISUAL one for a leaf
        # cell — none when no instance survives: no row, no cell
        read = bool(results[0].rows and results[0].columns)
        assert view.leaves_moved == (mode is Mode.VISUAL or read)
    same_leaves(views[Mode.VISUAL].leaf_cube, views[Mode.NON_VISUAL].leaf_cube)
    assert shown[Mode.VISUAL] == shown[Mode.NON_VISUAL]
