"""The instance table follows its structure.

``VaryingDimension.instance_table`` is built once per structure
generation and patched by writes that re-row some members only.  After
every kind of write — ``assign``, ``set_invalid``, ``reparent`` of a leaf
and of a non-leaf, ``load_assignments`` — the table must list exactly the
instances ``instances_of`` reports, and Φ and ρ must see them; a copy that
S reparents must leave the original's table alone; ρ fed a hand-built
``validity_out`` must agree with the per-cell oracle; and readers that
fill the shared tables at once must agree with a serial reader.
"""

from __future__ import annotations

import sys
import threading
from contextlib import nullcontext

import numpy as np
import pytest
import reference_operators as reference

from repro.core.operators import ChangeTuple, _hypothetical_structure, relocate
from repro.core.perspective import PerspectiveSet, Semantics, phi_member
from repro.core.scenario import (
    NegativeScenario,
    PositiveScenario,
    apply_scenarios,
    phi_validity,
)
from repro.olap.instances import InstanceTable, VaryingDimension
from repro.perf.config import naive_mode
from repro.validity import ValiditySet
from repro.workload import build_running_example

DIM = "Organization"


def _assert_current(varying: VaryingDimension) -> InstanceTable:
    """The table lists, member by member, what ``instances_of`` reports,
    and every array agrees with a table built from scratch."""
    table = varying.instance_table()
    for number, member in enumerate(table.members):
        first, stop = int(table.start[number]), int(table.start[number + 1])
        assert table.instances[first:stop] == varying.instances_of(member), member
    fresh = InstanceTable.build(varying)
    assert table.paths == fresh.paths == [i.full_path for i in table.instances]
    assert table.member.tolist() == fresh.member.tolist()
    assert np.array_equal(table.matrix[table.set_of], fresh.matrix[fresh.set_of])
    assert table.nodes.tolist() == fresh.nodes.tolist()
    assert table.node_start.tolist() == fresh.node_start.tolist()
    for instance, row in zip(table.instances, table.matrix[table.set_of]):
        assert np.flatnonzero(row).tolist() == instance.validity.sorted_moments()
    return table


def _members(cube) -> list[str]:
    return sorted({coord.rsplit("/", 1)[-1] for coord in cube.coordinates_used(DIM)})


def _assert_phi_and_rho_see(example, varying: VaryingDimension) -> None:
    """Φ over the table equals Φ member by member over ``instances_of``,
    and ρ over its output equals the per-cell oracle's."""
    members = _members(example.cube)
    for semantics in Semantics:
        p = PerspectiveSet.from_names(["Feb", "Apr"], varying)
        expected = {
            instance.full_path: validity
            for member in members
            for instance, validity in phi_member(
                varying.instances_of(member), p, semantics
            ).items()
        }
        validity_out = phi_validity(varying, members, p, semantics)
        assert list(validity_out.items()) == list(expected.items())
        got = relocate(example.cube, DIM, validity_out, varying)
        oracle = reference.relocate(example.cube, DIM, expected, varying)
        assert list(got.leaf_cells()) == list(oracle.leaf_cells())


@pytest.fixture()
def example():
    return build_running_example()


def test_every_write_reaches_the_table(example):
    org = example.org
    original = org.assignments()
    _assert_current(org)
    writes = [
        lambda: org.assign("Lisa", "PTE", ["Apr", "May"]),
        lambda: org.set_invalid("Tom", ["Jun"]),
        lambda: org.reparent("Sue", "Contractor", "Mar"),  # a leaf
        lambda: org.reparent("PTE", "Contractor", "Apr"),  # a non-leaf
        lambda: org.assign("Jane", "FTE", ["Jan"]),
        lambda: org.load_assignments(original),
    ]
    for write in writes:
        before = org.instance_table()
        write()
        table = _assert_current(org)
        assert table is not before
        _assert_phi_and_rho_see(example, org)
    assert "Organization/Contractor/PTE/Tom" not in org.instance_table().paths
    assert org.instance_table().paths == InstanceTable.build(org).paths


def test_a_leaf_write_patches_the_table_and_a_non_leaf_write_rebuilds_it(example):
    org = example.org
    table = org.instance_table()
    org.reparent("Lisa", "PTE", "Mar")
    patched = _assert_current(org)
    assert "Organization/PTE/Lisa" in patched.paths
    assert patched.members is table.members  # the numbering is shared
    org.reparent("FTE", "PTE", "Apr")
    rebuilt = _assert_current(org)
    assert "Organization/PTE/FTE/Sue" in rebuilt.paths


def test_a_copy_that_s_reparents_leaves_the_original_table_alone(example):
    org = example.org
    table = org.instance_table()
    paths, rows = list(table.paths), table.matrix[table.set_of].copy()
    for change in (
        ChangeTuple("Lisa", "FTE", "PTE", "Mar"),  # a leaf
        ChangeTuple("PTE", "Organization", "Contractor", "Apr"),  # a non-leaf
    ):
        hypo = _hypothetical_structure(org, [change])
        moved = _assert_current(hypo)
        assert moved.paths != paths
        assert org.instance_table() is table
        assert table.paths == paths
        assert np.array_equal(table.matrix[table.set_of], rows)
        _assert_current(org)


@pytest.mark.parametrize("naive", [False, True])
def test_relocate_of_a_hand_built_validity_out_matches_the_oracle(example, naive):
    """Paths the table never had, members without data, a member that does
    not exist, and overlapping instances of one member (a cell is then
    emitted once per instance) — as a plain mapping and as Φ's own."""
    org, universe = example.org, example.org.universe
    validity_out = {
        "Organization/Contractor/Joe": ValiditySet({1, 2, 3}, universe),
        "Organization/PTE/Lisa": ValiditySet({0, 1, 2}, universe),  # no such instance
        "Organization/FTE/Sue": ValiditySet(range(6), universe),  # no data
        "Organization/FTE/Joe": ValiditySet({0, 1, 2}, universe),  # overlaps
        "Organization/FTE/Ghost": ValiditySet({0}, universe),  # no such member
        "Organization/PTE/Tom": ValiditySet({5, 11}, universe),
    }
    expected = reference.relocate(example.cube, DIM, validity_out, org)
    with naive_mode() if naive else nullcontext():
        got = relocate(example.cube, DIM, validity_out, org)
    assert list(got.leaf_cells()) == list(expected.leaf_cells())
    assert list(got.stored_derived_cells()) == list(expected.stored_derived_cells())


def test_concurrent_cold_applies_fill_the_shared_tables_consistently():
    """The instance table and the index's member labels and counts are
    filled lazily by whichever reader asks first.  Threads (more than the
    cores) applying chains over one fresh warehouse at once, with the
    interpreter switching threads as often as it can, must each get what
    a serial apply over another fresh warehouse gets."""
    chains = [[NegativeScenario(DIM, ["Feb", "Apr"], semantics)] for semantics in Semantics]
    chains.append(
        [
            PositiveScenario(DIM, [ChangeTuple("Lisa", "FTE", "PTE", "Mar")]),
            NegativeScenario(DIM, ["Mar"], Semantics.FORWARD),
        ]
    )

    def answer(cube, chain) -> str:
        applied = apply_scenarios(cube, chain)
        return repr((list(applied.leaf_cube.leaf_cells()), applied.surviving))

    reference_cube = build_running_example().cube
    expected = [answer(reference_cube, chain) for chain in chains]

    cube = build_running_example().cube.frozen_copy()
    n_threads, rounds = 4, 3
    barrier = threading.Barrier(n_threads)
    got: "list[list[tuple[int, str]]]" = [[] for _ in range(n_threads)]

    def worker(slot: int) -> None:
        barrier.wait(timeout=30)
        for _ in range(rounds):
            for k in range(len(chains)):
                at = (k + slot) % len(chains)
                got[slot].append((at, answer(cube, chains[at])))

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for answers in got:
        assert len(answers) == rounds * len(chains)
        for at, text in answers:
            assert text == expected[at]
