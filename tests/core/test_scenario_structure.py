"""The structure half as a law: Φ and R run on metadata.

``chain_structure(cube, chain)[:2]`` must report exactly what
``apply_scenarios(cube, chain)`` reports as ``.varying`` / ``.surviving`` —
for every chain MDX can express (at most one S, then at most one ρ), on
the generated worlds of ``test_operator_parity.py`` (hierarchies, move
plans, ⊥ months, sparse cubes), over a warehouse ``check_warehouse``
accepts — while reading and moving no cell.  Axis resolution on the shard
coordinator, EXPLAIN and the static analyzer stand on this.

S's validity sets are a ``ValidityMap`` over one instance table; a law
below holds them to the per-member reading they replaced, keys in order.

Tier-1 draws a few worlds per law; the CI ``faults`` job
(``REPRO_FAULTS=ci-matrix``) draws the wide run.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_operator_parity import World, worlds, worlds_with_changes

from repro.core.operators import ChangeTuple
from repro.core.perspective import Mode, Semantics
from repro.core.scenario import (
    NegativeScenario,
    PositiveScenario,
    apply_scenarios,
    chain_structure,
)
from repro.core.validation import check_warehouse
from repro.errors import InvalidChangeError
from repro.obs.trace import tracing
from repro.olap.cube import Cube
from repro.olap.dimension import Dimension
from repro.olap.missing import MISSING
from repro.olap.schema import CubeSchema
from repro.warehouse import Warehouse

FULL_MATRIX = "ci-matrix" in os.environ.get("REPRO_FAULTS", "")
EXAMPLES = 400 if FULL_MATRIX else 15

_DATA_SPANS = {"scenario.apply", "core.relocate", "core.split"}


def _accepted(world: World) -> None:
    """The law's precondition: no value at a ⊥ (instance, moment)."""
    assume(not check_warehouse(Warehouse(world.schema, world.cube)))


def _same_structure(cube: Cube, chain: list) -> None:
    with tracing() as tracer:
        tracer.clear()
        varying, surviving = chain_structure(cube, chain)[:2]
        opened = {
            span.name for root in tracer.finished for span in root.iter_spans()
        }
    assert not opened & _DATA_SPANS, opened
    applied = apply_scenarios(cube, chain)
    assert surviving == applied.surviving
    assert varying.keys() == applied.varying.keys()
    for name, hypothetical in varying.items():
        assert hypothetical.assignments() == applied.varying[name].assignments()


def _perspectives(data, world: World) -> "list[str]":
    return data.draw(
        st.lists(st.sampled_from(world.months), min_size=1, max_size=4, unique=True)
    )


@pytest.mark.parametrize("semantics", list(Semantics))
@settings(max_examples=EXAMPLES, deadline=None)
@given(world=worlds(), mode=st.sampled_from(list(Mode)), data=st.data())
def test_relocate_under_every_semantics(semantics, world, mode, data):
    _accepted(world)
    chain = [NegativeScenario("Org", _perspectives(data, world), semantics, mode)]
    _same_structure(world.cube, chain)


@settings(max_examples=EXAMPLES, deadline=None)
@given(pair=worlds_with_changes(), mode=st.sampled_from(list(Mode)))
def test_split_alone(pair, mode):
    world, changes = pair
    assume(changes)
    _accepted(world)
    _same_structure(world.cube, [PositiveScenario("Org", changes, mode)])


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    pair=worlds_with_changes(),
    semantics=st.sampled_from(list(Semantics)),
    data=st.data(),
)
def test_split_then_relocate(pair, semantics, data):
    world, changes = pair
    assume(changes)
    _accepted(world)
    chain = [
        PositiveScenario("Org", changes),
        NegativeScenario("Org", _perspectives(data, world), semantics),
    ]
    _same_structure(world.cube, chain)


def _s_validity_reference(hypo, varying, members: "list[str]") -> dict:
    """S's validity sets read member by member: a managed member's
    instances under the hypothetical structure, every other member's
    under the input one."""
    return {
        instance.full_path: instance.validity
        for member in members
        for instance in (hypo if hypo.is_managed(member) else varying).instances_of(member)
    }


@settings(max_examples=EXAMPLES, deadline=None)
@given(pair=worlds_with_changes(), data=st.data())
def test_s_validity_is_the_per_member_reading_in_its_order(pair, data):
    """For the drawn R, and for R that also moves a group — a member
    others hang below, whose employees' instances change under the
    hypothetical structure while S leaves their cells where they were."""
    world, changes = pair
    skeleton = world.varying.dimension
    parents = sorted({skeleton.member(e).parent.name for e in world.employees})
    group = data.draw(st.sampled_from(parents))
    host = data.draw(st.sampled_from([g for g in world.groups if g != group]))
    month = data.draw(st.sampled_from(world.months[1:]))
    members = sorted({c.rsplit("/", 1)[-1] for c in world.cube.coordinates_used("Org")})
    for relation in (changes, [*changes, ChangeTuple(group, "Org", host, month)]):
        if not relation:
            continue
        scenario = PositiveScenario("Org", relation)
        try:
            hypo, validity = scenario.structure(world.varying, members)
        except InvalidChangeError:
            continue
        expected = _s_validity_reference(hypo, world.varying, members)
        assert list(validity.items()) == list(expected.items())
        assert list(validity) == list(expected) and len(validity) == len(expected)
        # the numbers the chain hands in name the same members
        numbers = np.array([validity.table.member_id[m] for m in members], dtype=np.int64)
        assert list(scenario.structure(world.varying, numbers)[1].items()) == list(expected.items())
        if relation is changes:  # one table for S's map and the ρ after it
            assert validity.table is hypo.instance_table()


def test_the_precondition_is_the_one_check_warehouse_audits():
    """S drops a row only where its member has *no* instance at that
    moment.  A member whose only value sits at such a moment has data
    before S and none after: the structure half (over the base cube's
    members) and the applied cube then disagree — on exactly the cube
    ``check_warehouse`` rejects."""
    org = Dimension("Org")
    org.add_children(None, ["G0", "G1"])
    org.add_children("G0", ["kept", "ghost"])
    time = Dimension("Time", ordered=True)
    time.add_children(None, ["M0", "M1", "M2"])
    measures = Dimension("Measures", is_measures=True)
    measures.add_children(None, ["A"])
    schema = CubeSchema([org, time, measures])
    varying = schema.make_varying("Org", "Time")
    varying.set_invalid("ghost", ["M0"])
    cube = Cube(schema)
    cube.set_value(("Org/G0/kept", "M0", "A"), 1.0)
    cube.set_value(("Org/G0/ghost", "M0", "A"), 2.0)  # no instance at M0
    chain = [PositiveScenario("Org", [ChangeTuple("ghost", "G0", "G1", "M1")])]

    findings = check_warehouse(Warehouse(schema, cube))
    assert [f.code for f in findings] == ["meaningless-cell"]
    structure = chain_structure(cube, chain).surviving["Org"]
    applied = apply_scenarios(cube, chain).surviving["Org"]
    assert applied == {"Org/G0/kept"}
    assert structure - applied == {"Org/G1/ghost"}

    cube.set_value(("Org/G0/ghost", "M0", "A"), MISSING)  # delete it
    cube.set_value(("Org/G0/ghost", "M2", "A"), 2.0)
    assert not check_warehouse(Warehouse(schema, cube))
    _same_structure(cube, chain)
