"""Tests for VaryingDimension / MemberInstance (Sec. 2, Def. 3.1)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidChangeError, SchemaError
from repro.olap.dimension import Dimension
from repro.olap.instances import VaryingDimension
from repro.olap.schema import CubeSchema

MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun"]


def build_varying() -> VaryingDimension:
    org = Dimension("Org")
    org.add_children(None, ["FTE", "PTE", "Contractor"])
    org.add_children("FTE", ["Joe", "Lisa"])
    time = Dimension("Time", ordered=True)
    for month in MONTHS:
        time.add_member(month)
    return VaryingDimension(org, time)


class TestBasics:
    def test_universe(self):
        assert build_varying().universe == 6

    def test_moment_index_by_name_and_int(self):
        varying = build_varying()
        assert varying.moment_index("Mar") == 2
        assert varying.moment_index(2) == 2

    def test_moment_index_out_of_range(self):
        with pytest.raises(SchemaError):
            build_varying().moment_index(6)

    def test_empty_parameter_rejected(self):
        org = Dimension("Org")
        empty_time = Dimension("Time", ordered=True)
        # A dimension always has its root; the root is its only leaf.  Use a
        # fresh dimension whose root has no children: leaf_count == 1 (the
        # root itself), so build an artificial zero case via a subclass is
        # overkill — instead check that leaf_count >= 1 always holds.
        assert empty_time.leaf_count == 1
        VaryingDimension(org, empty_time)  # does not raise


class TestUnmanagedMembers:
    def test_single_static_instance(self):
        varying = build_varying()
        (instance,) = varying.instances_of("Lisa")
        assert instance.path == ("Org", "FTE", "Lisa")
        assert instance.qualified_name == "FTE/Lisa"
        assert instance.validity.sorted_moments() == list(range(6))

    def test_parent_at_falls_back_to_skeleton(self):
        varying = build_varying()
        assert varying.parent_at("Lisa", "Jan") == "FTE"

    def test_not_managed(self):
        assert not build_varying().is_managed("Lisa")


class TestLegalChanges:
    def test_paper_joe_sequence(self):
        """Def. 3.1 example: Joe FTE -> PTE at Mar produces two instances."""
        varying = build_varying()
        varying.assign("Joe", "FTE")
        varying.reparent("Joe", "PTE", "Mar")
        instances = {i.qualified_name: i for i in varying.instances_of("Joe")}
        assert instances["FTE/Joe"].validity.sorted_moments() == [0, 1]
        assert instances["PTE/Joe"].validity.sorted_moments() == [2, 3, 4, 5]

    def test_reacquired_path_is_same_instance(self):
        """Joe back under FTE in Jun: VS(d1) = {Jan, Feb, Jun} (Sec. 3.1)."""
        varying = build_varying()
        varying.assign("Joe", "FTE")
        varying.reparent("Joe", "PTE", "Mar")
        varying.reparent("Joe", "FTE", "Jun")
        instances = {i.qualified_name: i for i in varying.instances_of("Joe")}
        assert len(instances) == 2
        assert instances["FTE/Joe"].validity.sorted_moments() == [0, 1, 5]
        assert instances["PTE/Joe"].validity.sorted_moments() == [2, 3, 4]

    def test_invalid_moments_are_skipped(self):
        varying = build_varying()
        varying.assign("Joe", "FTE")
        varying.set_invalid("Joe", ["Feb"])
        varying.reparent("Joe", "PTE", "Mar")
        instances = {i.qualified_name: i for i in varying.instances_of("Joe")}
        assert instances["FTE/Joe"].validity.sorted_moments() == [0]
        assert instances["PTE/Joe"].validity.sorted_moments() == [2, 3, 4, 5]
        assert varying.instance_at("Joe", "Feb") is None

    def test_reparent_on_unordered_parameter_rejected(self):
        org = Dimension("Org")
        org.add_children(None, ["FTE", "PTE"])
        org.add_member("Joe", "FTE")
        location = Dimension("Location")  # unordered
        location.add_children(None, ["NY", "MA"])
        varying = VaryingDimension(org, location)
        with pytest.raises(InvalidChangeError):
            varying.reparent("Joe", "PTE", "NY")

    def test_unordered_parameter_with_assign(self):
        org = Dimension("Org")
        org.add_children(None, ["FTE", "PTE"])
        org.add_member("Joe", "FTE")
        location = Dimension("Location")
        location.add_children(None, ["NY", "MA", "CA"])
        varying = VaryingDimension(org, location)
        varying.assign("Joe", "FTE", ["NY", "MA"])
        varying.assign("Joe", "PTE", ["CA"])
        instances = {i.qualified_name: i for i in varying.instances_of("Joe")}
        assert instances["FTE/Joe"].validity.sorted_moments() == [0, 1]
        assert instances["PTE/Joe"].validity.sorted_moments() == [2]

    def test_unknown_member_rejected(self):
        varying = build_varying()
        with pytest.raises(SchemaError):
            varying.assign("Nobody", "FTE")


class TestNonLeafReparenting:
    def test_changing_nonleaf_parent_changes_leaf_paths(self):
        """Def. 3.1: a change to a non-leaf member induces changes to the
        root-to-leaf path of the members below it."""
        org = Dimension("Org")
        org.add_children(None, ["East", "West"])
        org.add_member("TeamA", "East")
        org.add_member("Joe", "TeamA")
        time = Dimension("Time", ordered=True)
        for month in MONTHS:
            time.add_member(month)
        varying = VaryingDimension(org, time)
        varying.reparent("TeamA", "West", "Apr")
        instances = {i.full_path: i for i in varying.instances_of("Joe")}
        assert instances["Org/East/TeamA/Joe"].validity.sorted_moments() == [0, 1, 2]
        assert instances["Org/West/TeamA/Joe"].validity.sorted_moments() == [3, 4, 5]

    def test_cycle_detection(self):
        org = Dimension("Org")
        org.add_children(None, ["A", "B"])
        org.add_member("x", "A")
        time = Dimension("Time", ordered=True)
        time.add_member("Jan")
        varying = VaryingDimension(org, time)
        varying._parent_at["A"] = ["B"]
        varying._parent_at["B"] = ["A"]
        with pytest.raises(SchemaError, match="cycle"):
            varying.path_at("x", "Jan")


class TestInstanceLookup:
    def test_instance_at(self):
        varying = build_varying()
        varying.assign("Joe", "FTE")
        varying.reparent("Joe", "PTE", "Mar")
        assert varying.instance_at("Joe", "Jan").qualified_name == "FTE/Joe"
        assert varying.instance_at("Joe", "May").qualified_name == "PTE/Joe"

    def test_changing_members(self):
        varying = build_varying()
        varying.assign("Joe", "FTE")
        varying.assign("Lisa", "FTE")
        varying.reparent("Joe", "PTE", "Mar")
        assert [len(varying.instances_of(m)) for m in ("Joe", "Lisa")] == [2, 1]
        assert set(varying.managed_members()) == {"Joe", "Lisa"}


class TestCopy:
    def test_copy_is_independent(self):
        varying = build_varying()
        varying.assign("Joe", "FTE")
        clone = varying.copy()
        clone.reparent("Joe", "PTE", "Mar")
        assert len(varying.instances_of("Joe")) == 1
        assert len(clone.instances_of("Joe")) == 2

    def test_cache_invalidation_on_mutation(self):
        varying = build_varying()
        varying.assign("Joe", "FTE")
        assert len(varying.instances_of("Joe")) == 1
        varying.reparent("Joe", "PTE", "Feb")
        assert len(varying.instances_of("Joe")) == 2


@given(
    changes=st.lists(
        st.tuples(
            st.sampled_from(["FTE", "PTE", "Contractor"]),
            st.integers(min_value=0, max_value=5),
        ),
        max_size=8,
    )
)
def test_validity_sets_partition_valid_moments(changes):
    """Property: after any legal change sequence, instance validity sets of
    a member are pairwise disjoint and cover exactly the valid moments."""
    varying = build_varying()
    varying.assign("Joe", "FTE")
    for parent, moment in changes:
        varying.reparent("Joe", parent, moment)
    instances = varying.instances_of("Joe")
    seen: set[int] = set()
    for instance in instances:
        moments = set(instance.validity.moments)
        assert not moments & seen
        seen |= moments
    assert seen == set(range(6))  # Joe is never invalidated here


def build_teams() -> VaryingDimension:
    """Two levels below the root, so a non-leaf reparent changes paths of
    members it is not the skeleton parent of alone."""
    org = Dimension("Org")
    org.add_children(None, ["East", "West", "Spare"])
    org.add_children("East", ["TeamA", "TeamB"])
    org.add_children("West", ["TeamC"])
    org.add_children("TeamA", ["Joe", "Lisa"])
    org.add_children("TeamB", ["Tom"])
    org.add_children("TeamC", ["Jane"])
    time = Dimension("Time", ordered=True)
    for month in MONTHS:
        time.add_member(month)
    return VaryingDimension(org, time)


_LEAVES = ["Joe", "Lisa", "Tom", "Jane"]
_TEAMS = ["TeamA", "TeamB", "TeamC"]
_REGIONS = ["East", "West", "Spare"]
_MOMENT = st.integers(min_value=0, max_value=5)
_WRITES = st.one_of(
    st.tuples(st.just("reparent"), st.sampled_from(_LEAVES), st.sampled_from(_TEAMS), _MOMENT),
    st.tuples(st.just("reparent"), st.sampled_from(_TEAMS), st.sampled_from(_REGIONS), _MOMENT),
    st.tuples(st.just("invalid"), st.sampled_from(_LEAVES + _TEAMS), st.just(""), _MOMENT),
    st.tuples(st.just("assign"), st.sampled_from(_LEAVES), st.sampled_from(_TEAMS + ["Spare"]), _MOMENT),
)


@given(before=st.lists(_WRITES, max_size=4), after=st.lists(_WRITES, max_size=8))
def test_a_copy_remembers_exactly_the_instances_its_writes_leave_alone(before, after):
    """Property: a structure hands its copy its instance table, and a
    write re-reads only what it can change — so after any sequence of
    legal changes on the copy (leaf and non-leaf reparents, ⊥ moments,
    bulk assigns), interleaved with reads that refill the table,
    ``instances_of`` of *every* member, ``instance_at`` at every moment
    and ``CubeSchema.instance_for_coordinate`` of every instance path are
    what a structure freshly loaded from ``assignments()`` computes; and
    the original is untouched."""

    def write(varying: VaryingDimension, kind, member, parent, moment) -> None:
        try:
            if kind == "reparent":
                varying.reparent(member, parent, moment)
            elif kind == "invalid":
                varying.set_invalid(member, [moment])
            else:
                varying.assign(member, parent, [moment])
        except InvalidChangeError:
            pass  # an illegal change leaves the structure as it was

    def everything(varying: VaryingDimension):
        members = _LEAVES + _TEAMS + _REGIONS
        schema = CubeSchema([varying.dimension, varying.parameter])
        schema.register_varying(varying)
        instances = {m: varying.instances_of(m) for m in members}
        return (
            instances,
            {(m, t): varying.instance_at(m, t) for m in members for t in range(len(MONTHS))},
            {
                i.full_path: schema.instance_for_coordinate(0, i.full_path)
                for block in instances.values()
                for i in block
            },
        )

    original = build_teams()
    for step in before:
        write(original, *step)
    remembered = everything(original)  # the table the copy starts from
    hypothetical = original.copy()
    for step in after:
        write(hypothetical, *step)
        hypothetical.instances_of(step[1])  # a read between writes refills
    fresh = build_teams()
    fresh.load_assignments(hypothetical.assignments())
    assert everything(hypothetical) == everything(fresh)
    assert everything(original) == remembered
