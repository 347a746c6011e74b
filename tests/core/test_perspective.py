"""Tests for the perspective transform Φ (Defs. 4.2/4.3) and its semantics.

Includes a brute-force model of the definitional semantics (per-moment
governing perspectives) and hypothesis properties checking Φ against it.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.perspective import (
    Mode,
    PerspectiveSet,
    Semantics,
    phi,
    phi_member,
    stretch,
)
from repro.core.scenario import phi_validity
from repro.errors import QueryError
from repro.olap.dimension import Dimension
from repro.olap.instances import MemberInstance, VaryingDimension
from repro.olap.schema import CubeSchema
from repro.validity import ValiditySet

UNIVERSE = 12


def vs(*moments: int) -> ValiditySet:
    return ValiditySet(moments, UNIVERSE)


def pset(*moments: int) -> PerspectiveSet:
    return PerspectiveSet(moments, UNIVERSE)


class TestPerspectiveSet:
    def test_sorted_and_deduplicated(self):
        assert pset(5, 1, 5).moments == (1, 5)

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            PerspectiveSet((), UNIVERSE)

    def test_out_of_range_rejected(self):
        with pytest.raises(QueryError):
            pset(12)

    def test_governing_forward(self):
        p = pset(2, 6)
        assert p.governing_forward(1) is None
        assert p.governing_forward(2) == 2
        assert p.governing_forward(5) == 2
        assert p.governing_forward(6) == 6
        assert p.governing_forward(11) == 6

    def test_governing_backward(self):
        p = pset(2, 6)
        assert p.governing_backward(7) is None
        assert p.governing_backward(6) == 6
        assert p.governing_backward(3) == 6
        assert p.governing_backward(0) == 2

    def test_pmin_pmax(self):
        p = pset(4, 9, 2)
        assert p.pmin == 2
        assert p.pmax == 9


class TestStretch:
    def test_single_perspective_reaches_infinity(self):
        assert stretch(vs(3), pset(3)) == ValiditySet.interval(3, None, UNIVERSE)

    def test_not_valid_at_perspective_is_empty(self):
        assert stretch(vs(4), pset(3)).is_empty

    def test_intervals_between_perspectives(self):
        # valid at p1=2 but not p2=6: stretch covers [2, 6) only.
        assert stretch(vs(2), pset(2, 6)).sorted_moments() == [2, 3, 4, 5]

    def test_valid_at_both_perspectives(self):
        assert stretch(vs(2, 6), pset(2, 6)) == ValiditySet.interval(2, None, UNIVERSE)

    def test_universe_mismatch_rejected(self):
        with pytest.raises(QueryError):
            stretch(ValiditySet((1,), 5), pset(1))


class TestStaticSemantics:
    def test_identity_on_surviving_instances(self):
        result = phi({"a": vs(1, 3), "b": vs(5)}, pset(3), Semantics.STATIC)
        assert result == {"a": vs(1, 3)}

    def test_all_dropped_when_nothing_valid_at_p(self):
        assert phi({"a": vs(1)}, pset(2), Semantics.STATIC) == {}

    def test_multiple_perspectives_keep_multiple_instances(self):
        result = phi({"a": vs(0, 1), "b": vs(4, 5)}, pset(1, 4), Semantics.STATIC)
        assert result == {"a": vs(0, 1), "b": vs(4, 5)}


class TestForwardSemantics:
    def test_single_perspective_paper_example(self):
        # Joe: FTE {Jan}, PTE {Feb}, Contractor {Mar..} with P = {Jan}:
        # FTE/Joe takes over [Jan, +inf) (Sec. 3.3 example).
        result = phi(
            {"fte": vs(0), "pte": vs(1), "contr": vs(*range(2, 12))},
            pset(0),
            Semantics.FORWARD,
        )
        assert result == {"fte": ValiditySet.interval(0, None, UNIVERSE)}

    def test_keeps_pre_pmin_original_moments(self):
        # Instance valid at 0 and at perspective 4: output keeps moment 0.
        result = phi({"a": vs(0, 4), "b": vs(1, 2, 3)}, pset(4), Semantics.FORWARD)
        assert result["a"].sorted_moments() == [0] + list(range(4, 12))
        assert "b" not in result

    def test_fig4_validity_sets(self):
        # P = {Feb, Apr} over Joe's instances: PTE/Joe gets [Feb, Apr),
        # Contractor/Joe gets [Apr, +inf); FTE/Joe is dropped.
        result = phi(
            {"fte": vs(0), "pte": vs(1), "contr": vs(2, 3) | vs(*range(5, 12))},
            pset(1, 3),
            Semantics.FORWARD,
        )
        assert result["pte"].sorted_moments() == [1, 2]
        assert result["contr"].sorted_moments() == list(range(3, 12))
        assert "fte" not in result

    def test_extended_forward_maps_prefix_to_pmin_instance(self):
        result = phi(
            {"a": vs(2, 3), "b": vs(0, 1)}, pset(2), Semantics.EXTENDED_FORWARD
        )
        assert result == {"a": ValiditySet.full(UNIVERSE)}

    def test_extended_forward_drops_prefix_of_other_instances(self):
        result = phi(
            {"a": vs(3), "b": vs(0, 1, 2)}, pset(3), Semantics.EXTENDED_FORWARD
        )
        # b is not valid at pmin, so it contributes nothing at all.
        assert result == {"a": ValiditySet.interval(0, None, UNIVERSE)}


class TestBackwardSemantics:
    def test_single_perspective_backward(self):
        result = phi(
            {"a": vs(5), "b": vs(3)}, pset(5), Semantics.BACKWARD
        )
        assert result == {"a": ValiditySet.interval(0, 6, UNIVERSE)}

    def test_backward_keeps_post_pmax_original_moments(self):
        result = phi({"a": vs(5, 9)}, pset(5), Semantics.BACKWARD)
        assert result["a"].sorted_moments() == list(range(0, 6)) + [9]

    def test_extended_backward_maps_suffix_to_pmax_instance(self):
        result = phi({"a": vs(5)}, pset(5), Semantics.EXTENDED_BACKWARD)
        assert result == {"a": ValiditySet.full(UNIVERSE)}

    def test_backward_mirrors_forward(self):
        validity = {"a": vs(1, 6, 7), "b": vs(2, 3), "c": vs(9)}
        p = pset(2, 7)
        backward = phi(validity, p, Semantics.BACKWARD)
        mirrored_validity = {k: v.reversed() for k, v in validity.items()}
        mirrored_p = PerspectiveSet(
            (UNIVERSE - 1 - m for m in p.moments), UNIVERSE
        )
        forward = phi(mirrored_validity, mirrored_p, Semantics.FORWARD)
        assert backward == {k: v.reversed() for k, v in forward.items()}


# -- brute-force definitional models -------------------------------------------


def model_forward(validity_in: dict[str, ValiditySet], p: PerspectiveSet):
    """Per-moment governing-perspective model of Def. 3.4 forward."""
    out: dict[str, set[int]] = {k: set() for k in validity_in}
    for t in range(UNIVERSE):
        governing = p.governing_forward(t)
        if governing is None:
            # Before Pmin: original assignment.
            for key, validity in validity_in.items():
                if t in validity:
                    out[key].add(t)
            continue
        for key, validity in validity_in.items():
            if governing in validity:
                out[key].add(t)
    result = {}
    for key, moments in out.items():
        # Drop instances not valid at any perspective (Stretch empty):
        # such instances keep no moments at all, including pre-Pmin ones.
        if not any(m in validity_in[key] for m in p.moments):
            continue
        if moments:
            result[key] = ValiditySet(moments, UNIVERSE)
    return result


def disjoint_validity_maps():
    """Random per-member instance partitions: assign each moment to one of
    three instances or to nobody."""

    @st.composite
    def build(draw):
        assignment = draw(
            st.lists(
                st.integers(min_value=-1, max_value=2),
                min_size=UNIVERSE,
                max_size=UNIVERSE,
            )
        )
        table: dict[str, set[int]] = {}
        for t, owner in enumerate(assignment):
            if owner >= 0:
                table.setdefault(f"i{owner}", set()).add(t)
        return {k: ValiditySet(v, UNIVERSE) for k, v in table.items()}

    return build()


@given(
    validity=disjoint_validity_maps(),
    p_moments=st.sets(
        st.integers(min_value=0, max_value=UNIVERSE - 1), min_size=1, max_size=4
    ),
)
def test_phi_forward_matches_definitional_model(validity, p_moments):
    p = PerspectiveSet(p_moments, UNIVERSE)
    assert phi(validity, p, Semantics.FORWARD) == model_forward(validity, p)


@given(
    validity=disjoint_validity_maps(),
    p_moments=st.sets(
        st.integers(min_value=0, max_value=UNIVERSE - 1), min_size=1, max_size=4
    ),
    semantics=st.sampled_from(list(Semantics)),
)
def test_phi_outputs_are_pairwise_disjoint(validity, p_moments, semantics):
    """Output validity sets of one member's instances never overlap."""
    p = PerspectiveSet(p_moments, UNIVERSE)
    result = list(phi(validity, p, semantics).values())
    for i in range(len(result)):
        for j in range(i + 1, len(result)):
            assert result[i].is_disjoint(result[j])


@given(
    validity=disjoint_validity_maps(),
    p_moments=st.sets(
        st.integers(min_value=0, max_value=UNIVERSE - 1), min_size=1, max_size=4
    ),
)
def test_phi_static_is_restriction_of_input(validity, p_moments):
    p = PerspectiveSet(p_moments, UNIVERSE)
    result = phi(validity, p, Semantics.STATIC)
    for key, out_validity in result.items():
        assert out_validity == validity[key]


@given(
    validity=disjoint_validity_maps(),
    p_moments=st.sets(
        st.integers(min_value=0, max_value=UNIVERSE - 1), min_size=1, max_size=4
    ),
)
def test_extended_forward_covers_forward(validity, p_moments):
    """Extended forward only ever adds pre-Pmin moments to pmin's instance."""
    p = PerspectiveSet(p_moments, UNIVERSE)
    forward = phi(validity, p, Semantics.FORWARD)
    extended = phi(validity, p, Semantics.EXTENDED_FORWARD)
    for key, ext in extended.items():
        post = ext.restrict_from(p.pmin)
        assert key in forward
        assert post == forward[key].restrict_from(p.pmin)


def test_phi_member_uses_instance_objects(example):
    p = PerspectiveSet.from_names(["Jan"], example.org)
    result = phi_member(example.org.instances_of("Joe"), p, Semantics.FORWARD)
    assert len(result) == 1
    (instance, validity), = result.items()
    assert instance.qualified_name == "FTE/Joe"
    assert validity == ValiditySet.interval(0, None, 12)


def test_mode_enum_values():
    assert Mode.VISUAL.value == "visual"
    assert Mode.NON_VISUAL.value == "non_visual"
    assert Semantics.FORWARD.is_dynamic
    assert not Semantics.STATIC.is_dynamic
    assert Semantics.EXTENDED_BACKWARD.is_backward
    assert Semantics.EXTENDED_BACKWARD.is_extended


# -- every semantics against the definitional model ----------------------------------
#
# Def. 3.4's per-moment reading, one rule per semantics: a moment takes the
# instance valid at the perspective that governs it, and a moment no
# perspective governs keeps its own assignment — or, extended, takes the
# instance valid at the nearest perspective.  Universes of 1-14 moments,
# sets drawn freely (overlapping ones included), and the edge perspective
# sets {0}, {U-1} and every moment.  Tier-1 draws a few dozen cases per
# law; the CI ``faults`` job (``REPRO_FAULTS=ci-matrix``) the wide run.

WIDE = "ci-matrix" in os.environ.get("REPRO_FAULTS", "")
PHI_EXAMPLES = 1500 if WIDE else 40


def model_phi(
    validity: ValiditySet, p: PerspectiveSet, semantics: Semantics
) -> "set[int]":
    """The output moments of one instance under ``semantics``, moment by
    moment; empty when the instance holds no perspective (σ drops it)."""
    if not any(m in validity for m in p.moments):
        return set()
    if semantics is Semantics.STATIC:
        return set(validity.moments)
    out = set()
    for t in range(p.universe):
        if semantics.is_forward:
            governing, anchor = p.governing_forward(t), p.pmin
        else:
            governing, anchor = p.governing_backward(t), p.pmax
        if governing is not None:
            held = governing in validity
        elif semantics.is_extended:
            held = anchor in validity
        else:
            held = t in validity
        if held:
            out.add(t)
    return out


def model_stretch(validity: ValiditySet, p: PerspectiveSet) -> "set[int]":
    """Def. 4.3's Stretch, moment by moment: t >= Pmin whose governing
    perspective the instance holds."""
    return {
        t
        for t in range(p.universe)
        if p.governing_forward(t) is not None and p.governing_forward(t) in validity
    }


@st.composite
def perspective_cases(draw):
    """A universe, a perspective set — drawn, or one of the edge sets —
    and a handful of validity sets drawn independently (they may
    overlap)."""
    universe = draw(st.integers(min_value=1, max_value=14))
    moment = st.integers(min_value=0, max_value=universe - 1)
    p_moments = draw(
        st.one_of(
            st.sets(moment, min_size=1, max_size=universe),
            st.just({0}),
            st.just({universe - 1}),
            st.just(set(range(universe))),
        )
    )
    sets = draw(st.lists(st.sets(moment), min_size=1, max_size=6))
    return (
        PerspectiveSet(p_moments, universe),
        [ValiditySet(moments, universe) for moments in sets],
    )


@settings(max_examples=PHI_EXAMPLES, deadline=None)
@given(case=perspective_cases(), semantics=st.sampled_from(list(Semantics)))
def test_phi_matches_the_model_under_every_semantics(case, semantics):
    p, sets = case
    validity_in = {f"i{k}": validity for k, validity in enumerate(sets)}
    expected = {
        key: ValiditySet(moments, p.universe)
        for key, validity in validity_in.items()
        if (moments := model_phi(validity, p, semantics))
    }
    result = phi(validity_in, p, semantics)
    assert result == expected
    assert list(result) == [key for key in validity_in if key in expected]


@settings(max_examples=PHI_EXAMPLES, deadline=None)
@given(case=perspective_cases(), semantics=st.sampled_from(list(Semantics)))
def test_phi_member_matches_the_model_under_every_semantics(case, semantics):
    p, sets = case
    instances = [
        MemberInstance("m", ("D", f"g{k}", "m"), validity)
        for k, validity in enumerate(sets)
    ]
    result = phi_member(instances, p, semantics)
    expected = {
        instance: ValiditySet(moments, p.universe)
        for instance in instances
        if (moments := model_phi(instance.validity, p, semantics))
    }
    assert result == expected
    assert list(result) == [i for i in instances if i in expected]


@settings(max_examples=PHI_EXAMPLES, deadline=None)
@given(case=perspective_cases())
def test_stretch_matches_the_model(case):
    p, sets = case
    for validity in sets:
        assert stretch(validity, p) == ValiditySet(model_stretch(validity, p), p.universe)


def _structure(universe: int, rows: "dict[str, list[int]]") -> VaryingDimension:
    """A varying dimension D over an ordered parameter of ``universe``
    moments: groups g0-g2 and members e0.. whose parent at moment t is
    group ``rows[e][t]`` (-1: invalid there)."""
    dim = Dimension("D")
    dim.add_children(None, ["g0", "g1", "g2"])
    for member in rows:
        dim.add_member(member, "g0")
    time = Dimension("T", ordered=True)
    time.add_children(None, [f"t{i}" for i in range(universe)])
    varying = CubeSchema([dim, time]).make_varying("D", "T")
    for member, row in rows.items():
        for t, group in enumerate(row):
            if group < 0:
                varying.set_invalid(member, [t])
            else:
                varying.assign(member, f"g{group}", [t])
    return varying


@st.composite
def structure_cases(draw):
    universe = draw(st.integers(min_value=1, max_value=14))
    moment = st.integers(min_value=0, max_value=universe - 1)
    p_moments = draw(
        st.one_of(
            st.sets(moment, min_size=1, max_size=universe),
            st.just({0}),
            st.just({universe - 1}),
            st.just(set(range(universe))),
        )
    )
    names = [f"e{k}" for k in range(draw(st.integers(min_value=1, max_value=5)))]
    group = st.integers(min_value=-1, max_value=2)
    rows = {
        name: draw(st.lists(group, min_size=universe, max_size=universe))
        for name in names
    }
    order = draw(st.permutations(names))
    asked = order[: draw(st.integers(min_value=1, max_value=len(order)))]
    return _structure(universe, rows), PerspectiveSet(p_moments, universe), asked


@settings(max_examples=PHI_EXAMPLES, deadline=None)
@given(case=structure_cases(), semantics=st.sampled_from(list(Semantics)))
def test_phi_validity_matches_the_model_in_member_and_instance_order(case, semantics):
    """The table path: every instance of the members asked, in the order
    asked, each member's in its own order."""
    varying, p, asked = case
    expected = {
        instance.full_path: ValiditySet(moments, p.universe)
        for member in asked
        for instance in varying.instances_of(member)
        if (moments := model_phi(instance.validity, p, semantics))
    }
    result = phi_validity(varying, asked, p, semantics)
    assert list(result.items()) == list(expected.items())
    by_member = {}
    for member in asked:
        by_member.update(phi_validity(varying, [member], p, semantics))
    assert list(by_member.items()) == list(expected.items())
