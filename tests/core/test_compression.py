"""Tests for delta-encoded (compressed) perspective cubes."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compression import compress
from repro.core.perspective import Mode, Semantics
from repro.core.scenario import NegativeScenario
from repro.errors import QueryError
from repro.olap.missing import is_missing
from repro.workload.running_example import build_running_example
from repro.workload.workforce import WorkforceConfig, build_workforce


def forward_result(example, perspectives=("Feb", "Apr")):
    scenario = NegativeScenario(
        "Organization", list(perspectives), Semantics.FORWARD, Mode.NON_VISUAL
    )
    return scenario.apply(example.cube)


class TestRoundTrip:
    def test_materialize_equals_output(self, example):
        result = forward_result(example)
        compressed = compress(example.cube, result)
        assert compressed.materialize().leaf_equal(result.leaf_cube)

    def test_point_reads_match(self, example):
        result = forward_result(example)
        compressed = compress(example.cube, result)
        for addr, _ in example.cube.leaf_cells():
            expected = result.leaf_cube.value(addr)
            got = compressed.value(addr)
            assert is_missing(got) == is_missing(expected)
            if not is_missing(expected):
                assert got == expected

    def test_override_reads(self, example):
        result = forward_result(example)
        compressed = compress(example.cube, result)
        # (PTE/Joe, Mar) is an override: ⊥ in base, 30 in output.
        addr = example.schema.address(
            Organization="Organization/PTE/Joe",
            Location="NY",
            Time="Mar",
            Measures="Salary",
        )
        assert addr in compressed.overrides
        assert compressed.value(addr) == 30.0

    def test_deletion_reads(self, example):
        result = forward_result(example)
        compressed = compress(example.cube, result)
        # (FTE/Joe, Jan) is deleted: FTE/Joe does not survive P={Feb, Apr}.
        addr = example.schema.address(
            Organization="Organization/FTE/Joe",
            Location="NY",
            Time="Jan",
            Measures="Salary",
        )
        assert addr in compressed.deletions
        assert is_missing(compressed.value(addr))

    def test_at_keyword_form(self, example):
        compressed = compress(example.cube, forward_result(example))
        assert compressed.at(
            Organization="Organization/PTE/Joe",
            Location="NY",
            Time="Mar",
            Measures="Salary",
        ) == 30.0


class TestBitExactDelta:
    """Leaf values are compared by their bits."""

    def test_a_sign_of_zero_change_is_an_override(self, example):
        base = example.cube
        addr, _ = next(iter(base.leaf_cells()))
        base.set_value(addr, 0.0)
        result = base.copy()
        result.set_value(addr, -0.0)
        compressed = compress(base, result)
        assert addr in compressed.overrides
        assert repr(compressed.value(addr)) == "-0.0"
        assert repr(compressed.materialize().value(addr)) == "-0.0"

    def test_an_unchanged_nan_is_not_an_override(self, example):
        base = example.cube
        addr, _ = next(iter(base.leaf_cells()))
        base.set_value(addr, math.nan)
        compressed = compress(base, base.copy())
        assert compressed.delta_cells == 0
        assert math.isnan(compressed.value(addr))
        assert math.isnan(compressed.materialize().value(addr))


class TestStatistics:
    def test_delta_much_smaller_than_cube(self):
        """With ~8% of employees changing, the delta stays a small fraction."""
        workforce = build_workforce(
            WorkforceConfig(
                n_employees=100, n_departments=8, n_changing=8, seed=3
            )
        )
        scenario = NegativeScenario(
            "Department", ["Jan"], Semantics.FORWARD, Mode.NON_VISUAL
        )
        result = scenario.apply(workforce.cube)
        compressed = compress(workforce.cube, result)
        assert 0.0 < compressed.compression_ratio < 0.35

    def test_identity_scenario_compresses_to_nothing(self, example):
        """Static P covering every instance changes nothing: empty delta."""
        scenario = NegativeScenario(
            "Organization",
            ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
             "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"],
            Semantics.STATIC,
        )
        result = scenario.apply(example.cube)
        compressed = compress(example.cube, result)
        assert compressed.delta_cells == 0
        assert compressed.compression_ratio == 0.0

    def test_validity_out_carried(self, example):
        result = forward_result(example)
        compressed = compress(example.cube, result)
        assert compressed.validity_out == result.validity_out

    def test_schema_mismatch_rejected(self, example):
        other = build_running_example()
        with pytest.raises(QueryError):
            compress(example.cube, other.cube)


@settings(max_examples=20, deadline=None)
@given(
    p_moments=st.sets(
        st.integers(min_value=0, max_value=11), min_size=1, max_size=4
    ),
    semantics=st.sampled_from(
        [Semantics.STATIC, Semantics.FORWARD, Semantics.BACKWARD]
    ),
    # leaves rewritten to a signed zero or NaN before the query
    specials=st.lists(
        st.tuples(st.integers(min_value=0), st.sampled_from([0.0, -0.0, math.nan])),
        max_size=6,
    ),
)
def test_compression_round_trip_property(p_moments, semantics, specials):
    """compress + materialize is lossless for any perspective query."""
    example = build_running_example()
    leaves = [addr for addr, _ in example.cube.leaf_cells()]
    for i, value in specials:
        example.cube.set_value(leaves[i % len(leaves)], value)
    months = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
              "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]
    scenario = NegativeScenario(
        "Organization", [months[m] for m in sorted(p_moments)], semantics
    )
    result = scenario.apply(example.cube)
    compressed = compress(example.cube, result)
    assert compressed.materialize().leaf_equal(result.leaf_cube)
