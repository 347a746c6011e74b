"""Tests for the aggregate functions and MISSING semantics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RuleError
from repro.olap.aggregation import (
    agg_avg,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
    aggregate,
)
from repro.olap.missing import MISSING, Missing, is_missing


class TestMissingSentinel:
    def test_singleton(self):
        assert Missing() is MISSING

    def test_falsy(self):
        assert not MISSING

    def test_is_missing(self):
        assert is_missing(MISSING)
        assert is_missing(None)
        assert not is_missing(0.0)

    def test_repr(self):
        assert repr(MISSING) == "MISSING"

    def test_pickle_preserves_singleton(self):
        import pickle

        assert pickle.loads(pickle.dumps(MISSING)) is MISSING


class TestAggregators:
    def test_sum_skips_missing(self):
        assert agg_sum([1, MISSING, 2]) == 3.0

    def test_sum_all_missing_is_missing(self):
        assert is_missing(agg_sum([MISSING, MISSING]))

    def test_sum_empty_is_missing(self):
        assert is_missing(agg_sum([]))

    def test_avg(self):
        assert agg_avg([1, 3, MISSING]) == 2.0

    def test_min_max(self):
        assert agg_min([3, 1, MISSING]) == 1.0
        assert agg_max([3, 1, MISSING]) == 3.0

    def test_count_counts_non_missing(self):
        assert agg_count([1, MISSING, 2]) == 2.0

    def test_count_of_only_missing_is_zero(self):
        assert agg_count([MISSING]) == 0.0

    def test_count_of_empty_is_missing(self):
        assert is_missing(agg_count([]))

    def test_aggregate_by_name(self):
        assert aggregate("sum", [1, 2]) == 3.0

    def test_unknown_aggregator(self):
        with pytest.raises(RuleError):
            aggregate("median", [1])


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32)))
def test_sum_matches_python_sum(values):
    result = agg_sum(values)
    if not values:
        assert is_missing(result)
    else:
        assert result == pytest.approx(sum(values))


@given(
    st.lists(
        st.one_of(
            st.none(), st.floats(allow_nan=False, allow_infinity=False, width=32)
        )
    )
)
def test_aggregators_never_raise_on_mixed_input(values):
    for name in ("sum", "avg", "min", "max", "count"):
        aggregate(name, values)


# -- one pass over buckets: np.bincount is the strict fold, bucket by bucket --------

_SPECIALS = np.array([np.nan, 0.0, -0.0, 1e-5, -1e-5, 1e12, -1e12])


def _draw_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Magnitudes from 1e-5 to 1e12 of either sign, with NaN and ±0
    sprinkled in."""
    values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-5, 12, n)
    special = rng.random(n) < 0.15
    values[special] = rng.choice(_SPECIALS, int(special.sum()))
    return values


@pytest.mark.parametrize("seed", range(4))
def test_bincount_is_the_strict_sum_of_each_bucket(seed):
    """``np.bincount(bucket, weights=values)`` folds each bucket from 0.0
    in input order — the streaming ``agg_sum`` of the bucket's values, bit
    for bit (NaN, the sign of zero and rounding alike), and ``0.0`` for a
    bucket that holds none: a grid level can be summed in one pass over
    its rows without changing a cell."""
    rng = np.random.default_rng(seed)
    for _ in range(500):
        n = int(rng.integers(0, 40))
        n_buckets = int(rng.integers(1, 8))
        values = _draw_values(rng, n)
        bucket = rng.integers(0, n_buckets, n)
        got = np.bincount(bucket, weights=values, minlength=n_buckets)
        sums = [agg_sum(values[bucket == b].tolist()) for b in range(n_buckets)]
        expected = np.array([0.0 if is_missing(total) else total for total in sums])
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist(), (
            values.tolist(),
            bucket.tolist(),
        )
