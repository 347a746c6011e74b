"""Aggregation functions with ⊥ (MISSING) semantics.

The standard data-warehouse aggregates (sum, avg, min, max, count) are
special cases of the paper's rules (Sec. 2).  All of them skip MISSING
inputs; if every input is MISSING the result is MISSING.  ``count`` counts
non-missing inputs and returns 0 (a real number) when given some inputs but
none non-missing — except that an entirely empty scope is MISSING, matching
the convention that a cell with no descendant data does not exist.

Every aggregator is *streaming*: one pass over the input iterable with O(1)
state, so callers (notably the rollup index, which feeds generator scopes)
never pay for an intermediate list.

Vectorized reduction
--------------------
:func:`reduce_array` is the columnar counterpart used by the rollup
index's columnar kernel: it reduces a gathered ``float64`` array of *live*
cell values (liveness is resolved upstream, so no MISSING sentinel ever
appears in the array).  The result is bit-identical to the streaming
aggregators above — summation runs through ``np.add.accumulate`` (a
sequential scan, unlike ``np.sum``'s pairwise tree) seeded with the same
``0.0`` the Python loop starts from, and min/max fall back to the
sequential loop whenever a NaN is present (their NaN outcome is
order-dependent).
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeAlias

import numpy as np

from repro.errors import RuleError
from repro.olap.missing import MISSING, Missing, is_missing

__all__ = [
    "AGGREGATORS",
    "aggregate",
    "agg_sum",
    "agg_avg",
    "agg_min",
    "agg_max",
    "agg_count",
    "reduce_array",
]

Number = float
CellValue: TypeAlias = "Number | Missing"


def agg_sum(values: Iterable[object]) -> CellValue:
    total = 0.0
    count = 0
    for v in values:
        if is_missing(v):
            continue
        total += float(v)  # type: ignore[arg-type]
        count += 1
    if count == 0:
        return MISSING
    return total


def agg_avg(values: Iterable[object]) -> CellValue:
    total = 0.0
    count = 0
    for v in values:
        if is_missing(v):
            continue
        total += float(v)  # type: ignore[arg-type]
        count += 1
    if count == 0:
        return MISSING
    return total / count


def agg_min(values: Iterable[object]) -> CellValue:
    best: float | None = None
    for v in values:
        if is_missing(v):
            continue
        value = float(v)  # type: ignore[arg-type]
        if best is None or value < best:
            best = value
    if best is None:
        return MISSING
    return best


def agg_max(values: Iterable[object]) -> CellValue:
    best: float | None = None
    for v in values:
        if is_missing(v):
            continue
        value = float(v)  # type: ignore[arg-type]
        if best is None or value > best:
            best = value
    if best is None:
        return MISSING
    return best


def agg_count(values: Iterable[object]) -> CellValue:
    # Single pass: an empty input is ⊥, an input of only-⊥ cells counts 0.
    seen = 0
    present = 0
    for v in values:
        seen += 1
        if not is_missing(v):
            present += 1
    if seen == 0:
        return MISSING
    return float(present)


AGGREGATORS: dict[str, Callable[[Iterable[object]], CellValue]] = {
    "sum": agg_sum,
    "avg": agg_avg,
    "min": agg_min,
    "max": agg_max,
    "count": agg_count,
}


def _strict_sum(values: np.ndarray) -> float:
    # np.add.accumulate is a *sequential* left fold (np.sum is pairwise);
    # seeding it with 0.0 reproduces `total = 0.0; total += v` bit for bit,
    # including the 0.0 + (-0.0) == 0.0 first step.
    seeded = np.empty(len(values) + 1, dtype=np.float64)
    seeded[0] = 0.0
    seeded[1:] = values
    return float(np.add.accumulate(seeded)[-1])


def _sequential_extreme(values: np.ndarray, want_min: bool) -> float:
    # Replicates agg_min/agg_max when NaN is among the inputs: the first
    # value is always taken, and NaN never wins (or loses) a comparison —
    # so the outcome depends on NaN's position and numpy's NaN-propagating
    # reductions cannot be used.
    best = float(values[0])
    if want_min:
        for v in values[1:]:
            if v < best:
                best = float(v)
    else:
        for v in values[1:]:
            if v > best:
                best = float(v)
    return best


def reduce_array(name: str, values: np.ndarray) -> CellValue:
    """Reduce a gathered array of live cell values (no MISSING inside),
    matching the streaming aggregators bit for bit.  An empty array is
    an empty scope: MISSING for every aggregator, including ``count``.
    """
    n = len(values)
    if n == 0:
        return MISSING
    if name == "count":
        return float(n)
    if name == "sum":
        return _strict_sum(values)
    if name == "avg":
        return _strict_sum(values) / n
    if name == "min" or name == "max":
        # NaN semantics are order-dependent in the streaming aggregators;
        # numpy's min/max propagate NaN instead, so guard on its presence.
        if np.isnan(values).any():
            return _sequential_extreme(values, want_min=name == "min")
        # the *first* extreme, like the streaming fold (a later equal value
        # never replaces it) — np.min/np.max may return either zero of ±0.0
        at = np.argmin(values) if name == "min" else np.argmax(values)
        return float(values[at])
    raise RuleError(
        f"unknown aggregator {name!r}; expected one of {sorted(AGGREGATORS)}"
    )


def aggregate(name: str, values: Iterable[object]) -> CellValue:
    """Apply a named aggregator; raises :class:`RuleError` for unknown names."""
    try:
        func = AGGREGATORS[name]
    except KeyError:
        raise RuleError(
            f"unknown aggregator {name!r}; expected one of {sorted(AGGREGATORS)}"
        ) from None
    return func(values)
