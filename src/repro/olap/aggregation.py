"""Aggregation functions with ⊥ (MISSING) semantics.

The standard data-warehouse aggregates (sum, avg, min, max, count) are
special cases of the paper's rules (Sec. 2).  All of them skip MISSING
inputs; if every input is MISSING the result is MISSING.  ``count`` counts
non-missing inputs and returns 0 (a real number) when given some inputs but
none non-missing — except that an entirely empty scope is MISSING, matching
the convention that a cell with no descendant data does not exist.

Every aggregator is *streaming*: one pass over the input iterable with O(1)
state, so callers never pay for an intermediate list.  They are the one
definition of each aggregate: ``Cube.rollup`` folds a scope's values
through :func:`aggregate` on every path, except that the engine answers
``sum`` from the rollup index, whose block reduction folds each scope
from ``0.0`` in ascending leaf-id order exactly as :func:`agg_sum` does
(``RollupIndex._block_sums``).
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeAlias

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


def aggregate(name: str, values: Iterable[object]) -> CellValue:
    """Apply a named aggregator; raises :class:`RuleError` for unknown names."""
    try:
        func = AGGREGATORS[name]
    except KeyError:
        raise RuleError(
            f"unknown aggregator {name!r}; expected one of {sorted(AGGREGATORS)}"
        ) from None
    return func(values)
