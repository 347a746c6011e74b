"""Drift-robust statistics for the ledger.

The host drifts: a fixed pure-Python kernel runs ±15 % slower or faster
for tens of seconds at a time, so raw-sample percentiles of a short run
measure the neighbours.  Every gated number is therefore a *best-block*
statistic: the timed phase is cut into blocks that each run every slot
``k`` times, a slot's cost in a block is the median of its ``k`` samples,
and the slot's reported cost is the smallest of those block medians —
the block the host disturbed least.
"""

from __future__ import annotations

import math
import statistics

__all__ = [
    "best_block",
    "noise_row",
    "percentile",
    "raw_tail",
]

#: samples[slot][block] -> the k wall-clock milliseconds of that slot in that block
Samples = "list[list[list[float]]]"


def best_block(samples: Samples) -> "dict[str, float]":
    """The gated statistics of one timed phase.

    ``op_ms[s] = min_b median(samples[s][b])``; ``op_p50_ms`` is the
    median of ``op_ms`` over slots (the middle class of operation);
    ``ops_per_s`` is the operations of one block over the time a block
    takes when every slot runs at its ``op_ms`` — every class counts by
    its cost, and each slot brings its own quietest block (asking for one
    block in which *all* slots were undisturbed repeats far worse).
    """
    op_ms = [
        min(statistics.median(block) for block in slot) for slot in samples
    ]
    reps = [len(slot[0]) for slot in samples]
    block_s = [
        sum(sum(slot[b]) for slot in samples) / 1000.0
        for b in range(len(samples[0]))
    ]
    return {
        "op_p50_ms": statistics.median(op_ms),
        "ops_per_s": sum(reps) / (sum(k * ms for k, ms in zip(reps, op_ms)) / 1000.0),
        "block_spread": max(block_s) / min(block_s),
    }


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def raw_tail(values: "list[float]") -> "dict[str, float]":
    """Un-gated raw-sample percentiles.  A percentile is reported only
    when at least ten samples lie beyond it (p90 needs 100 samples, p99
    needs 1,000); otherwise it reads 0 — an unsupported tail would be one
    neighbour's hiccup, not a property of the program."""
    n = len(values)
    return {
        "raw_p50_ms": statistics.median(values),
        "raw_p90_ms": percentile(values, 90) if n >= 100 else 0.0,
        "raw_p99_ms": percentile(values, 99) if n >= 1000 else 0.0,
        "raw_max_ms": max(values),
        "samples": float(n),
    }


def noise_row(values: "list[float]") -> "dict[str, float]":
    """One line of the ``--repeat`` report (two runs or more): median,
    quartiles, spread and the largest relative deviation from the median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "max_dev": max(abs(v - median) for v in values) / median,
    }
