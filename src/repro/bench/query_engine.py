"""Query-throughput benchmark: the perf engine vs the naive evaluator.

The workload is the Fig. 11/12 *shape* — many MDX queries against one
what-if scenario — at semantic-cube scale: a workforce warehouse with
>= 10k leaf cells and result grids of >= 100 derived (department-level)
cells.  Every query carries the same ``WITH PERSPECTIVE`` clause, so the
scenario-cube cache should pay off from the second query on, and every
derived cell exercises the rollup index.

Two passes over the identical query list are timed:

* **naive** — ``repro.perf.naive_mode()``: per-query ``scenario.apply``
  plus one full leaf scan per derived cell (the pre-engine code path);
* **engine** — rollup index + scenario cache + batched grid evaluation.

Both passes must produce bit-identical cell grids (checked before any
timing); the speedup is the ratio of mean per-query wall times.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from repro.bench.harness import format_table
from repro.perf.config import naive_mode
from repro.workload.workforce import WorkforceConfig, build_workforce

__all__ = [
    "QueryEngineConfig",
    "full_config",
    "smoke_config",
    "load_history",
    "measure_tracing_overhead",
    "run_query_engine",
    "render_report",
    "write_baseline",
]


@dataclass(frozen=True)
class QueryEngineConfig:
    """Scale and repetition knobs for the throughput benchmark."""

    n_employees: int = 120
    n_departments: int = 8
    n_accounts: int = 6
    density: float = 1.0
    seed: int = 42
    #: timed repetitions of the full query list per mode (one untimed
    #: warmup pass precedes each, so both modes are measured warm)
    naive_repeats: int = 2
    engine_repeats: int = 10


def full_config() -> QueryEngineConfig:
    """Acceptance-scale run: >= 10k leaf cells."""
    return QueryEngineConfig()


def smoke_config() -> QueryEngineConfig:
    """CI-sized run: small cube, enough to catch a regression."""
    return QueryEngineConfig(
        n_employees=24,
        n_departments=4,
        n_accounts=3,
        naive_repeats=3,
        engine_repeats=3,
    )


def _build_queries(cube_name: str) -> list[str]:
    """Same scenario, three grids — the repeated-scenario workload."""
    scenario = "WITH PERSPECTIVE {(Jan), (Jul)} FOR Department STATIC"
    return [
        f"""
        {scenario}
        SELECT {{Period.Members}} ON COLUMNS,
               {{CrossJoin({{Department.Children}}, {{Scenario.Children}})}} ON ROWS
        FROM {cube_name}
        """,
        f"""
        {scenario}
        SELECT {{Period.Members}} ON COLUMNS,
               {{CrossJoin({{Department.Children}}, {{Account.Members}})}} ON ROWS
        FROM {cube_name}
        """,
        f"""
        {scenario}
        SELECT {{Account.Members}} ON COLUMNS,
               {{CrossJoin({{Department.Children}}, {{Period.Children}})}} ON ROWS
        FROM {cube_name}
        """,
    ]


def _run_all(warehouse, queries: list[str]) -> list:
    return [warehouse.query(text) for text in queries]


def _time_pass(warehouse, queries: list[str], repeats: int) -> float:
    """Mean wall milliseconds per query over ``repeats`` timed passes.

    No separate warmup: the correctness gate has already run the full
    query list once in each mode, so both measurements start warm."""
    start = time.perf_counter()
    for _ in range(repeats):
        _run_all(warehouse, queries)
    elapsed = time.perf_counter() - start
    return elapsed * 1000.0 / (repeats * len(queries))


def run_query_engine(config: QueryEngineConfig | None = None) -> dict:
    """Run the benchmark; returns the JSON-ready report dict."""
    config = config or full_config()
    workforce = build_workforce(
        WorkforceConfig(
            n_employees=config.n_employees,
            n_departments=config.n_departments,
            n_accounts=config.n_accounts,
            density=config.density,
            seed=config.seed,
        )
    )
    warehouse = workforce.warehouse
    queries = _build_queries(warehouse.name)

    # -- correctness gate: engine and naive grids must be bit-identical ----
    engine_results = _run_all(warehouse, queries)
    with naive_mode():
        naive_results = _run_all(warehouse, queries)
    identical = all(
        e.cells == n.cells and e.row_labels() == n.row_labels()
        for e, n in zip(engine_results, naive_results)
    )
    if not identical:
        raise AssertionError(
            "engine and naive evaluation disagree — benchmark aborted"
        )
    # Every result cell sits at a department (non-leaf) coordinate, so the
    # whole grid is derived cells.
    derived_cells = sum(
        len(r.rows) * len(r.columns) for r in engine_results
    ) // len(engine_results)

    with naive_mode():
        naive_ms = _time_pass(warehouse, queries, config.naive_repeats)
    engine_ms = _time_pass(warehouse, queries, config.engine_repeats)

    cache_stats = warehouse.scenario_cache.stats.snapshot()
    index_stats = warehouse.cube.rollup_index().stats.snapshot()
    # Headline throughput: derived result cells served per second — each
    # is one (memoised or vectorized) rollup over the leaf value column.
    cells_per_second = (
        round(derived_cells * 1000.0 / engine_ms, 1) if engine_ms else 0.0
    )
    return {
        "benchmark": "query_engine",
        "config": {
            "n_employees": config.n_employees,
            "n_departments": config.n_departments,
            "n_accounts": config.n_accounts,
            "density": config.density,
            "naive_repeats": config.naive_repeats,
            "engine_repeats": config.engine_repeats,
        },
        "leaf_cells": warehouse.cube.n_leaf_cells,
        "queries": len(queries),
        "derived_result_cells_per_query": derived_cells,
        "naive_ms_per_query": round(naive_ms, 3),
        "engine_ms_per_query": round(engine_ms, 3),
        "cells_aggregated_per_second": cells_per_second,
        "speedup": round(naive_ms / engine_ms, 2) if engine_ms else float("inf"),
        "identical": identical,
        "scenario_cache": cache_stats,
        "rollup_index": index_stats,
    }


def _best_pass_ms(warehouse, queries: list[str], repeats: int) -> float:
    """Best (minimum) wall milliseconds per query over ``repeats`` timed
    passes — min is robust to scheduler noise, which matters when the
    quantity under test is a few percent of overhead."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _run_all(warehouse, queries)
        best = min(best, time.perf_counter() - start)
    return best * 1000.0 / len(queries)


def measure_tracing_overhead(config: QueryEngineConfig | None = None) -> dict:
    """Time the engine query pass with tracing disabled vs enabled.

    The observability layer's contract is that *disabled* tracing is free
    (one attribute read + a shared no-op context manager per site) and
    *enabled* tracing costs a few percent at most.  Returns a JSON-ready
    report with both figures, the overhead ratio, and a bit-identity flag
    (tracing must never change results).
    """
    from repro.obs.trace import tracing

    config = config or smoke_config()
    workforce = build_workforce(
        WorkforceConfig(
            n_employees=config.n_employees,
            n_departments=config.n_departments,
            n_accounts=config.n_accounts,
            density=config.density,
            seed=config.seed,
        )
    )
    warehouse = workforce.warehouse
    queries = _build_queries(warehouse.name)

    # Warm both paths (index build, scenario cache, lazy imports), then
    # check tracing changes nothing about the cells.
    disabled_results = _run_all(warehouse, queries)
    with tracing():
        enabled_results = _run_all(warehouse, queries)
    identical = all(
        d.cells == e.cells and d.row_labels() == e.row_labels()
        for d, e in zip(disabled_results, enabled_results)
    )
    profiled = all(r.profile is not None for r in enabled_results)

    disabled_ms = _best_pass_ms(warehouse, queries, config.engine_repeats)
    with tracing():
        enabled_ms = _best_pass_ms(warehouse, queries, config.engine_repeats)

    return {
        "benchmark": "tracing_overhead",
        "queries": len(queries),
        "repeats": config.engine_repeats,
        "disabled_ms_per_query": round(disabled_ms, 4),
        "enabled_ms_per_query": round(enabled_ms, 4),
        "overhead_ratio": (
            round(enabled_ms / disabled_ms, 4) if disabled_ms else 1.0
        ),
        "identical": identical,
        "profiled": profiled,
    }


def render_report(report: dict) -> str:
    rows = [
        ("leaf cells", report["leaf_cells"]),
        ("derived cells/query", report["derived_result_cells_per_query"]),
        ("naive ms/query", report["naive_ms_per_query"]),
        ("engine ms/query", report["engine_ms_per_query"]),
        ("cells agg'd/sec", report.get("cells_aggregated_per_second", "-")),
        ("speedup", f'{report["speedup"]}x'),
        ("bit-identical", report["identical"]),
    ]
    return format_table(
        "Query-throughput engine vs naive evaluator",
        ["metric", "value"],
        rows,
        width=22,
    )


def load_history(path: str = "BENCH_query_engine.json") -> list[dict]:
    """The recorded benchmark trajectory, oldest entry first.

    Understands both file layouts: the current ``{"history": [...]}``
    shape and the original single-report file (returned as a one-entry
    history, so the seed measurement is never lost).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        return []
    if isinstance(data, dict) and isinstance(data.get("history"), list):
        return [entry for entry in data["history"] if isinstance(entry, dict)]
    if isinstance(data, dict):
        return [data]
    return []


def write_baseline(report: dict, path: str = "BENCH_query_engine.json") -> None:
    """Append ``report`` as a dated entry to the benchmark history file.

    The file is the perf trajectory: every run adds a record instead of
    overwriting, and a pre-history flat file is migrated in place as the
    first entry (preserving the seed measurement's figures).
    """
    history = load_history(path)
    entry = dict(report)
    entry.setdefault(
        "recorded_at", time.strftime("%Y-%m-%d", time.gmtime())
    )
    history.append(entry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"benchmark": "query_engine", "history": history},
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
