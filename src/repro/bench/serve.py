"""Sharded-serving benchmark: scatter-gather throughput vs shard count.

Measures the multi-process tier end to end: one
:class:`~repro.service.ShardedQueryService` per shard count, a small
client pool driving distinct-fingerprint ``PERSPECTIVE`` queries over
the workforce workload, wall-clock per configuration.  Distinct
fingerprints matter — every query pays a **cold** scenario apply, and
each shard applies the scenario over only its owned 1/N of the leaf
data, which is exactly the work the tier parallelises.  Since ρ/S run as
array programs over coordinate-code columns that apply costs tens of
milliseconds at ~100k leaves (it was ≈0.45 s and dwarfed everything
else), the same order as the coordinator's serial share of a query
(parse, analysis, axis resolution, scatter and merge) — so the speedup
this benchmark can show per added shard is bounded by that serial share,
not by apply alone.

Every sharded grid is verified bit-identical (``repr`` equality on the
cell matrix) against single-process ``Warehouse.query`` evaluation of
the same text; a disagreement aborts the benchmark.  The report also
asserts that the owned-cell fraction stays above
:data:`OWNED_FRACTION_FLOOR` so the benchmark cannot silently degrade
into measuring the coordinator's local fallback path.
"""

from __future__ import annotations

import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor

from repro.bench.harness import format_table
from repro.olap.missing import is_missing
from repro.service import ShardedQueryService
from repro.workload.workforce import MONTHS, WorkforceConfig, build_workforce

__all__ = [
    "OWNED_FRACTION_FLOOR",
    "build_queries",
    "full_config",
    "load_history",
    "render_report",
    "run_serve_bench",
    "smoke_config",
    "write_baseline",
]

#: at least this fraction of evaluated cells must have been executed on
#: shard processes (vs the coordinator's local path) for the run to count
OWNED_FRACTION_FLOOR = 0.9

_SEMANTICS = ("STATIC", "DYNAMIC FORWARD", "DYNAMIC BACKWARD")


def smoke_config() -> dict:
    """CI-sized: small cube, 1-vs-2 shards, identity checks only."""
    return {
        "workload": {
            "n_employees": 60,
            "n_departments": 6,
            "n_changing": 8,
            "max_moves": 3,
            "n_accounts": 3,
            "seed": 42,
        },
        "n_queries": 6,
        "shard_counts": (1, 2),
        "chunk": 2,
        "client_threads": 4,
        "employees_per_query": 6,
    }


def full_config() -> dict:
    """The committed-baseline scale: 1/2/4 shards over a ~100k-leaf cube.

    Accounts are scaled up rather than employees: per-query coordinator
    overhead (axis resolution over the member registry) grows with the
    member count, while the shard-side cold scenario apply grows with
    leaf cells — paper-style wide measure sets keep the benchmark
    dominated by the work the shards actually parallelise.
    """
    return {
        "workload": {
            "n_employees": 400,
            "n_departments": 10,
            "n_changing": 40,
            "max_moves": 4,
            "n_accounts": 10,
            "seed": 42,
        },
        "n_queries": 24,
        "shard_counts": (1, 2, 4),
        "chunk": 4,
        "client_threads": 4,
        "employees_per_query": 12,
    }


def build_queries(workforce, n_queries: int, employees_per_query: int) -> list[str]:
    """Distinct-fingerprint perspective queries with department locality.

    Query ``i`` rotates the perspective months, the change semantics, and
    the slicer account — so no two queries share a scenario-cache
    fingerprint and every one pays a cold apply — while its rows are
    employees of **one** department.  That locality is the workload the
    sharded tier is built for: the planner keeps a department's slots
    (and, via merge-graph co-residency, every member whose instances
    touch them) on one shard, so a department-scoped query lands on a
    single shard and its cold scenario apply covers only that shard's
    owned fraction of the leaf data instead of the whole cube.
    """
    by_department: dict[str, list[str]] = {}
    for member in workforce.schema.dimension("Department").leaf_members():
        by_department.setdefault(member.parent.name, []).append(member.name)
    departments = sorted(by_department)
    # distinct perspective-month triples: distinct scenario fingerprints,
    # so every query pays a cold apply (warm-cache hits would flatter the
    # single-shard baseline and the sharded runs unevenly)
    month_sets = list(itertools.combinations(MONTHS, 3))
    queries: list[str] = []
    months = ", ".join(f"Period.[{m}]" for m in MONTHS)
    for i in range(n_queries):
        moments = sorted(month_sets[(i * 13) % len(month_sets)], key=MONTHS.index)
        points = ", ".join(f"({m})" for m in moments)
        semantics = _SEMANTICS[i % len(_SEMANTICS)]
        account = workforce.accounts[i % len(workforce.accounts)]
        rows = by_department[departments[i % len(departments)]]
        rows = rows[(i // len(departments)) % 2 :][:employees_per_query]
        row_set = ", ".join(f"[{name}]" for name in dict.fromkeys(rows))
        queries.append(
            f"WITH PERSPECTIVE {{{points}}} FOR Department {semantics}\n"
            f"SELECT {{{months}}} ON COLUMNS,\n"
            f"       {{{row_set}}} ON ROWS\n"
            f"FROM [App].[Db]\n"
            f"WHERE ([{account}], [Current], [Local], [BU Version_1],\n"
            f"       [HSP_InputValue])"
        )
    return queries


def _grid_repr(result) -> str:
    return repr(
        [
            [None if is_missing(v) else v for v in row]
            for row in result.cells
        ]
    )


def run_serve_bench(config: dict) -> dict:
    """Run every shard count in ``config`` and return the report dict."""
    workload_config = WorkforceConfig(**config["workload"])
    workforce = build_workforce(workload_config)
    queries = build_queries(
        workforce, config["n_queries"], config["employees_per_query"]
    )
    workload_params = tuple(sorted(config["workload"].items()))

    # single-process reference grids (and the local baseline timing)
    local_started = time.perf_counter()
    reference = [_grid_repr(workforce.warehouse.query(text)) for text in queries]
    local_s = time.perf_counter() - local_started

    per_shard: dict[str, dict] = {}
    identical = True
    for n_shards in config["shard_counts"]:
        service = ShardedQueryService(
            "workforce",
            n_shards=n_shards,
            chunk=config["chunk"],
            workload_params=workload_params,
        )
        try:
            # warm-up: parse cache + one scenario fingerprint per shard
            service.execute(queries[0])
            owned = local_cells = shards_touched = 0
            started = time.perf_counter()
            with ThreadPoolExecutor(config["client_threads"]) as pool:
                results = list(pool.map(service.execute, queries))
            wall_s = time.perf_counter() - started
            for text, result, expected in zip(queries, results, reference):
                if _grid_repr(result) != expected:
                    identical = False
                owned += result.stats.get("owned_cells", 0)
                local_cells += result.stats.get("local_cells", 0)
                shards_touched += len(
                    {
                        service.plan.shard_of_coordinate(row.coordinates[0][1])
                        for row in result.rows
                    }
                    - {None}
                )
        finally:
            service.close()
        evaluated = owned + local_cells
        per_shard[str(n_shards)] = {
            "wall_s": round(wall_s, 4),
            "queries_per_second": round(len(queries) / wall_s, 3),
            "ms_per_query": round(wall_s * 1000.0 / len(queries), 3),
            "owned_cells": owned,
            "local_cells": local_cells,
            "owned_fraction": round(owned / evaluated, 4) if evaluated else 0.0,
            "avg_shards_touched": round(shards_touched / len(queries), 2),
        }

    baseline = per_shard[str(config["shard_counts"][0])]
    report: dict = {
        "benchmark": "serve",
        "config": {
            key: (list(value) if isinstance(value, tuple) else value)
            for key, value in config.items()
        },
        "leaf_cells": workforce.cube.n_leaf_cells,
        "queries": len(queries),
        "client_threads": config["client_threads"],
        "local_ms_per_query": round(local_s * 1000.0 / len(queries), 3),
        "shards": per_shard,
        "identical": identical,
    }
    for n_shards in config["shard_counts"][1:]:
        speedup = (
            per_shard[str(n_shards)]["queries_per_second"]
            / baseline["queries_per_second"]
        )
        report[f"speedup_at_{n_shards}"] = round(speedup, 3)
    return report


def render_report(report: dict) -> str:
    rows = [
        ("leaf cells", report["leaf_cells"]),
        ("queries", report["queries"]),
        ("client threads", report["client_threads"]),
        ("local ms/query", report["local_ms_per_query"]),
    ]
    for n_shards, stats in report["shards"].items():
        rows.append(
            (
                f"{n_shards} shard(s)",
                f'{stats["queries_per_second"]} q/s '
                f'({stats["ms_per_query"]} ms/q, '
                f'owned {stats["owned_fraction"]:.0%}, '
                f'{stats["avg_shards_touched"]} shard(s)/q)',
            )
        )
    for key in sorted(report):
        if key.startswith("speedup_at_"):
            rows.append((key.replace("_", " "), f"{report[key]}x"))
    rows.append(("bit-identical", report["identical"]))
    return format_table(
        "Sharded serving scatter-gather throughput",
        ["metric", "value"],
        rows,
        width=34,
    )


def load_history(path: str = "BENCH_serve.json") -> list[dict]:
    """The recorded benchmark trajectory, oldest entry first."""
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


def write_baseline(report: dict, path: str = "BENCH_serve.json") -> None:
    """Append ``report`` as a dated entry to the benchmark history file."""
    history = load_history(path)
    entry = dict(report)
    entry.setdefault("recorded_at", time.strftime("%Y-%m-%d", time.gmtime()))
    history.append(entry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"benchmark": "serve", "history": history},
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
