"""Per-layer probes of the traced pass.

The layers are the repo's packages.  Each number is a span this file
opens around a *public* call into one layer (the program's own spans are
used only where they are already public output: ``MdxResult.profile``).
The in-process probes run on a scratch warehouse built from the run's
own seeded config, so they never disturb the workload's caches; the
shard-pool probes reuse the pool ``serve_http`` already started.

Which end-to-end metric each layer metric should move, and on which
workload, is the table in ``README.md``.
"""

from __future__ import annotations

import itertools
import statistics
import time
from typing import Any, Callable

import numpy as np

from repro import QueryService
from repro.analysis.query_analyzer import analyze_query
from repro.core.operators import ChangeTuple, relocate
from repro.core.perspective import Mode, PerspectiveSet, Semantics, phi_member
from repro.core.scenario import NegativeScenario, PositiveScenario
from repro.mdx.parser import parse_query
from repro.olap.missing import MISSING
from repro.perf.rollup_index import RollupIndex
from repro.workload.workforce import MONTHS, WorkforceConfig, build_workforce

from .spans import SpanLog
from .workloads import (
    ServeHttp,
    dashboard,
    perspective,
    scenario_dashboard,
)

__all__ = ["host_kernel_ms", "probe_in_process", "probe_pool", "scoped_metrics"]

#: metrics that need a shard pool; they read 0 on workloads without one
POOL_METRICS = (
    "service.execute_warm_ms",
    "service.execute_cold_ms",
    "service.http_overhead_ms",
    "service.response_bytes",
    "service.spawn_s",
    "service.close_s",
    "service.shard_rss_mb",
    "service.owned_fraction",
    "service.spanning_cells",
    "service.local_cells",
    "service.fallback_cells",
    "service.hedges",
    "service.retries",
)


def _timed(log: SpanLog, name: str, call: Callable[[], Any]) -> "tuple[float, Any]":
    """One span around one call; returns (seconds, the call's result)."""
    with log.span(name) as record:
        result = call()
    return record["end_s"] - record["start_s"], result


def _best(log: SpanLog, name: str, call: Callable[[], Any]) -> "tuple[float, Any]":
    """The faster of two spans around the same sub-second call — the
    probes get the best-of treatment the gated numbers get."""
    first, second = _timed(log, name, call), _timed(log, name, call)
    return min(first, second, key=lambda pair: pair[0])


def _median_us(log: SpanLog, name: str, calls: "list[Callable[[], Any]]") -> float:
    """Median microseconds of many small calls under one parent span (a
    span per call would cost more than the call)."""
    samples = []
    with log.span(name, calls=len(calls)):
        for call in calls:
            started = time.perf_counter()
            call()
            samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e6


def host_kernel_ms(log: SpanLog) -> float:
    """Best of five runs of a fixed kernel that touches no program code:
    build and re-key a 60,000-entry dict of address-like tuples.  It is
    memory-bound like scenario apply, so it moves with the host's slow
    phases (a cache-resident arithmetic loop does not) and tells a slow
    host from a slow commit when two traced runs are compared."""

    def kernel() -> int:
        cells = {
            (f"Department/Dept{i % 10:03d}/e{i % 400:05d}", "Jan", i): float(i)
            for i in range(60_000)
        }
        moved = {("x",) + address[1:]: value for address, value in cells.items()}
        return len(moved)

    return min(_timed(log, "proc.host_kernel", kernel)[0] for _ in range(5)) * 1000.0


def probe_in_process(config: WorkforceConfig, log: SpanLog) -> "dict[str, float]":
    """Every layer probe that needs no shard pool, on a scratch cube."""
    out: "dict[str, float]" = {}
    with log.span("probe.in_process"):
        build_s, wf = _timed(log, "workload.build", lambda: build_workforce(config))
        out["workload.build_s"] = build_s
        warehouse, cube, schema = wf.warehouse, wf.cube, wf.schema
        n_leaves = cube.n_leaf_cells

        # -- olap, storage-free: the live cube has no rollup index yet, the
        # state write_requery's writes see
        victims = list(itertools.islice(cube.leaf_cells(), 200))
        set_value = cube.set_value
        out["olap.set_value_us"] = _median_us(
            log, "olap.set_value", [lambda a=a, v=v: set_value(a, v + 1.0) for a, v in victims]
        )
        out["olap.delete_us"] = _median_us(
            log, "olap.delete", [lambda a=a: set_value(a, MISSING) for a, _ in victims]
        )
        out["olap.insert_us"] = _median_us(
            log, "olap.insert", [lambda a=a, v=v: set_value(a, v) for a, v in victims]
        )
        copies = [_timed(log, "olap.frozen_copy", cube.frozen_copy)[0] for _ in range(3)]
        out["olap.frozen_copy_ms"] = statistics.median(copies) * 1000.0

        # -- service (local): snapshot after a write, submit, queue wait
        with QueryService(warehouse, workers=2) as service:
            text = scenario_dashboard().text
            service.submit(text).result()
            address, value = victims[0]
            snapshots = []
            for bump in range(3):
                set_value(address, value + bump)
                snapshots.append(_timed(log, "service.snapshot", warehouse.snapshot)[0])
            out["service.snapshot_ms"] = statistics.median(snapshots) * 1000.0
            # closed loop, like write_requery: each reply before the next submit
            submits = []
            for _ in range(8):
                seconds, ticket = _timed(
                    log, "service.submit", lambda: service.submit(text)
                )
                submits.append(seconds)
                ticket.result()
            out["service.submit_us"] = statistics.median(submits) * 1e6
            wait = warehouse.metrics.histogram("service_queue_wait_ms").sample()
            out["service.queue_wait_ms"] = float(wait.get("mean", 0.0))

        # -- core: Φ over every member, ρ, and the two scenario kinds
        varying = schema.varying_dimension("Department")
        months = ["Feb", "Jun", "Oct"]
        pset = PerspectiveSet.from_names(months, varying)
        members = sorted({addr[0].rsplit("/", 1)[-1] for addr, _ in cube.leaf_cells()})

        def phi_all() -> "dict[str, Any]":
            validity_out = {}
            for member in members:
                transformed = phi_member(
                    varying.instances_of(member), pset, Semantics.FORWARD
                )
                for instance, validity in transformed.items():
                    validity_out[instance.full_path] = validity
            return validity_out

        phi_s, validity_out = _best(log, "core.phi", phi_all)
        out["core.phi_ms"] = phi_s * 1000.0
        relocate_s, _ = _best(
            log, "core.relocate", lambda: relocate(cube, "Department", validity_out, varying)
        )
        out["core.relocate_ms"] = relocate_s * 1000.0
        negative = NegativeScenario("Department", months, Semantics.FORWARD, Mode.VISUAL)
        negative_s, applied = _best(log, "core.apply_negative", lambda: negative.apply(cube))
        out["core.apply_negative_ms"] = negative_s * 1000.0
        out["core.apply_leaf_cells_per_s"] = n_leaves / negative_s
        steady = next(
            m for m in members if m not in set(wf.changing_employees)
        )
        home = schema.dimension("Department").member(steady).parent.name
        target = next(d for d in wf.departments if d != home)
        positive = PositiveScenario(
            "Department", [ChangeTuple(steady, home, target, "Apr")], Mode.VISUAL
        )
        positive_s, _ = _best(log, "core.apply_positive", lambda: positive.apply(cube))
        out["core.apply_positive_ms"] = positive_s * 1000.0

        # -- perf: index build (base and applied cube), rollup cold / memo,
        # scenario-cache probe
        base_build_s, _ = _best(log, "perf.index_build", lambda: RollupIndex.build(cube))
        applied_build_s, _ = _best(
            log, "perf.index_build", lambda: RollupIndex.build(applied.leaf_cube)
        )
        out["perf.index_build_ms"] = (base_build_s + applied_build_s) / 2 * 1000.0
        index = cube.rollup_index()
        roots = {d.name: d.root.name for d in schema.dimensions}
        addresses = [
            schema.address(**{**roots, "Department": department, "Period": month})
            for department in wf.departments
            for month in MONTHS
        ]
        rollup = cube.rollup
        out["perf.rollup_cold_us"] = _median_us(
            log, "perf.rollup_cold", [lambda a=a: rollup(a) for a in addresses]
        )
        out["perf.rollup_memo_us"] = _median_us(
            log, "perf.rollup_memo", [lambda a=a: rollup(a) for a in addresses]
        )
        clause = perspective(months, "DYNAMIC FORWARD")
        warehouse.query(dashboard(with_clause=clause).text)
        key = (NegativeScenario("Department", months, Semantics.FORWARD).fingerprint(),)
        cache, version = warehouse.scenario_cache, cube.version
        if cache.get(key, version) is None:
            raise RuntimeError("scenario-cache probe key does not match the evaluator's")
        out["perf.scenario_cache_get_us"] = _median_us(
            log, "perf.scenario_cache_get", [lambda: cache.get(key, version)] * 500
        )

        # -- storage: plane footprint and one department-scope gather
        store = index.plane_store
        out["storage.plane_bytes"] = float(store.nbytes)
        scope = schema.address(**{**roots, "Department": wf.departments[0]})
        rows = np.asarray(index.scope_ids(scope), dtype=np.int64)
        out["storage.gather_us"] = _median_us(
            log, "storage.gather", [lambda: store.gather(rows)] * 20
        )

        # -- mdx / analysis: never-seen texts miss the parse LRU
        fresh = [
            dashboard(with_clause=perspective(list(combo), "STATIC")).text
            for combo in itertools.islice(itertools.combinations(MONTHS, 4), 100, 150)
        ]
        parsed: "list[Any]" = []
        out["mdx.parse_us"] = _median_us(
            log, "mdx.parse", [lambda t=t: parsed.append(parse_query(t)) for t in fresh]
        )
        out["analysis.analyze_us"] = _median_us(
            log,
            "analysis.analyze",
            [lambda q=q: analyze_query(warehouse, q) for q in parsed],
        )
    return out


def scoped_metrics(
    phases: "dict[str, float]", delta: "dict[str, float]"
) -> "dict[str, float]":
    """Layer numbers scoped to the workload's own traced operations: mean
    ``MdxResult.profile`` phases and cache ratios from counter deltas."""

    def ratio(hits: str, misses: str) -> float:
        total = delta.get(hits, 0.0) + delta.get(misses, 0.0)
        return delta.get(hits, 0.0) / total if total else 0.0

    ops = max(1, phases["ops"])
    cells_s = phases["cells_ms"] / 1000.0
    return {
        "mdx.axes_ms": phases["axes_ms"] / ops,
        "mdx.cells_ms": phases["cells_ms"] / ops,
        "mdx.cells_per_s": phases["cells"] / cells_s if cells_s else 0.0,
        "perf.scenario_cache_hit_ratio": ratio(
            "scenario_cache_hits", "scenario_cache_misses"
        ),
        "perf.scenario_cache_evictions": delta.get("scenario_cache_evictions", 0.0),
        "perf.memo_hit_ratio": ratio("memo_hits", "memo_misses"),
    }


def probe_pool(
    workload: Any, log: SpanLog, delta: "dict[str, float]"
) -> "dict[str, float]":
    """Shard-pool probes on the pool ``serve_http`` is serving from:
    ``execute`` in-process (no socket) warm and cold, the HTTP round
    trip's overhead over it for the same warm text, and how the traced
    operations' cells were classified.  Every pool metric reads 0 on a
    workload without a pool."""
    out = dict.fromkeys(POOL_METRICS, 0.0)
    if not isinstance(workload, ServeHttp):
        return out
    service = workload.service
    with log.span("probe.pool"):
        warm = next(s for s in workload.slots if s.name == "nv-employees")
        text = warm.query.text
        warm_s = [
            _timed(log, "service.execute_warm", lambda: service.execute(text))[0]
            for _ in range(10)
        ]
        out["service.execute_warm_ms"] = statistics.median(warm_s) * 1000.0
        cold_slots = [s for s in workload.slots if s.kind == "cold"]
        cold_s = [
            _timed(
                log,
                "service.execute_cold",
                lambda s=s: service.execute(workload.cold_query(s).text),
            )[0]
            for s in cold_slots
        ]
        out["service.execute_cold_ms"] = statistics.median(cold_s) * 1000.0
        round_trips = []
        for _ in range(10):
            seconds, (status, _body) = _timed(
                log,
                "service.http_warm",
                lambda: workload.client.post("/v1/query", {"query": text}),
            )
            if status != 200:
                raise RuntimeError(f"pool probe answered HTTP {status}")
            round_trips.append(seconds)
        out["service.http_overhead_ms"] = (
            statistics.median(round_trips) - statistics.median(warm_s)
        ) * 1000.0
        out["service.response_bytes"] = float(
            statistics.median(workload.response_bytes)
        )
        out["service.spawn_s"] = workload.spawn_s
        out["service.shard_rss_mb"] = statistics.mean(workload.shard_rss_mb("VmHWM"))
    cells = sum(delta.get(f"{kind}_cells", 0.0) for kind in ("owned", "spanning", "local"))
    out["service.owned_fraction"] = delta.get("owned_cells", 0.0) / cells if cells else 0.0
    for name in ("spanning_cells", "local_cells", "fallback_cells", "hedges", "retries"):
        out[f"service.{name}"] = delta.get(name, 0.0)
    return out
