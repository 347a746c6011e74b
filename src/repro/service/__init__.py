"""Concurrent query service: snapshot isolation, admission control,
overload protection.

The paper's what-if workload is read-mostly: many scenario queries
against one slowly mutating base cube.  This package makes that safe and
bounded under real concurrency:

* :class:`~repro.service.snapshot.WarehouseSnapshot`
  (``Warehouse.snapshot()``) — an immutable read view pinned to one
  ``Cube.version``.  In-flight queries never observe a torn mutation,
  and writers never block readers.
* :class:`~repro.service.service.QueryService` — the one service, with
  N ≥ 0 shard processes: ``submit()`` (a bounded worker pool) and
  ``execute()`` (the caller's thread) share one admission step — a
  :class:`~repro.service.breaker.CircuitBreaker` that trips on repeated
  failpoint/corruption errors and half-opens after backoff, and a
  snapshot pinned per query — with queue-depth load shedding
  (:class:`~repro.errors.ServiceOverloadedError`) and deadline
  propagation into :class:`~repro.mdx.budget.QueryBudget`.  With shards,
  each shard process owns a contiguous run of the varying dimension's
  whole members, balanced by instance count (see
  :func:`repro.service.shard.build_shard_plan`), answers the cells it
  owns in grid blocks, and has its own circuit breaker; the coordinator
  fills every other cell from the pinned snapshot exactly as
  ``Warehouse.query`` does.  :class:`~repro.service.service.ShardedQueryService`
  is the same service built from a workload name.
* :mod:`~repro.service.stress` — the chaos harness behind
  ``repro stress``: races concurrent queries against mutations and armed
  failpoints, then replays every completed query serially against its
  pinned snapshot and asserts bit-identical grids.
* :class:`~repro.service.supervisor.ShardSupervisor` — the self-healing
  layer over the shard pool: liveness heartbeats, exponential-backoff
  respawn with a restart-storm cap, and breaker probe routing, so a
  SIGKILLed shard comes back without operator action.  Coupled with the
  coordinator's per-RPC deadlines, retries, hedging, and ``degrade``
  policies (``fail`` | ``fallback`` | ``partial``), shard death costs
  at most one degraded answer — never a hang, never a wrong value.
* :mod:`~repro.service.http_api` — the stdlib HTTP front end behind
  ``repro serve --http``: ``POST /v1/query``, ``POST /v1/explain``,
  ``GET /metrics`` (Prometheus), ``GET /healthz`` (liveness),
  ``GET /readyz`` (readiness), with per-tenant admission quotas
  (:class:`~repro.service.http_api.TenantQuotas`).

See ``docs/robustness.md`` for the service model and guarantees, and
``docs/serving.md`` for the sharded serving tier and its failure
semantics.

The names below are re-exported lazily (:mod:`repro._lazy`): each
is imported from its module on first access, so importing one
submodule loads only what that submodule imports.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.service.breaker import BreakerState, CircuitBreaker
    from repro.service.http_api import TenantQuotas, make_server, serve_http
    from repro.service.service import (
        QueryService,
        QueryTicket,
        ShardedQueryService,
    )
    from repro.service.snapshot import WarehouseSnapshot
    from repro.service.stress import (
        ShardStormConfig,
        ShardStormReport,
        StressConfig,
        StressReport,
        run_shard_storm,
        run_stress,
    )
    from repro.service.supervisor import ShardSupervisor, SupervisorConfig

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "QueryService",
    "QueryTicket",
    "ShardStormConfig",
    "ShardStormReport",
    "ShardSupervisor",
    "ShardedQueryService",
    "StressConfig",
    "StressReport",
    "SupervisorConfig",
    "TenantQuotas",
    "WarehouseSnapshot",
    "make_server",
    "run_shard_storm",
    "run_stress",
    "serve_http",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.service.breaker": ("BreakerState", "CircuitBreaker"),
        "repro.service.http_api": ("TenantQuotas", "make_server", "serve_http"),
        "repro.service.service": ("QueryService", "QueryTicket", "ShardedQueryService"),
        "repro.service.snapshot": ("WarehouseSnapshot",),
        "repro.service.stress": (
            "ShardStormConfig",
            "ShardStormReport",
            "StressConfig",
            "StressReport",
            "run_shard_storm",
            "run_stress",
        ),
        "repro.service.supervisor": ("ShardSupervisor", "SupervisorConfig"),
    },
)
