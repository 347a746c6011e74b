"""The concurrent query service: a bounded worker pool with admission
control, deadline propagation, and overload protection.

``submit()`` is the whole client API: it pins a snapshot of the
warehouse at the current cube version, enqueues the query, and returns a
:class:`QueryTicket` immediately.  Every robustness decision happens at
well-defined points:

* **Admission** — the circuit breaker is consulted first
  (:class:`~repro.errors.CircuitOpenError` fails fast while the store is
  sick), then the bounded queue: a full queue sheds the query with
  :class:`~repro.errors.ServiceOverloadedError` *at submit time*.
  Nothing in the submit path can block, so overload can never deadlock
  the caller.
* **Execution** — a worker dequeues the job, charges the queue wait
  against the query's deadline (``QueryBudget.narrowed``), and runs it
  against the snapshot pinned at submit.  A deadline that fully expired
  in the queue sheds instead of executing.  If the submitter was inside
  a traced span, the worker attaches to it via ``Tracer.child_scope`` so
  the evaluation is not an orphan trace.
* **Completion** — the outcome lands on the ticket (result or typed
  error), the breaker hears about success/failure, and the service
  counters (``service_queries_total{status}``, ``service_shed_total``,
  ``service_queue_wait_ms``, ``circuit_state``) are updated on the
  warehouse's metrics registry.

Results are exactly what ``Warehouse.query`` returns — including partial
(⊥-degraded) grids under budget breach, PR 2's graceful-degradation
contract, now reachable under concurrency.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import (
    CircuitOpenError,
    ServiceOverloadedError,
    ServiceStoppedError,
    ServiceTimeoutError,
)
from repro.lint.lockdep import make_lock
from repro.mdx.budget import QueryBudget
from repro.obs.trace import TRACER, Span, trace_span
from repro.service.breaker import BreakerState, CircuitBreaker

if TYPE_CHECKING:
    from repro.mdx.budget import Degradation
    from repro.mdx.result import MdxResult
    from repro.service.shard import ShardClient
    from repro.service.snapshot import WarehouseSnapshot
    from repro.service.supervisor import SupervisorConfig
    from repro.warehouse import Warehouse

__all__ = ["QueryService", "QueryTicket", "ShardedQueryService"]


class QueryTicket:
    """A handle to one submitted query.

    ``result()`` blocks until the worker finishes (or ``timeout``
    elapses, raising :class:`~repro.errors.ServiceTimeoutError` — a
    :class:`TimeoutError` subclass, so ``concurrent.futures``-style
    callers keep working), then returns the
    :class:`~repro.mdx.result.MdxResult` or re-raises the query's error
    in the caller's thread.
    """

    def __init__(self, text: str, snapshot: "WarehouseSnapshot") -> None:
        self.text = text
        #: the immutable view this query is pinned to
        self.snapshot = snapshot
        #: the base-cube version of that view
        self.snapshot_version = snapshot.version
        self._done = threading.Event()
        self._result: "MdxResult | None" = None
        self._error: "BaseException | None" = None

    # -- completion (service side) ------------------------------------------------

    def _complete(
        self,
        result: "MdxResult | None",
        error: "BaseException | None" = None,
    ) -> None:
        self._result = result
        self._error = error
        self._done.set()

    # -- inspection (client side) --------------------------------------------------

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: "float | None" = None) -> bool:
        return self._done.wait(timeout)

    def exception(self, timeout: "float | None" = None) -> "BaseException | None":
        if not self._done.wait(timeout):
            raise ServiceTimeoutError("query is still running")
        return self._error

    def result(self, timeout: "float | None" = None) -> "MdxResult":
        if not self._done.wait(timeout):
            raise ServiceTimeoutError("query is still running")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self._done.is_set():
            state = "error" if self._error is not None else "done"
        return f"QueryTicket({state}, version={self.snapshot_version})"


class _Job:
    """One queued query (internal)."""

    __slots__ = (
        "ticket",
        "analyze",
        "budget",
        "deadline_ms",
        "submitted_at",
        "parent_span",
        "submit_span",
    )

    def __init__(
        self,
        ticket: QueryTicket,
        analyze: bool,
        budget: "QueryBudget | None",
        deadline_ms: "float | None",
        submitted_at: float,
        parent_span: "Span | None",
        submit_span: "Span | None",
    ) -> None:
        self.ticket = ticket
        self.analyze = analyze
        self.budget = budget
        self.deadline_ms = deadline_ms
        self.submitted_at = submitted_at
        self.parent_span = parent_span
        #: the finished ``service.submit`` span (what admission cost: the
        #: snapshot fork), attached to the query's profile by the worker
        self.submit_span = submit_span


class QueryService:
    """A bounded thread pool serving MDX queries over warehouse snapshots.

    Parameters
    ----------
    warehouse:
        The live warehouse; every submission pins ``warehouse.snapshot()``.
    workers:
        Worker threads (concurrent query executions).
    queue_depth:
        Maximum *waiting* submissions; beyond it, ``submit`` sheds with
        :class:`~repro.errors.ServiceOverloadedError` instead of blocking.
    default_deadline_ms:
        Deadline applied to submissions that bring neither their own
        ``deadline_ms`` nor a budget deadline; ``None`` = none.
    breaker:
        The circuit breaker; a default-tuned one is built when omitted.
    clock:
        Monotonic clock in seconds (injectable for tests).
    """

    def __init__(
        self,
        warehouse: "Warehouse",
        *,
        workers: int = 4,
        queue_depth: int = 16,
        default_deadline_ms: "float | None" = None,
        breaker: "CircuitBreaker | None" = None,
        clock: "Callable[[], float] | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.warehouse = warehouse
        self.workers = workers
        self.queue_depth = queue_depth
        self.default_deadline_ms = default_deadline_ms
        self._clock = clock or time.monotonic
        self._metrics = warehouse.metrics
        self.breaker = breaker or CircuitBreaker()
        self.breaker._on_state_change = self._on_breaker_state
        self._metrics.gauge("circuit_state").set(int(self.breaker.state))
        self._queue: "queue.Queue[_Job | None]" = queue.Queue(
            maxsize=queue_depth
        )
        self._closed = False
        self._lock = make_lock("QueryService._lock", reentrant=False)
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-query-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- metrics helpers ----------------------------------------------------------

    def _on_breaker_state(self, state: BreakerState) -> None:
        self._metrics.gauge("circuit_state").set(int(state))

    def _shed(self, reason: str, message: str) -> ServiceOverloadedError:
        self._metrics.counter("service_shed_total", reason=reason).inc()
        self._metrics.counter("service_queries_total", status="shed").inc()
        return ServiceOverloadedError(message, reason=reason)

    # -- client API ---------------------------------------------------------------

    def submit(
        self,
        text: str,
        *,
        analyze: bool = True,
        budget: "QueryBudget | None" = None,
        deadline_ms: "float | None" = None,
    ) -> QueryTicket:
        """Admit one query; returns immediately with a ticket.

        Raises :class:`~repro.errors.CircuitOpenError` while the breaker
        is open, :class:`~repro.errors.ServiceOverloadedError` when the
        admission queue is full, and
        :class:`~repro.errors.ServiceStoppedError` after :meth:`close` —
        all *before* any work is queued, so the caller can shed load
        upstream.  Never blocks.
        """
        if self._closed:
            raise ServiceStoppedError("query service is closed")
        if not self.breaker.allow():
            self._metrics.counter(
                "service_shed_total", reason="circuit-open"
            ).inc()
            self._metrics.counter(
                "service_queries_total", status="shed"
            ).inc()
            raise CircuitOpenError(
                "circuit breaker is open (repeated backend failures); "
                "retry after backoff"
            )
        if deadline_ms is None:
            deadline_ms = (
                budget.deadline_ms
                if budget is not None and budget.deadline_ms is not None
                else self.default_deadline_ms
            )
        parent = TRACER.current() if TRACER.enabled else None
        with trace_span("service.submit") as submit_span:
            snapshot = self.warehouse.snapshot()
            ticket = QueryTicket(text, snapshot)
            job = _Job(
                ticket, analyze, budget, deadline_ms, self._clock(), parent, submit_span
            )
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                raise self._shed(
                    "queue-full",
                    f"admission queue is full ({self.queue_depth} waiting); "
                    "query shed",
                ) from None
        self._metrics.gauge("service_queue_depth").set(self._queue.qsize())
        return ticket

    # -- worker side --------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            try:
                if job is None:  # close() sentinel
                    return
                self._run_job(job)
            except BaseException as exc:  # defensive: keep the worker alive
                if not job.ticket.done():
                    job.ticket._complete(None, exc)
                self._metrics.counter(
                    "service_worker_errors_total", kind=type(exc).__name__
                ).inc()
                if isinstance(exc, (SystemExit, KeyboardInterrupt)):
                    # Interpreter-exit exceptions must never be swallowed
                    # by the keep-alive: the ticket is completed (the
                    # caller sees the error), then the worker re-raises
                    # and dies with the interpreter.
                    raise
            finally:
                # an idle worker must not pin its last job's snapshot (the
                # frozen cube and its index) while it waits for the next
                job = None
                self._queue.task_done()

    def _run_job(self, job: _Job) -> None:
        ticket = job.ticket
        wait_ms = (self._clock() - job.submitted_at) * 1000.0
        self._metrics.histogram("service_queue_wait_ms").observe(wait_ms)
        self._metrics.gauge("service_queue_depth").set(self._queue.qsize())
        if job.deadline_ms is not None and wait_ms >= job.deadline_ms:
            # The deadline died in the queue: shed, don't start work the
            # caller has already given up on.
            ticket._complete(
                None,
                self._shed(
                    "deadline-expired",
                    f"deadline of {job.deadline_ms}ms expired after "
                    f"{wait_ms:.1f}ms in the admission queue",
                ),
            )
            return
        budget = job.budget or QueryBudget()
        if job.deadline_ms is not None:
            budget = budget.narrowed(job.deadline_ms - wait_ms)
        try:
            with TRACER.child_scope(job.parent_span):
                result = ticket.snapshot.query(
                    ticket.text,
                    analyze=job.analyze,
                    budget=None if budget.unlimited else budget,
                )
        except BaseException as exc:
            self.breaker.record_failure(exc)
            self._metrics.counter(
                "service_queries_total", status="error"
            ).inc()
            ticket._complete(None, exc)
            if isinstance(exc, (SystemExit, KeyboardInterrupt)):
                raise  # completed the ticket first; now let the exit out
            return
        self.breaker.record_success()
        status = "partial" if result.degradations else "ok"
        self._metrics.counter("service_queries_total", status=status).inc()
        if result.profile is not None and job.submit_span is not None:
            result.profile.submit = job.submit_span.to_dict()
        ticket._complete(result)

    # -- lifecycle ----------------------------------------------------------------

    def close(self, *, drain: bool = True, timeout: "float | None" = None) -> None:
        """Stop the service.

        ``drain=True`` lets queued work finish; ``drain=False`` fails
        every still-queued ticket with
        :class:`~repro.errors.ServiceStoppedError`.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if not drain:
            while True:
                try:
                    job = self._queue.get_nowait()
                except queue.Empty:
                    break
                if job is not None:
                    job.ticket._complete(
                        None,
                        ServiceStoppedError(
                            "service closed before this query ran"
                        ),
                    )
                self._queue.task_done()
        for _ in self._threads:
            # blocking put: sentinels queue behind any draining work
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close(drain=exc_type is None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryService({self.workers} workers, "
            f"queue {self._queue.qsize()}/{self.queue_depth}, "
            f"breaker {self.breaker.state.name})"
        )


#: one result cell on the coordinator: (row, column, address)
_Cell = tuple[int, int, tuple[str, ...]]


def _merge_partials(parts: "list[dict[str, Any]]", n_cells: int) -> "list[Any]":
    """One value per spanning cell from the shards' ``partial`` answers.

    Every part is ``positions`` / ``values`` / ``offsets`` for the same
    ``n_cells`` scopes (see :mod:`repro.service.shard`).  The leaves of
    all shards are sorted once by (cell, global insertion position); each
    cell's slice is then the exact sequence the single-process strict
    reduction folds over, so the sums are bit-identical.  An empty scope
    is ⊥.
    """
    import numpy as np

    from repro.olap.aggregation import reduce_array

    counts = [np.diff(part["offsets"]) for part in parts]
    cell_of = np.concatenate(
        [np.repeat(np.arange(n_cells), count) for count in counts]
    )
    positions = np.concatenate([part["positions"] for part in parts])
    values = np.concatenate([part["values"] for part in parts])
    merged = values[np.lexsort((positions, cell_of))]
    bounds = np.zeros(n_cells + 1, dtype=np.int64)
    np.cumsum(np.sum(counts, axis=0), out=bounds[1:])
    return [
        reduce_array("sum", merged[start:stop])
        for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ]


class ShardedQueryService:
    """Scatter-gather query execution over a pool of shard processes.

    The shard dimension (default: the workload's varying dimension) is
    partitioned by :func:`~repro.core.merge_graph.plan_axis_shards` into
    member sets whose instance slots co-reside; each shard process owns
    one set and evaluates any cell whose shard-dimension coordinate
    resolves to one of its members.  The coordinator:

    * resolves axes and the slicer on a cheap *seeded hollow* warehouse —
      the full schema, rules, and named sets over a cube holding one
      representative leaf per (varying dimension, member-with-data), so
      scenario application costs O(members) instead of O(cube) while
      producing the exact axis tuples of the full context;
    * classifies each result cell as **owned** (one shard evaluates it
      end to end), **spanning** (a pure sum-rollup whose scope crosses
      shards: every shard returns its slice of every scope as global
      insertion positions plus values — three arrays per request — and
      the coordinator sorts them back into global insertion order before
      the strict reduction — bit-identical to the single-process
      gather), or **local** (leaf reads, rule-bearing
      cells, stored aggregates, and scenario cells above any single
      member — evaluated on the coordinator's full warehouse);
    * guards each shard with its own :class:`CircuitBreaker`; a query
      needing an open shard fails fast with
      :class:`~repro.errors.CircuitOpenError`.

    Queries carrying a budget, or whose sets read cell values (FILTER /
    ORDER), fall back to full local evaluation — correctness first.

    **Failure semantics** (docs/serving.md): every scatter/gather runs
    under a per-RPC deadline derived from ``rpc_timeout_ms`` (narrowed
    by the caller's ``deadline_ms``); transient faults retry in place; a
    dead shard is retried against its supervisor-respawned successor;
    and when a shard stays unavailable the ``degrade`` policy decides —
    ``"fallback"`` (default) recomputes its cells on the coordinator's
    full warehouse (bit-identical), ``"partial"`` returns those cells as
    ⊥ with structured :class:`~repro.mdx.budget.Degradation` records,
    ``"fail"`` raises the typed error.  Because the coordinator holds
    the complete warehouse, fallback results are exactly what the
    healthy pool would have produced.
    """

    #: accepted values for the ``degrade`` policy
    DEGRADE_POLICIES = ("fail", "fallback", "partial")

    def __init__(
        self,
        workload: str = "running",
        *,
        n_shards: int = 2,
        dimension: "str | None" = None,
        chunk: int = 8,
        workload_params: "tuple[tuple[str, Any], ...]" = (),
        start_timeout: float = 60.0,
        degrade: str = "fallback",
        rpc_timeout_ms: float = 30_000.0,
        hedge_ms: "float | None" = 1_000.0,
        rpc_retries: int = 2,
        supervisor_config: "SupervisorConfig | None" = None,
    ) -> None:
        from repro.errors import ShardError
        from repro.service.shard import (
            ShardSpec,
            build_shard_plan,
            build_workload,
        )
        from repro.service.supervisor import ShardSupervisor, SupervisorConfig

        if n_shards < 1:
            raise ShardError("n_shards must be >= 1")
        if degrade not in self.DEGRADE_POLICIES:
            raise ShardError(
                f"unknown degrade policy {degrade!r}; expected one of "
                f"{', '.join(self.DEGRADE_POLICIES)}"
            )
        if rpc_timeout_ms <= 0:
            raise ShardError("rpc_timeout_ms must be > 0")
        if hedge_ms is not None and hedge_ms <= 0:
            raise ShardError("hedge_ms must be > 0 (or None to disable)")
        if rpc_retries < 0:
            raise ShardError("rpc_retries must be >= 0")
        self.degrade = degrade
        self.rpc_timeout_ms = float(rpc_timeout_ms)
        self.hedge_ms = None if hedge_ms is None else float(hedge_ms)
        self.rpc_retries = int(rpc_retries)
        self.workload = workload
        self.warehouse = build_workload(workload, tuple(workload_params))
        schema = self.warehouse.schema
        if dimension is None:
            varying = list(schema.varying)
            if not varying:
                raise ShardError(
                    f"workload {workload!r} has no varying dimension to shard on"
                )
            dimension = varying[0]
        self.dimension = dimension
        self.plan = build_shard_plan(self.warehouse, dimension, n_shards, chunk)
        self.n_shards = n_shards
        self._dim_index = schema.dim_index(dimension)
        self._metrics = self.warehouse.metrics
        self._metrics.gauge("serve_shards").set(n_shards)
        self._lock = make_lock("ShardedQueryService._lock", reentrant=False)
        self._closed = False

        # Every leaf must be owned by exactly one shard, or spanning
        # merges would silently drop its contribution.
        member_shard = self.plan.member_shard
        for coord in sorted(self.warehouse.cube.coordinates_used(dimension)):
            member = coord.rsplit("/", 1)[-1]
            if member not in member_shard:
                raise ShardError(
                    f"leaf member {member!r} on {dimension!r} is not covered "
                    "by the shard plan"
                )

        self._hollow = self._build_hollow()
        specs = [
            ShardSpec(
                workload=workload,
                dimension=dimension,
                owned_members=tuple(owned),
                shard_index=index,
                n_shards=n_shards,
                workload_params=tuple(workload_params),
            )
            for index, owned in enumerate(self.plan.shards)
        ]
        if supervisor_config is None:
            supervisor_config = SupervisorConfig(
                start_timeout_s=start_timeout,
                rpc_timeout_s=max(self.rpc_timeout_ms / 1000.0, 1.0),
            )
        self.supervisor = ShardSupervisor(
            specs, config=supervisor_config, metrics=self._metrics
        )
        self.breakers = [CircuitBreaker() for _ in range(n_shards)]
        for index, breaker in enumerate(self.breakers):
            breaker._on_state_change = self._breaker_callback(index)
            self._metrics.gauge(
                "serve_breaker_state", shard=str(index)
            ).set(int(breaker.state))
        self.supervisor.attach_breakers(self.breakers)

        # Startup invariant: the shards' sub-cubes partition the full cube.
        total = 0
        for client in self.supervisor.clients:
            total += client.request({"op": "ping"})["leaves"]
        if total != self.warehouse.cube.n_leaf_cells:
            self.close()
            raise ShardError(
                f"shards hold {total} leaves, warehouse has "
                f"{self.warehouse.cube.n_leaf_cells}: the plan is not a "
                "partition"
            )

    @property
    def clients(self) -> "list[ShardClient]":
        """The current client per shard (supervisor-owned; a respawn
        swaps the list entry for the replacement process's client)."""
        return self.supervisor.clients

    def _breaker_callback(self, index: int):
        gauge = self._metrics.gauge("serve_breaker_state", shard=str(index))
        return lambda state: gauge.set(int(state))

    def _build_hollow(self):
        """The axis-resolution warehouse: full schema/rules/named sets
        over a cube seeded with one representative leaf per (varying
        dimension, member-with-data).  Scenario transforms derive their
        output validity from ``instances_of`` per member-with-data, so
        one leaf per member reproduces the full context's surviving set
        — and with it the exact axis tuples — at O(members) cost."""
        import numpy as np

        from repro.olap.cube import Cube
        from repro.warehouse import Warehouse

        schema = self.warehouse.schema
        hollow_cube = Cube(schema, self.warehouse.cube.rules)
        varying_dims = [schema.dim_index(name) for name in schema.varying]
        cols = self.warehouse.cube.leaf_columns(*varying_dims)
        firsts = []
        for dim_index in varying_dims:
            # the first row of every member: coordinate code -> member code
            members = [c.rsplit("/", 1)[-1] for c in cols.coords[dim_index]]
            member_of = np.unique(members, return_inverse=True)[1]
            firsts.append(
                np.unique(member_of[cols.codes[dim_index]], return_index=True)[1]
            )
        rows = np.unique(np.concatenate(firsts)) if firsts else ()
        hollow_cube.load((cols.addresses[row], 0.0) for row in rows)
        hollow = Warehouse(
            schema,
            hollow_cube,
            name=self.warehouse.name,
            aliases=self.warehouse.aliases,
        )
        for named_set in self.warehouse.named_sets():
            hollow.define_named_set(named_set.name, named_set.members)
        return hollow

    # -- query path ---------------------------------------------------------------

    def execute(
        self,
        text: str,
        *,
        analyze: bool = True,
        budget: "QueryBudget | None" = None,
        degrade: "str | None" = None,
        deadline_ms: "float | None" = None,
    ) -> "MdxResult":
        """Evaluate one query across the shard pool.

        When every involved shard answers, returns exactly what
        single-process ``Warehouse.query`` returns — same axis tuples,
        bit-identical cells, same NON EMPTY pruning.  ``degrade``
        overrides the service-level policy for this query (``"fail"`` |
        ``"fallback"`` | ``"partial"``); ``deadline_ms`` narrows the
        per-RPC deadline below the service's ``rpc_timeout_ms``.  A
        ``"partial"`` answer carries ⊥ cells plus ``degradations``
        records and skips NON EMPTY pruning (unknown values must not
        silently drop rows).
        """
        from repro.errors import ShardError

        if degrade is not None and degrade not in self.DEGRADE_POLICIES:
            raise ShardError(
                f"unknown degrade policy {degrade!r}; expected one of "
                f"{', '.join(self.DEGRADE_POLICIES)}"
            )
        started = self._clock()
        try:
            with trace_span("serve.execute") as span:
                result = self._execute(
                    text,
                    analyze=analyze,
                    budget=budget,
                    degrade=degrade or self.degrade,
                    deadline_ms=deadline_ms,
                )
            if span is not None and result.profile is None:
                from repro.obs.profile import QueryProfile

                result.profile = QueryProfile.from_span(
                    span,
                    stats=result.stats,
                    degradations=[d.to_dict() for d in result.degradations],
                )
        except BaseException:
            self._metrics.counter(
                "serve_queries_total", status="error"
            ).inc()
            raise
        finally:
            self._metrics.histogram("serve_query_ms").observe(
                (self._clock() - started) * 1000.0
            )
        status = "partial" if result.degradations else "ok"
        self._metrics.counter("serve_queries_total", status=status).inc()
        return result

    _clock = staticmethod(time.monotonic)

    def _execute(
        self,
        text: str,
        *,
        analyze: bool,
        budget: "QueryBudget | None",
        degrade: str,
        deadline_ms: "float | None",
    ) -> "MdxResult":
        from repro.errors import MdxEvaluationError
        from repro.mdx.evaluator import _Context, _axis_tuples
        from repro.mdx.result import AxisTuple, MdxResult
        from repro.service.shard import parse_for_serving

        if self._closed:
            raise ServiceStoppedError("sharded query service is closed")
        query, reads_cell_values = parse_for_serving(text)
        if budget is not None or reads_cell_values:
            self._metrics.counter(
                "serve_local_fallback_total",
                reason="budget" if budget is not None else "value-dependent-set",
            ).inc()
            return self.warehouse.query(text, analyze=analyze, budget=budget)
        if analyze:
            from repro.analysis.query_analyzer import analyze_query
            from repro.errors import MdxAnalysisError

            report = analyze_query(self.warehouse, query)
            if report.has_errors:
                raise MdxAnalysisError(report)
        if not query.axes:
            raise MdxEvaluationError("a query needs at least one axis")
        if len(query.axes) > 2:
            raise MdxEvaluationError(
                "only COLUMNS and ROWS axes are supported in this implementation"
            )
        seen_axes: set[str] = set()
        for axis in query.axes:
            if axis.axis in seen_axes:
                raise MdxEvaluationError(
                    f"axis {axis.axis!r} is bound more than once"
                )
            seen_axes.add(axis.axis)
        self.warehouse.check_cube_name(query.cube)

        schema = self.warehouse.schema
        context = _Context(self._hollow, query)
        by_axis = {axis.axis: axis for axis in query.axes}
        if "columns" not in by_axis:
            raise MdxEvaluationError("a query must place a set ON COLUMNS")
        columns = _axis_tuples(by_axis["columns"], context)
        rows = (
            _axis_tuples(by_axis["rows"], context)
            if "rows" in by_axis
            else [AxisTuple((), ())]
        )
        slicer: dict[str, str] = {}
        if query.slicer is not None:
            from repro.mdx.evaluator import _as_set

            for binding_tuple in _as_set(query.slicer, context):
                for dim, coord, _ in binding_tuple:
                    slicer[dim] = coord

        has_scenario = bool(context.scenarios)
        cells, stats, degradations = self._evaluate_cells(
            query,
            text,
            schema,
            rows,
            columns,
            slicer,
            has_scenario,
            degrade,
            deadline_ms,
        )
        stats["sharded"] = self.n_shards

        from repro.olap.missing import is_missing

        # A degraded grid's ⊥ cells mean "unknown", not "empty": NON
        # EMPTY pruning over unknowns would silently drop rows the
        # healthy pool keeps, so it is skipped for partial answers.
        if not degradations:
            if "rows" in by_axis and by_axis["rows"].non_empty:
                keep = [
                    i
                    for i, row_cells in enumerate(cells)
                    if any(not is_missing(v) for v in row_cells)
                ]
                rows = [rows[i] for i in keep]
                cells = [cells[i] for i in keep]
            if by_axis["columns"].non_empty:
                keep = [
                    j
                    for j in range(len(columns))
                    if any(not is_missing(row_cells[j]) for row_cells in cells)
                ]
                columns = [columns[j] for j in keep]
                cells = [[row_cells[j] for j in keep] for row_cells in cells]
        return MdxResult(
            columns=columns,
            rows=rows,
            cells=cells,
            degradations=degradations,
            stats=stats,
        )

    def _classify(
        self,
        schema: Any,
        rows: "list[Any]",
        columns: "list[Any]",
        base_coords: "dict[str, str]",
        has_scenario: bool,
    ) -> "tuple[dict[int, list[_Cell]], list[_Cell], list[_Cell]]":
        """Sort the grid's cells into owned (per shard), spanning and
        local, each as ``(row, column, address)``.

        What a cell's class depends on — its coordinate slots, whether
        every coordinate is leaf level, which shard covers its
        shard-dimension coordinate — is worked out once per axis tuple
        (and once for ``base_coords``, the slicer over the defaults, in
        schema order); a cell is then a tuple fill and a few boolean
        tests.  A column coordinate
        overrides a row coordinate overrides the base, as in the
        single-process evaluator.  Only a cube that has rules, or stored
        aggregates, pays a per-cell probe for them.
        """
        cube = self.warehouse.cube
        rules = cube.rules
        check_rules = rules is not None and bool(rules.rules)
        stored_derived = cube._stored_derived
        shard_dim = self._dim_index
        shard_of = self.plan.shard_of_coordinate
        # under a scenario leaf-ness decides nothing: never look it up
        is_leaf = (
            (lambda i, coord: False)
            if has_scenario
            else schema.coordinate_is_leaf
        )

        def patches(tuples: "list[Any]") -> "list[list[tuple[int, str]]]":
            return [
                list(
                    {
                        schema.dim_index(dim): coord
                        for dim, coord in axis_tuple.coordinates
                    }.items()
                )
                for axis_tuple in tuples
            ]

        base = list(base_coords.values())
        base_leaf = [is_leaf(i, coord) for i, coord in enumerate(base)]
        row_patches = patches(rows)
        col_patches = patches(columns)

        # Columns that bind the same dimensions share a row's verdict on
        # all the other dimensions (one group in any ordinary grid).
        col_dims = [frozenset(i for i, _ in patch) for patch in col_patches]
        groups = list(dict.fromkeys(col_dims))
        col_group = [groups.index(dims) for dims in col_dims]
        col_leaf = [
            all(is_leaf(i, coord) for i, coord in patch) for patch in col_patches
        ]
        unbound = object()
        col_shard = [
            shard_of(dict(patch)[shard_dim]) if shard_dim in dims else unbound
            for patch, dims in zip(col_patches, col_dims)
        ]

        owned: "dict[int, list[_Cell]]" = {}
        spanning: "list[_Cell]" = []
        local: "list[_Cell]" = []
        for r, row_patch in enumerate(row_patches):
            row_addr = list(base)
            row_leaf = list(base_leaf)
            for i, coord in row_patch:
                row_addr[i] = coord
                row_leaf[i] = is_leaf(i, coord)
            leaf_outside = [
                all(flag for i, flag in enumerate(row_leaf) if i not in dims)
                for dims in groups
            ]
            row_shard = shard_of(row_addr[shard_dim])
            for c, col_patch in enumerate(col_patches):
                cell = list(row_addr)
                for i, coord in col_patch:
                    cell[i] = coord
                addr = tuple(cell)
                shard = col_shard[c]
                if shard is unbound:
                    shard = row_shard
                if check_rules and rules.has_rule_for(cube, addr):
                    local.append((r, c, addr))
                elif has_scenario:
                    if shard is not None:
                        owned.setdefault(shard, []).append((r, c, addr))
                    else:
                        local.append((r, c, addr))
                elif (leaf_outside[col_group[c]] and col_leaf[c]) or (
                    stored_derived and addr in stored_derived
                ):
                    local.append((r, c, addr))
                elif shard is not None:
                    owned.setdefault(shard, []).append((r, c, addr))
                else:
                    spanning.append((r, c, addr))
        return owned, spanning, local

    def _evaluate_cells(
        self,
        query: Any,
        text: str,
        schema: Any,
        rows: "list[Any]",
        columns: "list[Any]",
        slicer: "dict[str, str]",
        has_scenario: bool,
        degrade: str,
        deadline_ms: "float | None",
    ) -> "tuple[list[list[Any]], dict[str, int], list[Degradation]]":
        """Classify, scatter, gather (with retry/hedge/recovery), and
        merge the result grid."""
        from repro.errors import ShardError, TransientFaultError
        from repro.mdx.budget import Degradation
        from repro.olap.missing import MISSING
        from repro.service.shard import _Pending, _decode_value

        cube = self.warehouse.cube
        grid: "list[list[Any]]" = [
            [MISSING] * len(columns) for _ in rows
        ]
        base_coords = {
            d.name: slicer.get(d.name, d.root.name) for d in schema.dimensions
        }
        with trace_span("serve.classify") as span:
            owned, spanning, local = self._classify(
                schema, rows, columns, base_coords, has_scenario
            )
            stats = {
                "cells_evaluated": len(rows) * len(columns),
                "cells_skipped": 0,
                "owned_cells": sum(len(v) for v in owned.values()),
                "spanning_cells": len(spanning),
                "local_cells": len(local),
                "fallback_cells": 0,
            }
            if span is not None:
                span.set(
                    owned_cells=stats["owned_cells"],
                    spanning_cells=stats["spanning_cells"],
                    local_cells=stats["local_cells"],
                )

        # -- RPC deadline / recovery bookkeeping --------------------------------
        # Every scatter/gather on this query shares one wall-clock
        # deadline: the service's rpc_timeout_ms narrowed by the
        # caller's per-query deadline_ms (queue-style narrowing, same
        # contract as QueryService admission deadlines).
        rpc_budget = QueryBudget(deadline_ms=self.rpc_timeout_ms).narrowed(
            deadline_ms
        )
        assert rpc_budget.deadline_ms is not None
        deadline = self._clock() + rpc_budget.deadline_ms / 1000.0
        hedge_s = None if self.hedge_ms is None else self.hedge_ms / 1000.0
        hedging = degrade == "fallback" and hedge_s is not None

        fallback_cells: "list[_Cell]" = []
        lost: "list[tuple[str, list[_Cell]]]" = []
        spanning_active = bool(spanning)

        def recover_owned(shard: int, detail: str) -> None:
            """A shard's owned cells survive its death: recomputed
            locally (fallback) or returned ⊥ (partial)."""
            cells_for_shard = owned.pop(shard, None)
            if not cells_for_shard:
                return
            if degrade == "fallback":
                fallback_cells.extend(cells_for_shard)
                self._metrics.counter(
                    "serve_fallback_cells_total", shard=str(shard)
                ).inc(len(cells_for_shard))
            else:
                lost.append((f"shard {shard}: {detail}", list(cells_for_shard)))

        def recover_spanning(shard: int, detail: str) -> None:
            """A spanning merge missing any contribution is abandoned
            whole — a partial sum is not a value, it is a wrong value."""
            nonlocal spanning_active
            if not spanning_active:
                return
            spanning_active = False
            if degrade == "fallback":
                fallback_cells.extend(spanning)
                self._metrics.counter(
                    "serve_fallback_cells_total", shard=str(shard)
                ).inc(len(spanning))
            else:
                lost.append(
                    (
                        f"shard {shard}: {detail} (spanning merge incomplete)",
                        list(spanning),
                    )
                )

        # -- admission ----------------------------------------------------------
        involved = set(owned)
        if spanning_active:
            involved.update(range(self.n_shards))
        for shard in sorted(involved):
            admission_error: "BaseException | None" = None
            # Shed only while the breaker is fully open.  Half-open probe
            # slots belong to the supervisor's ping loop (never the query
            # path): a query admitted here that ends up with no RPC to
            # this shard — its cells recovered because *another* shard
            # died — would leak the slot and wedge the breaker half-open
            # forever.  Half-open queries flow freely; their recorded
            # outcomes close or re-open the breaker just the same.
            if self.breakers[shard].state is BreakerState.OPEN:
                self._metrics.counter(
                    "serve_shed_total", reason="shard-circuit-open"
                ).inc()
                admission_error = CircuitOpenError(
                    f"circuit breaker for shard {shard} is open; retry "
                    "after backoff"
                )
            else:
                try:
                    self.supervisor.client(shard)
                except ShardError as down:
                    self.breakers[shard].record_failure(down)
                    admission_error = down
            if admission_error is None:
                continue
            if degrade == "fail":
                raise admission_error
            recover_owned(shard, str(admission_error))
            recover_spanning(shard, str(admission_error))

        # -- scatter ------------------------------------------------------------
        pendings: "list[tuple[int, str, dict[str, Any], _Pending, Any]]" = []

        def scatter(shard: int, kind: str, payload: "dict[str, Any]") -> None:
            """Submit one RPC; transient faults retry in place, a dead
            shard waits (bounded) for its respawn, and a shard that
            stays dead is recovered per the degrade policy."""
            self._metrics.counter(
                "serve_shard_requests_total", shard=str(shard), kind=kind
            ).inc()
            transient = 0
            attempts = 0
            while True:
                try:
                    client = self.supervisor.client(shard)
                    pendings.append(
                        (shard, kind, payload, client.submit(payload), client)
                    )
                    return
                except TransientFaultError:
                    transient += 1
                    if transient > self.rpc_retries:
                        raise
                    self._metrics.counter(
                        "serve_shard_retries_total",
                        shard=str(shard),
                        kind="transient",
                    ).inc()
                except ShardError as exc:
                    self.breakers[shard].record_failure(exc)
                    self.supervisor.notify_failure(shard, exc)
                    attempts += 1
                    remaining = deadline - self._clock()
                    if (
                        attempts <= self.rpc_retries
                        and remaining > 0
                        and self.supervisor.await_live(shard, remaining)
                        is not None
                    ):
                        self._metrics.counter(
                            "serve_shard_retries_total",
                            shard=str(shard),
                            kind="respawn",
                        ).inc()
                        continue
                    if degrade == "fail":
                        raise
                    detail = f"scatter failed: {exc}"
                    if kind == "cells":
                        recover_owned(shard, detail)
                    else:
                        recover_spanning(shard, detail)
                    return

        with trace_span("serve.scatter") as span:
            for shard, assigned in sorted(owned.items()):
                scatter(
                    shard,
                    "cells",
                    {
                        "op": "cells",
                        "text": text,
                        "addresses": [addr for _, _, addr in assigned],
                    },
                )
            if spanning_active:
                spanning_payload = {
                    "op": "partial",
                    "addresses": [addr for _, _, addr in spanning],
                }
                for shard in range(self.n_shards):
                    if not spanning_active:
                        break
                    scatter(shard, "partial", dict(spanning_payload))
            if span is not None:
                span.set(
                    shards=len({shard for shard, *_ in pendings}),
                    rpcs=len(pendings),
                )

        # -- gather -------------------------------------------------------------
        def gather_one(
            shard: int,
            kind: str,
            payload: "dict[str, Any]",
            pending: _Pending,
            client: Any,
        ) -> "dict[str, Any]":
            """Gather one RPC under the shared deadline.

            Transient faults re-gather the same pending; a dead shard is
            retried against the respawned client (re-submit); an
            alive-but-slow shard past the hedge threshold raises so the
            caller falls back locally.  Raises ShardError when the shard
            stays unanswerable within the deadline.
            """
            transient = 0
            attempts = 0
            while True:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    raise ShardError(
                        f"shard {shard} missed the "
                        f"{rpc_budget.deadline_ms:.0f}ms RPC deadline",
                        shard=shard,
                    )
                wait = remaining
                if hedging:
                    assert hedge_s is not None
                    wait = min(wait, hedge_s)
                try:
                    return client.gather(pending, timeout=wait)
                except TransientFaultError:
                    transient += 1
                    if transient > self.rpc_retries:
                        raise
                    self._metrics.counter(
                        "serve_shard_retries_total",
                        shard=str(shard),
                        kind="transient",
                    ).inc()
                    if pending.event.is_set():
                        # Remote-raised transient: that RPC is consumed,
                        # so the retry must re-submit.  (A local
                        # serve.gather fault leaves the pending intact
                        # and simply re-gathers.)
                        try:
                            client = self.supervisor.client(shard)
                            pending = client.submit(payload)
                        except (ShardError, TransientFaultError):
                            continue
                except ShardError as exc:
                    self.breakers[shard].record_failure(exc)
                    if not pending.event.is_set() and not client.down():
                        # The worker is alive, the answer is late: hedge
                        # to the coordinator's bit-identical local path.
                        if hedging:
                            self._metrics.counter(
                                "serve_hedge_total", shard=str(shard)
                            ).inc()
                        raise
                    self.supervisor.notify_failure(shard, exc)
                    attempts += 1
                    remaining = deadline - self._clock()
                    if attempts > self.rpc_retries or remaining <= 0:
                        raise
                    fresh = self.supervisor.await_live(shard, remaining)
                    if fresh is None:
                        raise
                    self._metrics.counter(
                        "serve_shard_retries_total",
                        shard=str(shard),
                        kind="respawn",
                    ).inc()
                    try:
                        pending = fresh.submit(payload)
                        client = fresh
                    except (ShardError, TransientFaultError):
                        continue

        responses: "dict[tuple[int, str], dict[str, Any]]" = {}
        first_error: "BaseException | None" = None
        with trace_span("serve.gather"):
            for shard, kind, payload, pending, client in pendings:
                try:
                    response = gather_one(shard, kind, payload, pending, client)
                except ShardError as exc:
                    if degrade == "fail":
                        if first_error is None:
                            first_error = exc
                        continue
                    detail = f"gather failed: {exc}"
                    if kind == "cells":
                        recover_owned(shard, detail)
                    else:
                        recover_spanning(shard, detail)
                except BaseException as exc:
                    self.breakers[shard].record_failure(exc)
                    if first_error is None:
                        first_error = exc
                else:
                    self.breakers[shard].record_success()
                    responses[(shard, kind)] = response
        if first_error is not None:
            raise first_error

        # -- merge --------------------------------------------------------------
        with trace_span("serve.merge"):
            for shard, assigned in sorted(owned.items()):
                values = responses[(shard, "cells")]["values"]
                for (r, c, _), value in zip(assigned, values):
                    grid[r][c] = _decode_value(value)
            if spanning_active:
                merged = _merge_partials(
                    [
                        responses[(shard, "partial")]
                        for shard in range(self.n_shards)
                    ],
                    len(spanning),
                )
                for (r, c, _), value in zip(spanning, merged):
                    grid[r][c] = value

        # -- degradation records (partial policy) -------------------------------
        degradations: "list[Degradation]" = []
        if lost:
            skipped = sum(len(cells_lost) for _, cells_lost in lost)
            stats["cells_skipped"] = skipped
            self._metrics.counter("serve_degraded_cells_total").inc(skipped)
            total_cells = len(rows) * len(columns)
            for detail, cells_lost in lost:
                degradations.append(
                    Degradation(
                        reason="shard-down",
                        detail=detail,
                        cells_evaluated=total_cells - skipped,
                        cells_skipped=len(cells_lost),
                    )
                )

        # -- local residue ------------------------------------------------------
        stats["fallback_cells"] = len(fallback_cells)
        local_all = local + fallback_cells
        if local_all:
            with trace_span(
                "serve.local",
                local_cells=len(local),
                fallback_cells=len(fallback_cells),
            ):
                if has_scenario:
                    from repro.mdx.evaluator import _Context

                    # Full context, built once per call; the warehouse's
                    # scenario cache amortises the apply across queries
                    # with the same fingerprints.
                    view = _Context(self.warehouse, query).view
                else:
                    view = cube
                for r, c, addr in local_all:
                    grid[r][c] = view.effective_value(addr)
        return grid, stats, degradations

    # -- introspection / lifecycle ------------------------------------------------

    def explain(self, text: str) -> str:
        return self.warehouse.explain(text)

    def analyze(self, text: str):
        return self.warehouse.analyze(text)

    def health(self) -> "dict[str, Any]":
        """Machine-readable health: per-shard supervision state, breaker
        state, and the liveness/readiness split.

        ``live`` — the coordinator itself is up (it can always answer,
        degraded if necessary).  ``ready`` — every shard is live and
        every breaker closed, i.e. the pool serves bit-identical answers
        without fallback.  A supervisor mid-respawn leaves the service
        live but not ready.
        """
        supervision = self.supervisor.status()
        shards = []
        for state in supervision:
            index = state["shard"]
            shards.append(
                {
                    "shard": index,
                    "alive": state["alive"],
                    "state": state["state"],
                    "restarts": state["restarts"],
                    "next_attempt_in_s": state["next_attempt_in_s"],
                    "last_error": state["last_error"],
                    "breaker": self.breakers[index].state.name.lower(),
                    "members": len(self.plan.shards[index]),
                }
            )
        live = not self._closed
        ready = (
            live
            and all(s["alive"] for s in shards)
            and all(
                breaker.state is BreakerState.CLOSED
                for breaker in self.breakers
            )
        )
        if not live:
            status = "closed"
        elif ready:
            status = "ok"
        else:
            status = "degraded"
        return {
            "status": status,
            "live": live,
            "ready": ready,
            "degrade": self.degrade,
            "workload": self.workload,
            "dimension": self.dimension,
            "restarts_total": sum(s["restarts"] for s in shards),
            "retry_after_s": self.supervisor.retry_after_s(),
            "shards": shards,
        }

    def close(self, timeout: float = 5.0) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.supervisor.close(timeout)

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedQueryService({self.workload!r}, {self.n_shards} shards "
            f"on {self.dimension!r})"
        )
