"""One query service over the evaluator's one query pipeline, with
N ≥ 0 shard processes.

A query means one thing whoever executes it (:mod:`repro.mdx.evaluator`:
resolve → fill → finish).  :class:`QueryService` puts admission around
that pipeline and, when it has shards, spreads *fill* over them.

**Admission** is one step for both entry points: a closed service
raises :class:`~repro.errors.ServiceStoppedError`; the service circuit
breaker is consulted (:class:`~repro.errors.CircuitOpenError` fails fast
while the coordinator's own evaluation keeps failing); and a snapshot of
the *live* warehouse is pinned at the current cube version.  Nothing in
admission can block.

* ``submit()`` pins the snapshot, enqueues the query on a bounded queue
  (a full queue sheds it with :class:`~repro.errors.ServiceOverloadedError`
  *at submit time*) and returns a :class:`QueryTicket` at once.  A worker
  thread charges the queue wait against the query's deadline; a deadline
  that fully expired in the queue sheds instead of executing.  If the
  submitter was inside a traced span, the worker attaches to it via
  ``Tracer.child_scope``.
* ``execute()`` pins the snapshot and runs the query on the caller's
  thread (the HTTP front end's path).

**Execution** reads the pinned snapshot only.  With no shard, when the
caller passed a budget, or when a FILTER / ORDER set reads cell values,
the answer is ``snapshot.query`` — exactly what ``Warehouse.query``
returns, partial (⊥-degraded) grids under budget breach included.
Otherwise the coordinator runs *resolve* from the scenario's structure
half (a chain is applied here only to read a coordinator cell) and
*finish*; its *fill* is a stage per method over one :class:`_QueryState`:
classify → admit → scatter → gather → merge → local residue.  Shards and
the residue fill grid blocks — one ``perf.batch.GridLayout`` each — with
``_Context.fill_blocks``, as ``Warehouse.query`` fills a grid.

Three rules hold whatever the shard count: the service breaker gates
every admission but counts only the coordinator's own evaluation (a
shard fault is charged to that shard's breaker alone); ``deadline_ms``
bounds the shard RPCs when a query scatters and is the budget deadline
when it runs locally; ``service_*`` metrics cover the queue and the
service breaker, ``serve_*`` metrics execution and the shard tier.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import (
    CircuitOpenError,
    QueryError,
    ServiceOverloadedError,
    ServiceStoppedError,
    ServiceTimeoutError,
    ShardError,
    TransientFaultError,
)
from repro.lint.lockdep import make_lock
from repro.mdx.budget import Degradation, QueryBudget, check_deadline_ms
from repro.obs.trace import TRACER, Span, trace_span
from repro.olap.missing import MISSING
from repro.service.breaker import BreakerState, CircuitBreaker
from repro.service.shard import (
    ShardSpec,
    _decode_value,
    build_shard_plan,
    build_workload,
    cells_request,
    make_slice,
)
from repro.service.supervisor import ShardSupervisor, SupervisorConfig

if TYPE_CHECKING:
    from repro.mdx.evaluator import GridBlock, ResolvedQuery
    from repro.mdx.result import MdxResult
    from repro.service.shard import ShardClient, ShardPlan
    from repro.service.snapshot import WarehouseSnapshot
    from repro.warehouse import Warehouse

__all__ = ["QueryService", "QueryTicket", "ShardedQueryService", "rpc_action"]


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


@dataclass(slots=True)
class _Job:
    """One queued query (internal)."""

    ticket: QueryTicket
    analyze: bool
    budget: "QueryBudget | None"
    deadline_ms: "float | None"
    submitted_at: float
    parent_span: "Span | None"
    #: the finished ``service.submit`` span (what admission cost: the
    #: snapshot fork), attached to the query's profile by the worker
    submit_span: "Span | None"


#: one result cell on the coordinator: (row, column, address)
_Cell = tuple[int, int, tuple[str, ...]]
#: one rectangle of the grid: (row positions, column positions)
_Block = tuple[list[int], list[int]]


def _blocks(cells: "list[_Cell]") -> "list[_Block]":
    """Some cells of a grid as rectangles: the rows that hold the same
    columns form one block.  A shard's owned cells are one block when the
    shard dimension is bound on rows or on columns alone, a few when a
    column coordinate overrides a row's."""
    columns_of: "dict[int, list[int]]" = {}
    for r, c, _ in cells:
        columns_of.setdefault(r, []).append(c)
    rows_of: "dict[tuple[int, ...], list[int]]" = {}
    for r, columns in columns_of.items():
        rows_of.setdefault(tuple(columns), []).append(r)
    return [(rows, list(columns)) for columns, rows in rows_of.items()]


def _axis_blocks(resolved: "ResolvedQuery", blocks: "list[_Block]") -> "list[GridBlock]":
    """Each block as its (row tuples, column tuples)."""
    return [
        ([resolved.rows[r] for r in rows], [resolved.columns[c] for c in columns])
        for rows, columns in blocks
    ]


def _fill_blocks(
    grid: "list[list[Any]]",
    blocks: "list[_Block]",
    values: "list[list[list[Any]]]",
    decode: "Callable[[Any], Any]" = lambda value: value,
) -> None:
    """Write each block's row-major values into the grid at its rows and
    columns."""
    for (rows, columns), block in zip(blocks, values):
        for r, row_values in zip(rows, block):
            grid_row = grid[r]
            for c, value in zip(columns, row_values):
                grid_row[c] = decode(value)


#: per RPC and per stage (scatter, gather): transient faults retried in
#: place, and respawns of a dead shard waited for, before giving up
RPC_RETRIES = 2

# how one attempt at an RPC ended ...
TRANSIENT, SHARD_ERROR, DEADLINE = "transient", "shard-error", "deadline"
# ... and what the RPC loop does next
RE_GATHER, RE_SUBMIT, AWAIT_RESPAWN = "re-gather", "re-submit", "await-respawn"
HEDGE, GIVE_UP, RAISE = "hedge", "give-up", "raise"


def rpc_action(
    fault: str,
    *,
    transient: int,
    respawns: int,
    remaining: float,
    consumed: bool,
    alive: bool,
    hedging: bool,
) -> str:
    """The shard tier's retry / hedge policy: plain values in, an action
    out (the table in docs/serving.md, "Deadlines, retries, hedging";
    pinned by ``tests/service/test_rpc_policy.py``).

    ``fault``: a ``TransientFaultError``, a ``ShardError`` (timeout, dead
    pipe, down shard), or the query's deadline passing before the wait
    began.  ``transient`` / ``respawns``: what this RPC already spent in
    this stage.  ``remaining``: seconds to the deadline.  ``consumed``:
    the pending slot was answered (or never obtained), so trying again
    means submitting again.  ``alive``: the worker's pipe is still up.
    ``hedging``: the query runs under ``fallback`` with a hedge threshold.
    """
    if fault == DEADLINE:
        return GIVE_UP
    if fault == TRANSIENT:
        if transient >= RPC_RETRIES:
            return RAISE  # under every degrade policy: the fault is the answer
        return RE_SUBMIT if consumed else RE_GATHER
    if alive and not consumed:
        # The answer is late, the worker is not dead.  Only fallback may
        # swap the answer's provenance early; fail and partial got here by
        # waiting out the whole deadline.
        return HEDGE if hedging else GIVE_UP
    if respawns >= RPC_RETRIES or remaining <= 0:
        return GIVE_UP
    return AWAIT_RESPAWN


@dataclass
class _QueryState:
    """One sharded query between classification and the finished grid.

    Single-threaded (it belongs to the thread running the query), so no
    lock.  ``owned`` shrinks as shards are given up on; what is left when
    the gather ends is what the merge reads.
    """

    degrade: str
    metrics: Any
    owned: "dict[int, list[_Cell]]"  #: shard -> the cells it evaluates alone
    local: "list[_Cell]"  #: the coordinator's: no single shard owns them
    grid: "list[list[Any]]"  #: the result cells, ⊥ until a stage fills them
    stats: "dict[str, int]"
    #: the wall-clock deadline (monotonic s) every RPC of the query shares
    deadline: float = math.inf
    deadline_ms: float = math.inf
    #: how long a live worker may be late before its cells are hedged
    hedge_s: "float | None" = None
    #: shard -> its owned cells as the grid blocks its ``cells`` RPC
    #: carries, cut once at scatter; the merge writes the answer back by them
    blocks: "dict[int, list[_Block]]" = field(default_factory=dict)
    fallback: "list[_Cell]" = field(default_factory=list)
    lost: "list[tuple[str, list[_Cell]]]" = field(default_factory=list)

    def give_up(self, shard: int, detail: str, error: BaseException) -> None:
        """Stop waiting for ``shard``'s answer for its owned cells.

        The one place the degrade policy is applied, whichever of
        admission, scatter or gather got here: ``fail`` raises ``error``,
        ``fallback`` hands the cells to the local fill, ``partial`` records
        them as lost (⊥).
        """
        if self.degrade == "fail":
            raise error
        cells = self.owned.pop(shard, None)
        if not cells:
            return
        if self.degrade == "fallback":
            self.fallback.extend(cells)
            self.metrics.counter("serve_fallback_cells_total", shard=str(shard)).inc(
                len(cells)
            )
        else:
            self.lost.append((f"shard {shard}: {detail}", list(cells)))


@dataclass(slots=True)
class _Rpc:
    """One request to one shard: what to send, and where it stands."""

    shard: int
    payload: "dict[str, Any]"
    client: "ShardClient | None" = None
    pending: Any = None  #: the slot to gather on; None = submit first


class QueryService:
    """Bounded, breaker-guarded query execution over snapshots of a live
    warehouse, in process or across ``n_shards`` shard processes (see the
    module docstring).

    The warehouse's first varying dimension is partitioned by
    :func:`~repro.service.shard.build_shard_plan` into contiguous runs of
    whole members, balanced by instance count; each shard owns one run —
    every instance of its members.  A cell one shard covers is **owned**
    and crosses the pipe in a grid block; every other cell (above any
    single member, a leaf read, a rule-bearing cell or a stored
    aggregate) is **local**, filled from the pinned snapshot as
    ``Warehouse.query`` fills it.  A grid with no owned cells sends no RPC.

    ``workers`` threads run ``submit``'s queue of at most ``queue_depth``
    waiting queries; ``default_deadline_ms`` applies to queries with
    neither their own deadline nor a budget deadline; ``clock`` is
    injectable for tests.  The shard tier's failure semantics
    (docs/serving.md): every scatter/gather of a query shares one
    deadline, ``rpc_timeout_ms`` narrowed by the query's ``deadline_ms``;
    :func:`rpc_action` says what happens to a faulted RPC; each shard has
    its own :class:`CircuitBreaker`; and when a shard stays unavailable
    ``degrade`` decides (:meth:`_QueryState.give_up`) — ``"fallback"``
    recomputes its cells on the coordinator, ``"partial"`` returns them
    as ⊥ with :class:`~repro.mdx.budget.Degradation` records, ``"fail"``
    raises the typed error.
    """

    #: accepted values for the ``degrade`` policy
    DEGRADE_POLICIES = ("fail", "fallback", "partial")

    @classmethod
    def _check_degrade(cls, policy: str) -> None:
        if policy not in cls.DEGRADE_POLICIES:
            raise ShardError(
                f"unknown degrade policy {policy!r}; expected one of "
                f"{', '.join(cls.DEGRADE_POLICIES)}"
            )

    def __init__(
        self,
        warehouse: "Warehouse",
        *,
        n_shards: int = 0,
        workers: int = 4,
        queue_depth: int = 16,
        default_deadline_ms: "float | None" = None,
        breaker: "CircuitBreaker | None" = None,
        clock: "Callable[[], float] | None" = None,
        degrade: str = "fallback",
        rpc_timeout_ms: float = 30_000.0,
        hedge_ms: "float | None" = 1_000.0,
        supervisor_config: "SupervisorConfig | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self._check_degrade(degrade)
        if rpc_timeout_ms <= 0:
            raise ShardError("rpc_timeout_ms must be > 0")
        if hedge_ms is not None and hedge_ms <= 0:
            raise ShardError("hedge_ms must be > 0 (or None to disable)")
        self.warehouse = warehouse
        self.workload = warehouse.name
        self.workers = workers
        self.queue_depth = queue_depth
        self.default_deadline_ms = default_deadline_ms
        self.degrade = degrade
        self.rpc_timeout_ms = float(rpc_timeout_ms)
        self.hedge_ms = None if hedge_ms is None else float(hedge_ms)
        self._clock = clock or time.monotonic
        self._metrics = warehouse.metrics
        self.breaker = breaker or CircuitBreaker()
        self.breaker.on_state_change = self._on_breaker_state
        self._metrics.gauge("circuit_state").set(int(self.breaker.state))
        self._lock = make_lock("QueryService._lock", reentrant=False)
        self._closed = False
        self.n_shards = n_shards
        self._metrics.gauge("serve_shards").set(n_shards)
        self.plan: "ShardPlan | None" = None
        self.dimension: "str | None" = None
        self.supervisor: "ShardSupervisor | None" = None
        self.breakers: "list[CircuitBreaker]" = []
        if n_shards:
            self._start_pool(supervisor_config)
        # Last: nothing after the threads start may fail and strand them.
        self._queue: "queue.Queue[_Job | None]" = queue.Queue(maxsize=queue_depth)
        self._threads = [
            threading.Thread(target=self._worker_loop, name=f"repro-query-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def _start_pool(self, supervisor_config: "SupervisorConfig | None") -> None:
        """Plan the shards, spawn them, and check that their slices
        partition the cube."""
        schema = self.warehouse.schema
        if not schema.varying:
            raise ShardError(
                f"warehouse {self.warehouse.name!r} has no varying dimension to shard on"
            )
        self.dimension = dimension = next(iter(schema.varying))
        try:
            self.plan = build_shard_plan(self.warehouse, dimension, self.n_shards)
        except QueryError as exc:  # n_shards < 1, or more shards than members
            raise ShardError(str(exc)) from exc
        self._dim_index = schema.dim_index(dimension)
        # Each shard is handed its slice of the live warehouse, cut afresh
        # at every spawn and respawn and never retained.
        specs = [
            ShardSpec(index, partial(make_slice, self.warehouse, dimension, tuple(owned)))
            for index, owned in enumerate(self.plan.shards)
        ]
        if supervisor_config is None:
            supervisor_config = SupervisorConfig(
                rpc_timeout_s=max(self.rpc_timeout_ms / 1000.0, 1.0)
            )
        self.supervisor = ShardSupervisor(
            specs, config=supervisor_config, metrics=self._metrics
        )
        # From here on a failure must not strand the pool: nobody else
        # holds a handle to its monitor thread and worker processes.
        try:
            self.breakers = [CircuitBreaker() for _ in range(self.n_shards)]
            for index, breaker in enumerate(self.breakers):
                breaker.on_state_change = self._breaker_callback(index)
                breaker.on_state_change(breaker.state)
            self.supervisor.attach_breakers(self.breakers)

            # Startup invariant: the shards' sub-cubes partition the full
            # cube, so every leaf is owned by exactly one shard and no
            # answer silently drops a contribution.  Each hello carried the
            # leaf count of the slice just opened, so no RPC is needed —
            # and no worker can die between its hello and the check.
            total = sum(client.leaves for client in self.clients)
            if total != self.warehouse.cube.n_leaf_cells:
                raise ShardError(
                    f"shards hold {total} leaves, warehouse has "
                    f"{self.warehouse.cube.n_leaf_cells}: the plan is not a "
                    "partition"
                )
        except BaseException:
            self.supervisor.close()
            raise

    @property
    def clients(self) -> "list[ShardClient]":
        """The current client per shard (supervisor-owned; a respawn
        swaps the list entry for the replacement process's client)."""
        return self.supervisor.clients if self.supervisor is not None else []

    def _breaker_callback(self, index: int) -> "Callable[[BreakerState], None]":
        gauge = self._metrics.gauge("serve_breaker_state", shard=str(index))
        return lambda state: gauge.set(int(state))

    def _on_breaker_state(self, state: BreakerState) -> None:
        self._metrics.gauge("circuit_state").set(int(state))

    def _shed(self, reason: str, error: Exception) -> Exception:
        self._metrics.counter("service_shed_total", reason=reason).inc()
        self._metrics.counter("service_queries_total", status="shed").inc()
        return error

    # -- client API ---------------------------------------------------------------

    def _admission(
        self,
        budget: "QueryBudget | None",
        degrade: "str | None",
        deadline_ms: "float | None",
    ) -> "tuple[WarehouseSnapshot, str, float | None]":
        """The one admission step of ``submit`` and ``execute``: refuse on
        a closed service, a bad policy or deadline, or an open breaker;
        else pin a snapshot.  Returns it with the query's policy and
        deadline (its own, else the budget's, else the service default)."""
        if self._closed:
            raise ServiceStoppedError("query service is closed")
        if degrade is None:
            degrade = self.degrade
        self._check_degrade(degrade)
        deadline_ms = check_deadline_ms(deadline_ms)
        if deadline_ms is None:
            deadline_ms = (
                budget.deadline_ms
                if budget is not None and budget.deadline_ms is not None
                else self.default_deadline_ms
            )
        if not self.breaker.allow():
            raise self._shed(
                "circuit-open",
                CircuitOpenError(
                    "circuit breaker is open (repeated backend failures); "
                    "retry after backoff"
                ),
            )
        return self.warehouse.snapshot(), degrade, deadline_ms

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
        parent = TRACER.current() if TRACER.enabled else None
        with trace_span("service.submit") as submit_span:
            snapshot, _, deadline_ms = self._admission(budget, None, deadline_ms)
            ticket = QueryTicket(text, snapshot)
            job = _Job(
                ticket, analyze, budget, deadline_ms, self._clock(), parent, submit_span
            )
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                error = self._shed(
                    "queue-full",
                    ServiceOverloadedError(
                        f"admission queue is full ({self.queue_depth} waiting); "
                        "query shed",
                        reason="queue-full",
                    ),
                )
                self.breaker.record_failure(error)  # frees a probe slot
                raise error from None
        self._metrics.gauge("service_queue_depth").set(self._queue.qsize())
        return ticket

    def execute(
        self,
        text: str,
        *,
        analyze: bool = True,
        budget: "QueryBudget | None" = None,
        degrade: "str | None" = None,
        deadline_ms: "float | None" = None,
    ) -> "MdxResult":
        """Admit and evaluate one query on the calling thread.

        Returns exactly what ``Warehouse.query`` returns at the admitted
        version — same axis tuples, bit-identical cells, same NON EMPTY
        pruning — when every involved shard answers (a stale shard's
        owned cells answer its pre-write data).  ``degrade`` overrides
        the service-level policy for this query (``"fail"`` |
        ``"fallback"`` | ``"partial"``); ``deadline_ms`` (a finite
        number, else :class:`~repro.errors.QueryError`) narrows the
        per-RPC deadline below ``rpc_timeout_ms`` when the query
        scatters, and is the budget deadline when it runs locally.  A
        ``"partial"`` answer carries ⊥ cells plus ``degradations``
        records and skips NON EMPTY pruning (unknown values must not
        silently drop rows).
        """
        snapshot, degrade, deadline_ms = self._admission(budget, degrade, deadline_ms)
        return self._run(snapshot, text, analyze, budget, degrade, deadline_ms)

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
        deadline_ms = job.deadline_ms
        if deadline_ms is not None:
            if wait_ms >= deadline_ms:
                # The deadline died in the queue: shed, don't start work
                # the caller has already given up on.
                error = self._shed(
                    "deadline-expired",
                    ServiceOverloadedError(
                        f"deadline of {deadline_ms}ms expired after "
                        f"{wait_ms:.1f}ms in the admission queue",
                        reason="deadline-expired",
                    ),
                )
                self.breaker.record_failure(error)  # frees a probe slot
                ticket._complete(None, error)
                return
            deadline_ms -= wait_ms
        try:
            with TRACER.child_scope(job.parent_span):
                result = self._run(
                    ticket.snapshot,
                    ticket.text,
                    job.analyze,
                    job.budget,
                    self.degrade,
                    deadline_ms,
                )
        except BaseException as exc:
            self._metrics.counter("service_queries_total", status="error").inc()
            ticket._complete(None, exc)
            if isinstance(exc, (SystemExit, KeyboardInterrupt)):
                raise  # completed the ticket first; now let the exit out
            return
        status = "partial" if result.degradations else "ok"
        self._metrics.counter("service_queries_total", status=status).inc()
        if result.profile is not None and job.submit_span is not None:
            result.profile.submit = job.submit_span.to_dict()
        ticket._complete(result)

    # -- query path ---------------------------------------------------------------

    def _run(
        self,
        snapshot: "WarehouseSnapshot",
        text: str,
        analyze: bool,
        budget: "QueryBudget | None",
        degrade: str,
        deadline_ms: "float | None",
    ) -> "MdxResult":
        """One admitted query under the ``serve.execute`` span and the
        ``serve_*`` execution metrics."""
        started = self._clock()
        try:
            with trace_span("serve.execute") as span:
                result = self._execute(
                    snapshot, text, analyze, budget, degrade, deadline_ms
                )
            if span is not None and result.profile is None:
                from repro.obs.profile import QueryProfile

                result.profile = QueryProfile.from_span(
                    span,
                    stats=result.stats,
                    degradations=[d.to_dict() for d in result.degradations],
                )
        except BaseException:
            self._metrics.counter("serve_queries_total", status="error").inc()
            raise
        finally:
            self._metrics.histogram("serve_query_ms").observe(
                (self._clock() - started) * 1000.0
            )
        status = "partial" if result.degradations else "ok"
        self._metrics.counter("serve_queries_total", status=status).inc()
        return result

    def _execute(
        self,
        snapshot: "WarehouseSnapshot",
        text: str,
        analyze: bool,
        budget: "QueryBudget | None",
        degrade: str,
        deadline_ms: "float | None",
    ) -> "MdxResult":
        """``snapshot.query`` (no shard, a budget, or a set that reads
        cell values), else prepare → resolve (the plan's axes, or the
        scenario's structure half; nothing applied) → fill across the pool
        → finish, every coordinator read from ``snapshot``.  Whether a set
        reads cell values is what resolve found — wherever the FILTER or
        ORDER sits, a WITH SET included — and the plan remembers it.

        The service breaker hears the outcome of the coordinator's own
        work only: a fault raised while the shards are asked gives a
        half-open probe slot back and counts nothing.
        """
        from repro.mdx.evaluator import finish_query, prepare

        asking_shards = False
        try:
            resolved, reason = None, "budget"
            if self.n_shards and budget is None:
                reason = "value-dependent-set"
                prepared = prepare(snapshot, text, analyze)
                prepared.check()
                if not prepared.reads_cells:
                    resolved = prepared.resolve()
                    if resolved.reads_cells:  # met for the first time
                        resolved = None
            if resolved is None:
                if self.n_shards:
                    self._metrics.counter("serve_local_fallback_total", reason=reason).inc()
                budget = (budget or QueryBudget()).narrowed(deadline_ms)
                result = snapshot.query(
                    text, analyze=analyze, budget=None if budget.unlimited else budget
                )
            else:
                state = self._plan_cells(resolved, degrade, deadline_ms)
                asking_shards = True
                self._admit(state)
                self._merge(state, self._gather(state, self._scatter(state, resolved, text)))
                asking_shards = False
                degradations = self._degradations(state)
                self._fill_local(state, resolved)
                # axes resolved under a chain no query had met, and no cell
                # read here: its structure half is the chain's cache entry
                # from now on
                resolved.context.keep()
                state.stats["fallback_cells"] = len(state.fallback)
                state.stats["sharded"] = self.n_shards
                result = finish_query(resolved, state.grid, state.stats, degradations)
        except BaseException as exc:
            if asking_shards:
                self.breaker.release()
            else:
                self.breaker.record_failure(exc)
            raise
        self.breaker.record_success()
        return result

    # -- the shard fill: classify → admit → scatter → gather → merge → residue ---

    def _plan_cells(
        self, resolved: "ResolvedQuery", degrade: str, deadline_ms: "float | None"
    ) -> _QueryState:
        n_rows, n_columns = len(resolved.rows), len(resolved.columns)
        with trace_span("serve.classify") as span:
            owned, local = self._classify(resolved)
            counts = {
                "owned_cells": sum(len(v) for v in owned.values()),
                "local_cells": len(local),
            }
            if span is not None:
                span.set(**counts)
        stats = {"cells_evaluated": n_rows * n_columns, "cells_skipped": 0, **counts}
        # One wall-clock deadline for every scatter/gather of this query:
        # rpc_timeout_ms, narrowed by the query's deadline_ms (negative
        # clamps to 0).
        rpc_ms = self.rpc_timeout_ms
        if deadline_ms is not None:
            rpc_ms = min(rpc_ms, max(deadline_ms, 0.0))
        hedging = degrade == "fallback" and self.hedge_ms is not None
        return _QueryState(
            degrade,
            self._metrics,
            owned,
            local,
            [[MISSING] * n_columns for _ in range(n_rows)],
            stats,
            deadline=self._clock() + rpc_ms / 1000.0,
            deadline_ms=rpc_ms,
            hedge_s=self.hedge_ms / 1000.0 if hedging else None,
        )

    def _classify(
        self, resolved: "ResolvedQuery"
    ) -> "tuple[dict[int, list[_Cell]], list[_Cell]]":
        """Sort the grid's cells into owned (per shard) and local, each as
        ``(row, column, address)``.

        A cell is owned when one shard covers its shard-dimension
        coordinate and it is not a leaf read, a rule-bearing cell or (with
        no scenario) a stored aggregate; every other cell is local.  A
        cell's address and leaf test are the grid's layout's
        (:class:`~repro.perf.batch.GridLayout`: per row and column group,
        docs/serving.md, "Classification is per layout group"); a cell is
        then a tuple fill and a few boolean tests.  Only a cube that has
        rules, or stored aggregates, pays a per-cell probe for them.
        """
        layout = resolved.layout
        cube = resolved.context.warehouse.cube
        rules = cube.rules
        check_rules = rules is not None and bool(rules.rules)
        stored_derived = cube._stored_derived
        shard_dim = self._dim_index
        shard_of = self.plan.shard_of_coordinate
        has_scenario = bool(resolved.context.scenarios)
        # without a scenario a stored aggregate is a point read here, as a
        # leaf is
        stored_local = bool(stored_derived) and not has_scenario

        unbound = object()
        col_shard = [
            shard_of(patch[shard_dim]) if shard_dim in patch else unbound
            for patch in layout.col_patches
        ]
        owned: "dict[int, list[_Cell]]" = {}
        local: "list[_Cell]" = []
        no_leaf: "set[int]" = set()
        for r, row_addr in enumerate(layout.row_addrs):
            # under a scenario leaf-ness decides nothing
            leaf_cols = no_leaf if has_scenario else layout.leaf_columns(r)
            row_shard = shard_of(row_addr[shard_dim])
            for c, shard in enumerate(col_shard):
                addr = layout.address(r, c)
                if shard is unbound:
                    shard = row_shard
                if (
                    shard is None
                    or (check_rules and rules.has_rule_for(cube, addr))
                    or c in leaf_cols
                    or (stored_local and addr in stored_derived)
                ):
                    local.append((r, c, addr))
                else:
                    owned.setdefault(shard, []).append((r, c, addr))
        return owned, local

    def _admit(self, state: _QueryState) -> None:
        """Give up, before any RPC, on every involved shard whose breaker
        is open or whose process is down."""
        for shard in sorted(state.owned):
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
                error: Exception = CircuitOpenError(
                    f"circuit breaker for shard {shard} is open; retry "
                    "after backoff"
                )
            else:
                try:
                    self.supervisor.client(shard)
                    continue
                except ShardError as down:
                    self.breakers[shard].record_failure(down)
                    error = down
            state.give_up(shard, str(error), error)

    def _rpc(
        self, state: _QueryState, rpc: _Rpc, *, gather: bool
    ) -> "dict[str, Any] | None":
        """Take one RPC through one stage — submitted (scatter) or
        answered (gather) — under the query's shared deadline.

        Fault-free, that is one ``submit`` and one ``gather``.  Every
        fault, in either stage, is put to :func:`rpc_action`; this loop
        only carries the verdict out.  Returns the response — ``None``
        once merely submitted, or once the shard is given up on
        (:meth:`_QueryState.give_up`, which raises under ``fail``).
        """
        shard = rpc.shard
        transient = respawns = 0
        while True:
            error: Exception
            try:
                if rpc.pending is None:
                    rpc.client = self.supervisor.client(shard)
                    rpc.pending = rpc.client.submit(rpc.payload)
                if not gather:
                    return None
                wait = state.deadline - self._clock()
                if wait > 0:
                    if state.hedge_s is not None:
                        wait = min(wait, state.hedge_s)
                    return rpc.client.gather(rpc.pending, timeout=wait)
                fault, error = DEADLINE, ShardError(
                    f"shard {shard} missed the {state.deadline_ms:.0f}ms RPC deadline",
                    shard=shard,
                )
            except TransientFaultError as exc:
                fault, error = TRANSIENT, exc
            except ShardError as exc:
                fault, error = SHARD_ERROR, exc
                self.breakers[shard].record_failure(exc)
            # an answered slot is spent, even when the answer was a fault
            consumed = rpc.pending is None or rpc.pending.event.is_set()
            alive = rpc.client is not None and not rpc.client.down()
            if fault == SHARD_ERROR and (consumed or not alive):
                self.supervisor.notify_failure(shard, error)
            remaining = state.deadline - self._clock()
            action = rpc_action(
                fault,
                transient=transient,
                respawns=respawns,
                remaining=remaining,
                consumed=consumed,
                alive=alive,
                hedging=state.hedge_s is not None,
            )
            if action == RAISE:
                raise error
            if action == AWAIT_RESPAWN:
                respawns += 1
                if self.supervisor.await_live(shard, remaining) is None:
                    action = GIVE_UP
            if action == HEDGE:
                self._metrics.counter("serve_hedge_total", shard=str(shard)).inc()
            if action in (HEDGE, GIVE_UP):
                stage = "gather" if gather else "scatter"
                state.give_up(shard, f"{stage} failed: {error}", error)
                return None
            if action != AWAIT_RESPAWN:
                transient += 1
            self._metrics.counter(
                "serve_shard_retries_total",
                shard=str(shard),
                kind="respawn" if action == AWAIT_RESPAWN else "transient",
            ).inc()
            if action != RE_GATHER:
                rpc.pending = None

    def _scatter(
        self, state: _QueryState, resolved: "ResolvedQuery", text: str
    ) -> "list[_Rpc]":
        """Submit the RPCs the admitted plan needs; returns those in flight."""
        rpcs: "list[_Rpc]" = []
        with trace_span("serve.scatter") as span:
            for shard, assigned in sorted(state.owned.items()):
                blocks = state.blocks[shard] = _blocks(assigned)
                payload = cells_request(
                    text, resolved.base_coords, _axis_blocks(resolved, blocks)
                )
                rpc = _Rpc(shard, payload)
                self._metrics.counter("serve_shard_requests_total", shard=str(shard)).inc()
                self._rpc(state, rpc, gather=False)
                if rpc.pending is not None:
                    rpcs.append(rpc)
            if span is not None:
                span.set(shards=len({rpc.shard for rpc in rpcs}), rpcs=len(rpcs))
        return rpcs

    def _gather(
        self, state: _QueryState, rpcs: "list[_Rpc]"
    ) -> "dict[int, dict[str, Any]]":
        """Wait for every in-flight RPC.  One failing does not stop the
        others being heard (their breakers want the outcome); the first
        error is raised once all have been."""
        responses: "dict[int, dict[str, Any]]" = {}
        first_error: "BaseException | None" = None
        with trace_span("serve.gather"):
            for rpc in rpcs:
                try:
                    response = self._rpc(state, rpc, gather=True)
                except BaseException as exc:
                    if not isinstance(exc, ShardError):  # those _rpc has counted
                        self.breakers[rpc.shard].record_failure(exc)
                    if first_error is None:
                        first_error = exc
                    continue
                if response is not None:
                    self.breakers[rpc.shard].record_success()
                    responses[rpc.shard] = response
        if first_error is not None:
            raise first_error
        return responses

    def _merge(self, state: _QueryState, responses: "dict[int, dict[str, Any]]") -> None:
        """Write each answering shard's blocks into the grid."""
        with trace_span("serve.merge"):
            for shard in sorted(state.owned):
                values = responses[shard]["values"]
                _fill_blocks(state.grid, state.blocks[shard], values, _decode_value)

    def _degradations(self, state: _QueryState) -> "list[Degradation]":
        """One record per loss the ``partial`` policy accepted."""
        if not state.lost:
            return []
        skipped = sum(len(cells) for _, cells in state.lost)
        state.stats["cells_skipped"] = skipped
        self._metrics.counter("serve_degraded_cells_total").inc(skipped)
        return [
            Degradation(
                reason="shard-down",
                detail=detail,
                cells_evaluated=state.stats["cells_evaluated"] - skipped,
                cells_skipped=len(cells),
            )
            for detail, cells in state.lost
        ]

    def _fill_local(self, state: _QueryState, resolved: "ResolvedQuery") -> None:
        """The local residue — cells no single shard owns, plus the
        fallback cells — from the pinned snapshot, in grid blocks, memo
        first, the way ``Warehouse.query`` fills a grid."""
        if not state.local and not state.fallback:
            return
        from repro.perf.batch import GridLayout

        context = resolved.context
        with trace_span(
            "serve.local",
            local_cells=len(state.local),
            fallback_cells=len(state.fallback),
        ) as span:
            blocks = _blocks(state.local + state.fallback)
            layouts = [
                GridLayout(context.schema, resolved.base_coords, rows, columns)
                for rows, columns in _axis_blocks(resolved, blocks)
            ]
            # under a scenario this is where the coordinator applies the
            # chain, to the rows these blocks can reach; the scenario
            # cache amortises it across queries
            view, values = context.fill_blocks(layouts)
            if span is not None and context.scenarios:
                span.set(
                    leaves_in=context.warehouse.cube.n_leaf_cells,
                    footprint_rows=context.footprint_rows,
                    leaves_moved=view.leaves_moved,
                )
            _fill_blocks(state.grid, blocks, values)

    # -- introspection / lifecycle ------------------------------------------------

    def explain(self, text: str) -> str:
        return self.warehouse.explain(text)

    def retry_after_s(self) -> float:
        """The ``Retry-After`` hint of a 503: the longer of the service
        breaker's remaining backoff and the shard pool's respawn estimate
        (1 s when nothing is waited for)."""
        shards = self.supervisor.retry_after_s() if self.supervisor is not None else 1.0
        return max(self.breaker.retry_after_s(), shards)

    def health(self) -> "dict[str, Any]":
        """Machine-readable health: the service breaker, per-shard
        supervision and breaker state, and the liveness/readiness split.

        ``live`` — the service is up (it can always answer, degraded if
        necessary).  ``ready`` — the service breaker is not open, and
        every shard is live with its breaker closed, i.e. the pool serves
        bit-identical answers without fallback.  A supervisor mid-respawn
        leaves the service live but not ready.

        Per shard, ``slice_version`` is the cube version its slice was cut
        at, and ``stale`` says the live cube has moved past it (a shard is
        handed data at spawn only).  Until a stale shard respawns, the
        cells it owns answer its pre-write data; every other cell — local,
        and any owned cell that fell back — answers the version the query
        pinned.  Staleness does not touch ``ready``; the
        ``serve_shards_stale`` gauge counts stale shards as of the latest
        health check.
        """
        version = self.warehouse.cube.version
        shards = [
            {
                **state,
                "stale": state["slice_version"] != version,
                "breaker": self.breakers[state["shard"]].state.name.lower(),
                "members": len(self.plan.shards[state["shard"]]),
            }
            for state in (self.supervisor.status() if self.supervisor is not None else ())
        ]
        self._metrics.gauge("serve_shards_stale").set(sum(s["stale"] for s in shards))
        breaker = self.breaker.state
        live = not self._closed
        ready = (
            live
            and breaker is not BreakerState.OPEN
            and all(s["alive"] for s in shards)
            and all(b.state is BreakerState.CLOSED for b in self.breakers)
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
            "breaker": breaker.name.lower(),
            "degrade": self.degrade,
            "workload": self.workload,
            "dimension": self.dimension,
            "restarts_total": sum(s["restarts"] for s in shards),
            "retry_after_s": self.retry_after_s(),
            "shards": shards,
        }

    def close(self, *, drain: bool = True, timeout: "float | None" = None) -> None:
        """Stop the service, then its shard pool.

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
                    error = ServiceStoppedError("service closed before this query ran")
                    self.breaker.record_failure(error)  # frees a probe slot
                    job.ticket._complete(None, error)
                self._queue.task_done()
        for _ in self._threads:
            # blocking put: sentinels queue behind any draining work
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout)
        if self.supervisor is not None:
            self.supervisor.close(5.0 if timeout is None else timeout)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close(drain=exc_type is None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shards = f"{self.n_shards} shards on {self.dimension!r}, " if self.n_shards else ""
        return (
            f"QueryService({self.workload!r}, {shards}{self.workers} workers, "
            f"queue {self._queue.qsize()}/{self.queue_depth}, "
            f"breaker {self.breaker.state.name})"
        )


class ShardedQueryService(QueryService):
    """A :class:`QueryService` over a named workload with ``n_shards ≥ 1``
    shard processes (the ledger's, the tests' and the stress harness's
    entry point)."""

    def __init__(
        self,
        workload: str = "running",
        *,
        n_shards: int = 2,
        workload_params: "tuple[tuple[str, Any], ...]" = (),
        **options: Any,
    ) -> None:
        if n_shards < 1:
            raise ShardError(f"a sharded service needs n_shards >= 1, not {n_shards}")
        super().__init__(
            build_workload(workload, tuple(workload_params)), n_shards=n_shards, **options
        )
        self.workload = workload
