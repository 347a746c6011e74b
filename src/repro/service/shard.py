"""Shard processes for the multi-process serving tier.

One shard process owns a contiguous run of the shard dimension's members
(:class:`ShardPlan`), every instance slot of each: ρ and S move a value
only between instances of one member, so any cell whose shard-dimension
coordinate resolves to one member can be evaluated by that shard alone,
bit-identically to the single-process engine (the shard's sub-cube is
the restriction of the full cube in global insertion order, and the
strict reduction is order-defined).

A query crosses the pipe as one request shape, ``cells``: the shard's
owned cells as grid blocks (:func:`cells_request`: the base coordinates
plus, per block, its row and column axis tuples' coordinates).  The shard
applies the query's scenario chain to the rows of its slice those blocks
can reach and fills each block — one
:class:`~repro.perf.batch.GridLayout` each — with
:func:`~repro.perf.batch.evaluate_grid`, as ``Warehouse.query`` fills a
whole grid.  Besides ``cells`` a shard answers only ``ping`` and
``sleep`` (a diagnostic).

Workers are spawned (never forked: the coordinator is multithreaded) and
are *handed* their slice: the coordinator, which holds the full
warehouse anyway, cuts a :class:`ShardSlice` — schema and rules, the
owned leaves' code columns with their coordinate lists and the value
column — at every spawn and respawn (:func:`make_slice`, a
mask over one code column; nothing is retained) and the worker opens it
with :func:`open_slice` (``RollupIndex.from_columns`` + ``Cube.adopt``: no
cell is validated or hashed twice).  A worker start is three messages —
the worker imports what a query needs and says *ready*, the coordinator
sends the slice (only ever to a child known to sit in ``recv``: a
megabyte ``send`` blocks until it is read), the worker opens it and says
*hello* with its leaf count — all under one ``start_timeout``.  Set-up
therefore costs what the data costs, once per service, and any
:class:`~repro.warehouse.Warehouse` can be sharded, not only one that can
be re-derived from a name (:func:`build_workload` is merely the registry
behind ``ShardedQueryService("workforce", …)``).  Faults are re-armed from
``REPRO_FAULTS`` inside each worker: ``shard.start`` fires before *ready*,
``shard.exec`` per request, so the fault matrix reaches the remote side.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.errors import QueryError, ReproError, ShardError
from repro.faults import FAULTS, inject_io_fault, register_failpoint
from repro.obs.trace import trace_span
from repro.olap.missing import MISSING, is_missing

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.mdx.evaluator import GridBlock
    from repro.olap.schema import Address, CubeSchema
    from repro.perf.leaf_store import Column
    from repro.warehouse import NamedSet, Warehouse

__all__ = [
    "ShardClient",
    "ShardPlan",
    "ShardSlice",
    "ShardSpec",
    "build_shard_plan",
    "build_workload",
    "cells_request",
    "make_slice",
    "open_slice",
    "shard_worker_main",
]

FP_SERVE_SCATTER = register_failpoint("serve.scatter")
FP_SERVE_GATHER = register_failpoint("serve.gather")
FP_SHARD_START = register_failpoint("shard.start")
FP_SHARD_EXEC = register_failpoint("shard.exec")


def build_workload(name: str, params: "tuple[tuple[str, Any], ...]" = ()) -> "Warehouse":
    """Build a named workload warehouse — the registry behind
    ``ShardedQueryService("workforce", …)``.  Only the coordinator calls
    it; shard processes are handed slices of what it returns."""
    from repro.warehouse import Warehouse

    if name == "running":
        from repro.workload.running_example import build_running_example

        example = build_running_example()
        return Warehouse(example.schema, example.cube)
    if name == "workforce":
        from repro.workload.workforce import WorkforceConfig, build_workforce

        config = WorkforceConfig(**dict(params)) if params else None
        return build_workforce(config).warehouse
    raise ShardError(f"unknown workload {name!r}")


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic placement of a varying dimension's members onto
    shard processes.

    ``shards[i]`` is the tuple of member names owned by shard ``i`` (in
    axis order); ``member_shard`` maps each member name to its shard and
    ``label_shard`` maps each instance slot label (full path) to the
    shard holding its member.  A shard owns whole members: every slot of
    a member lives on exactly one shard, so a cell whose varying
    coordinate is one instance can be evaluated by that shard alone.
    """

    dimension: str
    n_shards: int
    shards: tuple[tuple[str, ...], ...]
    member_shard: Mapping[str, int]
    label_shard: Mapping[str, int]

    @classmethod
    def pack(
        cls, dimension: str, slots_of_member: Mapping[str, Sequence[str]], n_shards: int
    ) -> "ShardPlan":
        """Range-pack the members that have an instance slot (in axis
        order, each with its slots) into ``n_shards`` contiguous runs of
        roughly equal slot count.

        A member goes to the shard its slots' midpoint falls in on the
        cumulative slot axis, clamped so that no shard is skipped and
        every later shard is left a member.  Contiguity keeps members
        queried together (one department, one organisational unit) on
        one shard, and the midpoint rule keeps the loads within about
        one member's slot count of each other.  More shards than members
        is refused: a shard must own something.
        """
        members = [member for member, slots in slots_of_member.items() if slots]
        if n_shards < 1:
            raise QueryError("n_shards must be >= 1")
        if n_shards > len(members):
            raise QueryError(
                f"{n_shards} shards for {len(members)} members of "
                f"{dimension!r}: a shard would own nothing"
            )
        total = sum(len(slots) for slots in slots_of_member.values())
        bins: list[list[str]] = [[] for _ in range(n_shards)]
        member_shard: dict[str, int] = {}
        label_shard: dict[str, int] = {}
        shard = -1  # the previous member's shard
        cumulative = 0
        for rank, member in enumerate(members):
            slots = slots_of_member[member]
            midpoint = (2 * cumulative + len(slots)) * n_shards // (2 * total)
            # at most one shard past the previous member's, and no further
            # left than leaves one member for each shard still to fill
            shard = min(shard + 1, max(midpoint, n_shards - len(members) + rank))
            bins[shard].append(member)
            member_shard[member] = shard
            label_shard.update(dict.fromkeys(slots, shard))
            cumulative += len(slots)
        return cls(
            dimension=dimension,
            n_shards=n_shards,
            shards=tuple(tuple(owned) for owned in bins),
            member_shard=member_shard,
            label_shard=label_shard,
        )

    def shard_of_coordinate(self, coord: str) -> "int | None":
        """Owning shard of a cell coordinate on the shard axis, or
        ``None`` when no single shard covers its scope (the coordinator
        answers such a cell).

        Accepts either a slot label (instance full path) or a bare
        member name; anything else — a category, the dimension root —
        spans shards.
        """
        shard = self.label_shard.get(coord)
        if shard is not None:
            return shard
        shard = self.member_shard.get(coord)
        if shard is not None:
            return shard
        return self.member_shard.get(coord.rsplit("/", 1)[-1])


def build_shard_plan(warehouse: "Warehouse", dimension: str, n_shards: int) -> ShardPlan:
    """The deterministic placement for one warehouse: the leaf members of
    ``dimension`` in axis order, each with its instance slots from the
    varying registry (:meth:`ShardPlan.pack`)."""
    varying = warehouse.schema.varying_dimension(dimension)
    slots_of_member = {
        member.name: [inst.full_path for inst in varying.instances_of(member.name)]
        for member in varying.dimension.leaf_members()
    }
    return ShardPlan.pack(dimension, slots_of_member, n_shards)


@dataclass(frozen=True)
class ShardSlice:
    """One shard's share of a warehouse, as it crosses the pipe.

    Everything :func:`open_slice` needs and nothing per leaf but arrays:
    ``columns[d]`` is dimension ``d``'s ``(codes, coords)`` pair for the
    owned leaves — row ``k`` is the slice's ``k``-th leaf, in the full
    cube's insertion order — and ``values[k]`` its value.  Stored-derived
    cells and named sets travel whole: every shard holds all of them.
    ``schema`` and ``rules`` ride in the same pickle, so ``rules.schema
    is schema`` on the far side too.  ``version`` is the full cube's
    version the slice was cut at.
    """

    schema: "CubeSchema"
    rules: "object | None"
    name: str
    aliases: "frozenset[str]"
    named_sets: "tuple[NamedSet, ...]"
    stored_derived: "dict[Address, float]"
    columns: "list[Column]"
    values: "np.ndarray"
    version: int


def make_slice(
    full: "Warehouse", dimension: str, owned_members: Sequence[str]
) -> ShardSlice:
    """Cut the slice of ``full`` whose shard-dimension member is owned:
    one mask over the shard dimension's code column (the mask of
    ``Cube.restrict_leaves``), one gather per column, read under the
    cube's write lock with the version it was read at."""
    owned = set(owned_members)
    columns, values, stored_derived, version = full.cube.slice_cells(
        dimension, lambda coord: coord.rsplit("/", 1)[-1] in owned
    )
    return ShardSlice(
        schema=full.schema,
        rules=full.cube.rules,
        name=full.name,
        aliases=frozenset(full.aliases),
        named_sets=tuple(full.named_sets()),
        stored_derived=stored_derived,
        columns=columns,
        values=values,
        version=version,
    )


def open_slice(piece: ShardSlice) -> "Warehouse":
    """The shard's sub-warehouse.

    The sub-cube holds exactly the slice's leaf cells, in the order they
    were cut (so the shard's local insertion order is the restriction of
    the global one — the property the strict bit-identical reduction of
    an owned cell rests on), over an index opened from the slice's
    columns — arrays only, like any derived generation — plus every
    stored-derived cell and named set.  A slice whose columns do not fit
    its schema or each other is refused with a typed error: it came from
    another process.
    """
    from repro.olap.cube import Cube
    from repro.perf.rollup_index import RollupIndex
    from repro.warehouse import Warehouse

    schema = piece.schema
    n = len(piece.values)
    if len(piece.columns) != schema.n_dims or not all(
        len(codes) == n for codes, _ in piece.columns
    ):
        raise ShardError(
            f"slice cannot be opened: {len(piece.columns)} columns for "
            f"{schema.n_dims} dimensions, or columns of unequal length"
        )
    index = RollupIndex.from_columns(schema, piece.columns, piece.values)
    sub_cube = Cube(schema, piece.rules).adopt(index, piece.stored_derived)
    sub = Warehouse(schema, sub_cube, name=piece.name, aliases=piece.aliases)
    for named_set in piece.named_sets:
        sub.define_named_set(named_set.name, named_set.members)
    return sub


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a pool: its index and where its slice comes from.

    ``slice_source`` runs on the coordinator at every spawn and respawn
    and its result is sent, then dropped — the pool retains no slice.  The
    spec itself never crosses the pipe: a worker is started with its
    index alone.
    """

    shard_index: int
    slice_source: "Callable[[], ShardSlice]"


def _encode_value(value: object) -> "float | None":
    """MISSING crosses the pipe as ``None`` — ``is_missing`` is an
    identity check, and a pickled singleton is not the singleton."""
    return None if is_missing(value) else float(value)  # type: ignore[arg-type]


def _decode_value(value: "float | None") -> object:
    return MISSING if value is None else value


def cells_request(
    text: str, base_coords: "dict[str, str]", blocks: "Sequence[GridBlock]"
) -> "dict[str, Any]":
    """Op ``cells`` for some blocks of a query's grid: the query text, its
    base coordinates, and per block the coordinates of its row and column
    axis tuples — no cell address crosses the pipe.  The answer's
    ``values`` hold one row-major grid per block (⊥ as ``None``)."""
    return {
        "op": "cells",
        "text": text,
        "base": base_coords,
        "blocks": [
            ([t.coordinates for t in rows], [t.coordinates for t in columns])
            for rows, columns in blocks
        ],
    }


class _ShardRuntime:
    """Worker-process state: the sub-warehouse opened from the slice the
    coordinator sent, plus caches."""

    def __init__(self, shard_index: int, piece: ShardSlice) -> None:
        self.shard_index = shard_index
        self.warehouse = open_slice(piece)

    def _context(self, text: str):
        from repro.mdx.evaluator import _Context
        from repro.mdx.parser import parse_query

        # The scenario cache on the shard's warehouse makes repeated
        # fingerprints one dict probe, exactly like local serving.
        return _Context(self.warehouse, parse_query(text))

    def handle(self, request: "dict[str, Any]") -> "dict[str, Any]":
        op = request["op"]
        if op == "ping":
            return {
                "ok": True,
                "shard": self.shard_index,
                "leaves": self.warehouse.cube.n_leaf_cells,
            }
        if op == "sleep":
            # Diagnostic op for the chaos/hedge tests: a shard that is
            # alive but slow.  Exempt from shard.exec like ping.
            import time as time_module

            time_module.sleep(float(request.get("seconds", 0.0)))
            return {"ok": True, "shard": self.shard_index}
        inject_io_fault(FP_SHARD_EXEC)
        if op == "cells":
            from repro.mdx.result import AxisTuple
            from repro.perf.batch import GridLayout

            context = self._context(request["text"])
            schema, base = self.warehouse.schema, request["base"]
            layouts = [
                GridLayout(
                    schema,
                    base,
                    [AxisTuple(t, ()) for t in rows],
                    [AxisTuple(t, ()) for t in columns],
                )
                for rows, columns in request["blocks"]
            ]
            # the footprint of a shard's share of a query is the blocks it
            # was sent: the chain is applied to the rows of the slice those
            # cells can reach
            _, grids = context.fill_blocks(layouts)
            values = [
                [[_encode_value(value) for value in row] for row in grid] for grid in grids
            ]
            return {"ok": True, "values": values}
        return {"ok": False, "error": "ShardError", "message": f"unknown op {op!r}"}


def _error_reply(exc: BaseException) -> "dict[str, Any]":
    return {"ok": False, "error": type(exc).__name__, "message": str(exc)}


def shard_worker_main(conn, shard_index: int) -> None:
    """Worker-process entry point: say *ready*, open the slice the
    coordinator then sends, say *hello*, and serve pipe requests until
    shutdown.

    Errors are answered, never fatal: the exception's type name and
    message go back over the pipe and the coordinator re-raises the
    closest typed equivalent, so a poisoned query cannot kill a shard —
    and a failed start is the answer that stands in for *ready* or
    *hello*.
    """
    FAULTS.arm_from_env()
    try:
        inject_io_fault(FP_SHARD_START)
        # What a query imports, paid before *ready*: side by side with
        # the sibling workers, and never while the coordinator sits in a
        # send this process is not yet reading.
        import repro.mdx.evaluator  # noqa: F401
        import repro.perf.batch  # noqa: F401
        import repro.warehouse  # noqa: F401

        conn.send({"ok": True})
        payload = conn.recv_bytes()
        started = time.perf_counter()
        runtime = _ShardRuntime(shard_index, pickle.loads(payload))
        del payload  # this frame lives as long as the process
        conn.send(
            {
                "ok": True,
                "shard": shard_index,
                "leaves": runtime.warehouse.cube.n_leaf_cells,
                "open_ms": (time.perf_counter() - started) * 1000.0,
            }
        )
    except BaseException as exc:  # startup failure: report, then exit
        try:
            conn.send(_error_reply(exc))
        except OSError:
            pass  # the coordinator gave up on this start first
        finally:
            conn.close()
        return
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        if request is None or request.get("op") == "shutdown":
            conn.send({"ok": True})
            break
        try:
            response = runtime.handle(request)
        except BaseException as exc:
            response = _error_reply(exc)
        try:
            conn.send(response)
        except (EOFError, OSError):
            break
    conn.close()


class _Pending:
    """One in-flight shard request: a slot the dispatcher fills."""

    __slots__ = ("event", "response", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: "dict[str, Any] | None" = None
        self.error: "BaseException | None" = None


def _remote_error(name: str, message: str, shard: int) -> BaseException:
    """Map a remote exception's type name back into the taxonomy."""
    from repro import errors as errors_module

    cls = getattr(errors_module, name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        try:
            return cls(f"shard {shard}: {message}")
        except TypeError:
            pass  # constructor wants more than a message
    return ShardError(f"shard {shard}: {name}: {message}", shard=shard)


class ShardClient:
    """Coordinator-side handle to one shard process.

    A dedicated dispatcher thread serializes pipe traffic (send/recv
    pairs), so any number of coordinator threads can scatter requests
    concurrently; each caller blocks only on its own :class:`_Pending`
    event.  The ``serve.scatter`` failpoint fires in the submitting
    thread before anything is enqueued, ``serve.gather`` in the waiting
    thread before a response is surfaced — both therefore propagate into
    the request that armed them, like every other failpoint.

    Death is never a hang: the first pipe error marks the client *down*,
    fails the in-flight pending, and the dispatcher then fail-fasts every
    queued and future pending with :class:`~repro.errors.ShardError`
    instead of touching the dead pipe.  ``gather`` applies
    ``rpc_timeout`` when the caller passes no timeout, so a stuck (alive
    but wedged) worker surfaces as a typed timeout rather than an
    unbounded wait.  A down client stays safe to ``close()`` — the
    supervisor replaces it with a fresh one.
    """

    def __init__(
        self,
        spec: ShardSpec,
        *,
        start_timeout: float = 60.0,
        rpc_timeout: float = 60.0,
    ) -> None:
        self._launch(spec, start_timeout, rpc_timeout, "respawn")
        self._await_hello()

    @classmethod
    def start_all(
        cls,
        specs: Sequence[ShardSpec],
        *,
        start_timeout: float = 60.0,
        rpc_timeout: float = 60.0,
    ) -> "list[ShardClient]":
        """A pool's initial spawn: start every worker process first, then
        hand out the slices and await the hellos, so the workers pay
        their imports side by side instead of one after the other.  If
        any start fails, every worker that did start is closed and reaped
        before the error propagates."""
        clients: "list[ShardClient]" = []
        try:
            for spec in specs:
                client = cls.__new__(cls)
                client._launch(spec, start_timeout, rpc_timeout, "initial")
                clients.append(client)
            for client in clients:
                client._await_hello()
        except BaseException:
            for client in clients:
                client.close()
            raise
        return clients

    def _launch(
        self, spec: ShardSpec, start_timeout: float, rpc_timeout: float, phase: str
    ) -> None:
        """Start the worker process; returns without waiting for it."""
        self.spec = spec
        self.shard_index = spec.shard_index
        self.rpc_timeout = rpc_timeout
        #: ``initial`` (the pool's first spawn) or ``respawn``
        self.phase = phase
        self._start_timeout = start_timeout
        self._closed = False
        self._down = threading.Event()
        self._down_reason = ""
        #: started by a good hello; ``None`` = the worker never got there
        self._dispatcher: "threading.Thread | None" = None
        ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=shard_worker_main,
            args=(child_conn, spec.shard_index),
            name=f"repro-shard-{spec.shard_index}",
            daemon=True,
        )
        self.process.start()
        self._launched_at = time.monotonic()
        child_conn.close()

    def _startup_message(self) -> "dict[str, Any]":
        """The worker's next startup message — *ready*, then *hello* —
        awaited until at most ``start_timeout`` after launch."""
        shard = self.shard_index
        remaining = self._launched_at + self._start_timeout - time.monotonic()
        if not self._conn.poll(max(remaining, 0.0)):
            raise ShardError(
                f"shard {shard} did not start within {self._start_timeout:.3g}s",
                shard=shard,
            )
        message = self._conn.recv()
        if not message.get("ok"):
            raise _remote_error(
                message.get("error", "ShardError"),
                message.get("message", "startup failed"),
                shard,
            )
        return message

    def _await_hello(self) -> None:
        """Hand the launched worker its slice: wait for *ready*, cut and
        send the slice, wait for *hello*, then start the dispatcher.

        The slice is sent only to a worker that said *ready* — one known
        to sit in ``recv`` — because a send larger than the pipe buffer
        blocks until the far side reads: a child wedged before that point
        surfaces as the start timeout, never as a coordinator stuck in
        ``send``.  Any failure reaps the worker before it propagates.
        """
        shard = self.shard_index
        try:
            with trace_span("shard.spawn", shard=shard, phase=self.phase) as span:
                with trace_span("shard.spawn.ready"):
                    self._startup_message()
                with trace_span("shard.spawn.slice"):
                    try:
                        piece = self.spec.slice_source()
                        payload = pickle.dumps(piece, pickle.HIGHEST_PROTOCOL)
                    except Exception as exc:
                        raise ShardError(
                            f"shard {shard}: no slice to hand over: {exc!r}",
                            shard=shard,
                        ) from exc
                with trace_span("shard.spawn.send"):
                    self._conn.send_bytes(payload)
                with trace_span("shard.spawn.open"):
                    hello = self._startup_message()
                #: what the start cost and carried (the supervisor's
                #: ``shard_spawn_ms`` / ``shard_slice_bytes``), and the
                #: cube version the worker's data stands at
                self.slice_bytes = len(payload)
                self.slice_version = piece.version
                self.leaves = int(hello["leaves"])
                self.spawn_ms = (time.monotonic() - self._launched_at) * 1000.0
                if span is not None:
                    span.set(
                        slice_bytes=self.slice_bytes,
                        leaves=self.leaves,
                        open_ms=hello["open_ms"],
                    )
        except (EOFError, OSError) as exc:
            self._abort_start()
            raise ShardError(
                f"shard {shard} died during startup: {exc!r}", shard=shard
            ) from exc
        except BaseException:
            self._abort_start()
            raise
        self._queue: "queue.Queue[tuple[dict[str, Any], _Pending] | None]" = (
            queue.Queue()
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name=f"repro-shard-client-{shard}",
            daemon=True,
        )
        self._dispatcher.start()

    def _abort_start(self) -> None:
        """Reap a worker whose startup failed: no pipe leak, no zombie,
        no dispatcher thread (it is only started after a good hello)."""
        self._closed = True
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(5.0)

    # -- dispatcher ---------------------------------------------------------------

    def _down_error(self) -> ShardError:
        reason = self._down_reason or "process is down"
        return ShardError(
            f"shard {self.shard_index} is down: {reason}",
            shard=self.shard_index,
        )

    def mark_down(self, reason: str) -> None:
        """Declare the worker dead (pipe error, ``is_alive()`` false, or
        a deliberate chaos kill): every queued and future request fails
        fast with :class:`~repro.errors.ShardError` from here on."""
        if not self._down.is_set():
            self._down_reason = reason
            self._down.set()

    def _dispatch_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            payload, pending = item
            if self._down.is_set():
                # Fail fast: never touch the pipe of a dead worker, and
                # never leave a queued pending waiting forever.
                pending.error = self._down_error()
                pending.event.set()
                continue
            try:
                self._conn.send(payload)
                pending.response = self._conn.recv()
            except BaseException as exc:
                self.mark_down(f"connection failed: {exc!r}")
                pending.error = self._down_error()
            pending.event.set()

    # -- client API ---------------------------------------------------------------

    def submit(self, payload: "dict[str, Any]") -> _Pending:
        """Scatter one request; returns the pending slot to gather on."""
        inject_io_fault(FP_SERVE_SCATTER)
        if self._down.is_set() or self._closed:
            raise self._down_error()
        pending = _Pending()
        self._queue.put((payload, pending))
        return pending

    def gather(self, pending: _Pending, timeout: "float | None" = None) -> "dict[str, Any]":
        """Wait for one scattered request and surface its response.

        ``timeout=None`` applies the client's ``rpc_timeout`` — a wedged
        worker must surface as a typed error, never an unbounded block.
        """
        if timeout is None:
            timeout = self.rpc_timeout
        if not pending.event.wait(timeout):
            raise ShardError(
                f"shard {self.shard_index} timed out after {timeout:.3g}s",
                shard=self.shard_index,
            )
        inject_io_fault(FP_SERVE_GATHER)
        if pending.error is not None:
            raise pending.error
        response = pending.response
        assert response is not None
        if not response.get("ok"):
            raise _remote_error(
                response.get("error", "ShardError"),
                response.get("message", ""),
                self.shard_index,
            )
        return response

    def request(self, payload: "dict[str, Any]", timeout: "float | None" = None) -> "dict[str, Any]":
        """Scatter + gather in one call (health checks, tests)."""
        return self.gather(self.submit(payload), timeout)

    def alive(self) -> bool:
        return not self._down.is_set() and self.process.is_alive()

    def down(self) -> bool:
        return self._down.is_set()

    def kill(self) -> None:
        """SIGKILL the worker (chaos harness): no cleanup, no goodbye —
        exactly the failure the supervisor exists to heal."""
        self.mark_down("killed (chaos)")
        if self.process.is_alive():
            self.process.kill()

    def close(self, timeout: float = 5.0) -> None:
        """Shut the worker down; safe on a client whose process already
        exited (or never finished starting), and idempotent."""
        if self._closed:
            return
        if self._dispatcher is None:
            # Launched but never said hello (a sibling's startup failed
            # first): nothing to drain and nobody to say goodbye to.
            self._abort_start()
            return
        self._closed = True
        # Drain the dispatcher first so no request races the shutdown.
        self._queue.put(None)
        self._dispatcher.join(timeout)
        if self._dispatcher.is_alive():
            # A wedged worker (e.g. mid-``sleep`` op): the dispatcher is
            # still blocked reading its answer, so the pipe is not ours to
            # say goodbye on, and a worker that will not answer will not
            # exit when asked either.
            self.mark_down(f"no answer within {timeout:.3g}s of close")
            self.process.terminate()
        elif not self._down.is_set():
            try:
                self._conn.send({"op": "shutdown"})
                if self._conn.poll(timeout):
                    self._conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                pass
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        self.process.join(timeout)
        if self.process.is_alive():
            # It ignored the goodbye (or SIGTERM): escalate.
            self.process.terminate()
            self.process.join(timeout)
            if self.process.is_alive():  # pragma: no cover - defensive
                self.process.kill()
                self.process.join(timeout)
