"""Shard processes for the multi-process serving tier.

One shard process owns a disjoint set of the shard dimension's members —
the co-residency groups of :func:`~repro.core.merge_graph.plan_axis_shards`
guarantee every member's instance slots land wholly on one shard, so any
cell whose shard-dimension coordinate resolves to one member can be
evaluated by that shard alone, bit-identically to the single-process
engine (the shard's sub-cube is the restriction of the full cube in
global insertion order, and the strict reduction is order-defined).

Two request shapes cross the pipe:

* ``cells`` — evaluate the query's scenario chain on the shard's
  sub-warehouse and return ``effective_value`` for each assigned address;
* ``partial`` — for spanning cells (coordinate above any single member),
  return every scope's leaves as three arrays for the whole request —
  ``positions`` (``int64`` global insertion positions), ``values``
  (``float64``) and ``offsets`` (cell ``k`` owns the slice
  ``offsets[k]:offsets[k + 1]`` of both) — so the coordinator can merge
  shards' contributions back into the exact global insertion order
  before the strict reduction.

Workers are spawned (never forked: the coordinator is multithreaded) and
rebuild their workload by name — :func:`build_workload` is the shared
registry — so nothing but the :class:`ShardSpec` is pickled.  Faults are
re-armed from ``REPRO_FAULTS`` inside each worker, and the ``shard.exec``
failpoint fires per request so the fault matrix reaches the remote side.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.merge_graph import ShardPlan, plan_axis_shards
from repro.errors import ReproError, ShardError
from repro.faults import FAULTS, inject_io_fault, register_failpoint
from repro.olap.missing import MISSING, is_missing

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.mdx.ast_nodes import MdxQuery
    from repro.warehouse import Warehouse

__all__ = [
    "ShardClient",
    "ShardSpec",
    "build_shard_plan",
    "build_workload",
    "parse_for_serving",
    "restrict_warehouse",
    "shard_worker_main",
]

FP_SERVE_SCATTER = register_failpoint("serve.scatter")
FP_SERVE_GATHER = register_failpoint("serve.gather")
FP_SHARD_EXEC = register_failpoint("shard.exec")


def _reads_cell_values(node: Any) -> bool:
    from repro.mdx.ast_nodes import FilterExpr, OrderExpr

    if isinstance(node, (FilterExpr, OrderExpr)):
        return True
    if isinstance(node, (tuple, list)):
        return any(_reads_cell_values(item) for item in node)
    if hasattr(node, "__dict__"):
        return any(_reads_cell_values(value) for value in vars(node).values())
    return False


@lru_cache(maxsize=256)
def parse_for_serving(text: str) -> "tuple[MdxQuery, bool]":
    """The serving tier's one parse cache, coordinator and shard alike:
    the parsed query plus whether any axis or slicer set consults cell
    values (FILTER / ORDER) — those must see the full cube, so the
    coordinator evaluates them locally.  Bounded, because a client may
    send a never-seen text on every request; the verdict is stored with
    the query so a warm ``execute`` never re-walks the AST."""
    from repro.mdx.parser import parse_query

    query = parse_query(text)
    return query, _reads_cell_values(
        ([axis.expr for axis in query.axes], query.slicer)
    )


def build_workload(name: str, params: "tuple[tuple[str, Any], ...]" = ()) -> "Warehouse":
    """Rebuild a named workload warehouse (shared by coordinator and
    shard processes, so both sides derive identical cubes and plans)."""
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


def build_shard_plan(
    warehouse: "Warehouse", dimension: str, n_shards: int, chunk: int = 8
) -> ShardPlan:
    """The deterministic placement for one warehouse: slots per leaf
    member come from the varying registry in axis order, so any process
    rebuilding the workload derives the identical plan."""
    varying = warehouse.schema.varying_dimension(dimension)
    slots_of_member: dict[str, list[str]] = {}
    for member in varying.dimension.leaf_members():
        slots = [inst.full_path for inst in varying.instances_of(member.name)]
        if slots:
            slots_of_member[member.name] = slots
    return plan_axis_shards(dimension, slots_of_member, n_shards, chunk)


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to rebuild its slice of the warehouse.

    Pure data (picklable): the workload is rebuilt by name inside the
    worker, never shipped.
    """

    workload: str
    dimension: str
    owned_members: tuple[str, ...]
    shard_index: int
    n_shards: int
    workload_params: tuple[tuple[str, Any], ...] = field(default_factory=tuple)


def restrict_warehouse(
    full: "Warehouse", dimension: str, owned_members: Sequence[str]
) -> "tuple[Warehouse, np.ndarray]":
    """The shard's sub-warehouse plus global insertion positions.

    The sub-cube holds exactly the full cube's leaf cells whose shard-
    dimension member is owned, in global order (so the shard's local
    insertion order is the restriction of the global one — the property
    the strict bit-identical reduction rests on), plus every
    stored-derived cell and named set: a mask over the shard dimension's
    code column and an index derived from the full cube's.
    ``global_pos[k]`` is the position in the full cube's insertion order
    of the sub-cube's ``k``-th leaf — an ``int64`` column over the
    leaf-id space of the sub-cube's rollup index (ids follow insertion
    order, and a shard's cube is never written after this).
    """
    from repro.warehouse import Warehouse

    owned = set(owned_members)
    index, global_pos = full.cube.restrict_leaves(
        dimension, lambda coord: coord.rsplit("/", 1)[-1] in owned
    )
    sub_cube = full.cube.adopt(index, dict(full.cube.stored_derived_cells()))
    sub = Warehouse(full.schema, sub_cube, name=full.name, aliases=full.aliases)
    for named_set in full.named_sets():
        sub.define_named_set(named_set.name, named_set.members)
    return sub, global_pos


def _encode_value(value: object) -> "float | None":
    """MISSING crosses the pipe as ``None`` — ``is_missing`` is an
    identity check, and a pickled singleton is not the singleton."""
    return None if is_missing(value) else float(value)  # type: ignore[arg-type]


def _decode_value(value: "float | None") -> object:
    return MISSING if value is None else value


class _ShardRuntime:
    """Worker-process state: the restricted warehouse plus caches."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        full = build_workload(spec.workload, spec.workload_params)
        self.warehouse, self.global_pos = restrict_warehouse(
            full, spec.dimension, spec.owned_members
        )

    def _context(self, text: str):
        from repro.mdx.evaluator import _Context

        # The scenario cache on the shard's warehouse makes repeated
        # fingerprints one dict probe, exactly like local serving.
        return _Context(self.warehouse, parse_for_serving(text)[0])

    def handle(self, request: "dict[str, Any]") -> "dict[str, Any]":
        op = request["op"]
        if op == "ping":
            return {
                "ok": True,
                "shard": self.spec.shard_index,
                "leaves": self.warehouse.cube.n_leaf_cells,
                "members": len(self.spec.owned_members),
            }
        if op == "sleep":
            # Diagnostic op for the chaos/hedge tests: a shard that is
            # alive but slow.  Exempt from shard.exec like ping.
            import time as time_module

            time_module.sleep(float(request.get("seconds", 0.0)))
            return {"ok": True, "shard": self.spec.shard_index}
        inject_io_fault(FP_SHARD_EXEC)
        if op == "cells":
            context = self._context(request["text"])
            view = context.view
            values = [
                _encode_value(view.effective_value(tuple(addr)))
                for addr in request["addresses"]
            ]
            return {"ok": True, "values": values}
        if op == "partial":
            index = self.warehouse.cube.rollup_index()
            ids, values, offsets = index.scope_arrays(request["addresses"])
            return {
                "ok": True,
                "positions": self.global_pos[ids],
                "values": values,
                "offsets": offsets,
            }
        return {"ok": False, "error": "ShardError", "message": f"unknown op {op!r}"}


def shard_worker_main(conn, spec: ShardSpec) -> None:
    """Worker-process entry point: serve pipe requests until shutdown.

    Errors are answered, never fatal: the exception's type name and
    message go back over the pipe and the coordinator re-raises the
    closest typed equivalent, so a poisoned query cannot kill a shard.
    """
    FAULTS.arm_from_env()
    try:
        runtime = _ShardRuntime(spec)
    except BaseException as exc:  # startup failure: report, then exit
        try:
            conn.send(
                {"ok": False, "error": type(exc).__name__, "message": str(exc)}
            )
        finally:
            conn.close()
        return
    conn.send({"ok": True, "shard": spec.shard_index})
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
            response = {
                "ok": False,
                "error": type(exc).__name__,
                "message": str(exc),
            }
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
        self._launch(spec, start_timeout, rpc_timeout)
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
        await the hellos, so the workers rebuild their slices side by
        side instead of one after the other.  If any hello fails, every
        worker that did start is closed and reaped before the error
        propagates."""
        clients: "list[ShardClient]" = []
        try:
            for spec in specs:
                client = cls.__new__(cls)
                client._launch(spec, start_timeout, rpc_timeout)
                clients.append(client)
            for client in clients:
                client._await_hello()
        except BaseException:
            for client in clients:
                client.close()
            raise
        return clients

    def _launch(
        self, spec: ShardSpec, start_timeout: float, rpc_timeout: float
    ) -> None:
        """Start the worker process; returns without waiting for it."""
        self.spec = spec
        self.shard_index = spec.shard_index
        self.rpc_timeout = rpc_timeout
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
            args=(child_conn, spec),
            name=f"repro-shard-{spec.shard_index}",
            daemon=True,
        )
        self.process.start()
        self._start_deadline = time.monotonic() + start_timeout
        child_conn.close()

    def _await_hello(self) -> None:
        """Block until the worker reports its slice built (at most
        ``start_timeout`` after launch), then start the dispatcher."""
        spec = self.spec
        try:
            if not self._conn.poll(
                max(self._start_deadline - time.monotonic(), 0.0)
            ):
                raise ShardError(
                    f"shard {spec.shard_index} did not start within "
                    f"{self._start_timeout:.3g}s",
                    shard=spec.shard_index,
                )
            hello = self._conn.recv()
        except ShardError:
            self._abort_start()
            raise
        except (EOFError, OSError) as exc:
            self._abort_start()
            raise ShardError(
                f"shard {spec.shard_index} died during startup: {exc!r}",
                shard=spec.shard_index,
            ) from exc
        if not hello.get("ok"):
            self._abort_start()
            raise _remote_error(
                hello.get("error", "ShardError"),
                hello.get("message", "startup failed"),
                spec.shard_index,
            )
        self._queue: "queue.Queue[tuple[dict[str, Any], _Pending] | None]" = (
            queue.Queue()
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name=f"repro-shard-client-{spec.shard_index}",
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
