"""Shard supervision: liveness, respawn, and breaker probe routing.

The sharded serving tier (PR 9) made shard death *detectable*; this
module makes it *survivable*.  A :class:`ShardSupervisor` owns every
:class:`~repro.service.shard.ShardClient` in the pool and runs one
monitor thread that:

* **watches liveness** — a client whose dispatcher saw pipe EOF, whose
  process ``is_alive()`` is false, or whose heartbeat ``ping`` missed
  its deadline is marked down, which fail-fasts every queued and future
  pending on it (no ``gather`` ever hangs on a corpse);
* **respawns** dead workers — each handed a freshly cut slice of the
  coordinator's warehouse, so a respawn costs a Python import plus a few
  megabytes over a pipe, not a rebuild — with exponential backoff plus
  deterministic jitter, capped by a restart-storm window (``storm_cap``
  respawn attempts per ``storm_window_s``) so a worker that dies at
  startup cannot hot-loop the spawn machinery.  Workers re-arm ``REPRO_FAULTS``
  (and rank their locks under ``REPRO_LOCKDEP``) from the environment at
  every spawn — a respawned shard runs under exactly the chaos regime
  the current environment declares, not a stale copy;
* **routes breaker probes** — a per-shard circuit breaker that has
  half-opened gets its single probe slot spent on a supervisor ``ping``
  against the *respawned* worker, so an open breaker can actually close
  again instead of probing a corpse forever
  (``breaker_probe_total{outcome}`` counts the attempts).

Queries never talk to the supervisor's internals: the coordinator asks
:meth:`ShardSupervisor.client` for the live client (typed
:class:`~repro.errors.ShardDownError` while the shard is down), and the
retry path uses :meth:`await_live` to wait, bounded, for a respawn.

The ``supervisor.respawn`` failpoint fires at the top of every respawn
attempt, so the fault matrix can keep a shard down deterministically and
prove the storm cap and the degrade policies.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import ShardDownError, ShardError
from repro.faults import inject_io_fault, register_failpoint
from repro.lint.lockdep import make_lock
from repro.service.shard import ShardClient, ShardSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.service.breaker import CircuitBreaker

__all__ = ["ShardSupervisor", "SupervisorConfig"]

FP_SUPERVISOR_RESPAWN = register_failpoint("supervisor.respawn")


@dataclass(frozen=True)
class SupervisorConfig:
    """Tuning for one supervisor (see docs/serving.md, failure
    semantics).

    ``backoff_base_ms`` doubles per consecutive failed respawn up to
    ``backoff_max_ms``; each delay gets up to ``backoff_jitter`` of
    itself added from a seeded RNG, so a pool of shards killed together
    does not thundering-herd the spawn machinery.  ``storm_cap`` respawn
    *attempts* within ``storm_window_s`` park the shard as ``failed``
    until the window slides — still self-healing, but rate-bounded.
    """

    heartbeat_s: float = 0.2
    ping_timeout_s: float = 10.0
    backoff_base_ms: float = 50.0
    backoff_max_ms: float = 2000.0
    backoff_jitter: float = 0.2
    storm_window_s: float = 30.0
    storm_cap: int = 8
    start_timeout_s: float = 60.0
    rpc_timeout_s: float = 60.0
    seed: int = 0


class _Slot:
    """One shard's supervision state.

    All fields are guarded by the supervisor lock except ``live``, a
    :class:`threading.Event` that waiters block on lock-free.
    """

    __slots__ = (
        "spec",
        "client",
        "state",
        "restarts",
        "backoff_ms",
        "next_attempt_at",
        "attempt_times",
        "last_error",
        "live",
    )

    def __init__(self, spec: ShardSpec, client: ShardClient) -> None:
        self.spec = spec
        self.client = client
        self.state = "live"  # live | down | failed (storm cap reached)
        self.restarts = 0
        self.backoff_ms = 0.0
        self.next_attempt_at = 0.0
        self.attempt_times: "deque[float]" = deque()
        self.last_error: "str | None" = None
        self.live = threading.Event()
        self.live.set()


class ShardSupervisor:
    """Owns the shard-client pool and keeps it alive.

    Parameters
    ----------
    specs:
        One :class:`~repro.service.shard.ShardSpec` per shard; the
        supervisor starts the whole initial pool at once
        (:meth:`~repro.service.shard.ShardClient.start_all`) and raises
        (after reaping anything it did start) if any worker fails its
        hello.
    config:
        Backoff/storm/heartbeat tuning; defaults suit serving, tests
        pass tighter values.
    metrics:
        Registry for ``shard_up{shard}``, ``shard_respawns_total``,
        ``shard_spawn_ms{phase}``, ``shard_slice_bytes{shard}`` and
        ``breaker_probe_total{outcome}``; ``None`` = no metrics.
    clock:
        Monotonic clock in seconds (injectable for deterministic tests).
    """

    def __init__(
        self,
        specs: Sequence[ShardSpec],
        *,
        config: "SupervisorConfig | None" = None,
        metrics: "MetricsRegistry | None" = None,
        clock: "Callable[[], float] | None" = None,
    ) -> None:
        self.config = config or SupervisorConfig()
        self._metrics = metrics
        self._clock = clock or time.monotonic
        self._rng = random.Random(self.config.seed)
        self._breakers: "Sequence[CircuitBreaker] | None" = None
        self._lock = make_lock("ShardSupervisor._lock", reentrant=False)
        self._closed = False
        self._wake = threading.Event()
        self._slots = [
            _Slot(client.spec, client)
            for client in ShardClient.start_all(
                specs,
                start_timeout=self.config.start_timeout_s,
                rpc_timeout=self.config.rpc_timeout_s,
            )
        ]
        for index, slot in enumerate(self._slots):
            self._gauge_up(index, 1)
            self._record_spawn(slot.client)
        self._monitor = threading.Thread(
            target=self._monitor_loop,
            name="repro-shard-supervisor",
            daemon=True,
        )
        self._monitor.start()

    # -- helpers ------------------------------------------------------------------

    def _spawn(self, spec: ShardSpec) -> ShardClient:
        """One worker respawn, handed a slice cut now from the spec's
        source — on the monitor thread with no supervisor lock held, so
        the cut's ``Cube._lock`` → ``RollupIndex._lock`` nests nowhere
        it may not; ``REPRO_FAULTS``/``REPRO_LOCKDEP`` are re-read from
        the *current* environment inside the child
        (``shard_worker_main`` arms from env), so chaos regimes follow
        respawns automatically."""
        return ShardClient(
            spec,
            start_timeout=self.config.start_timeout_s,
            rpc_timeout=self.config.rpc_timeout_s,
        )

    def _record_spawn(self, client: ShardClient) -> None:
        """What one worker start cost (launch to hello) and carried."""
        if self._metrics is not None:
            self._metrics.histogram(
                "shard_spawn_ms", phase=client.phase
            ).observe(client.spawn_ms)
            self._metrics.gauge(
                "shard_slice_bytes", shard=str(client.shard_index)
            ).set(client.slice_bytes)

    def _gauge_up(self, shard: int, value: int) -> None:
        if self._metrics is not None:
            self._metrics.gauge("shard_up", shard=str(shard)).set(value)

    def _count(self, name: str, **labels: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(name, **labels).inc()

    def attach_breakers(self, breakers: "Sequence[CircuitBreaker]") -> None:
        """Wire the per-shard breakers in (the service creates them after
        the pool exists); the monitor then spends half-open probe slots
        on supervisor pings."""
        if len(breakers) != len(self._slots):
            raise ShardError(
                f"{len(breakers)} breakers for {len(self._slots)} shards"
            )
        # Deliberately NOT copied: the service owns the list and tests
        # swap individual breakers in place; the supervisor must probe
        # whatever breaker currently guards the shard.
        self._breakers = breakers

    # -- query-path API -----------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._slots)

    @property
    def clients(self) -> "list[ShardClient]":
        """The current client per shard (down ones included — callers on
        the query path use :meth:`client`, which is liveness-checked)."""
        with self._lock:
            return [slot.client for slot in self._slots]

    def client(self, shard: int) -> ShardClient:
        """The live client for ``shard``; typed
        :class:`~repro.errors.ShardDownError` while it is down."""
        with self._lock:
            slot = self._slots[shard]
            if slot.state == "live" and not slot.client.down():
                return slot.client
            restarts = slot.restarts
            reason = slot.last_error or "process is down"
        raise ShardDownError(
            f"shard {shard} is down ({reason}); supervisor is respawning",
            shard=shard,
            restarts=restarts,
            retry_after_s=self.retry_after_s(shard),
        )

    def await_live(self, shard: int, timeout: float) -> "ShardClient | None":
        """Block until ``shard`` is live again (a respawned client) or
        ``timeout`` elapses; the retry path's bounded wait."""
        deadline = self._clock() + timeout
        while True:
            with self._lock:
                slot = self._slots[shard]
                if slot.state == "live" and not slot.client.down():
                    return slot.client
                event = slot.live
            remaining = deadline - self._clock()
            if remaining <= 0:
                return None
            self._wake.set()
            event.wait(min(remaining, 0.05))

    def notify_failure(self, shard: int, error: BaseException) -> None:
        """A gather failed with a shard-infrastructure error: check the
        process now instead of waiting for the next heartbeat."""
        with self._lock:
            slot = self._slots[shard]
            client = slot.client
        if isinstance(error, ShardError) and not client.process.is_alive():
            client.mark_down(f"process died: {error}")
        self._wake.set()

    def kill(self, shard: int) -> None:
        """SIGKILL one shard (the chaos harness's entry point)."""
        with self._lock:
            client = self._slots[shard].client
        client.kill()
        self._wake.set()

    # -- introspection ------------------------------------------------------------

    def restarts(self, shard: int) -> int:
        with self._lock:
            return self._slots[shard].restarts

    def retry_after_s(self, shard: "int | None" = None) -> float:
        """Seconds until the next respawn attempt could land — the
        ``Retry-After`` estimate for 503 responses.  Over all down
        shards when ``shard`` is None; at least 50 ms, 1 s when nothing
        is down (the generic backoff hint)."""
        now = self._clock()
        with self._lock:
            slots = (
                self._slots if shard is None else [self._slots[shard]]
            )
            waits = [
                slot.next_attempt_at - now
                for slot in slots
                if slot.state != "live"
            ]
        if not waits:
            return 1.0
        return max(max(waits), 0.05)

    def status(self) -> "list[dict[str, Any]]":
        """Per-shard supervision state for ``/healthz``."""
        now = self._clock()
        with self._lock:
            return [
                {
                    "shard": index,
                    "state": slot.state,
                    "alive": slot.state == "live"
                    and not slot.client.down()
                    and slot.client.process.is_alive(),
                    "restarts": slot.restarts,
                    "slice_version": slot.client.slice_version,
                    "next_attempt_in_s": (
                        max(slot.next_attempt_at - now, 0.0)
                        if slot.state != "live"
                        else 0.0
                    ),
                    "last_error": slot.last_error,
                }
                for index, slot in enumerate(self._slots)
            ]

    # -- monitor ------------------------------------------------------------------

    def _backoff_delay_s(self, slot: _Slot) -> float:
        base = self.config.backoff_base_ms
        if slot.backoff_ms <= 0:
            delay = base
        else:
            delay = min(slot.backoff_ms * 2, self.config.backoff_max_ms)
        slot.backoff_ms = delay
        jitter = delay * self.config.backoff_jitter * self._rng.random()
        return (delay + jitter) / 1000.0

    def _mark_down(self, shard: int, slot: _Slot, reason: str) -> None:
        """Lock held.  Transition live -> down and schedule the first
        respawn attempt."""
        slot.state = "down"
        slot.last_error = reason
        slot.live.clear()
        slot.backoff_ms = 0.0
        slot.next_attempt_at = self._clock() + self._backoff_delay_s(slot)
        self._gauge_up(shard, 0)
        self._count("shard_deaths_total", shard=str(shard))

    def _check_liveness(self, shard: int, slot: _Slot) -> None:
        """Lock held.  A live slot whose worker died goes down."""
        client = slot.client
        if client.down():
            self._mark_down(
                shard, slot, client._down_reason or "pipe closed"
            )
            return
        if not client.process.is_alive():
            client.mark_down("process exited")
            self._mark_down(shard, slot, "process exited")

    def _try_respawn(self, shard: int, slot_spec: ShardSpec) -> "ShardClient | None":
        """No lock held (spawning is slow).  One respawn attempt:
        failpoint, spawn, heartbeat ping."""
        inject_io_fault(FP_SUPERVISOR_RESPAWN)
        client = self._spawn(slot_spec)
        try:
            client.request({"op": "ping"}, timeout=self.config.ping_timeout_s)
        except BaseException:
            client.close()
            raise
        return client

    def _respawn_due(self, shard: int, slot: _Slot, now: float) -> None:
        """Lock NOT held on entry for the spawn itself; bookkeeping
        re-acquires it."""
        with self._lock:
            if self._closed or slot.state == "live":
                return
            if now < slot.next_attempt_at:
                return
            # Restart-storm cap: count attempts inside the sliding window.
            window_start = now - self.config.storm_window_s
            while slot.attempt_times and slot.attempt_times[0] < window_start:
                slot.attempt_times.popleft()
            if len(slot.attempt_times) >= self.config.storm_cap:
                slot.state = "failed"
                slot.last_error = (
                    f"restart storm: {len(slot.attempt_times)} respawn "
                    f"attempts in {self.config.storm_window_s:.0f}s"
                )
                slot.next_attempt_at = (
                    slot.attempt_times[0] + self.config.storm_window_s
                )
                return
            slot.attempt_times.append(now)
            old_client = slot.client
            spec = slot.spec
        try:
            fresh = self._try_respawn(shard, spec)
        except BaseException as exc:
            with self._lock:
                slot.last_error = f"respawn failed: {exc!r}"
                slot.next_attempt_at = self._clock() + self._backoff_delay_s(
                    slot
                )
            self._count(
                "shard_respawns_total", shard=str(shard), outcome="fail"
            )
            return
        assert fresh is not None
        old_client.close(timeout=1.0)
        with self._lock:
            slot.client = fresh
            slot.state = "live"
            slot.restarts += 1
            slot.backoff_ms = 0.0
            slot.last_error = None
            slot.live.set()
        self._gauge_up(shard, 1)
        self._record_spawn(fresh)
        self._count("shard_respawns_total", shard=str(shard), outcome="ok")

    def _probe_breaker(self, shard: int, slot: _Slot) -> None:
        """No lock held.  Spend a half-open probe slot on a supervisor
        ping so the breaker can close without risking a user query."""
        assert self._breakers is not None
        breaker = self._breakers[shard]
        if not breaker.probe_allowed():
            return
        with self._lock:
            client = slot.client if slot.state == "live" else None
        if client is None:
            # No live worker to probe: give the slot back as a failure
            # so the breaker re-opens and backs off again.
            breaker.record_failure(
                ShardError(f"shard {shard} is down", shard=shard)
            )
            self._count("breaker_probe_total", outcome="down")
            return
        try:
            client.request(
                {"op": "ping"}, timeout=self.config.ping_timeout_s
            )
        except BaseException as exc:
            breaker.record_failure(
                exc
                if isinstance(exc, ShardError)
                else ShardError(f"shard {shard} probe failed: {exc!r}", shard=shard)
            )
            self._count("breaker_probe_total", outcome="fail")
        else:
            breaker.record_success()
            self._count("breaker_probe_total", outcome="ok")

    def _monitor_loop(self) -> None:
        while True:
            self._wake.wait(self.config.heartbeat_s)
            self._wake.clear()
            with self._lock:
                if self._closed:
                    return
                for index, slot in enumerate(self._slots):
                    if slot.state == "live":
                        self._check_liveness(index, slot)
            now = self._clock()
            for index, slot in enumerate(self._slots):
                if slot.state != "live":
                    self._respawn_due(index, slot, now)
                if self._breakers is not None:
                    self._probe_breaker(index, slot)
            with self._lock:
                if self._closed:
                    return

    # -- lifecycle ----------------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._wake.set()
        self._monitor.join(timeout)
        for client in self.clients:
            client.close(timeout)

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        states = ",".join(slot.state for slot in self._slots)
        return f"ShardSupervisor({len(self._slots)} shards: {states})"
