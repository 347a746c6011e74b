"""Chaos/stress harness for the concurrent query service.

``run_stress`` races three populations against one warehouse for a fixed
duration:

* **clients** submitting a mixed MDX workload through a
  :class:`~repro.service.QueryService` (a slice of it under tight
  deadlines, to exercise shedding and deadline propagation),
* **mutators** hammering ``Cube.set_value`` on the *live* cube
  (re-values, inserts, deletes),
* optionally a **fault arm** thread toggling ``mdx.cell`` transient
  failpoints, which both fails queries mid-cell-loop and feeds the
  circuit breaker.

Two invariants are then checked:

1. **Typed failure only** — every error any thread observed is one of
   the service's typed errors (shedding, breaker, injected fault,
   budget); anything else (a torn dict, a ``RuntimeError`` from
   iterating a mutating set, a deadlock surfacing as timeout) is a
   violation.
2. **Snapshot isolation, bit-identically** — every completed
   non-partial query is replayed *serially* against the snapshot it was
   pinned to, and the grids must match cell-for-cell (``==`` on floats,
   identity on ⊥).  The mutators guarantee the live cube has long since
   diverged, so any read-through to live state shows up as a mismatch.

The harness is deterministic per seed *in its decisions* (which queries,
which mutations); thread interleaving is, of course, the point and is
not.  ``repro stress`` is the CLI front end; the chaos test suite calls
:func:`run_stress` directly.

:func:`run_shard_storm` is the sharded-tier sibling (``repro stress
--sharded``): client threads rotate the three degrade policies against a
:class:`~repro.service.service.ShardedQueryService` while a killer
thread SIGKILLs random shard processes.  Its invariants:

1. **Bit-identical or honestly partial** — every non-partial answer
   (fallback policy, or a lucky window under fail/partial) matches the
   pre-storm reference grid cell-for-cell; a partial answer may replace
   cells with ⊥ *only* while carrying ``degradations`` records, and its
   surviving cells still match the reference.
2. **Typed errors only** — as above.
3. **Eventual recovery** — once the killing stops, the supervisor
   respawns every shard, the breakers close, and a final ``degrade=
   "fail"`` pass over the whole workload returns bit-identical grids.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import (
    CircuitOpenError,
    FaultInjectedError,
    QueryBudgetExceededError,
    ServiceError,
)
from repro.faults import FAULTS
from repro.lint.lockdep import make_lock
from repro.mdx.budget import QueryBudget
from repro.olap.missing import is_missing
from repro.service.breaker import CircuitBreaker
from repro.service.service import QueryService, QueryTicket

if TYPE_CHECKING:
    from repro.warehouse import Warehouse

__all__ = [
    "ShardStormConfig",
    "ShardStormReport",
    "StressConfig",
    "StressReport",
    "run_shard_storm",
    "run_stress",
]

#: the mixed query workload (all valid against the running example)
STRESS_QUERIES: tuple[str, ...] = (
    """
    SELECT {Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]} ON COLUMNS,
           {[Joe], [Lisa], [Tom]} ON ROWS
    FROM Warehouse WHERE ([NY], [Salary])
    """,
    """
    WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
    SELECT {Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]} ON COLUMNS,
           {[Joe]} ON ROWS
    FROM Warehouse WHERE ([NY], [Salary])
    """,
    """
    SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS,
           {[FTE], [PTE], [Contractor]} ON ROWS
    FROM Warehouse WHERE ([East], [Compensation])
    """,
    """
    WITH PERSPECTIVE {(Mar)} FOR Organization STATIC
    SELECT {Time.[Jan], Time.[Mar], Time.[Jun]} ON COLUMNS,
           {[Joe], [Jane]} ON ROWS
    FROM Warehouse WHERE ([NY], [Salary])
    """,
)

#: errors the chaos run is *allowed* to observe (everything else is a
#: robustness violation)
EXPECTED_ERRORS: tuple[type[BaseException], ...] = (
    ServiceError,  # shedding, circuit open, service stopped
    FaultInjectedError,  # armed failpoints (incl. transient)
    QueryBudgetExceededError,  # tight deadline tripping in axis resolution
)


@dataclass(frozen=True)
class StressConfig:
    """Knobs for one stress run."""

    workers: int = 8
    duration_s: float = 3.0
    queue_depth: int = 64
    seed: int = 0
    #: arm/disarm mdx.cell transient failpoints during the run
    fault_mix: bool = True
    #: fraction of submissions carrying a tight deadline (sheds/degrades)
    deadline_fraction: float = 0.2
    deadline_ms: float = 5.0
    #: cap on serial replays during verification
    verify_limit: int = 500

    @classmethod
    def smoke(cls, seed: int = 0, fault_mix: bool = True) -> "StressConfig":
        """The CI-sized run: same invariants, one second of chaos."""
        return cls(
            workers=4,
            duration_s=1.0,
            queue_depth=16,
            seed=seed,
            fault_mix=fault_mix,
            verify_limit=200,
        )


@dataclass
class StressReport:
    """Outcome of one chaos run; ``passed`` is the headline verdict."""

    config: StressConfig
    duration_s: float = 0.0
    submitted: int = 0
    completed_ok: int = 0
    completed_partial: int = 0
    shed: int = 0
    circuit_rejected: int = 0
    fault_errors: int = 0
    budget_errors: int = 0
    mutations: int = 0
    breaker_trips: int = 0
    verified: int = 0
    #: completed queries whose serial replay differed (must be empty)
    mismatches: list[str] = field(default_factory=list)
    #: untyped exceptions from any thread (must be empty)
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches and not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "passed": self.passed,
            "duration_s": round(self.duration_s, 3),
            "workers": self.config.workers,
            "submitted": self.submitted,
            "completed_ok": self.completed_ok,
            "completed_partial": self.completed_partial,
            "shed": self.shed,
            "circuit_rejected": self.circuit_rejected,
            "fault_errors": self.fault_errors,
            "budget_errors": self.budget_errors,
            "mutations": self.mutations,
            "breaker_trips": self.breaker_trips,
            "verified": self.verified,
            "mismatches": list(self.mismatches),
            "violations": list(self.violations),
        }

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"stress: {verdict} "
            f"({self.config.workers} workers, {self.duration_s:.1f}s)",
            f"  submitted            {self.submitted}",
            f"  completed ok         {self.completed_ok}",
            f"  completed partial    {self.completed_partial}",
            f"  shed (queue/deadline){self.shed}",
            f"  circuit rejected     {self.circuit_rejected}",
            f"  fault errors         {self.fault_errors}",
            f"  budget errors        {self.budget_errors}",
            f"  mutations applied    {self.mutations}",
            f"  breaker trips        {self.breaker_trips}",
            f"  replay-verified      {self.verified}"
            f" ({len(self.mismatches)} mismatches)",
        ]
        for mismatch in self.mismatches[:5]:
            lines.append(f"  MISMATCH: {mismatch}")
        for violation in self.violations[:5]:
            lines.append(f"  VIOLATION: {violation}")
        return "\n".join(lines)


class _Chaos:
    """Shared state for one run (threads append under ``lock``)."""

    def __init__(self, config: StressConfig) -> None:
        self.config = config
        self.stop = threading.Event()
        self.lock = make_lock("_Chaos.lock", reentrant=False)
        self.completed: list[QueryTicket] = []
        self.report = StressReport(config)

    def record_violation(self, where: str, exc: BaseException) -> None:
        with self.lock:
            self.report.violations.append(f"{where}: {exc!r}")


def _client_loop(
    chaos: _Chaos, service: QueryService, client_index: int
) -> None:
    rng = random.Random(chaos.config.seed * 8191 + client_index)
    report = chaos.report
    pending: list[QueryTicket] = []
    while not chaos.stop.is_set():
        text = rng.choice(STRESS_QUERIES)
        deadline = (
            chaos.config.deadline_ms
            if rng.random() < chaos.config.deadline_fraction
            else None
        )
        try:
            ticket = service.submit(
                text,
                analyze=False,
                budget=None
                if deadline is None
                else QueryBudget(deadline_ms=deadline),
            )
        except ServiceError as exc:
            with chaos.lock:
                if isinstance(exc, CircuitOpenError):
                    report.circuit_rejected += 1
                else:
                    report.shed += 1
            continue
        except BaseException as exc:  # untyped submit failure = violation
            chaos.record_violation(f"client-{client_index} submit", exc)
            continue
        with chaos.lock:
            report.submitted += 1
        pending.append(ticket)
        # Harvest a few finished tickets so the pending list stays small.
        if len(pending) >= 4:
            _harvest(chaos, pending, client_index, block=True)
    _harvest(chaos, pending, client_index, block=True, drain=True)


def _harvest(
    chaos: _Chaos,
    pending: list[QueryTicket],
    client_index: int,
    *,
    block: bool = False,
    drain: bool = False,
) -> None:
    report = chaos.report
    while pending:
        ticket = pending[0]
        timeout = 30.0 if (block or drain) else 0.0
        if not ticket.wait(timeout):
            if drain or block:
                chaos.record_violation(
                    f"client-{client_index}",
                    TimeoutError("ticket never completed (deadlock?)"),
                )
                pending.pop(0)
                continue
            return
        pending.pop(0)
        error = ticket.exception()
        with chaos.lock:
            if error is None:
                result = ticket.result()
                if result.degradations:
                    report.completed_partial += 1
                else:
                    report.completed_ok += 1
                    chaos.completed.append(ticket)
            elif isinstance(error, QueryBudgetExceededError):
                report.budget_errors += 1
            elif isinstance(error, FaultInjectedError):
                report.fault_errors += 1
            elif isinstance(error, ServiceError):
                report.shed += 1
            else:
                report.violations.append(
                    f"client-{client_index} result: {error!r}"
                )


def _mutator_loop(
    chaos: _Chaos,
    warehouse: "Warehouse",
    base_addresses: list[Any],
    mutator_index: int,
) -> None:
    rng = random.Random(chaos.config.seed * 524287 + mutator_index)
    cube = warehouse.cube
    report = chaos.report
    while not chaos.stop.is_set():
        try:
            addr = rng.choice(base_addresses)
            roll = rng.random()
            if roll < 0.1:
                cube.set_value(addr, None)  # delete
            else:
                cube.set_value(addr, round(rng.uniform(1.0, 50.0), 2))
            with chaos.lock:
                report.mutations += 1
        except BaseException as exc:
            chaos.record_violation(f"mutator-{mutator_index}", exc)
            return
        time.sleep(0.0005)
    # Leave no deletions behind: restore every address with some value so
    # later runs/tests see a fully populated cube.
    try:
        for addr in base_addresses:
            if is_missing(cube.value(addr)):
                cube.set_value(addr, 1.0)
    except BaseException as exc:  # pragma: no cover - defensive
        chaos.record_violation(f"mutator-{mutator_index} restore", exc)


def _fault_arm_loop(chaos: _Chaos) -> None:
    """Periodically arm a short transient burst on the MDX cell loop."""
    rng = random.Random(chaos.config.seed * 69997 + 7)
    while not chaos.stop.is_set():
        FAULTS.fail_transient("mdx.cell", times=rng.randint(1, 4))
        time.sleep(0.05)
        FAULTS.disarm("mdx.cell")
        time.sleep(0.1)
    FAULTS.disarm("mdx.cell")


def _verify_replays(chaos: _Chaos) -> None:
    """Serially replay completed queries against their pinned snapshots."""
    report = chaos.report
    for ticket in chaos.completed[: chaos.config.verify_limit]:
        try:
            replay = ticket.snapshot.query(ticket.text, analyze=False)
        except BaseException as exc:
            report.mismatches.append(
                f"replay raised {exc!r} (version {ticket.snapshot_version})"
            )
            continue
        report.verified += 1
        concurrent = ticket.result()
        if not _matches_reference(concurrent, replay, allow_missing=False):
            report.mismatches.append(
                f"grid differs from serial replay at version "
                f"{ticket.snapshot_version}: "
                f"{' '.join(ticket.text.split())[:80]}"
            )


def run_stress(
    config: "StressConfig | None" = None,
    warehouse: "Warehouse | None" = None,
) -> StressReport:
    """Run one chaos storm; see the module docstring for the invariants."""
    config = config or StressConfig()
    if warehouse is None:
        from repro.warehouse import Warehouse
        from repro.workload import build_running_example

        example = build_running_example()
        warehouse = Warehouse(example.schema, example.cube)
    chaos = _Chaos(config)
    breaker = CircuitBreaker(failure_threshold=8, reset_after_ms=50.0)
    service = QueryService(
        warehouse,
        workers=config.workers,
        queue_depth=config.queue_depth,
        breaker=breaker,
    )
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(chaos, service, i),
            name=f"stress-client-{i}",
        )
        for i in range(config.workers)
    ]
    # Collected once, single-threaded, before the storm: iterating the
    # leaf dict while mutators run would itself be a race.
    base_addresses = [addr for addr, _ in warehouse.cube.leaf_cells()]
    threads.extend(
        threading.Thread(
            target=_mutator_loop,
            args=(chaos, warehouse, base_addresses, i),
            name=f"stress-mutator-{i}",
        )
        for i in range(2)
    )
    if config.fault_mix:
        threads.append(
            threading.Thread(
                target=_fault_arm_loop, args=(chaos,), name="stress-faults"
            )
        )
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(config.duration_s)
    chaos.stop.set()
    for thread in threads:
        thread.join(timeout=60.0)
        if thread.is_alive():  # pragma: no cover - defensive
            chaos.record_violation(
                thread.name, TimeoutError("thread failed to stop")
            )
    service.close(drain=True, timeout=60.0)
    chaos.report.duration_s = time.perf_counter() - started
    chaos.report.breaker_trips = breaker.trips
    _verify_replays(chaos)
    return chaos.report


# ---------------------------------------------------------------------------
# sharded shard-kill storm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardStormConfig:
    """Knobs for one sharded chaos storm."""

    clients: int = 4
    duration_s: float = 3.0
    n_shards: int = 2
    seed: int = 0
    #: mean sleep between SIGKILLs of a random shard
    kill_interval_s: float = 0.25
    #: per-query RPC deadline during the storm
    rpc_timeout_ms: float = 10_000.0
    #: hedge threshold for the fallback policy
    hedge_ms: float = 250.0
    #: post-storm window for respawns + breaker closes + verification
    recovery_timeout_s: float = 60.0

    @classmethod
    def smoke(cls, seed: int = 0) -> "ShardStormConfig":
        """The CI-sized storm: same invariants, shorter clock."""
        return cls(
            clients=3,
            duration_s=1.5,
            seed=seed,
            kill_interval_s=0.3,
        )


@dataclass
class ShardStormReport:
    """Outcome of one shard-kill storm; ``passed`` is the verdict."""

    config: ShardStormConfig
    duration_s: float = 0.0
    queries: int = 0
    ok: int = 0
    partial: int = 0
    typed_errors: int = 0
    kills: int = 0
    respawns: int = 0
    recovered: bool = False
    #: grids that differed from the pre-storm reference (must be empty)
    mismatches: list[str] = field(default_factory=list)
    #: untyped errors / contract breaches (must be empty)
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.recovered and not self.mismatches and not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "passed": self.passed,
            "duration_s": round(self.duration_s, 3),
            "clients": self.config.clients,
            "n_shards": self.config.n_shards,
            "queries": self.queries,
            "ok": self.ok,
            "partial": self.partial,
            "typed_errors": self.typed_errors,
            "kills": self.kills,
            "respawns": self.respawns,
            "recovered": self.recovered,
            "mismatches": list(self.mismatches),
            "violations": list(self.violations),
        }

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"shard storm: {verdict} "
            f"({self.config.clients} clients, {self.config.n_shards} shards, "
            f"{self.duration_s:.1f}s)",
            f"  queries              {self.queries}",
            f"  ok (bit-identical)   {self.ok}",
            f"  partial (⊥ cells)    {self.partial}",
            f"  typed errors         {self.typed_errors}",
            f"  shards killed        {self.kills}",
            f"  respawns             {self.respawns}",
            f"  recovered            {self.recovered}",
        ]
        for mismatch in self.mismatches[:5]:
            lines.append(f"  MISMATCH: {mismatch}")
        for violation in self.violations[:5]:
            lines.append(f"  VIOLATION: {violation}")
        return "\n".join(lines)


class _ShardChaos:
    """Shared state for one storm (threads append under ``lock``)."""

    def __init__(self, config: ShardStormConfig) -> None:
        self.config = config
        self.stop = threading.Event()
        self.lock = make_lock("_ShardChaos.lock", reentrant=False)
        self.report = ShardStormReport(config)

    def record_violation(self, where: str, exc: "BaseException | str") -> None:
        with self.lock:
            self.report.violations.append(
                f"{where}: {exc!r}" if isinstance(exc, BaseException)
                else f"{where}: {exc}"
            )


def _matches_reference(result: Any, reference: Any, *, allow_missing: bool) -> bool:
    """Cells equal the reference bit-for-bit (floats via ``==``, no
    tolerance: the engine fixes the summation order); with
    ``allow_missing`` an actual ⊥ is also accepted (a degraded cell), but
    a *value* must still be the reference's value — degradation may omit,
    never alter."""
    if len(result.cells) != len(reference.cells):
        return False
    for row_actual, row_expected in zip(result.cells, reference.cells):
        if len(row_actual) != len(row_expected):
            return False
        for actual, expected in zip(row_actual, row_expected):
            if is_missing(actual):
                if allow_missing or is_missing(expected):
                    continue
                return False
            if is_missing(expected) or actual != expected:
                return False
    return True


def _storm_client_loop(
    chaos: _ShardChaos,
    service: Any,
    references: "dict[str, Any]",
    client_index: int,
) -> None:
    rng = random.Random(chaos.config.seed * 7919 + client_index)
    report = chaos.report
    policies = ("fallback", "partial", "fail")
    iteration = 0
    while not chaos.stop.is_set():
        text = rng.choice(STRESS_QUERIES)
        policy = policies[(iteration + client_index) % len(policies)]
        iteration += 1
        try:
            result = service.execute(text, analyze=False, degrade=policy)
        except EXPECTED_ERRORS:
            with chaos.lock:
                report.queries += 1
                report.typed_errors += 1
            continue
        except BaseException as exc:  # untyped error = violation
            chaos.record_violation(
                f"storm-client-{client_index} ({policy})", exc
            )
            continue
        reference = references[text]
        if result.degradations:
            matched = _matches_reference(result, reference, allow_missing=True)
            with chaos.lock:
                report.queries += 1
                report.partial += 1
                if policy != "partial":
                    report.violations.append(
                        f"storm-client-{client_index}: degraded grid under "
                        f"{policy!r} policy (only 'partial' may return ⊥)"
                    )
                elif not matched:
                    report.mismatches.append(
                        f"partial grid altered a value: "
                        f"{' '.join(text.split())[:60]}"
                    )
        else:
            matched = _matches_reference(result, reference, allow_missing=False)
            with chaos.lock:
                report.queries += 1
                report.ok += 1
                if not matched:
                    report.mismatches.append(
                        f"non-partial grid differs from reference under "
                        f"{policy!r}: {' '.join(text.split())[:60]}"
                    )


def _killer_loop(chaos: _ShardChaos, service: Any) -> None:
    """SIGKILL a random shard on a jittered cadence until the storm ends."""
    rng = random.Random(chaos.config.seed * 104729 + 31)
    while not chaos.stop.is_set():
        time.sleep(chaos.config.kill_interval_s * (0.5 + rng.random()))
        if chaos.stop.is_set():
            break
        shard = rng.randrange(service.n_shards)
        try:
            service.supervisor.kill(shard)
        except BaseException as exc:  # pragma: no cover - defensive
            chaos.record_violation("storm-killer", exc)
            return
        with chaos.lock:
            chaos.report.kills += 1


def run_shard_storm(
    config: "ShardStormConfig | None" = None,
    workload: str = "running",
) -> ShardStormReport:
    """Run one shard-kill storm; see the module docstring's invariants."""
    from repro.service.service import ShardedQueryService
    from repro.service.supervisor import SupervisorConfig

    config = config or ShardStormConfig()
    chaos = _ShardChaos(config)
    service = ShardedQueryService(
        workload,
        n_shards=config.n_shards,
        rpc_timeout_ms=config.rpc_timeout_ms,
        hedge_ms=config.hedge_ms,
        supervisor_config=SupervisorConfig(
            heartbeat_s=0.05,
            backoff_base_ms=20.0,
            backoff_max_ms=250.0,
            # Generous: the storm's kills must never park a shard as
            # "failed" — the cap's own semantics get a dedicated test.
            storm_window_s=10.0,
            storm_cap=500,
            seed=config.seed,
        ),
    )
    try:
        # The reference grids: the sharded storm never mutates the cube,
        # so every non-partial answer must reproduce these exactly.
        references = {
            text: service.warehouse.query(text, analyze=False)
            for text in STRESS_QUERIES
        }
        threads = [
            threading.Thread(
                target=_storm_client_loop,
                args=(chaos, service, references, i),
                name=f"storm-client-{i}",
            )
            for i in range(config.clients)
        ]
        threads.append(
            threading.Thread(
                target=_killer_loop, args=(chaos, service), name="storm-killer"
            )
        )
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        time.sleep(config.duration_s)
        chaos.stop.set()
        for thread in threads:
            thread.join(timeout=60.0)
            if thread.is_alive():  # pragma: no cover - defensive
                chaos.record_violation(
                    thread.name, TimeoutError("thread failed to stop")
                )
        chaos.report.duration_s = time.perf_counter() - started

        # -- eventual recovery ------------------------------------------------
        deadline = time.monotonic() + config.recovery_timeout_s
        while time.monotonic() < deadline:
            if service.health()["ready"]:
                chaos.report.recovered = True
                break
            time.sleep(0.05)
        if not chaos.report.recovered:
            chaos.record_violation(
                "recovery",
                f"pool not ready within {config.recovery_timeout_s:.0f}s: "
                f"{service.health()['shards']}",
            )
        else:
            for text, reference in references.items():
                try:
                    replay = service.execute(text, analyze=False, degrade="fail")
                except BaseException as exc:
                    chaos.record_violation("recovery replay", exc)
                    continue
                if not _matches_reference(
                    replay, reference, allow_missing=False
                ):
                    chaos.report.mismatches.append(
                        "post-recovery grid differs from reference: "
                        f"{' '.join(text.split())[:60]}"
                    )
        chaos.report.respawns = sum(
            service.supervisor.restarts(shard)
            for shard in range(service.n_shards)
        )
    finally:
        service.close()
    return chaos.report
