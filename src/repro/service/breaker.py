"""Circuit breaker for the query service.

The classic three-state machine, tuned for the failure modes this engine
actually produces (armed failpoints and storage corruption):

* **closed** — normal operation; consecutive breaker-relevant failures
  are counted, successes reset the count.
* **open** — ``failure_threshold`` consecutive failures tripped it; every
  admission fails fast with :class:`~repro.errors.CircuitOpenError`
  (cheaper for the caller than queuing work that will fail, and it takes
  load off a struggling store).
* **half-open** — after ``reset_after_ms`` of backoff, exactly one probe
  query is admitted; success closes the breaker, a tripping failure
  re-opens it and restarts the backoff, and any other outcome (a user
  error, a shed, a shard fault seen by the service breaker) gives the
  probe slot back for the next query.

Only *infrastructure* errors count toward tripping — injected faults
(:class:`~repro.errors.FaultInjectedError`) and storage/corruption
errors (:class:`~repro.errors.StorageError`).  A user writing queries
that raise evaluation errors must never open the circuit for everyone
else.

State is exported as the ``circuit_state`` gauge (0 = closed, 1 = open,
2 = half-open) via the callback wired in by the service.
"""

from __future__ import annotations

import enum
import time
from typing import Callable

from repro.errors import FaultInjectedError, ShardError, StorageError
from repro.lint.lockdep import make_lock

__all__ = ["BreakerState", "CircuitBreaker"]

#: error types that count toward tripping the breaker.  ShardError is a
#: dead/unreachable shard process — infrastructure, exactly the failure
#: mode a per-shard breaker exists for.
TRIPPING_ERRORS: tuple[type[BaseException], ...] = (
    FaultInjectedError,
    StorageError,
    ShardError,
)


class BreakerState(enum.IntEnum):
    """Breaker state; the integer value is the ``circuit_state`` gauge."""

    CLOSED = 0
    OPEN = 1
    HALF_OPEN = 2


class CircuitBreaker:
    """Thread-safe three-state circuit breaker.

    Parameters
    ----------
    failure_threshold:
        Consecutive breaker-relevant failures that trip the circuit.
    reset_after_ms:
        Backoff before an open circuit half-opens for one probe.
    clock:
        Monotonic clock in *seconds* (injectable for deterministic
        tests); defaults to ``time.monotonic``.

    ``on_state_change``, when set, is called with the new
    :class:`BreakerState` on every transition — the service points it at
    the ``circuit_state`` gauge.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after_ms: float = 1000.0,
        clock: "Callable[[], float] | None" = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_after_ms < 0:
            raise ValueError("reset_after_ms must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_after_ms = reset_after_ms
        self._clock = clock or time.monotonic
        self.on_state_change: "Callable[[BreakerState], None] | None" = None
        self._lock = make_lock("CircuitBreaker._lock", reentrant=False)
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        #: total trips (closed/half-open -> open), for metrics
        self.trips = 0

    # -- state ------------------------------------------------------------------

    @property
    def state(self) -> BreakerState:
        """The current state (advancing open -> half-open if backoff
        elapsed — the breaker has no timer thread; time is observed on
        access)."""
        with self._lock:
            self._advance()
            return self._state

    def _advance(self) -> None:  # reprolint: locked
        """Open -> half-open once the backoff has elapsed (lock held)."""
        if self._state is BreakerState.OPEN:
            elapsed_ms = (self._clock() - self._opened_at) * 1000.0
            if elapsed_ms >= self.reset_after_ms:
                self._set_state(BreakerState.HALF_OPEN)
                self._probe_in_flight = False

    def _set_state(self, state: BreakerState) -> None:  # reprolint: locked
        if state is self._state:
            return
        self._state = state
        if state is BreakerState.OPEN:
            self._opened_at = self._clock()
            self.trips += 1
        if self.on_state_change is not None:
            self.on_state_change(state)

    # -- admission --------------------------------------------------------------

    def allow(self) -> bool:
        """Whether a new query may be admitted right now.

        Closed: always.  Open: never (until backoff elapses).  Half-open:
        exactly one probe at a time — concurrent submitters race for the
        probe slot and the losers are rejected.
        """
        with self._lock:
            self._advance()
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.HALF_OPEN:
                if self._probe_in_flight:
                    return False
                self._probe_in_flight = True
                return True
            return False

    def probe_allowed(self) -> bool:
        """Acquire the half-open probe slot *only* — unlike
        :meth:`allow`, a closed breaker returns False, so the shard
        supervisor can ask "does this breaker need a recovery probe?"
        without spending anything on healthy shards.  The caller owns
        the slot on True and must report the probe's outcome via
        :meth:`record_success`/:meth:`record_failure`.
        """
        with self._lock:
            self._advance()
            if self._state is not BreakerState.HALF_OPEN:
                return False
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            return True

    # -- outcome reporting -------------------------------------------------------

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            if self._state is BreakerState.HALF_OPEN:
                self._set_state(BreakerState.CLOSED)

    def record_failure(self, error: BaseException) -> None:
        """Report a query failure.  The probe slot is given back whatever
        the error; only :data:`TRIPPING_ERRORS` count."""
        with self._lock:
            self._probe_in_flight = False
            if not isinstance(error, TRIPPING_ERRORS):
                return
            if self._state is BreakerState.HALF_OPEN:
                # The probe failed: straight back to open, fresh backoff.
                self._set_state(BreakerState.OPEN)
                return
            self._consecutive_failures += 1
            if (
                self._state is BreakerState.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._set_state(BreakerState.OPEN)

    def release(self) -> None:
        """Give the probe slot back without reporting an outcome: the
        query proved nothing about what this breaker guards."""
        with self._lock:
            self._probe_in_flight = False

    def retry_after_s(self) -> float:
        """Seconds until an open breaker half-opens; 0 unless open."""
        with self._lock:
            self._advance()
            if self._state is not BreakerState.OPEN:
                return 0.0
            return self.reset_after_ms / 1000.0 - (self._clock() - self._opened_at)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitBreaker({self._state.name}, "
            f"{self._consecutive_failures}/{self.failure_threshold} failures, "
            f"{self.trips} trips)"
        )
