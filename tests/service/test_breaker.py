"""Circuit-breaker state machine, driven by an injected clock."""

from __future__ import annotations

from repro.errors import FaultInjectedError, MdxEvaluationError, StorageError
from repro.service.breaker import BreakerState, CircuitBreaker


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance_ms(self, ms: float) -> None:
        self.now += ms / 1000.0


def make_breaker(threshold=3, reset_after_ms=100.0, **kwargs):
    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=threshold,
        reset_after_ms=reset_after_ms,
        clock=clock,
        **kwargs,
    )
    return breaker, clock


class TestTripping:
    def test_trips_after_consecutive_failures(self):
        breaker, _ = make_breaker(threshold=3)
        for _ in range(2):
            breaker.record_failure(FaultInjectedError("boom"))
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(StorageError("bad chunk"))
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1
        assert not breaker.allow()

    def test_success_resets_the_count(self):
        breaker, _ = make_breaker(threshold=2)
        breaker.record_failure(FaultInjectedError("boom"))
        breaker.record_success()
        breaker.record_failure(FaultInjectedError("boom"))
        assert breaker.state is BreakerState.CLOSED

    def test_user_errors_never_trip(self):
        breaker, _ = make_breaker(threshold=1)
        for _ in range(10):
            breaker.record_failure(MdxEvaluationError("your query is wrong"))
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()


class TestHalfOpen:
    def tripped(self, **kwargs):
        breaker, clock = make_breaker(threshold=1, **kwargs)
        breaker.record_failure(FaultInjectedError("boom"))
        assert breaker.state is BreakerState.OPEN
        return breaker, clock

    def test_open_rejects_until_backoff_elapses(self):
        breaker, clock = self.tripped(reset_after_ms=100.0)
        clock.advance_ms(99.0)
        assert not breaker.allow()
        clock.advance_ms(1.0)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = self.tripped(reset_after_ms=100.0)
        clock.advance_ms(100.0)
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # everyone else sheds

    def test_probe_success_closes(self):
        breaker, clock = self.tripped(reset_after_ms=100.0)
        clock.advance_ms(100.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_with_fresh_backoff(self):
        breaker, clock = self.tripped(reset_after_ms=100.0)
        clock.advance_ms(100.0)
        assert breaker.allow()
        breaker.record_failure(FaultInjectedError("still broken"))
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2
        assert not breaker.allow()
        clock.advance_ms(100.0)
        assert breaker.allow()  # half-open again after another backoff


class TestStateChangeCallback:
    def test_transitions_are_reported(self):
        seen: list[BreakerState] = []
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1,
            reset_after_ms=50.0,
            clock=clock,
        )
        breaker.on_state_change = seen.append
        breaker.record_failure(FaultInjectedError("boom"))
        clock.advance_ms(50.0)
        assert breaker.allow()
        breaker.record_success()
        assert seen == [
            BreakerState.OPEN,
            BreakerState.HALF_OPEN,
            BreakerState.CLOSED,
        ]
