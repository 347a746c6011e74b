"""QueryService: admission control, deadlines, shedding, breaker wiring."""

from __future__ import annotations

import threading

import pytest

from repro.errors import (
    CircuitOpenError,
    FaultInjectedError,
    MdxAnalysisError,
    ServiceOverloadedError,
    ServiceStoppedError,
)
from repro.faults import FAULTS
from repro.mdx.budget import QueryBudget
from repro.service import CircuitBreaker, QueryService
from repro.warehouse import Warehouse

QUERY = """
    SELECT {Time.[Jan], Time.[Feb]} ON COLUMNS, {[Joe]} ON ROWS
    FROM Warehouse WHERE ([NY], [Salary])
"""


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance_ms(self, ms: float) -> None:
        self.now += ms / 1000.0


@pytest.fixture
def warehouse(example) -> Warehouse:
    return Warehouse(example.schema, example.cube, name="Warehouse")


class Blocker:
    """Patches a snapshot's ``query`` to block until released."""

    def __init__(self, snapshot) -> None:
        self.started = threading.Event()
        self.release = threading.Event()
        self._real = snapshot.query
        snapshot.query = self  # instance attribute shadows the method

    def __call__(self, text, analyze=True, budget=None):
        self.started.set()
        assert self.release.wait(30.0), "blocker never released"
        return self._real(text, analyze=analyze, budget=budget)


class TestSubmitResult:
    def test_round_trip(self, warehouse):
        with QueryService(warehouse, workers=2) as service:
            ticket = service.submit(QUERY)
            result = ticket.result(timeout=30.0)
        assert result.cells == warehouse.query(QUERY).cells

    def test_result_times_out_while_pending(self, warehouse):
        service = QueryService(warehouse, workers=1)
        blocker = Blocker(warehouse.snapshot())
        ticket = service.submit(QUERY)
        assert blocker.started.wait(10.0)
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.01)
        assert not ticket.done()
        blocker.release.set()
        assert ticket.result(timeout=30.0) is not None
        service.close()

    def test_ticket_pins_submission_version(self, warehouse):
        with QueryService(warehouse, workers=1) as service:
            ticket = service.submit(QUERY)
            version = warehouse.cube.version
            assert ticket.snapshot_version == version
            assert ticket.result(timeout=30.0) is not None

    def test_error_is_reraised_in_caller(self, warehouse):
        with QueryService(warehouse, workers=1) as service:
            ticket = service.submit("SELECT FROM nonsense !!!")
            with pytest.raises(Exception):
                ticket.result(timeout=30.0)
            assert ticket.exception() is not None


class TestAdmissionControl:
    def test_queue_full_sheds_immediately(self, warehouse):
        service = QueryService(warehouse, workers=1, queue_depth=1)
        blocker = Blocker(warehouse.snapshot())
        running = service.submit(QUERY)
        assert blocker.started.wait(10.0)
        queued = service.submit(QUERY)  # fills the queue
        with pytest.raises(ServiceOverloadedError) as excinfo:
            service.submit(QUERY)
        assert excinfo.value.reason == "queue-full"
        shed = warehouse.metrics.counter(
            "service_shed_total", reason="queue-full"
        )
        assert shed.sample() == 1
        blocker.release.set()
        assert running.result(timeout=30.0) is not None
        assert queued.result(timeout=30.0) is not None
        service.close()

    def test_deadline_expired_in_queue_sheds(self, warehouse):
        clock = FakeClock()
        service = QueryService(warehouse, workers=1, clock=clock)
        blocker = Blocker(warehouse.snapshot())
        first = service.submit(QUERY)
        assert blocker.started.wait(10.0)
        doomed = service.submit(QUERY, deadline_ms=50.0)
        clock.advance_ms(100.0)  # the deadline dies while queued
        blocker.release.set()
        error = doomed.exception(timeout=30.0)
        assert isinstance(error, ServiceOverloadedError)
        assert error.reason == "deadline-expired"
        assert first.result(timeout=30.0) is not None
        service.close()

    def test_budget_deadline_is_the_default_deadline(self, warehouse):
        clock = FakeClock()
        service = QueryService(warehouse, workers=1, clock=clock)
        blocker = Blocker(warehouse.snapshot())
        first = service.submit(QUERY)
        assert blocker.started.wait(10.0)
        doomed = service.submit(QUERY, budget=QueryBudget(deadline_ms=40.0))
        clock.advance_ms(80.0)
        blocker.release.set()
        error = doomed.exception(timeout=30.0)
        assert isinstance(error, ServiceOverloadedError)
        assert error.reason == "deadline-expired"
        first.result(timeout=30.0)
        service.close()

    def test_generous_deadline_still_completes(self, warehouse):
        with QueryService(
            warehouse, workers=2, default_deadline_ms=60_000.0
        ) as service:
            result = service.submit(QUERY).result(timeout=30.0)
        assert not result.is_partial

    def test_cell_cap_budget_degrades_not_fails(self, warehouse):
        with QueryService(warehouse, workers=1) as service:
            ticket = service.submit(
                QUERY, analyze=False, budget=QueryBudget(max_cells=1)
            )
            result = ticket.result(timeout=30.0)
        assert result.is_partial
        assert result.degradations[0].reason == "cell-cap"


class TestCircuitBreaker:
    def test_repeated_faults_open_the_circuit(self, warehouse):
        breaker = CircuitBreaker(failure_threshold=2, reset_after_ms=60_000.0)
        FAULTS.fail_with("mdx.cell")
        with QueryService(warehouse, workers=1, breaker=breaker) as service:
            for _ in range(2):
                ticket = service.submit(QUERY, analyze=False)
                assert isinstance(
                    ticket.exception(timeout=30.0), FaultInjectedError
                )
            with pytest.raises(CircuitOpenError):
                service.submit(QUERY, analyze=False)
            assert warehouse.metrics.gauge("circuit_state").sample() == 1
            assert (
                warehouse.metrics.counter(
                    "service_shed_total", reason="circuit-open"
                ).sample()
                == 1
            )

    def test_circuit_recovers_after_backoff(self, warehouse):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after_ms=100.0, clock=clock
        )
        FAULTS.fail_transient("mdx.cell", times=1)
        with QueryService(warehouse, workers=1, breaker=breaker) as service:
            bad = service.submit(QUERY, analyze=False)
            assert bad.exception(timeout=30.0) is not None
            with pytest.raises(CircuitOpenError):
                service.submit(QUERY, analyze=False)
            clock.advance_ms(100.0)  # backoff elapses -> half-open probe
            probe = service.submit(QUERY, analyze=False)
            assert probe.result(timeout=30.0) is not None
            assert warehouse.metrics.gauge("circuit_state").sample() == 0

    def test_service_metrics_reach_prometheus_export(self, warehouse):
        with QueryService(warehouse, workers=1, queue_depth=1) as service:
            blocker = Blocker(warehouse.snapshot())
            first = service.submit(QUERY)
            assert blocker.started.wait(10.0)
            queued = service.submit(QUERY)
            with pytest.raises(ServiceOverloadedError):
                service.submit(QUERY)
            blocker.release.set()
            first.result(timeout=30.0)
            queued.result(timeout=30.0)
        snapshot = warehouse.metrics.snapshot()
        assert snapshot["service_shed_total{reason=queue-full}"] == 1
        assert snapshot["circuit_state"] == 0
        prom = warehouse.metrics.to_prometheus()
        assert 'service_shed_total{reason="queue-full"} 1' in prom
        assert "\ncircuit_state 0" in prom


class TestWorkerCrashSafety:
    # The escaping SystemExit in the worker thread is the point of the
    # test; pytest reports it as an unhandled thread exception.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_system_exit_completes_ticket_then_escapes_worker(self, warehouse):
        service = QueryService(warehouse, workers=2)
        snapshot = warehouse.snapshot()
        real = snapshot.query

        def exploder(text, analyze=True, budget=None):
            snapshot.query = real  # one-shot: later queries run normally
            raise SystemExit(3)

        snapshot.query = exploder
        ticket = service.submit(QUERY)
        error = ticket.exception(timeout=30.0)
        # The keep-alive completes the ticket (the caller sees the exit,
        # never a hang) but must NOT swallow the interpreter exit: the
        # worker re-raises and dies, and the error is counted.
        assert isinstance(error, SystemExit)
        assert (
            warehouse.metrics.value(
                "service_worker_errors_total", kind="SystemExit"
            )
            == 1
        )
        # The surviving worker keeps serving.
        assert service.submit(QUERY).result(timeout=30.0) is not None
        service.close()


class TestIdleWorkers:
    def test_idle_worker_does_not_pin_its_last_snapshot(self, warehouse):
        """A worker blocked in ``queue.get()`` used to keep its last job —
        and through it the frozen cube and its index — alive until its
        next job arrived."""
        import gc
        import weakref

        with QueryService(warehouse, workers=2) as service:
            ticket = service.submit(QUERY)
            ticket.result(timeout=30.0)
            pinned = weakref.ref(ticket.snapshot.cube)
            assert pinned() is not None
            addr, value = next(iter(warehouse.cube.leaf_cells()))
            warehouse.cube.set_value(addr, value + 1.0)
            service.submit(QUERY).result(timeout=30.0)  # publishes the next version
            del ticket
            gc.collect()
            assert pinned() is None, "an idle worker still holds the old snapshot"


class TestLifecycle:
    def test_close_drains_queued_work(self, warehouse):
        service = QueryService(warehouse, workers=1)
        tickets = [service.submit(QUERY) for _ in range(4)]
        service.close(drain=True, timeout=30.0)
        assert all(t.result(timeout=1.0) is not None for t in tickets)

    def test_close_without_drain_fails_queued_tickets(self, warehouse):
        service = QueryService(warehouse, workers=1, queue_depth=4)
        blocker = Blocker(warehouse.snapshot())
        running = service.submit(QUERY)
        assert blocker.started.wait(10.0)
        queued = [service.submit(QUERY) for _ in range(2)]
        closer = threading.Thread(
            target=service.close, kwargs={"drain": False, "timeout": 30.0}
        )
        closer.start()
        for ticket in queued:
            assert isinstance(
                ticket.exception(timeout=30.0), ServiceStoppedError
            )
        blocker.release.set()
        closer.join(timeout=30.0)
        assert not closer.is_alive()
        assert running.result(timeout=30.0) is not None

    def test_submit_after_close_is_rejected(self, warehouse):
        service = QueryService(warehouse, workers=1)
        service.close()
        with pytest.raises(ServiceStoppedError):
            service.submit(QUERY)

    def test_close_is_idempotent(self, warehouse):
        service = QueryService(warehouse, workers=1)
        service.close()
        service.close()

    def test_invalid_sizes_rejected(self, warehouse):
        with pytest.raises(ValueError):
            QueryService(warehouse, workers=0)
        with pytest.raises(ValueError):
            QueryService(warehouse, workers=1, queue_depth=0)


class TestHalfOpenProbe:
    """A half-open probe that proves nothing about the store gives its
    slot back; the breaker must not stay half-open for good."""

    @staticmethod
    def breaker():
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after_ms=100.0, clock=clock)
        return breaker, clock

    def test_a_probe_ending_in_a_user_error(self, warehouse):
        breaker, clock = self.breaker()
        with QueryService(warehouse, workers=1, breaker=breaker) as service:
            breaker.record_failure(FaultInjectedError("boom"))
            clock.advance_ms(100.0)
            probe = service.submit(QUERY.replace("[Joe]", "[Nobody]"))
            assert isinstance(probe.exception(timeout=30.0), MdxAnalysisError)
            # the next query is admitted as the probe, succeeds, and closes
            assert service.submit(QUERY).result(timeout=30.0) is not None
            assert warehouse.metrics.gauge("circuit_state").sample() == 0

    def test_a_probe_shed_by_a_full_queue(self, warehouse):
        breaker, clock = self.breaker()
        service = QueryService(warehouse, workers=1, queue_depth=1, breaker=breaker)
        blocker = Blocker(warehouse.snapshot())
        running = service.submit(QUERY)
        assert blocker.started.wait(10.0)
        queued = service.submit(QUERY)  # fills the queue
        breaker.record_failure(FaultInjectedError("boom"))
        clock.advance_ms(100.0)
        for _ in range(2):
            # admitted as the probe, shed by the full queue, slot given back
            with pytest.raises(ServiceOverloadedError):
                service.submit(QUERY)
        blocker.release.set()
        assert running.result(timeout=30.0) is not None
        assert queued.result(timeout=30.0) is not None
        service.close()
