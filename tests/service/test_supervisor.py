"""ShardSupervisor: respawn round trips, storm cap, breaker probes.

These tests drive the supervisor directly over real spawned shard
processes, with tight heartbeat/backoff tuning so respawns land in
milliseconds rather than the serving defaults.
"""

from __future__ import annotations

import dataclasses
import time
from functools import partial

import pytest

from repro.errors import FaultInjectedError, ShardDownError, ShardError
from repro.faults import FAULTS
from repro.obs.metrics import MetricsRegistry
from repro.service.breaker import BreakerState, CircuitBreaker
from repro.service.shard import (
    ShardClient,
    ShardSpec,
    build_shard_plan,
    build_workload,
    cells_request,
    make_slice,
)
from repro.service.supervisor import ShardSupervisor, SupervisorConfig

TIGHT = SupervisorConfig(
    heartbeat_s=0.02,
    ping_timeout_s=30.0,
    backoff_base_ms=10.0,
    backoff_max_ms=100.0,
    storm_window_s=30.0,
    storm_cap=50,
    start_timeout_s=60.0,
    rpc_timeout_s=30.0,
)

#: a ``cells`` request with no blocks: the cheapest request ``shard.exec``
#: guards
NO_BLOCKS = cells_request("SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse", {}, [])


def _running_specs(n_shards: int) -> "list[ShardSpec]":
    """Specs that cut their slices from one running-example warehouse."""
    warehouse = build_workload("running")
    plan = build_shard_plan(warehouse, "Organization", n_shards)
    return [
        ShardSpec(index, partial(make_slice, warehouse, "Organization", tuple(owned)))
        for index, owned in enumerate(plan.shards)
    ]


def _single_shard_spec() -> ShardSpec:
    return _running_specs(1)[0]


def _unopenable(spec: ShardSpec) -> ShardSpec:
    """``spec`` with a slice that cuts fine but lacks a column: the worker
    refuses to open it."""

    def source():
        piece = spec.slice_source()
        return dataclasses.replace(piece, columns=piece.columns[:-1])

    return ShardSpec(spec.shard_index, source)


def _sourceless(spec: ShardSpec) -> ShardSpec:
    """``spec`` with a slice source that raises on the coordinator."""

    def source():
        raise RuntimeError("the warehouse went away")

    return ShardSpec(spec.shard_index, source)


def _wait_for(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture(scope="module")
def spec():
    return _single_shard_spec()


def _two_shard_specs() -> "list[ShardSpec]":
    return _running_specs(2)


@pytest.fixture()
def launched(monkeypatch):
    """Every ShardClient launched during the test, in launch order."""
    clients = []
    launch = ShardClient._launch

    def recording(client, *args):
        launch(client, *args)
        clients.append(client)

    monkeypatch.setattr(ShardClient, "_launch", recording)
    return clients


class TestInitialSpawn:
    def test_every_worker_is_started_before_any_hello_is_awaited(
        self, launched, monkeypatch
    ):
        started_at_await = []
        await_hello = ShardClient._await_hello

        def recording(client):
            started_at_await.append(
                [c.process.pid is not None for c in launched]
            )
            await_hello(client)

        monkeypatch.setattr(ShardClient, "_await_hello", recording)
        with ShardSupervisor(_two_shard_specs(), config=TIGHT) as supervisor:
            assert started_at_await == [[True, True], [True, True]]
            assert supervisor.clients == launched
            for shard in range(2):
                assert supervisor.client(shard).request({"op": "ping"})["ok"]

    @pytest.mark.parametrize("bad_index", [0, 1])
    def test_failed_hello_reaps_every_started_worker(self, launched, bad_index):
        # The bad worker answers its hello with a typed startup error;
        # its sibling is either already serving (awaited first) or still
        # building its slice (never awaited) — both must be reaped.
        specs = _two_shard_specs()
        specs[bad_index] = _unopenable(specs[bad_index])
        with pytest.raises(ShardError, match="slice cannot be opened"):
            ShardSupervisor(specs, config=TIGHT)
        assert len(launched) == 2
        for client in launched:
            assert not client.process.is_alive()
            assert client.process.exitcode is not None
            assert client._conn.closed

    @pytest.mark.parametrize("bad_index", [0, 1])
    def test_failed_slice_source_reaps_every_started_worker(self, launched, bad_index):
        # The coordinator cannot cut the slice: the worker that said
        # *ready* for it, and its sibling, are reaped all the same.
        specs = _two_shard_specs()
        specs[bad_index] = _sourceless(specs[bad_index])
        with pytest.raises(ShardError, match="no slice to hand over") as excinfo:
            ShardSupervisor(specs, config=TIGHT)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert len(launched) == 2
        for client in launched:
            assert not client.process.is_alive()
            assert client.process.exitcode is not None
            assert client._conn.closed


class TestRespawn:
    def test_kill_then_respawn_round_trip(self, spec):
        with ShardSupervisor([spec], config=TIGHT) as supervisor:
            before = supervisor.client(0)
            assert before.request({"op": "ping"})["ok"]
            supervisor.kill(0)
            # The killed client fails fast and the supervisor hands out
            # a typed error until the replacement is up.
            with pytest.raises(ShardDownError):
                supervisor.client(0)
            fresh = supervisor.await_live(0, timeout=30.0)
            assert fresh is not None
            assert fresh is not before
            assert fresh.request({"op": "ping"})["ok"]
            assert supervisor.restarts(0) == 1
            status = supervisor.status()[0]
            assert status["state"] == "live"
            assert status["alive"] is True
            assert status["restarts"] == 1

    def test_shard_down_error_carries_retry_hints(self, spec):
        with ShardSupervisor([spec], config=TIGHT) as supervisor:
            supervisor.kill(0)
            with pytest.raises(ShardDownError) as excinfo:
                supervisor.client(0)
            assert excinfo.value.restarts == 0
            assert excinfo.value.retry_after_s > 0
            assert supervisor.await_live(0, timeout=30.0) is not None

    def test_respawned_worker_rearms_faults_from_env(self, spec, monkeypatch):
        # The first spawn happens with no faults armed; the respawn must
        # pick up the REPRO_FAULTS now in the environment (spawned
        # workers re-arm from os.environ, not from a stale snapshot).
        with ShardSupervisor([spec], config=TIGHT) as supervisor:
            assert supervisor.client(0).request(NO_BLOCKS)["ok"]
            monkeypatch.setenv("REPRO_FAULTS", "shard.exec:always")
            supervisor.kill(0)
            fresh = supervisor.await_live(0, timeout=30.0)
            assert fresh is not None
            with pytest.raises(FaultInjectedError):
                fresh.request(NO_BLOCKS)

    def test_retry_after_is_generic_hint_when_all_live(self, spec):
        with ShardSupervisor([spec], config=TIGHT) as supervisor:
            assert supervisor.retry_after_s() == 1.0
            assert supervisor.retry_after_s(0) == 1.0


class TestStormCap:
    def test_storm_cap_parks_slot_as_failed(self, spec):
        config = SupervisorConfig(
            heartbeat_s=0.01,
            backoff_base_ms=1.0,
            backoff_max_ms=5.0,
            storm_window_s=60.0,
            storm_cap=3,
            start_timeout_s=60.0,
            rpc_timeout_s=30.0,
        )
        supervisor = ShardSupervisor([spec], config=config)
        try:
            # Every respawn attempt dies at the failpoint, so the cap's
            # sliding window fills and the slot parks as "failed".
            FAULTS.fail_with("supervisor.respawn")
            supervisor.kill(0)
            assert _wait_for(
                lambda: supervisor.status()[0]["state"] == "failed"
            )
            status = supervisor.status()[0]
            assert "restart storm" in status["last_error"]
            assert status["next_attempt_in_s"] > 0
            assert supervisor.restarts(0) == 0
            with pytest.raises(ShardDownError):
                supervisor.client(0)
        finally:
            FAULTS.disarm("supervisor.respawn")
            supervisor.close()


class TestBreakerProbes:
    def test_half_open_probe_closes_breaker_via_ping(self, spec):
        metrics = MetricsRegistry()
        breaker = CircuitBreaker(failure_threshold=1, reset_after_ms=10.0)
        supervisor = ShardSupervisor([spec], config=TIGHT, metrics=metrics)
        try:
            supervisor.attach_breakers([breaker])
            breaker.record_failure(ShardError("boom"))
            assert breaker.state is BreakerState.OPEN
            # After the backoff the monitor spends the half-open probe
            # slot on a supervisor ping; the live worker answers and the
            # breaker closes without risking a user query.
            assert _wait_for(lambda: breaker.state is BreakerState.CLOSED)
            assert metrics.value("breaker_probe_total", outcome="ok") >= 1
        finally:
            supervisor.close()

    def test_probe_against_down_shard_reopens_breaker(self, spec):
        metrics = MetricsRegistry()
        breaker = CircuitBreaker(failure_threshold=1, reset_after_ms=10.0)
        config = SupervisorConfig(
            heartbeat_s=0.01,
            backoff_base_ms=200.0,
            backoff_max_ms=500.0,
            start_timeout_s=60.0,
            rpc_timeout_s=30.0,
        )
        supervisor = ShardSupervisor([spec], config=config, metrics=metrics)
        try:
            supervisor.attach_breakers([breaker])
            FAULTS.fail_with("supervisor.respawn")
            supervisor.kill(0)
            breaker.record_failure(ShardError("boom"))
            # With no live worker the probe slot is returned as a
            # failure (outcome="down") and the breaker re-opens.
            assert _wait_for(
                lambda: metrics.value("breaker_probe_total", outcome="down")
                >= 1
            )
            assert breaker.state in (BreakerState.OPEN, BreakerState.HALF_OPEN)
        finally:
            FAULTS.disarm("supervisor.respawn")
            supervisor.close()

    def test_attach_breakers_rejects_wrong_count(self, spec):
        with ShardSupervisor([spec], config=TIGHT) as supervisor:
            with pytest.raises(ShardError):
                supervisor.attach_breakers([CircuitBreaker(), CircuitBreaker()])
