"""Chaos proof: shard kills at decisive moments, hedging, and the storm.

The invariant under every kill schedule: a non-partial answer is
bit-identical to the single-process evaluator, failures surface as typed
errors or honest ⊥ cells (never hangs, never wrong numbers), and the
pool heals — a post-chaos ``degrade="fail"`` replay answers again.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro.errors import FaultInjectedError, ShardDownError, ShardError
from repro.faults import FAULTS
from repro.olap.missing import is_missing
from repro.service import ShardedQueryService, SupervisorConfig
from repro.service.shard import ShardClient
from repro.service.stress import ShardStormConfig, run_shard_storm
from tests.service.test_supervisor import (
    _single_shard_spec,
    _sourceless,
    _unopenable,
    _wait_for,
)

#: every member's row at East, above any leaf: each shard owns its
#: members' cells, and the categories' cells are the coordinator's
OWNED = (
    "SELECT {Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]} ON COLUMNS, "
    "{[Organization].Members} ON ROWS "
    "FROM Warehouse WHERE ([East], [Salary])"
)

FAST_RESPAWN = SupervisorConfig(
    heartbeat_s=0.02,
    backoff_base_ms=20.0,
    backoff_max_ms=200.0,
    storm_window_s=10.0,
    storm_cap=100,
    start_timeout_s=60.0,
    rpc_timeout_s=30.0,
)

SLOW_RESPAWN = SupervisorConfig(
    heartbeat_s=0.02,
    backoff_base_ms=20_000.0,
    backoff_max_ms=20_000.0,
    start_timeout_s=60.0,
    rpc_timeout_s=30.0,
)


class TestKillBeforeScatter:
    def test_policies_when_a_shard_is_down_at_admission(self):
        # Slow respawn pins the shard down for the whole test: each
        # policy sees the same dead-shard world.
        service = ShardedQueryService(
            "running",
            n_shards=2,
            supervisor_config=SLOW_RESPAWN,
            rpc_timeout_ms=5_000.0,
        )
        try:
            expected = service.warehouse.query(OWNED)
            service.supervisor.kill(0)
            _wait_for(lambda: service.supervisor.status()[0]["state"] != "live")

            with pytest.raises(ShardDownError):
                service.execute(OWNED, degrade="fail")

            fallback = service.execute(OWNED, degrade="fallback")
            assert repr(fallback.cells) == repr(expected.cells)
            assert not fallback.degradations
            assert fallback.stats["fallback_cells"] > 0

            partial = service.execute(OWNED, degrade="partial")
            assert partial.is_partial
            assert all(
                d.reason == "shard-down" for d in partial.degradations
            )
            # Lost cells render ⊥; the reference has natural ⊥ cells too,
            # so only real-became-⊥ cells prove degradation.
            degraded_bottoms = sum(
                1
                for r, row in enumerate(partial.cells)
                for c, v in enumerate(row)
                if is_missing(v) and not is_missing(expected.cells[r][c])
            )
            skipped = sum(d.cells_skipped for d in partial.degradations)
            assert 0 < degraded_bottoms <= skipped
            # Cells the dead shard did not own are still exact.
            for r, row in enumerate(partial.cells):
                for c, value in enumerate(row):
                    if not is_missing(value):
                        assert repr(value) == repr(expected.cells[r][c])
        finally:
            service.close()


class TestKillDuringGather:
    def test_respawn_retry_answers_bit_identically_under_fail_policy(self):
        service = ShardedQueryService(
            "running",
            n_shards=2,
            supervisor_config=FAST_RESPAWN,
            rpc_timeout_ms=30_000.0,
        )
        try:
            expected = service.warehouse.query(OWNED)
            # Wedge shard 0: the query's RPC queues behind the sleep,
            # then the kill lands mid-gather.
            service.supervisor.client(0).submit({"op": "sleep", "seconds": 3})
            killer = threading.Timer(
                0.3, lambda: service.supervisor.kill(0)
            )
            killer.start()
            try:
                result = service.execute(OWNED, degrade="fail")
            finally:
                killer.cancel()
            assert repr(result.cells) == repr(expected.cells)
            assert not result.degradations
            assert (
                service.warehouse.metrics.value(
                    "serve_shard_retries_total", shard="0", kind="respawn"
                )
                >= 1
            )
        finally:
            service.close()


class TestHedging:
    def test_slow_shard_hedges_to_local_bit_identical(self):
        service = ShardedQueryService(
            "running",
            n_shards=2,
            supervisor_config=FAST_RESPAWN,
            rpc_timeout_ms=30_000.0,
            hedge_ms=100.0,
        )
        try:
            expected = service.warehouse.query(OWNED)
            # Alive but slow: the worker sleeps past the hedge threshold.
            service.supervisor.client(0).submit({"op": "sleep", "seconds": 3})
            started = time.monotonic()
            result = service.execute(OWNED)  # default fallback policy
            elapsed = time.monotonic() - started
            assert repr(result.cells) == repr(expected.cells)
            assert not result.degradations
            assert elapsed < 2.0  # hedged, did not ride out the sleep
            assert (
                service.warehouse.metrics.value(
                    "serve_hedge_total", shard="0"
                )
                >= 1
            )
        finally:
            service.close()


class TestScatterGatherFaultpoints:
    def test_transient_scatter_fault_retries_in_place(self):
        service = ShardedQueryService(
            "running", n_shards=2, supervisor_config=FAST_RESPAWN
        )
        try:
            expected = service.warehouse.query(OWNED)
            FAULTS.fail_transient("serve.scatter", times=1)
            result = service.execute(OWNED, degrade="fail")
            assert repr(result.cells) == repr(expected.cells)
            retries = sum(
                service.warehouse.metrics.value(
                    "serve_shard_retries_total", shard=str(s), kind="transient"
                )
                for s in range(2)
            )
            assert retries >= 1
        finally:
            FAULTS.disarm("serve.scatter")
            service.close()

    def test_transient_gather_fault_regathers_same_pending(self):
        service = ShardedQueryService(
            "running", n_shards=2, supervisor_config=FAST_RESPAWN
        )
        try:
            expected = service.warehouse.query(OWNED)
            FAULTS.fail_transient("serve.gather", times=1)
            result = service.execute(OWNED, degrade="fail")
            assert repr(result.cells) == repr(expected.cells)
        finally:
            FAULTS.disarm("serve.gather")
            service.close()


class TestShardClientStartupFailures:
    def test_start_timeout_raises_typed_error_and_reaps_worker(self):
        spec = _single_shard_spec()
        with pytest.raises(ShardError, match="did not start"):
            ShardClient(spec, start_timeout=0.001)

    def test_unopenable_slice_fails_the_hello(self):
        spec = _unopenable(_single_shard_spec())
        with pytest.raises(ShardError, match="slice cannot be opened"):
            ShardClient(spec, start_timeout=60.0)

    def test_failing_slice_source_reaps(self, monkeypatch):
        reaped = []
        abort = ShardClient._abort_start

        def recording(client):
            abort(client)
            reaped.append(client.process)

        monkeypatch.setattr(ShardClient, "_abort_start", recording)
        with pytest.raises(ShardError, match="no slice to hand over"):
            ShardClient(_sourceless(_single_shard_spec()), start_timeout=60.0)
        assert [process.is_alive() for process in reaped] == [False]

    def test_not_ready_is_never_sent_a_slice(self, monkeypatch):
        # A slice is megabytes and a pipe buffer 64 KB: sending to a child
        # that is not in ``recv`` would block the coordinator past any
        # deadline.  The ``shard.start`` failpoint stops the worker before
        # *ready* (deterministically, through the environment it re-arms
        # from) — the coordinator must surface that, not cut or send.
        cut = []
        spec = _single_shard_spec()
        counting = dataclasses.replace(
            spec, slice_source=lambda: cut.append(1) or spec.slice_source()
        )
        monkeypatch.setenv("REPRO_FAULTS", "shard.start:always")
        with pytest.raises(FaultInjectedError, match="shard.start"):
            ShardClient(counting, start_timeout=60.0)
        assert cut == []

    def test_gather_on_killed_shard_raises_instead_of_hanging(self):
        client = ShardClient(_single_shard_spec(), start_timeout=60.0)
        try:
            pending = client.submit({"op": "sleep", "seconds": 30})
            client.kill()
            started = time.monotonic()
            with pytest.raises(ShardError):
                client.gather(pending, timeout=30.0)
            assert time.monotonic() - started < 10.0
            # Subsequent submits fail fast, never touching the dead pipe.
            with pytest.raises(ShardError):
                client.submit({"op": "ping"})
        finally:
            client.close()

    def test_close_is_safe_after_worker_exit(self):
        client = ShardClient(_single_shard_spec(), start_timeout=60.0)
        client.process.kill()
        client.process.join(10.0)
        client.close()
        client.close()  # idempotent
        assert not client.process.is_alive()

    def test_close_of_a_wedged_worker_costs_one_timeout(self):
        client = ShardClient(_single_shard_spec(), start_timeout=60.0)
        client.submit({"op": "sleep", "seconds": 30})
        started = time.monotonic()
        client.close(timeout=1.0)
        assert time.monotonic() - started < 3.0
        assert client.down()
        assert not client.process.is_alive()


class TestStorm:
    def test_smoke_storm_holds_every_invariant(self):
        report = run_shard_storm(ShardStormConfig.smoke(seed=7))
        assert report.kills >= 1
        assert report.queries > 0
        assert report.mismatches == [], report.to_dict()
        assert report.violations == [], report.to_dict()
        assert report.recovered, report.to_dict()
        assert report.passed
