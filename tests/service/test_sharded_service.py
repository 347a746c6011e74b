"""ShardedQueryService: bit-identical scatter-gather, breakers, fallbacks.

These tests spawn real shard processes (multiprocessing ``spawn``), so
the expensive services are module-scoped and shared across tests.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import (
    CircuitOpenError,
    FaultInjectedError,
    MdxAnalysisError,
    ReproError,
    ServiceStoppedError,
    ShardError,
)
from repro.mdx.budget import QueryBudget
from repro.service import BreakerState, CircuitBreaker, ShardedQueryService
from repro.service.stress import STRESS_QUERIES
from repro.workload.workforce import MONTHS, build_workforce

RUNNING_QUERIES = STRESS_QUERIES + (
    # category rollup rows: local cells (no single shard owns [FTE])
    """
    SELECT {Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]} ON COLUMNS,
           {[FTE], [PTE], [Contractor]} ON ROWS
    FROM Warehouse WHERE ([NY], [Salary])
    """,
    # NON EMPTY pruning must match the single-process evaluator
    """
    SELECT NON EMPTY {Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]}
           ON COLUMNS,
           NON EMPTY {[Organization].Members} ON ROWS
    FROM Warehouse WHERE ([NY], [Salary])
    """,
)


@pytest.fixture(scope="module")
def running_service():
    with ShardedQueryService("running", n_shards=2) as service:
        yield service


@pytest.fixture(scope="module")
def workforce_service():
    with ShardedQueryService("workforce", n_shards=3) as service:
        yield service


class TestRunningExampleParity:
    @pytest.mark.parametrize("index", range(len(RUNNING_QUERIES)))
    def test_grid_matches_single_process(self, running_service, index):
        text = RUNNING_QUERIES[index]
        local = running_service.warehouse.query(text)
        sharded = running_service.execute(text)
        assert sharded.columns == local.columns
        assert sharded.rows == local.rows
        assert repr(sharded.cells) == repr(local.cells)

    def test_stats_mark_sharded_execution(self, running_service):
        result = running_service.execute(RUNNING_QUERIES[0])
        assert result.stats["sharded"] == 2
        assert (
            result.stats["owned_cells"] + result.stats["local_cells"]
            == result.stats["cells_evaluated"]
        )

    def test_budget_falls_back_to_local(self, running_service):
        result = running_service.execute(
            RUNNING_QUERIES[0], budget=QueryBudget(max_cells=10_000)
        )
        assert "sharded" not in result.stats  # full local evaluation

    def test_analyze_rejects_bad_member(self, running_service):
        with pytest.raises(MdxAnalysisError):
            running_service.execute(
                "SELECT {Time.[Jan]} ON COLUMNS, {[Nobody]} ON ROWS "
                "FROM Warehouse"
            )

    def test_health_reports_live_shards(self, running_service):
        health = running_service.health()
        assert health["status"] == "ok"
        assert health["dimension"] == "Organization"
        assert [s["alive"] for s in health["shards"]] == [True, True]

    def test_default_pool_puts_members_on_every_shard(self, running_service):
        # (Joe, Lisa | Sue, Tom, Dave, Jane): 4 instances a shard
        health = running_service.health()
        assert [s["members"] for s in health["shards"]] == [2, 4]


def _fallbacks(service) -> float:
    return service.warehouse.metrics.snapshot().get(
        "serve_local_fallback_total{reason=value-dependent-set}", 0
    )


class TestParseCache:
    def test_the_plan_stores_the_reads_cell_values_verdict(self):
        """Whether a query's sets read cell values is what resolving found
        — a FILTER / ORDER anywhere, a WITH SET included — and the
        prepared plan keeps it, so a warm query never resolves to learn."""
        from repro.mdx.evaluator import prepare
        from repro.warehouse import Warehouse
        from repro.workload import build_running_example

        example = build_running_example()
        warehouse = Warehouse(example.schema, example.cube, name="Warehouse")
        plain = "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse"
        filtered = (
            "SELECT {Time.[Jan]} ON COLUMNS, "
            "Filter({[Joe], [Lisa]}, [Salary] > 5) ON ROWS FROM Warehouse"
        )
        in_a_set = (
            "WITH SET S AS Order({[Joe], [Lisa]}, ([Salary]), DESC) "
            "SELECT {Time.[Jan]} ON COLUMNS, {S} ON ROWS FROM Warehouse"
        )
        sliced = plain + " WHERE ([NY])"
        texts = (plain, filtered, in_a_set, sliced)
        verdicts = [prepare(warehouse, t).resolve().reads_cells for t in texts]
        assert verdicts == [False, True, True, False]
        assert [prepare(warehouse, t).reads_cells for t in texts] == verdicts
        assert prepare(warehouse, plain).plan is prepare(warehouse, plain).plan
        # a client sending a never-seen text per request cannot grow it
        for padding in range(300):
            prepare(warehouse, plain + " " * padding)
        assert len(warehouse.plan_cache) == 256

    def test_value_dependent_sets_are_answered_locally(self, running_service):
        text = (
            "SELECT {Time.[Jan]} ON COLUMNS, "
            "Filter({[Lisa], [Tom]}, ([Salary], [NY], Time.[Jan]) > 5) ON ROWS "
            "FROM Warehouse WHERE ([NY], [Salary])"
        )
        result = running_service.execute(text)
        assert "sharded" not in result.stats
        assert repr(result.cells) == repr(
            running_service.warehouse.query(text).cells
        )

    def test_a_filter_inside_with_set_is_answered_locally(self, workforce_service):
        """A FILTER in a WITH SET reads cell values as one inline does:
        the coordinator answers it in process, and says so."""
        text = (
            "WITH SET S AS Filter({Department.Children}, ([Acct000]) > 0) "
            "SELECT {Period.Children} ON COLUMNS, {S} ON ROWS FROM [App].[Db] "
            "WHERE ([Current])"
        )
        for _ in range(2):  # cold, then from the plan
            before = _fallbacks(workforce_service)
            result = workforce_service.execute(text)
            assert "sharded" not in result.stats
            assert _fallbacks(workforce_service) == before + 1
            assert repr(result.cells) == repr(
                workforce_service.warehouse.query(text).cells
            )


class TestWorkforceParity:
    def test_grids_match_across_cell_classes(self, workforce_service):
        workforce = build_workforce()
        employee = workforce.changing_employees[0]
        account = workforce.accounts[0]
        months = ", ".join(f"Period.[{m}]" for m in MONTHS)
        queries = (
            # local: department + root rollups cross shard boundaries
            f"SELECT {{{months}}} ON COLUMNS, {{[Department]}} ON ROWS "
            f"FROM [App].[Db]",
            # owned: one member's instances live on exactly one shard
            f"SELECT {{{months}}} ON COLUMNS, {{[{employee}]}} ON ROWS "
            f"FROM [Db] WHERE ([{account}], [Current])",
            # owned under a scenario: shard-local perspective apply
            f"WITH PERSPECTIVE {{(Jan), (Apr), (Jul), (Oct)}} FOR Department "
            f"DYNAMIC FORWARD VISUAL "
            f"SELECT {{{months}}} ON COLUMNS, {{[{employee}]}} ON ROWS "
            f"FROM [App].[Db]",
            # scenario cells above any member: coordinator-local residue
            f"WITH PERSPECTIVE {{(Jan), (Jul)}} FOR Department STATIC "
            f"SELECT {{{months}}} ON COLUMNS, {{[Department].Children}} "
            f"ON ROWS FROM [Db]",
            # named sets resolve on the coordinator as they do in-process
            f"SELECT {{{months}}} ON COLUMNS, "
            f"{{EmployeesWithAtleastOneMove-Set1}} ON ROWS FROM [Db]",
        )
        local = workforce.warehouse
        for text in queries:
            expected = local.query(text)
            got = workforce_service.execute(text)
            assert got.columns == expected.columns, text[:60]
            assert got.rows == expected.rows, text[:60]
            assert repr(got.cells) == repr(expected.cells), text[:60]

    def test_plan_partitions_every_member(self, workforce_service):
        plan = workforce_service.plan
        owned = [m for shard in plan.shards for m in shard]
        assert len(owned) == len(set(owned))
        dim = workforce_service.warehouse.schema.dimension("Department")
        for member in dim.leaf_members():
            assert member.name in plan.member_shard


class TestFailureHandling:
    def test_worker_faults_trip_breaker_then_fail_fast(self):
        # Workers arm failpoints from REPRO_FAULTS at spawn; "ping" is
        # exempt so startup succeeds, then every shard request fails.
        previous = os.environ.get("REPRO_FAULTS")
        os.environ["REPRO_FAULTS"] = "shard.exec:always"
        try:
            service = ShardedQueryService("running", n_shards=2)
        finally:
            if previous is None:
                del os.environ["REPRO_FAULTS"]
            else:
                os.environ["REPRO_FAULTS"] = previous
        try:
            # one owned cell per shard (East is above any leaf)
            owned = (
                "SELECT {Time.[Jan]} ON COLUMNS, {[Lisa], [Tom]} ON ROWS "
                "FROM Warehouse WHERE ([East], [Salary])"
            )
            for _ in range(service.breakers[0].failure_threshold):
                with pytest.raises(FaultInjectedError):
                    service.execute(owned)
            assert service.breakers[0].state is BreakerState.OPEN
            with pytest.raises(CircuitOpenError):
                service.execute(owned, degrade="fail")
            assert service.health()["shards"][0]["breaker"] == "open"
            # The default fallback policy routes around the open breaker
            # and still answers bit-identically from the coordinator.
            fallback = service.execute(owned)
            expected = service.warehouse.query(owned)
            assert repr(fallback.cells) == repr(expected.cells)
            assert not fallback.degradations
        finally:
            service.close()

    def test_execute_after_close_raises_typed_error(self):
        service = ShardedQueryService("running", n_shards=1)
        service.close()
        with pytest.raises(ServiceStoppedError):
            service.execute(RUNNING_QUERIES[0])

    def test_rejects_zero_shards(self):
        with pytest.raises(ShardError):
            ShardedQueryService("running", n_shards=0)

    def test_rejects_more_shards_than_members(self):
        # the running example's Organization has six leaf members
        with pytest.raises(ShardError, match="a shard would own nothing"):
            ShardedQueryService("running", n_shards=7)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


#: Lisa is owned by shard 0; FTE and the root are the coordinator's
ONE_OWNED_TWO_LOCAL = (
    "SELECT {Time.[Jan]} ON COLUMNS, {[Lisa], [FTE], [Organization]} ON ROWS "
    "FROM Warehouse WHERE ([East], [Salary])"
)
FILTERED = (
    "SELECT {Time.[Jan]} ON COLUMNS, "
    "Filter({[Lisa], [Tom]}, ([Salary], [NY], Time.[Jan]) > 5) ON ROWS "
    "FROM Warehouse WHERE ([NY], [Salary])"
)


def _outcome(run):
    """A query's result, or the type of the error it ended with."""
    try:
        return run()
    except ReproError as exc:
        return type(exc)


class TestOneService:
    """Run last in this module: a write leaves the pool stale (restored,
    so stale but equal)."""

    def test_the_residue_reads_the_version_the_query_was_admitted_at(
        self, running_service, monkeypatch
    ):
        service = running_service
        cube = service.warehouse.cube
        leaf = cube.schema.address(
            Organization="Organization/FTE/Lisa", Location="NY", Time="Jan", Measures="Salary"
        )
        original = cube.value(leaf)
        admitted = service.warehouse.query(ONE_OWNED_TWO_LOCAL)
        fill_local = service._fill_local

        def write_then_fill(*args, **kwargs):
            # the shards have answered; the residue is not filled yet
            cube.set_value(leaf, original + 1.0)
            return fill_local(*args, **kwargs)

        monkeypatch.setattr(service, "_fill_local", write_then_fill)
        try:
            got = service.execute(ONE_OWNED_TWO_LOCAL, degrade="fail")
        finally:
            monkeypatch.undo()
            cube.set_value(leaf, original)
        assert (got.stats["owned_cells"], got.stats["local_cells"]) == (1, 2)
        assert repr(got.cells[0]) == repr(admitted.cells[0])  # the shards' data
        assert repr(got.cells[1:]) == repr(admitted.cells[1:])  # the admitted version

    def test_a_local_fallback_honours_deadline_ms(self, running_service):
        expected = _outcome(
            lambda: running_service.warehouse.query(
                FILTERED, budget=QueryBudget(deadline_ms=0)
            )
        )
        got = _outcome(lambda: running_service.execute(FILTERED, deadline_ms=0))
        if isinstance(expected, type):
            assert got is expected
        else:
            assert got.degradations == expected.degradations

    def test_a_probe_that_only_asks_the_shards_gives_its_slot_back(
        self, running_service
    ):
        service = running_service
        clock = FakeClock()
        original, shard_breakers = service.breaker, list(service.breakers)
        service.breaker = CircuitBreaker(failure_threshold=1, reset_after_ms=100.0, clock=clock)
        try:
            service.breaker.record_failure(FaultInjectedError("boom"))
            clock.now += 0.1  # half-open: one probe at a time
            for _ in range(service.breakers[0].failure_threshold):
                service.breakers[0].record_failure(ShardError("boom"))
            owned = "SELECT {Time.[Jan]} ON COLUMNS, {[Lisa]} ON ROWS FROM Warehouse"
            # the probe: shard 0's own breaker refuses it, nothing is learnt
            with pytest.raises(CircuitOpenError):
                service.execute(owned, degrade="fail")
            assert service.breaker.state is BreakerState.HALF_OPEN
            # the slot is free again: the next probe runs and closes it
            assert service.execute(owned).cells
            assert service.breaker.state is BreakerState.CLOSED
        finally:
            service.breaker = original
            service.breakers[:] = [CircuitBreaker() for _ in shard_breakers]
            for fresh, old in zip(service.breakers, shard_breakers):
                fresh.on_state_change = old.on_state_change
