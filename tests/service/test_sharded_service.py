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
    ServiceStoppedError,
    ShardError,
)
from repro.mdx.budget import QueryBudget
from repro.service import BreakerState, ShardedQueryService
from repro.service.shard import parse_for_serving
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


class TestParseCache:
    def test_bounded_and_stores_the_reads_cell_values_verdict(self):
        parse_for_serving.cache_clear()
        plain = "SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse"
        filtered = (
            "SELECT {Time.[Jan]} ON COLUMNS, "
            "Filter({[Joe], [Lisa]}, [Salary] > 5) ON ROWS FROM Warehouse"
        )
        sliced = plain + " WHERE ([NY])"
        assert [parse_for_serving(t)[1] for t in (plain, filtered, sliced)] == [
            False,
            True,
            False,
        ]
        assert parse_for_serving(filtered) is parse_for_serving(filtered)
        # a client sending a never-seen text per request cannot grow it
        for padding in range(600):
            parse_for_serving(plain + " " * padding)
        assert parse_for_serving.cache_info().currsize <= 256

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
