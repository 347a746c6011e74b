"""Integration tests: the observability layer threaded through
``Warehouse.query`` — profiles, metrics, the slow-query log."""

from __future__ import annotations

import pytest

from repro import QueryBudget
from repro.errors import MdxSyntaxError
from repro.faults import FAULTS, inject_io_fault
from repro.obs.metrics import METRICS
from repro.obs.profile import validate_profile
from repro.obs.trace import tracing
from repro.warehouse import Warehouse

QUERY = """
    WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
    SELECT {Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]} ON COLUMNS,
           {[Joe]} ON ROWS
    FROM Warehouse WHERE ([NY], [Salary])
"""


@pytest.fixture
def warehouse(example) -> Warehouse:
    return Warehouse(example.schema, example.cube, name="Warehouse")


class TestQueryProfiles:
    def test_untraced_queries_carry_no_profile(self, warehouse):
        result = warehouse.query(QUERY)
        assert result.profile is None

    def test_traced_queries_carry_a_schema_valid_profile(self, warehouse):
        with tracing():
            result = warehouse.query(QUERY)
        profile = result.profile
        assert profile is not None
        assert profile.total_ms > 0
        assert {"parse", "analyze", "scenario", "axes", "cells", "finalize"} <= set(
            profile.phases
        )
        assert profile.cells_evaluated > 0
        validate_profile(profile.to_dict())

    def test_profile_spans_include_scenario_application(self, warehouse):
        with tracing():
            result = warehouse.query(QUERY)
        spans = result.profile.spans
        names = set()

        def walk(node):
            names.add(node["name"])
            for child in node.get("children", ()):
                walk(child)

        walk(spans)
        assert "mdx.query" in names
        assert "scenario.apply" in names
        assert "scenario_cache.get" in names

    def test_profile_names_the_operator_that_spent_a_cold_query(self, warehouse):
        """ρ / S and the index derivation are spans under
        ``scenario.apply``, Φ — the structure half, run once — one under
        the axes phase; the profile stays schema-valid and the rendering
        lists the operators under the scenario phase."""
        chained = QUERY.replace(
            "WITH PERSPECTIVE",
            "WITH CHANGES {([Lisa], FTE, PTE, Apr)} FOR Organization VISUAL\n"
            "         PERSPECTIVE",
        )
        with tracing():
            result = warehouse.query(chained)
        profile = result.profile
        validate_profile(profile.to_dict())

        applies, phis = [], []

        def walk(node, phase):
            if node["name"] == "scenario.apply":
                applies.append(node)
            if node["name"] == "core.phi":
                phis.append(phase)
            for child in node.get("children", ()):
                walk(child, phase)

        for phase_span in profile.spans["children"]:
            walk(phase_span, phase_span["name"])
        assert phis == ["mdx.axes"]  # once per cold query, before anything moves
        positive, negative = applies
        (split_span,) = positive["children"]
        assert split_span["name"] == "core.split"
        (relocate_span,) = negative["children"]
        assert relocate_span["name"] == "core.relocate"
        for operator in (split_span, relocate_span):
            assert {
                "leaves_in", "footprint_rows", "leaves_out", "moved", "dropped"
            } <= set(operator["attrs"])
            assert operator["children"][-1]["name"] == "rollup_index.derive"
        n_leaves = warehouse.cube.n_leaf_cells
        assert split_span["attrs"]["leaves_in"] == n_leaves
        # the running example carries a rule engine: its cube is read whole
        assert split_span["attrs"]["footprint_rows"] == n_leaves
        assert (
            relocate_span["attrs"]["leaves_in"]
            == relocate_span["attrs"]["footprint_rows"]
            == split_span["attrs"]["leaves_out"]
        )
        assert (
            relocate_span["attrs"]["leaves_out"] + relocate_span["attrs"]["dropped"]
            == relocate_span["attrs"]["footprint_rows"]
        )

        lines = profile.render().splitlines()
        at = next(i for i, line in enumerate(lines) if line.split()[0] == "scenario")
        below = [line.split()[0] for line in lines[at + 1 : at + 7]]
        assert below == [
            "scenario.apply", "core.split", "rollup_index.derive",
            "scenario.apply", "core.relocate", "rollup_index.derive",
        ], "a cold apply derives, never rebuilds"
        assert lines[at - 1].split()[0] == "axes"
        assert lines[at + 7].split()[0] == "cells"

    def test_phase_sum_covers_total_when_warm(self, warehouse):
        """Acceptance: phase timings must sum to within 10% of the total
        wall time.  Warm the warehouse first (the first-ever query pays
        one-time lazy imports between phases), then take the best of a
        few attempts for jitter robustness."""
        warehouse.query(QUERY)  # warm caches and lazy imports
        best = 0.0
        for _ in range(5):
            with tracing():
                profile = warehouse.query(QUERY).profile
            if profile.total_ms == 0:
                continue
            best = max(best, profile.phase_sum_ms / profile.total_ms)
            if best >= 0.9:
                break
        assert best >= 0.9, f"phase sum covers only {best:.0%} of wall time"

    def test_traced_partial_query_records_degradation(self, warehouse):
        with tracing():
            result = warehouse.query(QUERY, budget=QueryBudget(max_cells=1))
        assert result.is_partial
        assert result.profile.degradations
        assert result.profile.degradations[0]["reason"] == "cell-cap"

    def test_tracing_does_not_change_results(self, warehouse):
        plain = warehouse.query(QUERY)
        with tracing():
            traced = warehouse.query(QUERY)
        assert plain.cells == traced.cells


class TestWarehouseMetrics:
    def test_query_counters_and_latency(self, warehouse):
        warehouse.query(QUERY)
        warehouse.query(QUERY)
        snapshot = warehouse.metrics.snapshot()
        assert snapshot["mdx_queries_total{status=ok}"] == 2
        assert snapshot["mdx_query_ms"]["count"] == 2

    def test_partial_queries_counted_separately(self, warehouse):
        warehouse.query(QUERY, budget=QueryBudget(max_cells=1))
        snapshot = warehouse.metrics.snapshot()
        assert snapshot["mdx_queries_total{status=partial}"] == 1

    def test_failed_queries_counted_and_reraised(self, warehouse):
        with pytest.raises(MdxSyntaxError):
            warehouse.query("THIS IS NOT MDX")
        snapshot = warehouse.metrics.snapshot()
        assert snapshot["mdx_queries_total{status=error}"] == 1

    def test_scenario_cache_collector_is_live(self, warehouse):
        warehouse.query(QUERY)
        warehouse.query(QUERY)
        snapshot = warehouse.metrics.snapshot()
        assert snapshot["scenario_cache.misses"] == 1
        assert snapshot["scenario_cache.hits"] == 1

    def test_rollup_index_collector_never_forces_a_build(self, warehouse):
        index = warehouse.cube.rollup_index()
        assert index.stats.builds == 1, "the bulk load's one column build"
        assert warehouse.metrics.snapshot()["rollup_index.builds"] == 1
        assert warehouse.cube.rollup_index() is index and index.stats.builds == 1

    def test_rollup_index_collector_sees_snapshot_traffic(self, warehouse):
        """The service only queries snapshots; their forked indexes share
        the live index's counters, so the collector reports what they did
        — and that the index was built once, not once per snapshot.  The
        first cycle is cold; each later snapshot carries the previous
        one's memo and recomputes only the cell whose scope holds the
        written leaf."""
        from repro.service import QueryService

        query = (
            "SELECT {Time.[Jan], Time.[Feb]} ON COLUMNS, {[FTE], [PTE]} ON ROWS "
            "FROM Warehouse WHERE ([NY], [Salary])"
        )
        addr, value = next(iter(warehouse.cube.leaf_cells()))
        with QueryService(warehouse, workers=2) as service:
            for cycle in range(3):
                warehouse.cube.set_value(addr, value + cycle)
                service.submit(query).result(timeout=30.0)
        snapshot = warehouse.metrics.snapshot()
        assert snapshot["rollup_index.builds"] == 1
        assert addr[1:] == ("NY", "Jan", "Salary") and "/FTE/" in addr[0]
        assert snapshot["rollup_index.misses"] == 4 + 2 * 1  # (FTE, Jan) again
        assert snapshot["rollup_index.hits"] == 2 * 3

    def test_faults_fired_counter_on_global_registry(self):
        counter = METRICS.counter("faults_fired_total", failpoint="chunk.read")
        before = counter.sample()
        FAULTS.fail_after("chunk.read", 1)
        with pytest.raises(Exception):
            inject_io_fault("chunk.read")
        assert counter.sample() == before + 1


class TestSlowQueryLog:
    def test_zero_threshold_records_every_query(self, warehouse):
        warehouse.slow_log.threshold_ms = 0.0
        warehouse.query(QUERY)
        entries = warehouse.slow_log.entries()
        assert len(entries) == 1
        assert "WITH PERSPECTIVE" in entries[0].query
        assert entries[0].stats.get("cells_evaluated", 0) > 0
        assert not entries[0].partial

    def test_partial_flag_is_logged(self, warehouse):
        warehouse.slow_log.threshold_ms = 0.0
        warehouse.query(QUERY, budget=QueryBudget(max_cells=1))
        assert warehouse.slow_log.entries()[-1].partial

    def test_failed_queries_are_logged_with_the_error(self, warehouse):
        warehouse.slow_log.threshold_ms = 0.0
        with pytest.raises(MdxSyntaxError):
            warehouse.query("THIS IS NOT MDX")
        entry = warehouse.slow_log.entries()[-1]
        assert entry.error is not None
        assert "MdxSyntaxError" in entry.error

    def test_default_threshold_ignores_fast_queries(self, warehouse):
        warehouse.query(QUERY)  # default 100ms threshold
        assert warehouse.slow_log.observed == 1
        assert len(warehouse.slow_log) == 0
