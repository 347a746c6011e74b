"""Budget-degradation parity: batched vs naive evaluation must degrade
at exactly the same cell, even when a wall-clock deadline trips mid-row.

A deadline checked once per row would cut the naive grid mid-row but the
batched grid only at the next row boundary.  Both paths charge the
budget per cell; these tests pin that contract with an injectable
deterministic clock (``QueryBudget.clock``)."""

from __future__ import annotations

import pytest

from repro.mdx.budget import BudgetTracker, QueryBudget
from repro.perf.config import naive_mode
from repro.warehouse import Warehouse

from .test_engine_equivalence import TWINS, _twin

# 4 columns x employee-instance rows; no WITH clause so the scenario
# cache cannot blur the two modes' clock-call sequences.
GRID_QUERY = """
    SELECT {Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]} ON COLUMNS,
           {[Joe], [Lisa]} ON ROWS
    FROM Warehouse WHERE ([NY], [Salary])
"""


class SteppingClock:
    """Monotonic fake clock: every read advances time by ``step_s``."""

    def __init__(self, step_s: float = 0.001) -> None:
        self.now = 0.0
        self.step = step_s
        self.reads = 0

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        self.reads += 1
        return value


def _run(example, deadline_ms: float, naive: bool):
    warehouse = Warehouse(example.schema, example.cube, name="Warehouse")
    budget = QueryBudget(deadline_ms=deadline_ms, clock=SteppingClock())
    if naive:
        with naive_mode():
            return warehouse.query(GRID_QUERY, budget=budget)
    return warehouse.query(GRID_QUERY, budget=budget)


class TestTrackerClockInjection:
    def test_budget_clock_reaches_the_tracker(self):
        clock = SteppingClock(step_s=0.01)  # 10ms per read
        tracker = BudgetTracker(QueryBudget(deadline_ms=25.0, clock=clock))
        assert tracker.charge_cell() is True  # elapsed 10ms
        assert tracker.charge_cell() is True  # elapsed 20ms
        assert tracker.charge_cell() is False  # elapsed 30ms >= 25ms
        assert tracker.breached == "deadline"

    def test_explicit_clock_argument_wins(self):
        budget_clock = SteppingClock(step_s=100.0)
        override = SteppingClock(step_s=0.0)
        tracker = BudgetTracker(
            QueryBudget(deadline_ms=1.0, clock=budget_clock), clock=override
        )
        assert tracker.charge_cell() is True  # override never advances
        assert budget_clock.reads == 0


class TestMidRowDeadlineParity:
    @pytest.mark.parametrize("deadline_ms", [1.5, 2.5, 3.5, 5.5, 9.5])
    def test_batched_and_naive_degrade_at_the_same_cell(
        self, example, deadline_ms
    ):
        engine = _run(example, deadline_ms, naive=False)
        naive = _run(example, deadline_ms, naive=True)
        assert engine.cells == naive.cells  # identical ⊥ pattern
        assert engine.stats.get("cells_evaluated") == naive.stats.get(
            "cells_evaluated"
        )
        assert engine.stats.get("cells_skipped") == naive.stats.get(
            "cells_skipped"
        )
        assert [d.to_dict() for d in engine.degradations] == [
            d.to_dict() for d in naive.degradations
        ]

    def test_deadline_trips_mid_row(self, example):
        """The regression case: the breach lands inside a row, not at a
        row boundary — charge-per-row batching would round it up."""
        engine = _run(example, 2.5, naive=False)
        naive = _run(example, 2.5, naive=True)
        for result in (engine, naive):
            assert result.is_partial
            assert result.degradations[0].reason == "deadline"
            evaluated = result.stats["cells_evaluated"]
            assert evaluated == 2  # 1ms per charge, breach at 2.5ms
            assert evaluated % len(result.columns) != 0  # mid-row
            assert result.stats["cells_skipped"] > 0


class TestNarrowed:
    """``QueryBudget.narrowed`` — the query service's deadline propagation."""

    def test_none_cap_returns_self(self):
        budget = QueryBudget(deadline_ms=100.0, max_cells=5)
        assert budget.narrowed(None) is budget

    def test_caps_a_looser_deadline(self):
        budget = QueryBudget(deadline_ms=100.0, max_cells=5)
        narrowed = budget.narrowed(60.0)
        assert narrowed.deadline_ms == 60.0
        assert narrowed.max_cells == 5  # non-deadline limits survive

    def test_keeps_a_tighter_existing_deadline(self):
        budget = QueryBudget(deadline_ms=30.0)
        assert budget.narrowed(60.0) is budget

    def test_adds_a_deadline_to_an_unlimited_budget(self):
        narrowed = QueryBudget().narrowed(40.0)
        assert narrowed.deadline_ms == 40.0

    def test_negative_cap_clamps_to_zero(self):
        narrowed = QueryBudget().narrowed(-5.0)
        assert narrowed.deadline_ms == 0.0
        tracker = BudgetTracker(narrowed)
        assert not tracker.charge_cell()  # degrades immediately
        assert tracker.breached == "deadline"

    def test_nan_is_refused_not_propagated(self):
        """``nan < 0`` is false and ``max(nan, 0.0)`` is nan: both used to
        let a NaN deadline through to every wait that reads it."""
        nan = float("nan")
        with pytest.raises(ValueError, match="deadline_ms"):
            QueryBudget(deadline_ms=nan)
        with pytest.raises(ValueError, match="deadline_ms"):
            QueryBudget(deadline_ms=100.0).narrowed(nan)
        with pytest.raises(ValueError, match="deadline_ms"):
            QueryBudget().narrowed(nan)

    def test_preserves_the_injected_clock(self):
        ticks = [0.0]
        budget = QueryBudget(deadline_ms=1000.0, clock=lambda: ticks[0])
        narrowed = budget.narrowed(500.0)
        tracker = BudgetTracker(narrowed)
        assert tracker.charge_cell()
        ticks[0] = 0.6  # 600ms on the injected clock
        assert not tracker.charge_cell()
        assert tracker.breached == "deadline"


# Leaf and derived cells in one row, columns in two interleaved groups
# (Time and Location): the block read, the rules and the per-row charge
# all meet in one row.
MIXED_QUERY = """
    SELECT {Time.[Jan], [MA], Time.[Qtr1], Time.[Feb], [East]} ON COLUMNS,
           {[Joe], [FTE], [Lisa]} ON ROWS
    FROM Warehouse WHERE ([NY], [Salary])
"""


class TestMixedGridParity:
    @pytest.mark.parametrize("deadline_ms", [0.5, 1.5, 2.5, 4.5, 7.5, 12.5, 19.5, 24.5, 99.0])
    def test_deadline_gives_the_same_pattern_counts_and_clock_reads(
        self, example, deadline_ms
    ):
        runs = []
        for naive in (False, True):
            warehouse = Warehouse(example.schema, example.cube, name="Warehouse")
            clock = SteppingClock()
            budget = QueryBudget(deadline_ms=deadline_ms, clock=clock)
            if naive:
                with naive_mode():
                    result = warehouse.query(MIXED_QUERY, budget=budget)
            else:
                result = warehouse.query(MIXED_QUERY, budget=budget)
            runs.append(
                (
                    repr(result.cells),
                    result.stats["cells_evaluated"],
                    result.stats["cells_skipped"],
                    [d.to_dict() for d in result.degradations],
                    clock.reads,
                )
            )
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("kind", TWINS)
    @pytest.mark.parametrize("deadline_ms", [0.5, 1.5, 2.5, 4.5, 7.5, 12.5, 19.5, 24.5, 99.0])
    def test_a_twin_gives_the_same_pattern_counts_and_clock_reads(self, kind, deadline_ms):
        runs = []
        for naive in (False, True):
            warehouse = _twin(kind)
            clock = SteppingClock()
            budget = QueryBudget(deadline_ms=deadline_ms, clock=clock)
            if naive:
                with naive_mode():
                    result = warehouse.query(MIXED_QUERY, budget=budget)
            else:
                result = warehouse.query(MIXED_QUERY, budget=budget)
            runs.append(
                (
                    repr(result.cells),
                    result.stats["cells_evaluated"],
                    result.stats["cells_skipped"],
                    [d.to_dict() for d in result.degradations],
                    clock.reads,
                )
            )
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("kind", TWINS)
    def test_a_deadline_lands_mid_row_on_a_twin(self, kind):
        budget = QueryBudget(deadline_ms=7.5, clock=SteppingClock())
        result = _twin(kind).query(MIXED_QUERY, budget=budget)
        assert result.stats["cells_evaluated"] == 7
        assert result.stats["cells_evaluated"] % len(result.columns) != 0
        assert result.degradations[0].reason == "deadline"

    def test_a_deadline_lands_mid_row(self, example):
        warehouse = Warehouse(example.schema, example.cube, name="Warehouse")
        budget = QueryBudget(deadline_ms=7.5, clock=SteppingClock())
        result = warehouse.query(MIXED_QUERY, budget=budget)
        assert result.stats["cells_evaluated"] == 7
        assert result.stats["cells_evaluated"] % len(result.columns) != 0
        assert result.degradations[0].reason == "deadline"
