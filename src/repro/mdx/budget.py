"""Query budgets: wall-clock deadlines and cell-evaluation caps.

A :class:`QueryBudget` bounds how much work one query may do.  Budgets
degrade rather than fail: when the cell-fill loop breaches the budget, the
remaining cells are returned as ⊥ and the result carries a structured
:class:`Degradation` record (``result.degradations``) saying what was cut
and why.  Only the *axis resolution* phase — where there is no meaningful
partial answer — raises :class:`~repro.errors.QueryBudgetExceededError`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import QueryBudgetExceededError, QueryError

__all__ = ["BudgetTracker", "Degradation", "QueryBudget", "check_deadline_ms"]


def check_deadline_ms(deadline_ms: Any) -> "float | None":
    """A ``deadline_ms`` that arrived from outside the program (an HTTP
    body, a service caller) as a float — or :class:`~repro.errors.QueryError`
    unless it is a finite, non-boolean number.

    NaN in particular must never reach a wait: ``max(nan, 0.0)`` is NaN
    and ``Event.wait(nan)`` returns at once, so every shard RPC would
    "time out" and be charged to a healthy shard's breaker.
    """
    if deadline_ms is None:
        return None
    if (
        isinstance(deadline_ms, bool)
        or not isinstance(deadline_ms, (int, float))
        or not math.isfinite(deadline_ms)
    ):
        raise QueryError('"deadline_ms" must be a finite number')
    return float(deadline_ms)


@dataclass(frozen=True)
class QueryBudget:
    """Limits for one query evaluation.

    Parameters
    ----------
    deadline_ms:
        Wall-clock budget in milliseconds, measured from the start of
        evaluation.  ``None`` = unlimited.
    max_cells:
        Maximum number of cell evaluations (result cells plus
        Filter/Order condition probes).  ``None`` = unlimited.
    clock:
        Monotonic clock used for the deadline; ``None`` = the real
        ``time.monotonic``.  Injectable so degradation behaviour (e.g.
        a deadline tripping mid-row) is testable deterministically on
        both the per-cell and the batched evaluation paths.
    """

    deadline_ms: "float | None" = None
    max_cells: "int | None" = None
    clock: "Callable[[], float] | None" = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # "not >=" rather than "<": NaN compares false either way
        if self.deadline_ms is not None and not self.deadline_ms >= 0:
            raise ValueError("deadline_ms must be >= 0")
        if self.max_cells is not None and self.max_cells < 0:
            raise ValueError("max_cells must be >= 0")

    @property
    def unlimited(self) -> bool:
        return self.deadline_ms is None and self.max_cells is None

    def narrowed(self, deadline_ms: "float | None") -> "QueryBudget":
        """This budget with its deadline capped at ``deadline_ms``.

        The query service propagates admission deadlines this way: a
        query that waited W ms in the queue of a service with deadline D
        executes under ``budget.narrowed(D - W)`` — queue time counts
        against the caller's deadline, it is not a free extension.  A
        negative cap clamps to 0 (the budget degrades everything
        immediately rather than pretending time is left).  ``None`` means
        no cap and returns ``self`` unchanged.
        """
        if deadline_ms is None:
            return self
        capped = max(deadline_ms, 0.0)
        if self.deadline_ms is not None and self.deadline_ms <= capped:
            return self
        return QueryBudget(
            deadline_ms=capped, max_cells=self.max_cells, clock=self.clock
        )


@dataclass(frozen=True)
class Degradation:
    """One structured record of work a query gave up on."""

    reason: str  #: ``"deadline"`` or ``"cell-cap"``
    detail: str  #: human-readable explanation
    cells_evaluated: int  #: cells computed before the breach
    cells_skipped: int  #: cells returned as ⊥ without evaluation

    def to_dict(self) -> dict[str, object]:
        return {
            "reason": self.reason,
            "detail": self.detail,
            "cells_evaluated": self.cells_evaluated,
            "cells_skipped": self.cells_skipped,
        }


class BudgetTracker:
    """Mutable evaluation-time state for one query's budget."""

    def __init__(
        self,
        budget: QueryBudget,
        *,
        clock: "Callable[[], float] | None" = None,
    ) -> None:
        self.budget = budget
        self._clock = clock or budget.clock or time.monotonic
        self._started = self._clock()
        self.cells_evaluated = 0
        #: breach reason ("deadline" | "cell-cap") once tripped, else None
        self.breached: "str | None" = None

    # -- checks -------------------------------------------------------------------

    def _deadline_passed(self) -> bool:
        if self.budget.deadline_ms is None:
            return False
        elapsed_ms = (self._clock() - self._started) * 1000.0
        return elapsed_ms >= self.budget.deadline_ms

    def charge_cell(self) -> bool:
        """Account for one upcoming cell evaluation.

        Returns True when the evaluation may proceed; False when the
        budget is breached (and records the breach reason).
        """
        if self.breached is not None:
            return False
        if (
            self.budget.max_cells is not None
            and self.cells_evaluated >= self.budget.max_cells
        ):
            self.breached = "cell-cap"
            return False
        if self._deadline_passed():
            self.breached = "deadline"
            return False
        self.cells_evaluated += 1
        return True

    def charge_cell_or_raise(self, phase: str) -> None:
        """Like :meth:`charge_cell`, but raise
        :class:`~repro.errors.QueryBudgetExceededError` on breach — for
        phases (axis resolution) that cannot return a partial result."""
        if not self.charge_cell():
            assert self.breached is not None
            raise QueryBudgetExceededError(
                f"query budget breached ({self._describe()}) during {phase}; "
                "axis resolution cannot return a partial result",
                reason=self.breached,
            )

    def _describe(self) -> str:
        if self.breached == "cell-cap":
            return (
                f"cell-evaluation cap of {self.budget.max_cells} reached"
            )
        return (
            f"wall-clock deadline of {self.budget.deadline_ms}ms exceeded"
        )

    def degradation(self, cells_skipped: int) -> Degradation:
        """The structured record for a breach in the cell-fill loop."""
        assert self.breached is not None
        return Degradation(
            reason=self.breached,
            detail=self._describe(),
            cells_evaluated=self.cells_evaluated,
            cells_skipped=cells_skipped,
        )
