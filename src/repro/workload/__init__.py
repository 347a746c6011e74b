"""Workload generators: the paper's running example, the Sec. 6 workforce
planning dataset (scaled), and a retail dataset mirroring Fig. 7 for the
chunk-merging experiments.

The names below are re-exported lazily (:mod:`repro._lazy`): each
is imported from its module on first access, so importing one
submodule loads only what that submodule imports.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.workload.running_example import (
        MONTHS,
        QUARTERS,
        RunningExample,
        build_running_example,
    )

__all__ = ["MONTHS", "QUARTERS", "RunningExample", "build_running_example"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.workload.running_example": (
            "MONTHS",
            "QUARTERS",
            "RunningExample",
            "build_running_example",
        ),
    },
)
