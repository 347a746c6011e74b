"""Benchmark harness: one runner per paper figure plus ablations.

``python -m repro.bench <fig11|fig12|fig13|ablations|all>`` prints the
regenerated series as text tables (see EXPERIMENTS.md for the comparison
against the paper's reported shapes).

The names below are re-exported lazily (:mod:`repro._lazy`): each
is imported from its module on first access, so importing one
submodule loads only what that submodule imports.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.bench.ablations import (
        run_cube_compute_ablation,
        run_dimension_order_ablation,
        run_pebbling_ablation,
    )
    from repro.bench.fig11 import bench_config, run_fig11, spread_perspectives
    from repro.bench.fig12 import fig12_config, fig12_cost_model, run_fig12
    from repro.bench.fig13 import fig13_config, run_fig13
    from repro.bench.harness import (
        ExperimentSeries,
        SeriesPoint,
        format_table,
        print_series,
        timed,
    )

__all__ = [
    "run_cube_compute_ablation",
    "run_dimension_order_ablation",
    "run_pebbling_ablation",
    "bench_config",
    "run_fig11",
    "spread_perspectives",
    "fig12_config",
    "fig12_cost_model",
    "run_fig12",
    "fig13_config",
    "run_fig13",
    "ExperimentSeries",
    "SeriesPoint",
    "format_table",
    "print_series",
    "timed",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.bench.ablations": (
            "run_cube_compute_ablation",
            "run_dimension_order_ablation",
            "run_pebbling_ablation",
        ),
        "repro.bench.fig11": ("bench_config", "run_fig11", "spread_perspectives"),
        "repro.bench.fig12": ("fig12_config", "fig12_cost_model", "run_fig12"),
        "repro.bench.fig13": ("fig13_config", "run_fig13"),
        "repro.bench.harness": (
            "ExperimentSeries",
            "SeriesPoint",
            "format_table",
            "print_series",
            "timed",
        ),
    },
)
