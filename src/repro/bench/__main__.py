"""CLI: regenerate the paper's figures as text tables.

Usage::

    python -m repro.bench fig11
    python -m repro.bench fig12
    python -m repro.bench fig13
    python -m repro.bench ablations
    python -m repro.bench all

Every target prints and writes nothing.  Query latency on the engine we
serve with is measured by the performance ledger (``BENCHMARK.json``,
``benchmarks/ledger/``), not here.
"""

from __future__ import annotations

import argparse

from repro.bench.ablations import (
    run_cube_compute_ablation,
    run_dimension_order_ablation,
    run_pebbling_ablation,
)
from repro.bench.fig11 import run_fig11
from repro.bench.fig12 import run_fig12
from repro.bench.fig13 import run_fig13
from repro.bench.harness import print_series


def _fig11() -> None:
    series = run_fig11()
    print_series(
        "Fig. 11 - No. Perspectives vs Query Performance (wall ms)",
        series,
        metric="wall_ms",
        x_label="perspectives",
    )
    print()
    print_series(
        "Fig. 11 - No. Perspectives vs simulated disk ms",
        series,
        metric="simulated_ms",
        x_label="perspectives",
    )


def _fig12() -> None:
    series = run_fig12()
    for metric in ("simulated_ms", "seek_distance", "file_extent", "wall_ms"):
        print_series(
            f"Fig. 12 - Related-chunk co-location vs {metric}",
            series,
            metric=metric,
            x_label="separation x",
        )
        print()


def _fig13() -> None:
    series = run_fig13()
    for metric in ("wall_ms", "simulated_ms", "chunk_reads"):
        print_series(
            f"Fig. 13 - Varying member instances vs {metric}",
            series,
            metric=metric,
            x_label="employees",
        )
        print()


def _ablations() -> None:
    print_series(
        "Ablation - pebbling heuristic vs naive order (max co-resident chunks)",
        run_pebbling_ablation(),
        metric="pebbles",
        x_label="varying products",
    )
    print()
    print_series(
        "Ablation - Lemma 5.1 dimension order (memory, chunks)",
        run_dimension_order_ablation(),
        metric="memory_chunks",
        x_label="varying products",
    )
    print()
    print_series(
        "Ablation - Zhao shared scan vs per-group-by scans (chunk reads)",
        run_cube_compute_ablation(),
        metric="chunk_reads",
        x_label="group-bys",
    )


def main() -> None:
    parser = argparse.ArgumentParser(prog="repro.bench", description=__doc__)
    parser.add_argument(
        "target",
        choices=["fig11", "fig12", "fig13", "ablations", "all"],
        help="which experiment to regenerate",
    )
    args = parser.parse_args()
    if args.target in ("fig11", "all"):
        _fig11()
        print()
    if args.target in ("fig12", "all"):
        _fig12()
    if args.target in ("fig13", "all"):
        _fig13()
    if args.target in ("ablations", "all"):
        _ablations()


if __name__ == "__main__":
    main()
