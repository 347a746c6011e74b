"""Shape tests for the figure runners: the paper's qualitative claims must
hold on small configs.

These are the claims EXPERIMENTS.md reports against:

* Fig. 11 — Multiple-MDX grows linearly with the number of perspectives
  and ends up the most expensive strategy; static and forward converge
  at 12 perspectives.
* Fig. 12 — simulated time rises with separation then flattens; seek
  distance and cube size grow linearly.
* Fig. 13 — chunk reads grow monotonically (≈linearly) with the number
  of varying employees.
"""

from __future__ import annotations

import pytest

from repro.bench.ablations import (
    run_cube_compute_ablation,
    run_dimension_order_ablation,
    run_pebbling_ablation,
)
from repro.bench.fig11 import bench_config, run_fig11, spread_perspectives
from repro.bench.fig12 import fig12_config, run_fig12
from repro.bench.fig13 import fig13_config, run_fig13
from repro.workload.workforce import WorkforceConfig


def small_config() -> WorkforceConfig:
    return WorkforceConfig(
        n_employees=48,
        n_departments=6,
        n_changing=10,
        max_moves=4,
        n_accounts=3,
        n_scenarios=2,
        seed=5,
        density=0.2,
    )


class TestSpreadPerspectives:
    def test_counts(self):
        for k in range(1, 13):
            moments = spread_perspectives(k)
            assert len(moments) == k
            assert moments == sorted(set(moments))
            assert all(0 <= m < 12 for m in moments)

    def test_bounds(self):
        with pytest.raises(ValueError):
            spread_perspectives(0)
        with pytest.raises(ValueError):
            spread_perspectives(13)


class TestFig11:
    @pytest.fixture(scope="class")
    def series(self):
        return run_fig11(small_config(), perspective_counts=(1, 4, 8, 12))

    def test_three_series(self, series):
        assert [s.name for s in series] == [
            "Multiple MDX",
            "Static",
            "Dynamic Forward",
        ]

    def test_multiple_mdx_grows_linearly(self, series):
        multiple = series[0].values("chunk_reads")
        assert multiple == sorted(multiple)
        # Roughly linear beyond the first point (per-perspective costs vary
        # slightly with which moments are chosen): k=4 -> k=12 should cost
        # about 3x, within a factor band.
        ratio = multiple[-1] / multiple[1]
        assert 2.0 <= ratio <= 4.5

    def test_simulation_is_worst_at_high_k(self, series):
        multiple, static, forward = series
        assert multiple.values("simulated_ms")[-1] >= max(
            static.values("simulated_ms")[-1],
            forward.values("simulated_ms")[-1],
        )

    def test_static_and_forward_converge_at_12(self, series):
        _, static, forward = series
        assert static.values("chunk_reads")[-1] == forward.values("chunk_reads")[-1]

    def test_forward_at_least_static(self, series):
        _, static, forward = series
        for s_reads, f_reads in zip(
            static.values("chunk_reads"), forward.values("chunk_reads")
        ):
            assert f_reads >= s_reads


class TestFig12:
    @pytest.fixture(scope="class")
    def series(self):
        # base_gap x cost-model: the seek cap (25 ms at 0.01 ms/chunk) is
        # reached at a gap of 2500 chunks, i.e. at multiple 3 of 1000.
        (series,) = run_fig12(
            multiples=(1, 2, 3, 4), base_gap=1000, config=fig12_config(seed=5)
        )
        return series

    def test_seek_distance_grows_linearly(self, series):
        seeks = series.values("seek_distance")
        deltas = [b - a for a, b in zip(seeks, seeks[1:])]
        assert all(d > 0 for d in deltas)
        assert max(deltas) - min(deltas) <= max(deltas) * 0.2

    def test_simulated_time_rises_then_flattens(self, series):
        times = series.values("simulated_ms")
        assert times[1] > times[0]
        # Last two points within 10% of each other (the flattening).
        assert abs(times[-1] - times[-2]) <= 0.1 * times[-1]

    def test_chunk_reads_constant(self, series):
        reads = series.values("chunk_reads")
        assert len(set(reads)) == 1

    def test_cube_size_grows(self, series):
        extents = series.values("file_extent")
        assert extents == sorted(extents)
        assert extents[-1] > extents[0]


class TestFig13:
    @pytest.fixture(scope="class")
    def series(self):
        (series,) = run_fig13(
            steps=(4, 8, 12, 16), config=fig13_config(n_changing=16, seed=5)
        )
        return series

    def test_reads_monotone_increasing(self, series):
        reads = series.values("chunk_reads")
        assert reads == sorted(reads)
        assert reads[-1] > reads[0]

    def test_instances_grow_with_members(self, series):
        instances = series.values("instances")
        assert instances == sorted(instances)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            run_fig13(steps=(50,), config=fig13_config(n_changing=10))


class TestAblations:
    def test_pebbling_never_worse_than_naive(self):
        heuristic, naive = run_pebbling_ablation(varying_counts=(2, 4))
        for h, n in zip(heuristic.values("pebbles"), naive.values("pebbles")):
            assert h <= n

    def test_lemma51_ordering(self):
        first, last = run_dimension_order_ablation(varying_counts=(2, 4))
        for f, l in zip(
            first.values("memory_chunks"), last.values("memory_chunks")
        ):
            assert f <= l

    def test_shared_scan_reads_fewer_chunks(self):
        shared, naive = run_cube_compute_ablation()
        assert shared.values("chunk_reads")[0] < naive.values("chunk_reads")[0]


def test_bench_config_scales():
    small = bench_config(scale=0.5)
    large = bench_config(scale=2.0)
    assert large.n_employees > small.n_employees
    assert large.n_changing > small.n_changing
