"""Columnar leaf sourcing: bit-identity against the address scan.

Covers the three places leaf values are served from the rollup index's
value column:

* :meth:`ChunkedCube.from_cube` (column gather vs the ``naive_mode()`` scan),
* :func:`compute_group_bys_from_cube` (shared-scan over a column-sourced
  physical image),
* the batch evaluator's leaf point reads
  (:meth:`RollupIndex.leaf_reader`).
"""

from __future__ import annotations

import numpy as np

from repro.olap.missing import MISSING, is_missing
from repro.perf.config import naive_mode
from repro.storage.array_cube import ChunkedCube
from repro.storage.cube_compute import (
    compute_group_bys,
    compute_group_bys_from_cube,
)
from repro.storage.lattice import all_group_bys


def _chunks(cube: ChunkedCube) -> dict:
    return {
        coord: cube.store.peek(coord) for coord in cube.store.stored_chunks()
    }


class TestFromCubePlanes:
    def test_plane_and_dict_builds_are_bit_identical(self, example):
        via_planes = ChunkedCube.from_cube(example.cube)
        with naive_mode():
            via_dict = ChunkedCube.from_cube(example.cube)
        assert [a.name for a in via_planes.axes] == [
            a.name for a in via_dict.axes
        ]
        assert [a.labels for a in via_planes.axes] == [
            a.labels for a in via_dict.axes
        ]
        plane_chunks = _chunks(via_planes)
        dict_chunks = _chunks(via_dict)
        assert sorted(plane_chunks) == sorted(dict_chunks)
        for coord, data in plane_chunks.items():
            np.testing.assert_array_equal(data, dict_chunks[coord])

    def test_plane_build_without_prebuilt_index(self, example):
        # values must match the semantic cube cell for cell
        image = ChunkedCube.from_cube(example.cube)
        for address, value in example.cube.leaf_cells():
            assert image.value(address) == value


class TestComputeGroupBysFromCube:
    def test_matches_dict_sourced_shared_scan(self, example):
        group_bys = all_group_bys(example.cube.schema.n_dims)
        results, image = compute_group_bys_from_cube(example.cube, group_bys)
        with naive_mode():
            baseline_image = ChunkedCube.from_cube(example.cube)
        baseline = compute_group_bys(baseline_image.store, group_bys)
        assert sorted(results) == sorted(baseline)
        for dims, result in results.items():
            np.testing.assert_array_equal(result.data, baseline[dims].data)

    def test_returns_reusable_physical_image(self, example):
        _, image = compute_group_bys_from_cube(example.cube, [(0,)])
        assert isinstance(image, ChunkedCube)
        for address, value in example.cube.leaf_cells():
            assert image.value(address) == value


class TestBatchLeafReads:
    QUERY = (
        "SELECT {Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]} ON COLUMNS, "
        "{[Organization].Members} ON ROWS "
        "FROM Warehouse WHERE ([NY], [Salary])"
    )

    def test_leaf_reader_mirrors_the_semantic_dict(self, example):
        cube = example.cube
        before = dict(cube.leaf_cells())
        reader = cube.rollup_index().leaf_reader()
        assert dict(cube.leaf_cells()) == before
        for address, value in before.items():
            assert reader(address) == value
        missing = ("Organization/FTE/Joe", "NY", "Jan", "Benefits")
        if missing not in before:
            assert reader(missing) is None

    def test_grid_identical_with_and_without_index(self, example):
        from repro.warehouse import Warehouse

        warehouse = Warehouse(example.schema, example.cube, name="Warehouse")
        with naive_mode():
            before = warehouse.query(self.QUERY)
        after = warehouse.query(self.QUERY)
        assert after.rows == before.rows
        assert repr(after.cells) == repr(before.cells)
        assert any(
            not is_missing(v) and v is not MISSING
            for row in after.cells
            for v in row
        )
