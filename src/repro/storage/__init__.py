"""Chunked array storage: the physical substrate of Sec. 5.

Implements the Zhao et al. array-chunking scheme the paper builds on —
chunk grids, a simulated on-disk chunk store with explicit read/seek cost
accounting, the group-by lattice with memory requirements and the
minimum-memory spanning tree, and single-scan simultaneous aggregation.

The names below are re-exported lazily (:mod:`repro._lazy`): each
is imported from its module on first access, so importing one
submodule loads only what that submodule imports.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.storage.array_cube import Axis, ChunkedCube
    from repro.storage.chunk_store import ChunkStore, ResidencyTracker
    from repro.storage.chunks import Chunk, ChunkGrid
    from repro.storage.cube_compute import (
        GroupByResult,
        compute_group_bys,
        compute_group_bys_budgeted,
        compute_group_bys_naive,
        full_array,
    )
    from repro.storage.io_stats import IoCostModel, IoStats
    from repro.storage.lattice import all_group_bys, direct_children, direct_parents
    from repro.storage.mmst import MemorySpanningTree, build_mmst, memory_requirement

__all__ = [
    "Axis",
    "ChunkedCube",
    "ChunkStore",
    "ResidencyTracker",
    "Chunk",
    "ChunkGrid",
    "GroupByResult",
    "compute_group_bys",
    "compute_group_bys_budgeted",
    "compute_group_bys_naive",
    "full_array",
    "IoCostModel",
    "IoStats",
    "all_group_bys",
    "direct_children",
    "direct_parents",
    "MemorySpanningTree",
    "build_mmst",
    "memory_requirement",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.storage.array_cube": ("Axis", "ChunkedCube"),
        "repro.storage.chunk_store": ("ChunkStore", "ResidencyTracker"),
        "repro.storage.chunks": ("Chunk", "ChunkGrid"),
        "repro.storage.cube_compute": (
            "GroupByResult",
            "compute_group_bys",
            "compute_group_bys_budgeted",
            "compute_group_bys_naive",
            "full_array",
        ),
        "repro.storage.io_stats": ("IoCostModel", "IoStats"),
        "repro.storage.lattice": ("all_group_bys", "direct_children", "direct_parents"),
        "repro.storage.mmst": (
            "MemorySpanningTree",
            "build_mmst",
            "memory_requirement",
        ),
    },
)
