"""Simulated disk I/O accounting.

The paper's Fig. 12 experiment varies the *physical separation* between
related chunks and observes query time rising then flattening — the
mechanism being disk seek time that grows with distance and then
saturates.  Since we run on a simulated store, we make that cost model
explicit:

    simulated_ms = chunk_reads * read_ms
                 + Σ over consecutive reads  min(seek_ms_per_chunk * gap,
                                                 seek_cap_ms)

where ``gap`` is the distance (in chunk slots) between the file positions
of consecutively read chunks.  Wall-clock time of the Python engine also
scales with chunks touched; the simulated figure isolates the disk
mechanism the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CacheStats", "IoCostModel", "IoStats"]


@dataclass
class CacheStats:
    """Hit/miss/invalidation/eviction counters shared by the query
    engine's caches (scenario-cube cache, rollup index).

    ``builds`` counts full (re)constructions — index builds or scenario
    applications on a cache miss; ``invalidations`` counts entries dropped
    because the underlying cube mutated; ``evictions`` counts entries
    pushed out by capacity pressure (LRU popitem, memo-cap flushes) —
    churn that hit/miss ratios alone cannot distinguish from a healthy
    cache.

    ``fork_delta_bytes`` / ``fork_changed_chunks`` account for
    copy-on-write divergence: when a forked
    :class:`~repro.storage.chunk_store.ChunkStore` rebinds a chunk, the
    rebound array's bytes are charged here (shared with the fork's
    parent, so one snapshot shows the aggregate COW cost of every live
    fork).  Quota enforcement reads these — a fork that never writes
    stays at zero no matter how large the parent cube is.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    builds: int = 0
    evictions: int = 0
    fork_delta_bytes: int = 0
    fork_changed_chunks: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.builds = 0
        self.evictions = 0
        self.fork_delta_bytes = 0
        self.fork_changed_chunks = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "builds": self.builds,
            "evictions": self.evictions,
            "fork_delta_bytes": self.fork_delta_bytes,
            "fork_changed_chunks": self.fork_changed_chunks,
        }


@dataclass(frozen=True)
class IoCostModel:
    """Cost parameters of the simulated disk."""

    read_ms: float = 1.0
    seek_ms_per_chunk: float = 0.01
    seek_cap_ms: float = 8.0

    def seek_cost(self, gap: int) -> float:
        """Seek cost for a jump of ``gap`` chunk slots (0 for sequential)."""
        if gap <= 1:
            return 0.0
        return min(self.seek_ms_per_chunk * gap, self.seek_cap_ms)


@dataclass
class IoStats:
    """Mutable I/O counters accumulated by a ChunkStore."""

    chunk_reads: int = 0
    chunk_writes: int = 0
    seek_distance: int = 0
    simulated_ms: float = 0.0
    _last_position: int | None = field(default=None, repr=False)

    def record_read(self, position: int, model: IoCostModel) -> None:
        self.chunk_reads += 1
        if self._last_position is not None:
            gap = abs(position - self._last_position)
            self.seek_distance += gap
            self.simulated_ms += model.seek_cost(gap)
        self.simulated_ms += model.read_ms
        self._last_position = position

    def record_write(self, position: int, model: IoCostModel) -> None:
        self.chunk_writes += 1
        self.simulated_ms += model.read_ms
        self._last_position = position

    def reset(self) -> None:
        self.chunk_reads = 0
        self.chunk_writes = 0
        self.seek_distance = 0
        self.simulated_ms = 0.0
        self._last_position = None

    def snapshot(self) -> dict[str, float]:
        """Plain-dict view for benchmark ``extra_info``."""
        return {
            "chunk_reads": self.chunk_reads,
            "chunk_writes": self.chunk_writes,
            "seek_distance": self.seek_distance,
            "simulated_ms": round(self.simulated_ms, 3),
        }
