"""Chunk-level evaluation of perspective queries (Sec. 5).

This is the engine behind the paper's experiments: it evaluates a
perspective query directly over a :class:`~repro.storage.array_cube.ChunkedCube`,

1. applying Φ to the queried members' instances to learn which input
   instance supplies each output moment,
2. building the merge dependency graph between the chunks involved
   (:mod:`repro.core.merge_graph`),
3. ordering the chunk reads by the Sec. 5.2 pebbling heuristic (or a
   caller-supplied order, for ablations), and
4. streaming the chunks, copying/merging instance rows into per-instance
   output buffers while tracking I/O costs and the chunk-residency
   high-water mark.

:func:`run_multiple_mdx_simulation` reproduces the paper's "Multiple MDX"
baseline (Fig. 11): a k-perspective query simulated as k single-perspective
queries whose results are post-merged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.merge_graph import VaryingAxisSpec, build_merge_graph
from repro.core.pebbling import pebble
from repro.core.perspective import PerspectiveSet, Semantics, phi
from repro.errors import QueryError
from repro.storage.chunk_store import ResidencyTracker

__all__ = [
    "PerspectiveQueryResult",
    "run_perspective_query",
    "run_multiple_mdx_simulation",
    "materialize_perspective_cube",
]


@dataclass
class PerspectiveQueryResult:
    """Output of a chunk-level perspective query.

    ``rows`` maps each surviving output instance label to an array of shape
    ``(universe, *other_axis_sizes)`` holding the relocated leaf values
    (NaN = ⊥).  ``validity_out`` records Φ's output validity sets.
    """

    rows: dict[str, np.ndarray]
    validity_out: dict[str, "object"]
    io: dict[str, float]
    memory_high_water: int
    chunks_read: int
    plane_order: list[tuple[int, ...]] = field(default_factory=list)

    def total(self, label: str) -> float:
        """Sum of one instance's non-⊥ output cells (simple check value)."""
        data = self.rows[label]
        mask = ~np.isnan(data)
        if not mask.any():
            return float("nan")
        return float(data[mask].sum())

    def parent_totals(self) -> dict[tuple[str, int], float]:
        """Visual-mode aggregate rows for the queried members.

        Maps ``(parent name, moment)`` to the sum over the instances whose
        path ends under that parent, summed across the remaining axes —
        the per-group rows of Fig. 4 (e.g. PTE at Qtr granularity is then
        a further rollup of these per-moment totals).  Moments with no
        non-⊥ contribution are omitted.
        """
        totals: dict[tuple[str, int], float] = {}
        for label, data in self.rows.items():
            parent = label.split("/")[-2] if "/" in label else label
            for t in range(data.shape[0]):
                vector = np.atleast_1d(data[t])
                mask = ~np.isnan(vector)
                if not mask.any():
                    continue
                key = (parent, t)
                totals[key] = totals.get(key, 0.0) + float(vector[mask].sum())
        return totals


def _other_axes(spec: VaryingAxisSpec) -> list[int]:
    return [
        i
        for i in range(spec.cube.grid.n_dims)
        if i not in (spec.axis_index, spec.param_index)
    ]


def _plane_chunk(spec: VaryingAxisSpec, row: int, t: int) -> tuple[int, ...]:
    grid = spec.cube.grid
    coord = [0] * grid.n_dims
    coord[spec.axis_index] = row // grid.chunk_shape[spec.axis_index]
    coord[spec.param_index] = t // grid.chunk_shape[spec.param_index]
    return tuple(coord)


def run_perspective_query(
    spec: VaryingAxisSpec,
    members: Sequence[str],
    perspectives: PerspectiveSet,
    semantics: Semantics = Semantics.STATIC,
    use_pebbling: bool = True,
    plane_order: Sequence[tuple[int, ...]] | None = None,
    memory_budget: int | None = None,
) -> PerspectiveQueryResult:
    """Evaluate one perspective query over the chunked cube.

    Parameters
    ----------
    spec:
        Varying-axis metadata for the cube.
    members:
        The varying-dimension members in the query scope (e.g. the
        "changing employees" sets of Sec. 6).
    perspectives, semantics:
        The perspective clause.
    use_pebbling:
        Order the involved plane chunks by the pebbling heuristic; with
        ``False`` they are read in naive linear order (ablation baseline).
    plane_order:
        Explicit read order for the involved plane chunks (overrides
        ``use_pebbling``); must cover every involved chunk.
    memory_budget:
        Maximum chunks allowed co-resident.  When the merge work would
        exceed it, the members are partitioned into batches whose pebble
        demand fits and the scan runs once per batch — the multi-pass
        strategy Zhao et al. use when the MMST exceeds memory, applied to
        merge graphs.  Later passes re-read chunks, trading I/O for
        memory.
    """
    if memory_budget is not None:
        return _run_with_budget(
            spec, members, perspectives, semantics, use_pebbling, memory_budget
        )
    cube = spec.cube
    grid = cube.grid
    universe = len(spec.param_axis)
    if perspectives.universe != universe:
        raise QueryError(
            f"perspective universe {perspectives.universe} does not match "
            f"parameter axis size {universe}"
        )

    # Step 1: Φ per member; build per-target moment -> source-slot plans.
    plans: dict[str, dict[int, str]] = {}
    validity_out: dict[str, object] = {}
    for member in members:
        labels = spec.slots_of_member(member)
        if not labels:
            raise QueryError(
                f"member {member!r} has no instance slots on axis "
                f"{spec.axis.name!r}"
            )
        validity_in = {label: spec.validity_of_slot[label] for label in labels}
        moment_owner = {
            t: label for label, vs in validity_in.items() for t in vs
        }
        transformed = phi(validity_in, perspectives, semantics)
        for target, vs_out in transformed.items():
            validity_out[target] = vs_out
            plan: dict[int, str] = {}
            for t in vs_out:
                source = moment_owner.get(t)
                if source is not None:
                    plan[t] = source
            plans[target] = plan

    # Step 2: involved plane chunks and their merge dependencies.
    merge_graph = build_merge_graph(spec, perspectives, semantics, members)
    involved: set[tuple[int, ...]] = set(merge_graph.nodes)
    for target, plan in plans.items():
        for t, source in plan.items():
            involved.add(_plane_chunk(spec, spec.slot_row(source), t))
    for chunk in involved:
        if chunk not in merge_graph:
            merge_graph.add_node(chunk)

    # Step 3: read order over the involved plane chunks.
    if plane_order is not None:
        order = list(plane_order)
        missing = involved - set(order)
        if missing:
            raise QueryError(
                f"plane_order does not cover involved chunks: {sorted(missing)}"
            )
    elif use_pebbling:
        order = pebble(merge_graph).order
    else:
        order = sorted(
            involved,
            key=lambda c: grid.linear_index(c, grid.default_order()),
        )

    # Step 4: stream chunks, merging rows into per-instance output buffers.
    other = _other_axes(spec)
    other_sizes = tuple(grid.dim_sizes[i] for i in other)
    rows = {
        target: np.full((universe, *other_sizes), np.nan) for target in plans
    }
    # (source slot label, t) -> list of targets wanting that cell row,
    # pre-indexed by the plane chunk holding the row so each chunk read
    # only visits its own work items.
    wanted: dict[tuple[str, int], list[str]] = {}
    for target, plan in plans.items():
        for t, source in plan.items():
            wanted.setdefault((source, t), []).append(target)
    wanted_by_plane: dict[tuple[int, ...], list[tuple[str, int, list[str]]]] = {}
    for (source, t), targets in wanted.items():
        plane = _plane_chunk(spec, spec.slot_row(source), t)
        wanted_by_plane.setdefault(plane, []).append((source, t, targets))

    tracker = ResidencyTracker()
    read_count_before = cube.store.stats.chunk_reads
    read_plane: set[tuple[int, ...]] = set()

    other_chunk_ranges = [range(grid.chunks_per_dim[i]) for i in other]

    def other_combos() -> Iterable[tuple[int, ...]]:
        if not other:
            yield ()
            return
        import itertools

        yield from itertools.product(*other_chunk_ranges)

    for combo in other_combos():
        for plane in order:
            coord = list(plane)
            for axis, chunk_index in zip(other, combo):
                coord[axis] = chunk_index
            coord_t = tuple(coord)
            data = cube.store.read(coord_t)
            tracker.acquire(coord_t)
            _copy_rows(
                spec, coord_t, data, wanted_by_plane.get(plane, ()), rows, other
            )
            read_plane.add(plane)
            # Release every held chunk whose merge partners have arrived.
            for held in list(tracker.resident):
                held_plane = _project_plane(spec, held)
                neighbors = list(merge_graph.neighbors(held_plane))
                if all(n in read_plane for n in neighbors):
                    tracker.release(held)
        read_plane.clear()

    return PerspectiveQueryResult(
        rows=rows,
        validity_out=validity_out,
        io=cube.store.stats.snapshot(),
        memory_high_water=max(tracker.high_water, 1 if order else 0),
        chunks_read=cube.store.stats.chunk_reads - read_count_before,
        plane_order=list(order),
    )


def _project_plane(
    spec: VaryingAxisSpec, coord: tuple[int, ...]
) -> tuple[int, ...]:
    plane = [0] * len(coord)
    plane[spec.axis_index] = coord[spec.axis_index]
    plane[spec.param_index] = coord[spec.param_index]
    return tuple(plane)


def _copy_rows(
    spec: VaryingAxisSpec,
    coord: tuple[int, ...],
    data: np.ndarray,
    work_items: Iterable[tuple[str, int, list[str]]],
    rows: dict[str, np.ndarray],
    other: list[int],
) -> None:
    """Copy every wanted (source row, moment) vector from a chunk into the
    output buffers of the targets that claim it."""
    grid = spec.cube.grid
    origin = grid.chunk_origin(coord)
    extent = data.shape
    row_lo = origin[spec.axis_index]
    t_lo = origin[spec.param_index]
    for source, t, targets in work_items:
        row = spec.slot_row(source)
        indexer: list[object] = [slice(None)] * data.ndim
        indexer[spec.axis_index] = row - row_lo
        indexer[spec.param_index] = t - t_lo
        vector = data[tuple(indexer)]
        out_region: list[object] = [
            slice(origin[axis], origin[axis] + extent[axis]) for axis in other
        ]
        for target in targets:
            rows[target][(t, *out_region)] = vector


def _member_pebble_demand(
    spec: VaryingAxisSpec,
    member: str,
    perspectives: PerspectiveSet,
    semantics: Semantics,
) -> int:
    graph = build_merge_graph(spec, perspectives, semantics, [member])
    if graph.number_of_nodes() == 0:
        return 1
    return pebble(graph).max_pebbles


def _run_with_budget(
    spec: VaryingAxisSpec,
    members: Sequence[str],
    perspectives: PerspectiveSet,
    semantics: Semantics,
    use_pebbling: bool,
    memory_budget: int,
) -> PerspectiveQueryResult:
    """Partition members into batches whose merge demand fits the budget,
    then run one scan per batch and merge the results."""
    if memory_budget < 1:
        raise QueryError("memory_budget must be at least 1 chunk")
    demands = {
        member: _member_pebble_demand(spec, member, perspectives, semantics)
        for member in members
    }
    oversized = [m for m, d in demands.items() if d > memory_budget]
    if oversized:
        raise QueryError(
            f"member {oversized[0]!r} alone needs {demands[oversized[0]]} "
            f"co-resident chunks, over the budget of {memory_budget}"
        )
    # Greedy first-fit packing by descending demand.  Pebble demands of
    # disjoint member graphs add in the worst case (their chunks interleave
    # in the scan), so the per-batch sum is the conservative bound.
    batches: list[list[str]] = []
    loads: list[int] = []
    for member in sorted(members, key=lambda m: -demands[m]):
        for i, load in enumerate(loads):
            if load + demands[member] <= memory_budget:
                batches[i].append(member)
                loads[i] += demands[member]
                break
        else:
            batches.append([member])
            loads.append(demands[member])

    partials = [
        run_perspective_query(
            spec, batch, perspectives, semantics, use_pebbling=use_pebbling
        )
        for batch in batches
    ]
    return _merged(spec, partials)


def _merged(
    spec: VaryingAxisSpec, partials: Sequence[PerspectiveQueryResult]
) -> PerspectiveQueryResult:
    """One result out of partial ones: a row several partials hold is the
    first one's with each later one's non-NaN cells laid over it (budget
    batches hold disjoint rows, so there the merge is a plain union)."""
    merged_rows: dict[str, np.ndarray] = {}
    merged_validity: dict[str, object] = {}
    for partial in partials:
        for label, data in partial.rows.items():
            if label in merged_rows:
                mask = ~np.isnan(data)
                merged_rows[label][mask] = data[mask]
            else:
                merged_rows[label] = data.copy()
        merged_validity.update(partial.validity_out)
    return PerspectiveQueryResult(
        rows=merged_rows,
        validity_out=merged_validity,
        io=spec.cube.store.stats.snapshot(),
        memory_high_water=max(p.memory_high_water for p in partials),
        chunks_read=sum(p.chunks_read for p in partials),
        plane_order=[c for p in partials for c in p.plane_order],
    )


def materialize_perspective_cube(
    spec: VaryingAxisSpec,
    result: PerspectiveQueryResult,
    chunk_shape: Sequence[int] | None = None,
) -> tuple["object", VaryingAxisSpec]:
    """Write a query result back out as a chunked perspective cube.

    The output cube's varying axis holds one row per surviving instance
    (in input-axis order); the remaining axes are copied from the input.
    Chunk writes are accounted in the output store's I/O stats.  Returns
    the new cube together with a :class:`VaryingAxisSpec` describing it, so
    further perspective queries can be chained on the materialised result
    — the paper's "result of any of the what-if queries … is a perspective
    cube".
    """
    from repro.storage.array_cube import Axis, ChunkedCube

    grid = spec.cube.grid
    input_order = {label: i for i, label in enumerate(spec.axis.labels)}
    labels = sorted(result.rows, key=lambda l: input_order.get(l, len(input_order)))
    if not labels:
        raise QueryError("cannot materialise an empty perspective cube")
    axes = [
        Axis(axis.name, labels) if i == spec.axis_index else axis
        for i, axis in enumerate(spec.cube.axes)
    ]
    if chunk_shape is None:
        chunk_shape = tuple(
            min(extent, len(axes[i]))
            for i, extent in enumerate(grid.chunk_shape)
        )

    other = _other_axes(spec)

    def cells():
        for label in labels:
            data = result.rows[label]
            row_labels = [""] * grid.n_dims
            row_labels[spec.axis_index] = label
            for t in range(data.shape[0]):
                row_labels[spec.param_index] = spec.param_axis.labels[t]
                for idx, value in np.ndenumerate(data[t]):
                    if np.isnan(value):
                        continue
                    for position, axis_index in zip(idx, other):
                        row_labels[axis_index] = spec.cube.axes[
                            axis_index
                        ].labels[int(position)]
                    yield tuple(row_labels), float(value)

    out = ChunkedCube.build(axes, cells(), chunk_shape)
    member_of_slot = {
        label: label.split("/")[-1] for label in labels
    }
    out_spec = VaryingAxisSpec(
        out,
        spec.axis.name,
        spec.param_axis.name,
        member_of_slot,
        {label: result.validity_out[label] for label in labels},
    )
    return out, out_spec


def run_multiple_mdx_simulation(
    spec: VaryingAxisSpec,
    members: Sequence[str],
    perspectives: PerspectiveSet,
    semantics: Semantics = Semantics.STATIC,
) -> PerspectiveQueryResult:
    """Fig. 11's "Multiple MDX" baseline: k single-perspective queries whose
    results are merged in post-processing (the paper notes even the merge
    overhead is not counted against this baseline; we count only the
    queries here too)."""
    return _merged(
        spec,
        [
            run_perspective_query(
                spec, members, PerspectiveSet([p], perspectives.universe), semantics
            )
            for p in perspectives.moments
        ],
    )
