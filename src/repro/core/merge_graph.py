"""Merge dependency graphs between chunks (Sec. 5.2, Figs. 8 and 9).

When a perspective query merges the sub-cubes (rows) of a varying member's
instances, chunks holding different instances of the same member cannot be
fully processed until all of them have been read.  The *merge dependency
graph* has chunks as nodes and an edge between two chunks whenever one must
be merged into the other; for the purpose of ordering reads, direction is
irrelevant (the paper: "neither c_i nor c_j can be fully processed before
both of them are read in").

Two builders are provided:

* :func:`merge_graph_from_occurrences` — directly from a map
  ``member -> occurrence chunks`` (the form of the Fig. 8 example: product
  p occurs in chunks 1, 5, 9, 10 ⇒ edges 5–1, 9–1, 10–1 from the paper's
  narrative, where later occurrences merge into the first);
* :func:`build_merge_graph` — from a chunked cube with a varying axis and a
  perspective query: each instance's occurrence chunks are computed from
  its row slot and validity set, and every source chunk is linked to the
  chunk holding the governing (merge-target) instance at the same
  parameter-chunk position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Sequence

from repro.core.perspective import PerspectiveSet, Semantics, phi
from repro.errors import QueryError
from repro.storage.array_cube import ChunkedCube
from repro.validity import ValiditySet

if TYPE_CHECKING:  # pragma: no cover - typing only
    # imported where a graph is built (0.13-0.20 s, ~13 MB): a process
    # that only queries a warehouse never pays for it
    import networkx as nx

__all__ = [
    "merge_graph_from_occurrences",
    "build_merge_graph",
    "occurrence_chunks",
    "plan_axis_shards",
    "ShardPlan",
    "VaryingAxisSpec",
    "fig8_example_graph",
]


def merge_graph_from_occurrences(
    occurrences: Mapping[str, Sequence[Hashable]],
) -> nx.Graph:
    """Build the graph from per-member occurrence chunk lists.

    The first chunk in each member's list is the merge target (as in the
    Fig. 8 walkthrough); every other occurrence gets an edge to it.
    Self-loops (a member contained in a single chunk) are ignored.
    """
    import networkx as nx

    graph = nx.Graph()
    for member, chunks in occurrences.items():
        if not chunks:
            continue
        target, *rest = chunks
        graph.add_node(target)
        for chunk in rest:
            if chunk != target:
                graph.add_edge(target, chunk, member=member)
    return graph


def fig8_example_graph() -> nx.Graph:
    """The exact example of Figs. 8/9: products p, q, r, s.

    p occurs in chunks 1, 5, 9, 10; q in 5 and 3; r in 10 and 7; s in 9
    and 6.  The resulting merge dependency graph (Fig. 9) has edges
    1–5, 1–9, 1–10, 5–3, 10–7, 9–6.
    """
    return merge_graph_from_occurrences(
        {"p": [1, 5, 9, 10], "q": [5, 3], "r": [10, 7], "s": [9, 6]}
    )


class VaryingAxisSpec:
    """Metadata tying a chunked cube's axis to varying-member instances.

    Parameters
    ----------
    cube:
        The chunked cube.
    axis_name:
        Name of the varying axis (slots are member-instance labels).
    parameter_axis_name:
        Name of the parameter axis (slots are moments in leaf order).
    member_of_slot:
        Member name for each slot label of the varying axis.
    validity_of_slot:
        Validity set for each slot label (moments are positions on the
        parameter axis).
    """

    def __init__(
        self,
        cube: ChunkedCube,
        axis_name: str,
        parameter_axis_name: str,
        member_of_slot: Mapping[str, str],
        validity_of_slot: Mapping[str, ValiditySet],
    ) -> None:
        self.cube = cube
        self.axis_index = cube.axis_position(axis_name)
        self.param_index = cube.axis_position(parameter_axis_name)
        self.axis = cube.axis(axis_name)
        self.param_axis = cube.axis(parameter_axis_name)
        self.member_of_slot = dict(member_of_slot)
        self.validity_of_slot = dict(validity_of_slot)
        universe = len(self.param_axis)
        for label, validity in self.validity_of_slot.items():
            if validity.universe != universe:
                raise QueryError(
                    f"validity of slot {label!r} has universe "
                    f"{validity.universe}, parameter axis has {universe}"
                )

    def slots_of_member(self, member: str) -> list[str]:
        return [
            label
            for label, owner in self.member_of_slot.items()
            if owner == member
        ]

    def slot_row(self, label: str) -> int:
        return self.axis.index(label)

    def changing_members(self) -> list[str]:
        """Members with more than one instance slot, in axis order."""
        counts: dict[str, int] = {}
        for owner in self.member_of_slot.values():
            counts[owner] = counts.get(owner, 0) + 1
        order = {label: i for i, label in enumerate(self.axis.labels)}
        firsts: dict[str, int] = {}
        for label, owner in self.member_of_slot.items():
            position = order.get(label, len(order))
            firsts[owner] = min(firsts.get(owner, position), position)
        return sorted(
            (m for m, c in counts.items() if c > 1), key=firsts.__getitem__
        )


def occurrence_chunks(
    spec: VaryingAxisSpec, label: str, moments: Iterable[int] | None = None
) -> list[tuple[int, ...]]:
    """Plane chunks containing the (row, moment) cells of one instance.

    ``moments`` defaults to the instance's validity set.  This is the
    "product p occurs in chunks 1, 5, 9, 10" notion of Fig. 8.
    """
    grid = spec.cube.grid
    if moments is None:
        moments = spec.validity_of_slot[label]
    row = spec.slot_row(label)
    row_chunk = row // grid.chunk_shape[spec.axis_index]
    seen: set[int] = set()
    chunks: list[tuple[int, ...]] = []
    for t in moments:
        t_chunk = t // grid.chunk_shape[spec.param_index]
        if t_chunk in seen:
            continue
        seen.add(t_chunk)
        coord = [0] * grid.n_dims
        coord[spec.axis_index] = row_chunk
        coord[spec.param_index] = t_chunk
        chunks.append(tuple(coord))
    return chunks


def build_merge_graph(
    spec: VaryingAxisSpec,
    perspectives: PerspectiveSet,
    semantics: Semantics,
    members: Iterable[str] | None = None,
) -> nx.Graph:
    """Merge dependency graph for a perspective query over a chunked cube.

    Nodes are chunk coordinates in the (varying axis × parameter axis)
    plane (all other chunk coordinates fixed at 0 — the dependency pattern
    repeats identically across the remaining dimensions).  For each
    changing member, the Φ transform determines which target instance
    absorbs each moment; an edge links the chunk holding the source
    instance's cells to the chunk holding the target row at the same
    parameter position.
    """
    import networkx as nx

    graph = nx.Graph()
    if members is None:
        members = spec.changing_members()
    grid = spec.cube.grid
    for member in members:
        labels = spec.slots_of_member(member)
        if len(labels) < 2:
            continue
        validity_in = {label: spec.validity_of_slot[label] for label in labels}
        validity_out = phi(validity_in, perspectives, semantics)
        for target_label, out_validity in validity_out.items():
            target_row_chunk = (
                spec.slot_row(target_label) // grid.chunk_shape[spec.axis_index]
            )
            for source_label in labels:
                if source_label == target_label:
                    continue
                moved = out_validity & validity_in[source_label]
                for t_chunk in {
                    t // grid.chunk_shape[spec.param_index] for t in moved
                }:
                    target = [0] * grid.n_dims
                    target[spec.axis_index] = target_row_chunk
                    target[spec.param_index] = t_chunk
                    source = list(target)
                    source[spec.axis_index] = (
                        spec.slot_row(source_label)
                        // grid.chunk_shape[spec.axis_index]
                    )
                    if tuple(source) != tuple(target):
                        graph.add_edge(
                            tuple(target), tuple(source), member=member
                        )
                    else:
                        graph.add_node(tuple(target))
    return graph


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic placement of a varying axis onto shard processes.

    ``shards[i]`` is the tuple of member names owned by shard ``i`` (in
    axis order); ``member_shard`` maps each member name to its shard and
    ``label_shard`` maps each instance slot label (full path) to the
    shard holding its member.  Co-residency is total per member: every
    slot of a member lives on exactly one shard, so a cell whose varying
    coordinate is one instance can be evaluated by that shard alone.
    """

    dimension: str
    n_shards: int
    shards: tuple[tuple[str, ...], ...]
    member_shard: Mapping[str, int]
    label_shard: Mapping[str, int]

    def shard_of_coordinate(self, coord: str) -> "int | None":
        """Owning shard of a cell coordinate on the shard axis, or
        ``None`` when no single shard covers its scope (the coordinator
        answers such a cell).

        Accepts either a slot label (instance full path) or a bare
        member name; anything else — a category, the dimension root —
        spans shards.
        """
        shard = self.label_shard.get(coord)
        if shard is not None:
            return shard
        shard = self.member_shard.get(coord)
        if shard is not None:
            return shard
        return self.member_shard.get(coord.rsplit("/", 1)[-1])


def plan_axis_shards(
    dimension: str,
    slots_of_member: Mapping[str, Sequence[str]],
    n_shards: int,
    chunk: int = 8,
) -> ShardPlan:
    """Partition a varying axis across shard processes.

    The axis's slot labels (member-instance rows, in axis order) are cut
    into chunks of ``chunk`` slots; :func:`merge_graph_from_occurrences`
    over each member's occurrence chunks yields the merge dependency
    graph, whose connected components are the *co-residency groups*:
    chunks in one component hold instances that a perspective merge may
    need together, so the whole group — and with it every slot of every
    member touching it — is placed on a single shard.  Groups are then
    **range-packed**: swept in axis (lowest-chunk) order into ``n_shards``
    contiguous bins of roughly equal slot count.  Contiguity is the
    point — the axis is laid out in outline order, so members that are
    queried together (one department, one organisational unit) stay on
    one shard and a scoped query touches a single shard instead of
    scattering to all of them; the equal-load sweep keeps the bins as
    balanced as group granularity allows.  The sweep is deterministic,
    so coordinator and shards can both derive the identical plan from
    the schema alone.
    """
    if n_shards < 1:
        raise QueryError("n_shards must be >= 1")
    if chunk < 1:
        raise QueryError("chunk must be >= 1")
    import networkx as nx

    members = list(slots_of_member)
    slot_order: list[str] = []
    for member in members:
        slot_order.extend(slots_of_member[member])
    chunk_of_slot = {
        label: position // chunk for position, label in enumerate(slot_order)
    }
    occurrences = {
        member: sorted({chunk_of_slot[label] for label in slots_of_member[member]})
        for member in members
    }
    graph = merge_graph_from_occurrences(occurrences)
    # Every chunk must be a node even when edge-free (single-member chunks
    # form their own singleton component).
    for chunks in occurrences.values():
        graph.add_nodes_from(chunks)

    members_of_chunk: dict[int, list[str]] = {}
    for member, chunks in occurrences.items():
        for c in chunks:
            members_of_chunk.setdefault(c, []).append(member)

    member_rank = {member: i for i, member in enumerate(members)}
    groups: list[tuple[int, int, list[str]]] = []  # (min_chunk, weight, members)
    for component in nx.connected_components(graph):
        group_members: set[str] = set()
        for c in component:
            group_members.update(members_of_chunk.get(c, ()))
        if not group_members:
            continue
        ordered = sorted(group_members, key=member_rank.__getitem__)
        weight = sum(len(slots_of_member[m]) for m in ordered)
        groups.append((min(component), weight, ordered))
    groups.sort()

    # Range packing: sweep the groups in axis order and close each bin
    # once its cumulative load crosses the bin's fair-share boundary —
    # contiguous, balanced, and locality-preserving.
    total_slots = sum(weight for _, weight, _ in groups)
    bins: list[list[str]] = [[] for _ in range(n_shards)]
    cumulative = 0
    for _, weight, group_members in groups:
        # midpoint assignment: the group goes to the bin its centre falls
        # into, so a group straddling a boundary is not always pushed right
        centre = cumulative + weight / 2.0
        target = min(n_shards - 1, int(centre * n_shards // max(total_slots, 1)))
        bins[target].extend(group_members)
        cumulative += weight

    member_shard: dict[str, int] = {}
    label_shard: dict[str, int] = {}
    for index, owned in enumerate(bins):
        owned.sort(key=member_rank.__getitem__)
        for member in owned:
            member_shard[member] = index
            for label in slots_of_member[member]:
                label_shard[label] = index
    return ShardPlan(
        dimension=dimension,
        n_shards=n_shards,
        shards=tuple(tuple(owned) for owned in bins),
        member_shard=member_shard,
        label_shard=label_shard,
    )
