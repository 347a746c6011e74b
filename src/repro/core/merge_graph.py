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
