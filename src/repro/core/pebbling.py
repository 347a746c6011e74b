"""Graph pebbling for chunk-read ordering (Sec. 5.2).

The problem: given a merge dependency graph, order the chunk reads so the
fewest chunks are co-resident in memory.  The paper models this as
pebbling: place at most one pebble per node; a pebble may be removed from a
node once **all its neighbours have been pebbled** (at some point); minimise
the number of pebbles simultaneously on the graph.

:func:`pebble` implements the paper's heuristic verbatim:

* ``cost(x) = min over neighbours y of (deg(y) - 1)`` — the minimum number
  of *other* nodes that must be pebbled before a pebble on one of x's
  neighbours can be freed;
* start at a minimum-cost node (ties broken deterministically);
* repeatedly: free any freeable pebble; otherwise pebble an unpebbled
  neighbour of the pebbled region that *enables a removal*, preferring
  smaller cost; fall back to any fringe node, then to a fresh minimum-cost
  node (next connected component).

:func:`optimal_pebbles` finds the true optimum by state-space search (for
validation on small graphs, e.g. Fig. 9's 3-pebble answer), and
:func:`pebbles_for_order` evaluates the pebble demand of a *fixed* read
order (the naive sequential baseline discussed before Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Hashable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = [
    "PebblingResult",
    "node_cost",
    "pebble",
    "pebbles_for_order",
    "optimal_pebbles",
]

Node = Hashable


@dataclass
class PebblingResult:
    """Outcome of a pebbling run."""

    order: list[Node]
    max_pebbles: int
    #: (step, "place"/"remove", node) trace, for inspection and tests
    events: list[tuple[int, str, Node]] = field(default_factory=list)


def node_cost(graph: nx.Graph, node: Node) -> int:
    """The paper's cost: min over neighbours y of deg(y) - 1."""
    degrees = [graph.degree(y) for y in graph.neighbors(node)]
    if not degrees:
        return 0
    return min(d - 1 for d in degrees)


def _removable(graph: nx.Graph, node: Node, pebbled: set[Node]) -> bool:
    return all(neighbor in pebbled for neighbor in graph.neighbors(node))


def pebble(graph: nx.Graph, tie_break=None) -> PebblingResult:
    """Run the Sec. 5.2 heuristic; isolated nodes cost one transient pebble.

    ``tie_break`` optionally maps nodes to a sort key used to break ties
    deterministically (default: ``repr`` of the node).
    """
    if tie_break is None:
        tie_break = repr
    order: list[Node] = []
    events: list[tuple[int, str, Node]] = []
    pebbled: set[Node] = set()  # P: ever pebbled
    holding: set[Node] = set()  # Q: currently holding a pebble
    max_pebbles = 0
    step = 0

    def place(node: Node) -> None:
        nonlocal max_pebbles, step
        pebbled.add(node)
        holding.add(node)
        order.append(node)
        events.append((step, "place", node))
        step += 1
        max_pebbles = max(max_pebbles, len(holding))

    def sweep_removals() -> None:
        nonlocal step
        changed = True
        while changed:
            changed = False
            for node in sorted(holding, key=tie_break):
                if _removable(graph, node, pebbled):
                    holding.discard(node)
                    events.append((step, "remove", node))
                    step += 1
                    changed = True
                    break

    remaining = set(graph.nodes)
    while remaining - pebbled:
        if not holding:
            # New component (or start): pebble a minimum-cost node.
            candidates = sorted(
                remaining - pebbled,
                key=lambda n: (node_cost(graph, n), tie_break(n)),
            )
            place(candidates[0])
            sweep_removals()
            continue
        fringe = sorted(
            {
                y
                for x in pebbled
                for y in graph.neighbors(x)
                if y not in pebbled
            },
            key=lambda n: (node_cost(graph, n), tie_break(n)),
        )
        if not fringe:
            # Current component exhausted but pebbles may remain held
            # (should not happen on finite graphs, but stay safe): drop them.
            for node in sorted(holding, key=tie_break):
                holding.discard(node)
                events.append((step, "remove", node))
                step += 1
            continue
        enabling = [
            y
            for y in fringe
            if any(
                _removable(graph, q, pebbled | {y})
                for q in holding
            )
        ]
        place(enabling[0] if enabling else fringe[0])
        sweep_removals()
    sweep_removals()
    return PebblingResult(order, max_pebbles, events)


def pebbles_for_order(graph: nx.Graph, order: Sequence[Node]) -> int:
    """Pebble demand of a fixed read order (removing whenever allowed)."""
    nodes = set(graph.nodes)
    missing = nodes - set(order)
    if missing:
        raise ValueError(f"order does not cover nodes: {sorted(map(repr, missing))}")
    pebbled: set[Node] = set()
    holding: set[Node] = set()
    max_pebbles = 0
    for node in order:
        if node not in nodes or node in pebbled:
            continue
        pebbled.add(node)
        holding.add(node)
        max_pebbles = max(max_pebbles, len(holding))
        changed = True
        while changed:
            changed = False
            for held in list(holding):
                if _removable(graph, held, pebbled):
                    holding.discard(held)
                    changed = True
    return max_pebbles


def optimal_pebbles(graph: nx.Graph, limit: int = 14) -> int:
    """Exact minimum pebbles via best-first state search (small graphs).

    State = (frozenset pebbled, frozenset holding); cost = max pebbles so
    far.  Raises ``ValueError`` beyond ``limit`` nodes to avoid blow-up.
    """
    nodes = tuple(graph.nodes)
    if not nodes:
        return 0
    if len(nodes) > limit:
        raise ValueError(
            f"optimal_pebbles is exponential; graph has {len(nodes)} nodes "
            f"(> limit {limit})"
        )
    start = (frozenset(), frozenset())
    best: dict[tuple[frozenset, frozenset], int] = {start: 0}
    heap: list[tuple[int, int, tuple[frozenset, frozenset]]] = [(0, 0, start)]
    counter = 0
    all_nodes = frozenset(nodes)
    while heap:
        cost, _, (pebbled, holding) = heappop(heap)
        if cost > best.get((pebbled, holding), float("inf")):
            continue
        if pebbled == all_nodes:
            return cost
        # Removals are always beneficial: apply greedily to a closure.
        h = set(holding)
        changed = True
        while changed:
            changed = False
            for node in list(h):
                if _removable(graph, node, set(pebbled)):
                    h.discard(node)
                    changed = True
        holding = frozenset(h)
        state = (pebbled, holding)
        if cost > best.get(state, float("inf")):
            continue
        best[state] = min(best.get(state, cost), cost)
        for node in all_nodes - pebbled:
            new_state = (pebbled | {node}, holding | {node})
            new_cost = max(cost, len(holding) + 1)
            if new_cost < best.get(new_state, float("inf")):
                best[new_state] = new_cost
                counter += 1
                heappush(heap, (new_cost, counter, new_state))
    raise RuntimeError("search exhausted without pebbling all nodes")
