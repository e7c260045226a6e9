"""Loop-free multigraphs with exact rational edge costs and safety flags.

A graph is immutable: nodes are ``0..n-1`` and edges carry dense ids
``0..m-1`` assigned in construction order (parallel edges are distinct ids;
self-loops are rejected).  Subgraphs are represented everywhere as sets of
edge ids over the parent graph, so deletion and union are plain set
operations.  Every structural query below takes an optional ``edges``
argument: ``None`` means the whole graph (all ``n`` nodes, including
isolated ones), an edge-id set means the subgraph induced by those edges
(its nodes are exactly the endpoints).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


def exact_fraction(value) -> Fraction:
    """Exact rational from int/str/Fraction; floats go through repr so that
    a literal like 0.1 means one tenth, not its binary approximation."""
    if isinstance(value, float):
        return Fraction(repr(value))
    return Fraction(value)


@dataclass(frozen=True)
class Edge:
    """One undirected edge. ``safe`` distinguishes fault-free edges from
    edges that may fail (used by the flexible connectivity solvers)."""

    id: int
    u: int
    v: int
    cost: Fraction
    safe: bool = True

    def other(self, node: int) -> int:
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValueError(f"node {node} is not an endpoint of edge {self.id}")

    @property
    def ends(self) -> tuple[int, int]:
        return (self.u, self.v)


class Graph:
    """Immutable loop-free multigraph."""

    __slots__ = ("n", "edges", "_incident")

    def __init__(self, n: int, edges: Sequence[Edge]):
        self.n = n
        self.edges = tuple(edges)
        incident: list[list[int]] = [[] for _ in range(n)]
        for e in self.edges:
            incident[e.u].append(e.id)
            incident[e.v].append(e.id)
        self._incident = tuple(tuple(ids) for ids in incident)

    @classmethod
    def build(cls, n: int, specs: Iterable[tuple]) -> "Graph":
        """Create a graph from ``(u, v)``, ``(u, v, cost)`` or
        ``(u, v, cost, safe)`` tuples. Costs default to 1, safety to True."""
        if n < 0:
            raise ValueError("node count must be non-negative")
        edges = []
        for i, spec in enumerate(specs):
            u, v = spec[0], spec[1]
            cost = exact_fraction(spec[2]) if len(spec) > 2 else Fraction(1)
            safe = bool(spec[3]) if len(spec) > 3 else True
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {i}: endpoint out of range")
            if u == v:
                raise ValueError(f"edge {i}: self-loops are not allowed")
            if cost < 0:
                raise ValueError(f"edge {i}: negative cost")
            edges.append(Edge(i, u, v, cost, safe))
        return cls(n, edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    def incident(self, node: int) -> tuple[int, ...]:
        return self._incident[node]

    def edge(self, eid: int) -> Edge:
        return self.edges[eid]

    def edge_ids(self) -> range:
        return range(len(self.edges))

    def extended(self, extra_nodes: int = 0, extra_edges: Iterable[tuple] = ()) -> "Graph":
        """New graph with nodes/edges appended; existing edge ids are kept."""
        specs = [(e.u, e.v, e.cost, e.safe) for e in self.edges]
        specs.extend(extra_edges)
        return Graph.build(self.n + extra_nodes, specs)

    def total_cost(self, edges: Iterable[int]) -> Fraction:
        return sum((self.edges[eid].cost for eid in edges), Fraction(0))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Block:
    """A block: maximal connected subgraph without a cut-node.

    Either a maximal 2-node-connected subgraph (>= 3 nodes), a bridge
    (one edge), a parallel bundle on two nodes, or a degenerate one-node
    block standing for an isolated node (no edges).
    """

    nodes: frozenset[int]
    edges: frozenset[int]

    @property
    def is_bridge(self) -> bool:
        return len(self.edges) == 1

    @property
    def is_twonc(self) -> bool:
        """True for blocks that are 2-node-connected subgraphs themselves."""
        return len(self.nodes) >= 3


def _view(g: Graph, edges: Iterable[int] | None) -> tuple[list[int], list[int]]:
    """Resolve a subgraph view: (sorted node list, sorted edge-id list)."""
    if edges is None:
        return list(range(g.n)), list(g.edge_ids())
    eids = sorted(edges)
    return sorted(subgraph_nodes(g, eids)), eids


def subgraph_nodes(g: Graph, edges: Iterable[int]) -> frozenset[int]:
    nodes: set[int] = set()
    for eid in edges:
        e = g.edges[eid]
        nodes.add(e.u)
        nodes.add(e.v)
    return frozenset(nodes)


def _incidence(g: Graph, eids: Iterable[int]) -> dict[int, list[tuple[int, int]]]:
    """``(edge id, other end)`` lists per node, in the order of ``eids``."""
    inc: dict[int, list[tuple[int, int]]] = {}
    for eid in eids:
        e = g.edges[eid]
        inc.setdefault(e.u, []).append((eid, e.v))
        inc.setdefault(e.v, []).append((eid, e.u))
    return inc


def degrees(g: Graph, edges: Iterable[int] | None = None) -> dict[int, int]:
    nodes, eids = _view(g, edges)
    deg = dict.fromkeys(nodes, 0)
    for eid in eids:
        e = g.edges[eid]
        deg[e.u] += 1
        deg[e.v] += 1
    return deg


def degree3_nodes(g: Graph, edges: Iterable[int] | None = None) -> frozenset[int]:
    """Nodes of degree >= 3 in the view (the branching nodes)."""
    return frozenset(v for v, d in degrees(g, edges).items() if d >= 3)


def connected_components(
    g: Graph, edges: Iterable[int] | None = None, nodes: Iterable[int] | None = None
) -> list[frozenset[int]]:
    """Components of the view, smallest-member order. ``nodes`` may widen the
    node set beyond edge endpoints (extra nodes appear as singletons)."""
    view_nodes, eids = _view(g, edges)
    node_set = set(view_nodes)
    if nodes is not None:
        node_set |= set(nodes)
    adj: dict[int, list[int]] = {v: [] for v in node_set}
    for eid in eids:
        e = g.edges[eid]
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    comps = []
    seen: set[int] = set()
    for s in sorted(node_set):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def is_connected(
    g: Graph, edges: Iterable[int] | None = None, nodes: Iterable[int] | None = None
) -> bool:
    return len(connected_components(g, edges, nodes)) == 1


def blocks_and_cuts(
    g: Graph, edges: Iterable[int] | None = None
) -> tuple[list[Block], frozenset[int], frozenset[int]]:
    """Blocks, cut-nodes and bridges of the view.

    Iterative lowpoint depth-first search; parallel edges are handled by
    skipping only the tree edge's id, so a parallel bundle forms one block.
    Blocks partition the edge set; cut-nodes are exactly the nodes lying in
    two or more blocks; bridges are exactly the single-edge blocks.
    """
    _, eids = _view(g, edges)
    inc = _incidence(g, eids)

    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    timer = 0
    raw_blocks: list[list[int]] = []
    cuts: set[int] = set()
    estack: list[int] = []

    for s in sorted(inc):
        if s in disc:
            continue
        disc[s] = low[s] = timer
        timer += 1
        root_children = 0
        # frame: [node, parent edge id, next incident index]
        frames: list[list[int]] = [[s, -1, 0]]
        while frames:
            v, pe, i = frames[-1]
            if i < len(inc[v]):
                frames[-1][2] += 1
                eid, w = inc[v][i]
                if eid == pe:
                    continue
                if w not in disc:
                    estack.append(eid)
                    disc[w] = low[w] = timer
                    timer += 1
                    frames.append([w, eid, 0])
                elif disc[w] < disc[v]:
                    estack.append(eid)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                frames.pop()
                if not frames:
                    break
                p = frames[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    grp = []
                    while True:
                        popped = estack.pop()
                        grp.append(popped)
                        if popped == pe:
                            break
                    raw_blocks.append(grp)
                    if p == s:
                        root_children += 1
                    else:
                        cuts.add(p)
        if root_children >= 2:
            cuts.add(s)

    blocks = [Block(subgraph_nodes(g, grp), frozenset(grp)) for grp in raw_blocks]
    blocks.sort(key=lambda b: min(b.edges))
    bridges = frozenset(min(b.edges) for b in blocks if b.is_bridge)
    return blocks, frozenset(cuts), bridges


def is_2ec(g: Graph, edges: Iterable[int] | None = None) -> bool:
    """True iff the view has >= 2 nodes, is connected, and has no bridge."""
    nodes, eids = _view(g, edges)
    if len(nodes) < 2:
        return False
    if not is_connected(g, edges):
        return False
    _, _, bridges = blocks_and_cuts(g, eids)
    return not bridges


def is_2nc(g: Graph, edges: Iterable[int] | None = None) -> bool:
    """True iff the view has > 2 nodes, is connected, and has no cut-node."""
    nodes, eids = _view(g, edges)
    if len(nodes) <= 2:
        return False
    if not is_connected(g, edges):
        return False
    _, cuts, _ = blocks_and_cuts(g, eids)
    return not cuts


def _augment(
    head: list[int],
    cost: list[int],
    cap: list[int],
    out: list[list[int]],
    src: int,
    dst: int,
) -> int | None:
    """Push one unit along a cheapest residual src-dst path; its cost, or
    None (``cap`` untouched) when ``dst`` is unreachable.

    The network is arc arrays: arc i runs into ``head[i]`` at ``cost[i]``
    with ``cap[i]`` units left, ``out[x]`` lists the arcs leaving node x,
    and arc i ^ 1 is the reverse twin of arc i, carrying the cost negated.
    Bellman-Ford copes with those negative residual costs; among
    equal-cost routes the first one found wins.
    """
    dist: list[int | None] = [None] * len(out)
    pre: list[int] = [-1] * len(out)
    dist[src] = 0
    frontier = {src}
    while frontier:
        nxt = set()
        for u in frontier:
            du = dist[u]
            for ai in out[u]:
                if cap[ai] <= 0:
                    continue
                v = head[ai]
                cand = du + cost[ai]
                if dist[v] is None or cand < dist[v]:
                    dist[v] = cand
                    pre[v] = ai
                    nxt.add(v)
        frontier = nxt
    if dist[dst] is None:
        return None
    v = dst
    while v != src:
        ai = pre[v]
        cap[ai] -= 1
        cap[ai ^ 1] += 1
        v = head[ai ^ 1]
    return dist[dst]
