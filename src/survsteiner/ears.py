"""Ear decompositions: plain, open, and terminal-anchored.

An ear decomposition starts from a base node, adds one closed ear (a cycle
through the base), then path or cycle ears whose endpoints lie on the body
built so far and whose internal nodes are new. A graph with at least two
nodes is 2-edge-connected exactly when such a decomposition covers every
edge, and 2-node-connected (three or more nodes) exactly when every ear
after the first is an open path.

Both decompositions build every ear of two or more edges as a two-fan:
two paths from a node off the body to the body that share only that node,
found as a unit max-flow of value two by ``graph._augment``, the routine
that also prices k-FST protected paths. The fan lemma (Dirac 1960, from
Menger 1927) says such a fan exists in a 2-node-connected graph from any
node to any body of at least two nodes, with the paths ending at distinct
body nodes, so each fan is an open ear. The first fan meets a one-node
body (the base), so both of its paths end there and it closes into a cycle
through the base, which exists because any two nodes of a 2-node-connected
graph share a cycle. Fans start at the terminals first, if any, so each
early ear carries a terminal internally; then at a node joined to the body
by an edge; the edges left over are chords.

When closed ears are allowed, every body node may take both ends of a fan.
A node v joined to the body by an edge e then always has a fan in a
2-edge-connected view: e's block is 2-node-connected or a bundle of
parallel edges, and inside it v has two paths to the body that share only
v (an open fan, a cycle through v and the block's one body node, or two
parallel edges). A bridge, or a cut node when ears must be open, leaves
some fan missing; and a decomposition that covers a connected view proves
it 2-edge-connected (2-node-connected when open), so the fans succeed
exactly when the view is.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import NotTwoConnected, TerminalMissing
from .graph import Graph, _augment, _view, is_connected, is_2nc


@dataclass(frozen=True)
class Ear:
    """One ear: a walk given as nodes and the edge ids between them."""

    nodes: tuple[int, ...]
    edges: tuple[int, ...]
    closed: bool

    @property
    def internal_nodes(self) -> tuple[int, ...]:
        return self.nodes[1:-1]


@dataclass(frozen=True)
class EarDecomposition:
    """Ordered ears over a subgraph, starting from ``base_node``.

    ``terminal_prefix`` counts the leading ears that were added to cover
    terminals (zero for decompositions without terminals).
    """

    base_node: int
    ears: tuple[Ear, ...]
    terminal_prefix: int = 0


def ear_decomposition(
    g: Graph, open_required: bool = False, edges: Iterable[int] | None = None
) -> EarDecomposition:
    """Decompose the (sub)graph into ears, raising NotTwoConnected if none exists.

    Succeeds exactly on 2-edge-connected views; with ``open_required`` it
    succeeds exactly on 2-node-connected views (at least three nodes and
    every ear after the first open). The base is the smallest node, and
    every ear is a fan or a chord (module docstring).
    """
    nodes, eids = _view(g, edges)
    if not eids or len(nodes) < 2:
        raise NotTwoConnected("nothing to decompose")
    if not is_connected(g, eids if edges is not None else None):
        raise NotTwoConnected("graph is not connected")
    if open_required and len(nodes) < 3:
        raise NotTwoConnected("open decomposition needs at least 3 nodes")
    return _fan_ears(g, eids, min(nodes), (), closed=not open_required)


def check_ear_decomposition(
    g: Graph,
    decomposition: EarDecomposition,
    edges: Iterable[int] | None = None,
    open_required: bool = False,
    terminals: Iterable[int] | None = None,
) -> None:
    """Validate every structural rule of a decomposition; ValueError on breach.

    Used by tests and by certificate re-validation, so it trusts nothing:
    walk consistency, partitioning, attachment and freshness rules, the
    open/closed tags, and (when terminals are given) the terminal-prefix
    promises are all rechecked from scratch.
    """
    _, eids = _view(g, edges)
    target = set(eids)
    ears = decomposition.ears
    if not ears:
        raise ValueError("decomposition has no ears")

    seen_edges: set[int] = set()
    body: set[int] = {decomposition.base_node}
    for idx, ear in enumerate(ears):
        if len(ear.nodes) != len(ear.edges) + 1 or not ear.edges:
            raise ValueError(f"ear {idx}: node/edge sequence lengths do not match")
        for j, eid in enumerate(ear.edges):
            if eid not in target:
                raise ValueError(f"ear {idx}: edge {eid} outside the decomposed view")
            e = g.edge(eid)
            if {ear.nodes[j], ear.nodes[j + 1]} != {e.u, e.v}:
                raise ValueError(f"ear {idx}: edge {eid} does not join its stated nodes")
            if eid in seen_edges:
                raise ValueError(f"ear {idx}: edge {eid} appears twice")
            seen_edges.add(eid)
        closed = ear.nodes[0] == ear.nodes[-1]
        if closed != ear.closed:
            raise ValueError(f"ear {idx}: open/closed tag contradicts the node walk")
        if idx == 0:
            if not closed or ear.nodes[0] != decomposition.base_node:
                raise ValueError("first ear must be a cycle through the base node")
        elif open_required and closed:
            raise ValueError(f"ear {idx}: closed ear in an open decomposition")
        if ear.nodes[0] not in body or ear.nodes[-1] not in body:
            raise ValueError(f"ear {idx}: endpoint not on the body built so far")
        internal = ear.internal_nodes
        if len(set(internal)) != len(internal):
            raise ValueError(f"ear {idx}: repeated internal node")
        for v in internal:
            if v in body:
                raise ValueError(f"ear {idx}: internal node {v} already on the body")
        if ear.nodes[0] in internal or ear.nodes[-1] in internal:
            raise ValueError(f"ear {idx}: endpoint repeated as internal node")
        body.update(ear.nodes)

    if seen_edges != target:
        raise ValueError("ears do not cover the decomposed edge set")

    if terminals is not None:
        terms = set(terminals)
        prefix = decomposition.terminal_prefix
        if decomposition.base_node not in terms:
            raise ValueError("base node is not a terminal")
        if prefix > max(len(terms) - 1, 0):
            raise ValueError("terminal prefix longer than |terminals| - 1")
        covered_nodes: set[int] = {decomposition.base_node}
        for idx in range(prefix):
            if not terms & set(ears[idx].internal_nodes):
                raise ValueError(f"ear {idx}: no terminal among its internal nodes")
            covered_nodes.update(ears[idx].nodes)
        if not terms <= covered_nodes:
            raise ValueError("terminal prefix does not cover all terminals")


def _two_fan(
    g: Graph,
    eids: list[int],
    source: int,
    body: set[int],
    closed: bool,
) -> list[tuple[list[int], list[int]]]:
    """Two node-disjoint paths from ``source`` to the body over ``eids``.

    A unit-capacity flow network split at the nodes: node v enters at 2v
    and leaves at 2v + 1, and the sink is 2n. Internal nodes pass one
    unit from entry to exit, body nodes only absorb flow into the sink
    (one unit each, or two when ``closed`` or for a one-node body, so the
    fan may be a cycle), so the paths share nothing except the source.
    Two calls of ``graph._augment`` at cost zero find the flow; each path
    is then traced from the source along the spent forward arcs. Returns
    two (node list, edge-id list) paths source-to-body.
    """
    sink = 2 * g.n
    head: list[int] = []
    cap: list[int] = []
    arc_eid: list[int] = []
    out: list[list[int]] = [[] for _ in range(sink + 1)]

    def add(x: int, y: int, units: int, eid: int = -1) -> None:
        out[x].append(len(head))
        out[y].append(len(head) + 1)
        head.extend((y, x))
        cap.extend((units, 0))
        arc_eid.extend((eid, eid))

    for b in sorted(body):
        add(2 * b, sink, 2 if closed or len(body) == 1 else 1)
    transit: set[int] = set()
    for eid in eids:
        e = g.edges[eid]
        for x, y in ((e.u, e.v), (e.v, e.u)):
            if x in body or y == source:
                continue
            if y not in body and y not in transit:
                transit.add(y)
                add(2 * y, 2 * y + 1, 1)
            add(2 * x + 1, 2 * y, 1, eid)

    cost = [0] * len(head)
    for _ in range(2):
        if _augment(head, cost, cap, out, 2 * source + 1, sink) is None:
            raise NotTwoConnected(f"no two-fan from node {source} to the body")

    paths: list[tuple[list[int], list[int]]] = []
    for _ in range(2):
        nodes = [source]
        eids_path: list[int] = []
        v = source
        while v not in body:
            ai = next(a for a in out[2 * v + 1] if a % 2 == 0 and cap[a] == 0)
            cap[ai] = 1  # traced: the second path must not take it again
            eids_path.append(arc_eid[ai])
            v = head[ai] // 2
            nodes.append(v)
        paths.append((nodes, eids_path))
    return paths


def _fan_ears(
    h: Graph, eids: list[int], base: int, sources: Iterable[int], closed: bool
) -> EarDecomposition:
    """The ears of the view ``eids`` grown from ``base`` (module docstring).

    Ears come in this order: a fan from each of ``sources`` still off the
    body (their count is the terminal prefix); then, while some edge has
    exactly one end on the body, a fan from its other end, lowest edge id
    first, so isolated nodes are never sources; then every uncovered edge
    as a one-edge ear (a chord). A fan's paths meet the body only at their
    ends, so they use uncovered edges only. ``closed`` lets every fan end
    twice at one body node. Raises NotTwoConnected when a fan is missing.
    """
    body: set[int] = {base}
    covered: set[int] = set()
    ears: list[Ear] = []

    def add_fan_ear(source: int) -> None:
        avail = [eid for eid in eids if eid not in covered]
        p1, p2 = _two_fan(h, avail, source, body, closed)
        seq_nodes = list(reversed(p1[0])) + p2[0][1:]
        seq_edges = list(reversed(p1[1])) + p2[1]
        ears.append(
            Ear(tuple(seq_nodes), tuple(seq_edges), seq_nodes[0] == seq_nodes[-1])
        )
        body.update(seq_nodes)
        covered.update(seq_edges)

    for s in sources:
        if s not in body:
            add_fan_ear(s)
    prefix = len(ears)
    while True:
        # an edge with one end on the body is uncovered: ears stay inside it
        for eid in eids:
            e = h.edges[eid]
            if (e.u in body) != (e.v in body):
                add_fan_ear(e.v if e.u in body else e.u)
                break
        else:
            break
    for eid in eids:
        if eid not in covered:
            e = h.edges[eid]
            ears.append(Ear((e.u, e.v), (eid,), False))
    return EarDecomposition(base_node=base, ears=tuple(ears), terminal_prefix=prefix)


def terminal_ear_decomposition(
    h: Graph, terminals: Iterable[int], edges: Iterable[int] | None = None
) -> EarDecomposition:
    """Open ear decomposition whose early ears each carry a terminal internally.

    The base is the smallest terminal, and the fans start at the
    terminals still off the body, smallest first: at most
    |terminals| - 1 of them, the terminal prefix (module docstring).
    """
    nodes, eids = _view(h, edges)
    node_set = set(nodes)
    terms = sorted(set(terminals))
    if not terms:
        raise TerminalMissing("at least one terminal is required")
    for t in terms:
        if t not in node_set:
            raise TerminalMissing(f"terminal {t} is not in the graph")
    if not is_2nc(h, eids):
        raise NotTwoConnected("terminal decomposition needs a 2-node-connected graph")
    return _fan_ears(h, eids, terms[0], terms, closed=False)
