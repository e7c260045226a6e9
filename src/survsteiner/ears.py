"""Ear decompositions: plain, open, and terminal-anchored.

An ear decomposition starts from a base node, adds one closed ear (a cycle
through the base), then path or cycle ears whose endpoints lie on the body
built so far and whose internal nodes are new. A graph with at least two
nodes is 2-edge-connected exactly when such a decomposition covers every
edge, and 2-node-connected (three or more nodes) exactly when every ear
after the first is an open path.

``ear_decomposition`` computes one via chain decomposition: a depth-first
tree is walked in preorder and every back edge spawns a chain running from
its upper endpoint down the back edge and then up tree edges to the first
node already in a chain. ``terminal_ear_decomposition`` instead builds
every ear of two or more edges as a two-fan: two paths from a node off the
body to the body that share only that node, found as a unit max-flow of
value two by ``graph._augment``, the routine that also prices k-FST
protected paths. The fan lemma (Dirac 1960, from Menger 1927) says such a
fan exists in a 2-node-connected graph from any node to any body of at
least two nodes, with the paths ending at distinct body nodes, so each fan
is an open ear. The first fan meets a one-node body (the base), so both of
its paths end there and it closes into a cycle through the base, which
exists because any two nodes of a 2-node-connected graph share a cycle.
Fans start at the terminals first, so each early ear carries a terminal
internally, then at the other nodes; the edges left over are chords.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import NotTwoConnected, TerminalMissing
from .graph import Graph, _augment, _incidence, _view, is_connected, is_2nc


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
    every ear after the first open).
    """
    nodes, eids = _view(g, edges)
    if not eids or len(nodes) < 2:
        raise NotTwoConnected("nothing to decompose")
    if not is_connected(g, eids if edges is not None else None):
        raise NotTwoConnected("graph is not connected")
    if open_required and len(nodes) < 3:
        raise NotTwoConnected("open decomposition needs at least 3 nodes")

    inc = _incidence(g, eids)
    root = min(nodes)
    disc: dict[int, int] = {root: 0}
    parent: dict[int, int] = {}
    parent_edge: dict[int, int] = {}
    preorder: list[int] = [root]
    down_backs: dict[int, list[tuple[int, int]]] = {}
    # frame: [node, parent edge id, next incident index]
    frames: list[list[int]] = [[root, -1, 0]]
    while frames:
        v, pe, i = frames[-1]
        if i >= len(inc[v]):
            frames.pop()
            continue
        frames[-1][2] += 1
        eid, w = inc[v][i]
        if eid == pe:
            continue
        if w not in disc:
            disc[w] = len(disc)
            parent[w] = v
            parent_edge[w] = eid
            preorder.append(w)
            frames.append([w, eid, 0])
        elif disc[w] < disc[v]:
            down_backs.setdefault(w, []).append((eid, v))

    marked: set[int] = set()
    covered: set[int] = set()
    ears: list[Ear] = []
    for u in preorder:
        for eid, d in sorted(down_backs.get(u, ())):
            marked.add(u)
            seq_nodes = [u]
            seq_edges = [eid]
            cur = d
            while cur not in marked:
                marked.add(cur)
                seq_nodes.append(cur)
                seq_edges.append(parent_edge[cur])
                cur = parent[cur]
            seq_nodes.append(cur)
            ears.append(
                Ear(tuple(seq_nodes), tuple(seq_edges), seq_nodes[0] == seq_nodes[-1])
            )
            covered.update(seq_edges)

    if covered != set(eids):
        raise NotTwoConnected("a bridge prevents any ear decomposition")
    if open_required and any(ear.closed for ear in ears[1:]):
        raise NotTwoConnected("a cut-node forces a closed ear")
    return EarDecomposition(base_node=root, ears=tuple(ears))


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
) -> list[tuple[list[int], list[int]]]:
    """Two node-disjoint paths from ``source`` to the body over ``eids``.

    A unit-capacity flow network split at the nodes: node v enters at 2v
    and leaves at 2v + 1, and the sink is 2n. Internal nodes pass one
    unit from entry to exit, body nodes only absorb flow into the sink
    (one unit each, or two for a one-node body, whose fan is a cycle), so
    the paths share nothing except the source. Two calls of
    ``graph._augment`` at cost zero find the flow; each path is then
    traced from the source along the spent forward arcs. Returns two
    (node list, edge-id list) paths source-to-body.
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
        add(2 * b, sink, 2 if len(body) == 1 else 1)
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


def terminal_ear_decomposition(
    h: Graph, terminals: Iterable[int], edges: Iterable[int] | None = None
) -> EarDecomposition:
    """Open ear decomposition whose early ears each carry a terminal internally.

    The base is the smallest terminal. By the fan lemma (module docstring)
    a node off a body of at least two nodes has an open two-fan to it, and
    the first fan, whose body is the base alone, is a cycle through the
    base. A fan's paths meet the body only at their ends, so they use
    uncovered edges only. Ears come in this order: a fan from each terminal
    still off the body, smallest first (at most |terminals| - 1 of them,
    the terminal prefix); then a fan from each edge endpoint still off the
    body, in edge-id order, so isolated nodes of the view are never
    sources; then every uncovered edge as a one-edge ear (a chord).
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

    base = terms[0]
    body: set[int] = {base}
    covered: set[int] = set()
    ears: list[Ear] = []

    def add_fan_ear(source: int) -> None:
        avail = [eid for eid in eids if eid not in covered]
        p1, p2 = _two_fan(h, avail, source, body)
        seq_nodes = list(reversed(p1[0])) + p2[0][1:]
        seq_edges = list(reversed(p1[1])) + p2[1]
        ears.append(
            Ear(tuple(seq_nodes), tuple(seq_edges), seq_nodes[0] == seq_nodes[-1])
        )
        body.update(seq_nodes)
        covered.update(seq_edges)

    for t in terms:
        if t not in body:
            add_fan_ear(t)
    prefix = len(ears)
    for eid in eids:
        for v in h.edges[eid].ends:
            if v not in body:
                add_fan_ear(v)
    for eid in eids:
        if eid not in covered:
            e = h.edges[eid]
            ears.append(Ear((e.u, e.v), (eid,), False))
    return EarDecomposition(base_node=base, ears=tuple(ears), terminal_prefix=prefix)
