"""Minimum Steiner cycles and paths on small multigraphs.

The engine is one depth-first search kernel for both questions.
A cycle search walks from the lowest terminal back to itself; a path
search walks from s and closes at t on the graph itself, with no
auxiliary node. Visited sets and the reachability test are bitmasks over
per-node neighbour masks. A branch is pruned when its weight plus an
admissible distance bound on the rest of the walk (whole-graph shortest
paths to each missing terminal and on to the closing node) exceeds the
incumbent, and when the remaining terminals or the closing node can no
longer be reached. The engine is deterministic, has error probability
zero, and ranks closings by their ``_perturbed`` sum, so it returns the
lexicographically smallest edge set among optima.
An existence mode stops at the first closing walk; the threshold scan of
the scaling gadget asks it whether a prefix holds a cycle. Edge weights
(positive integers, default one) let it answer subdivided-cost questions
without materialising subdivision paths. The per-(graph, weights) tables
(``SearchPrep``), distance rows included, are built once and shared by
every search on that graph, e.g. by the 2NCS subcall memo. Every search
runs on the calling thread. The solvers search the series reduction of
their graph (``graph.reduce_series``, through ``_reduced``) and map the
answer back chain by chain.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable

from .errors import NoCycle, NoPath, TerminalMissing
from .graph import Graph, reduce_series
from .solution import Solution, SolveStats

_Record = tuple[int, frozenset[int], int]  # perturbed sum, edge ids, node bitmask


def _perturbed(w: list[int]) -> list[int]:
    """``w[e] * 2^m - 2^(m-1-e)`` per edge, for integer weights w >= 1.
    A set of weight W sums to W * 2^m minus its own bitmask (edge 0 high),
    so the least sum has the least weight and then the lexicographically
    smallest edge ids: at equal weight no set is a prefix of another. A sum
    s has plain weight ``-(-s >> m)``."""
    m = len(w)
    return [(x << m) - (1 << (m - 1 - e)) for e, x in enumerate(w)]


def _weight_list(g: Graph, weights) -> list[int]:
    """Each edge's weight: ``weights[eid]`` for every edge id (a list or a
    mapping), or 1 throughout when ``weights`` is empty or None."""
    return [weights[e] for e in g.edge_ids()] if weights else [1] * g.m


def _reduced(g: Graph, terms: list[int], w: list[int], p: list[int], stats: SolveStats):
    """``reduce_series`` of g under the weights w, for a solver whose edge
    sums ``p`` (``_perturbed`` weights, over g's edge ids first) break its
    ties: the reduced graph, its plain weights, each reduced edge's sum of
    ``p`` over its chain (so every reduced edge set sums exactly what its
    expansion does), the terminals renumbered, and the map from a reduced
    edge set back to g's edge ids. Counts the Steiner nodes deleted and
    contracted and the edges folded into chains in ``stats``."""
    h, hw, origin, kept = reduce_series(g, terms, w)
    index = {v: i for i, v in enumerate(kept)}
    chains = [ids for ids in origin if len(ids) > 1]
    contracted = sum(len(ids) - 1 for ids in chains)
    stats.count("series_deleted", g.n - h.n - contracted)
    stats.count("series_contracted", contracted)
    stats.count("series_folded", contracted + len(chains))
    hp = [sum(p[e] for e in ids) for ids in origin]
    return (
        h, hw, hp, [index[t] for t in terms],
        lambda edges: frozenset(e for r in edges for e in origin[r]),
    )


def _check_terminals(g: Graph, terms: list[int]) -> None:
    if not terms:
        raise TerminalMissing("at least one terminal is required")
    for t in terms:
        if not 0 <= t < g.n:
            raise TerminalMissing(f"terminal {t} is not a node of the graph")


class SearchPrep:
    """Per-(graph, weights) tables of the search kernel.

    ``adj[v]`` lists ``(edge id, other end, w[eid], p[eid])`` in edge-id
    order and ``nbr[v]`` is the bitmask of v's neighbours. Build it once
    per graph and weight vector and pass it to every search on them;
    ``weights`` gives each edge id a positive integer (``_weight_list``),
    ``p`` the sums that rank closings, which the caller builds
    (``_perturbed(w)`` or chain sums of it; the plain weights when None,
    as an existence search needs no ranking), and ``edges``, if given,
    keeps only those edge ids.
    ``row(src)`` is the shortest-path distance from ``src`` to
    every node under those weights (``math.inf`` where unreachable); a row
    is built the first time a search asks for it and kept, so searches
    sharing the prep share its rows.
    """

    __slots__ = ("w", "p", "adj", "nbr", "rows")

    def __init__(
        self,
        g: Graph,
        weights=None,
        p: list[int] | None = None,
        edges: Iterable[int] | None = None,
    ):
        self.w = _weight_list(g, weights)
        self.p = self.w if p is None else p
        keep = None if edges is None else set(edges)
        self.adj = [
            tuple(
                (eid, g.edges[eid].other(v), self.w[eid], self.p[eid])
                for eid in g.incident(v)
                if keep is None or eid in keep
            )
            for v in range(g.n)
        ]
        self.nbr = [0] * g.n
        for v, row in enumerate(self.adj):
            for _, y, _, _ in row:
                self.nbr[v] |= 1 << y
        self.rows: dict[int, list] = {}

    def row(self, src: int) -> list:
        got = self.rows.get(src)
        if got is None:
            got = self.rows[src] = _distance_row(self, src)
        return got


def _distance_row(prep: SearchPrep, src: int) -> list:
    """Single-source distances under the prep's weights (Dijkstra)."""
    dist = [math.inf] * len(prep.adj)
    dist[src] = 0
    heap = [(0, src)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for _, y, wt, _ in prep.adj[v]:
            if d + wt < dist[y]:
                dist[y] = d + wt
                heapq.heappush(heap, (d + wt, y))
    return dist


class _Found(Exception):
    """Unwinds an existence search at its first closing walk."""


def _search(
    prep: SearchPrep,
    start: int,
    end: int,
    need: int,
    min_nodes: int,
    exists: bool = False,
) -> _Record | None:
    """The one search kernel: the record of the least perturbed sum over
    simple walks from ``start`` that pass every node of the bitmask
    ``need`` and close on an edge into ``end``; None if there is none.
    ``start == end`` asks for a cycle of at least ``min_nodes`` nodes,
    enumerated once by requiring the closing edge id to exceed the opening
    one; otherwise the walk is an s-t path. Visited sets and reachability
    are bitmasks. With ``exists`` set the search stops at the first
    closing walk and returns it, minimal or not.

    The walk carries its weight ``acc`` and its ``_perturbed`` sum ``accp``.
    A closing within the record's weight ``bound`` replaces the record if
    its sum is smaller. When the walk steps to y, the branch is pruned if
    ``acc`` plus a lower bound on the rest exceeds ``bound`` (strictly, so
    ties reach the sum comparison). The bound is the largest of: one per
    still-missing node plus one for closing; d(y, end); and d(y, t) +
    d(t, end) over missing t, where d is the whole-graph distance under
    the weights (``SearchPrep.row``). The rest of the walk is a path
    through unvisited nodes that visits every missing t and ends at
    ``end`` with at least missing + 1 edges of weight >= 1, so no term
    exceeds its weight: the bound is admissible and every search returns
    what an unpruned one would. The rows are read only once an incumbent
    exists, so an existence search builds none. A branch that survives is
    still pruned when the missing nodes or the closing edge can no longer
    be reached through unvisited nodes.
    """
    adj, nbr = prep.adj, prep.nbr
    closing = nbr[end]
    cycle = start == end
    best = None
    bound = math.inf
    to_end: list = []
    legs: list[tuple[int, list, int]] = []  # (bit of t, d(t, .), d(t, end))
    eids: list[int] = []

    def reachable(visited: int, head: int) -> bool:
        missing = need & ~visited
        reach = frontier = 1 << head
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = nbr[low.bit_length() - 1] & ~(visited | reach)
            reach |= new
            frontier |= new
        return bool(reach & closing) and not missing & ~reach

    def dfs(head: int, visited: int, acc: int, accp: int, first: int) -> None:
        nonlocal best, bound, to_end
        for eid, y, wt, pt in adj[head]:
            if y == end:
                if cycle and (eid <= first or visited.bit_count() < min_nodes):
                    continue
                if acc + wt > bound or need & ~visited:
                    continue
                if best is None or accp + pt < best[0]:
                    best = (accp + pt, frozenset(eids + [eid]), visited)
                    bound = acc + wt
                    if exists:
                        raise _Found
                    if not to_end:
                        to_end = prep.row(end)
                        others = need & ~(1 << start | 1 << end)
                        while others:
                            low = others & -others
                            others ^= low
                            t = low.bit_length() - 1
                            legs.append((low, prep.row(t), to_end[t]))
            elif not visited >> y & 1:
                acc2 = acc + wt
                seen = visited | 1 << y
                missing = need & ~seen
                if acc2 + missing.bit_count() + 1 > bound:
                    continue
                if to_end:
                    rest = to_end[y]
                    for bit, row, tail in legs:
                        if missing & bit and row[y] + tail > rest:
                            rest = row[y] + tail
                    if acc2 + rest > bound:
                        continue
                eids.append(eid)
                if reachable(seen, y):
                    dfs(y, seen, acc2, accp + pt, eid if first < 0 else first)
                eids.pop()

    try:
        dfs(start, 1 << start | 1 << end, 0, 0, -1)
    except _Found:
        pass
    return best


def _own_prep(g: Graph, weights) -> SearchPrep:
    """The prep of a search given none: ``_perturbed`` weights over g."""
    w = _weight_list(g, weights)
    return SearchPrep(g, w, _perturbed(w))


def search_min_cycle(
    g: Graph,
    terminals: Iterable[int],
    weights: dict[int, int] | None = None,
    min_nodes: int = 2,
    *,
    prep: SearchPrep | None = None,
) -> _Record:
    """Exhaustive core: the kernel's record (perturbed sum, edge ids, node
    mask); its plain weight is ``-(-sum >> g.m)`` when the search builds
    its own ``SearchPrep``.

    Enumerates every simple cycle through the smallest terminal once
    (direction canonicalised by requiring the closing edge id to exceed
    the opening edge id) and keeps the least perturbed sum: the least
    weight, then the smallest edge-id set. ``weights`` gives each edge id
    a positive integer, default 1; ``prep``, if given, is the shared
    ``SearchPrep`` of ``g`` and those weights and replaces them. Cycles
    with fewer than ``min_nodes`` nodes are rejected. Raises NoCycle.
    """
    terms = sorted(set(terminals))
    _check_terminals(g, terms)
    prep = prep or _own_prep(g, weights)
    best = _search(prep, terms[0], terms[0], sum(1 << v for v in terms), min_nodes)
    if best is None:
        raise NoCycle("no simple cycle contains all the terminals")
    return best


def steiner_cycle_exists(
    g: Graph, terminals: Iterable[int], edges: Iterable[int] | None = None
) -> bool:
    """Does some simple cycle through every terminal use only ``edges``
    (default: all of g)? The kernel's existence mode: it stops at the
    first cycle it closes and builds no distance rows."""
    terms = sorted(set(terminals))
    _check_terminals(g, terms)
    prep = SearchPrep(g, edges=edges)
    need = sum(1 << v for v in terms)
    return _search(prep, terms[0], terms[0], need, 2, exists=True) is not None


def cycle_node_order(g: Graph, edges: Iterable[int]) -> tuple[int, ...]:
    """Node order of a simple cycle given by its edge set; ValueError if
    the edges do not form one. Starts at the smallest node, and its
    smaller-id incident edge decides the direction."""
    eids = sorted(set(edges))
    if len(eids) < 2:
        raise ValueError("a cycle needs at least two edges")
    inc: dict[int, list[int]] = {}
    for eid in eids:
        e = g.edge(eid)
        inc.setdefault(e.u, []).append(eid)
        inc.setdefault(e.v, []).append(eid)
    if any(len(v) != 2 for v in inc.values()) or len(inc) != len(eids):
        raise ValueError("edge set is not a single simple cycle")
    start = min(inc)
    order = [start]
    eid = min(inc[start])
    cur = g.edge(eid).other(start)
    used = {eid}
    while cur != start:
        order.append(cur)
        nxt = inc[cur][0] if inc[cur][0] not in used else inc[cur][1]
        if nxt in used:
            raise ValueError("edge set is not a single simple cycle")
        used.add(nxt)
        cur = g.edge(nxt).other(cur)
    if len(order) != len(eids):
        raise ValueError("edge set is not a single simple cycle")
    return tuple(order)


def min_steiner_cycle(
    g: Graph,
    terminals: Iterable[int],
    stats: SolveStats | None = None,
    weights=None,
) -> Solution:
    """Minimum-weight simple cycle through all terminals (``weights`` as in
    ``search_min_cycle``, default 1: minimum size), the least
    ``_perturbed`` one: always a true optimum. Raises NoCycle when no
    simple cycle spans the terminals.

    It searches g's series reduction (``_reduced``), since a simple cycle
    passes a Steiner node of degree 2 with both of its edges or not at
    all, and no Steiner node of degree <= 1. The reduction's counts go to
    ``stats``, if given.
    """
    terms = sorted(set(terminals))
    _check_terminals(g, terms)
    w = _weight_list(g, weights)
    h, hw, hp, hterms, expand = _reduced(g, terms, w, _perturbed(w), stats or SolveStats())
    edges = expand(search_min_cycle(h, hterms, prep=SearchPrep(h, hw, hp))[1])
    return Solution(edges=edges, cost=g.total_cost(edges))


def search_min_path(
    g: Graph,
    terminals: Iterable[int],
    s: int,
    t: int,
    weights: dict[int, int] | None = None,
    *,
    prep: SearchPrep | None = None,
) -> _Record:
    """Weighted core of the path solver: the kernel's record, as in
    ``search_min_cycle``.

    Runs the cycle kernel in its s-t mode on ``g`` itself: the walk
    starts at s and closes on reaching t, so ties break to the
    lexicographically smallest edge set as for cycles. ``weights`` and
    ``prep`` are as in ``search_min_cycle``. Raises NoPath.
    """
    if s == t:
        raise ValueError("path endpoints must be distinct")
    terms = set(terminals)
    _check_terminals(g, sorted(terms | {s, t}))
    prep = prep or _own_prep(g, weights)
    best = _search(prep, s, t, sum(1 << v for v in terms), 0)
    if best is None:
        raise NoPath(f"no simple {s}-{t} path covers the terminals")
    return best


def min_steiner_path(
    g: Graph,
    terminals: Iterable[int],
    s: int,
    t: int,
) -> Solution:
    """Minimum-size simple s,t-path through all terminals; raises NoPath."""
    edges = search_min_path(g, terminals, s, t)[1]
    return Solution(edges=edges, cost=g.total_cost(edges))
