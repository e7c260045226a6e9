"""Minimum subgraphs that survive any single unsafe-edge failure.

The problem: connect a terminal set so that the subgraph stays connected
when any one UNSAFE edge is removed (safe edges never fail). With every
edge unsafe this is the 2-edge-connected Steiner variant.

Solver outline. Each terminal first gets a pendant node on a fresh safe
edge, which normalises minimal solutions: terminals become leaves of the
condensed block tree, at most k-2 of its nodes are internal, and their
cut nodes number at most 3k-6 with repetition. The search enumerates
families of up to k-2 candidate cut-node sets (total size at most 3k-6),
prices a minimum 2-node-connected container per multi-node set
(``twonc._Subcalls.container``; a singleton stands for a lone branching
cut node and contributes no edges), and joins everything with terminals
through a minimum spanning tree over 1-protected paths: connections that
themselves survive any single unsafe failure, i.e. chains of safe edges
and two-edge-disjoint path pairs. The cheapest assembly over all
families wins. Two terminals take the same scan: their one family is the
empty one, and its join is the protected path between the pendants.

Union lemma: every assembled union is feasible, and
``tests/test_feasible_by_construction.py`` checks every offer with
``oracle_feasible``. No ``pay`` set of the table has an unsafe bridge:
each is a safe edge, two edge-disjoint paths, or a Floyd-Warshall union
of two such sets at a shared node. Every part container is
2-node-connected. The spanning tree glues all of these pieces into one
connected subgraph over every part and every pendant terminal, and a
bridge of the union is a bridge of the piece that holds it. So the scan
offers each union as it stands; ``prefix_feasible`` before it is the only
feasibility test, and a register still empty after it is a fault,
reported as Infeasible.

One Floyd-Warshall table of those paths serves a whole request: the
join reads each set-to-set link from it as a minimum over node pairs.
Table and unions are weighed with the pendant graph's ``twonc._perturbed``
weights, so the minimum union is unique, the lexicographically smallest
optimum (pendant edges, last by id, lie in every union). Families run in
order of a bound, ceil(MST / 2^M) for M edges plus max(3, |p|) per
multi-node part p, until one exceeds the incumbent's weight. Lemma: the
family of the optimum's own parts is never skipped, and its union is the
optimum. Its MST costs at most the optimum's own connections, each of its
containers has >= max(3, |p|) edges and weighs at most the optimum's
block there, and these pieces are edge-disjoint. So its bound is at most
the optimum's weight, hence the incumbent's, and its union weighs at most
the unique minimum (parts of <= 3 nodes aside: ROADMAP K, small-part gap).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    AlreadyModified,
    Infeasible,
    InfiniteMst,
    NoProtectedPath,
    NotModified,
)
from .graph import Graph, _augment
from .scaling import prefix_feasible, solve_scaled
from .solution import ProblemKind, Solution, SolveStats, run_stats
from .twonc import _Incumbent, _perturbed, _Subcalls


@dataclass
class FstInstance:
    """A graph with safety flags plus its terminal set.

    ``modified`` records whether the pendant gadget has been applied;
    ``pendant_map`` then sends each original terminal to its pendant
    node and safe pendant edge id.
    """

    graph: Graph
    terminals: frozenset[int]
    modified: bool = False
    pendant_map: dict[int, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        self.terminals = frozenset(self.terminals)
        for t in self.terminals:
            if not 0 <= t < self.graph.n:
                raise ValueError(f"terminal {t} outside the node range")


def apply_pendant_gadget(inst: FstInstance) -> FstInstance:
    """Attach one new pendant node per terminal by a fresh safe edge.

    The pendant nodes become the terminal set; a set F is feasible for
    the original instance exactly when F plus all pendant edges is
    feasible for the modified one.
    """
    if inst.modified:
        raise AlreadyModified("pendant gadget was already applied")
    g = inst.graph
    terms = sorted(inst.terminals)
    specs = [(t, g.n + i, 1, True) for i, t in enumerate(terms)]
    bigger = g.extended(len(terms), specs)
    pendant_map = {t: (g.n + i, g.m + i) for i, t in enumerate(terms)}
    new_terms = frozenset(g.n + i for i in range(len(terms)))
    return FstInstance(bigger, new_terms, True, pendant_map)


def strip_pendant_gadget(inst: FstInstance, sol: Solution) -> Solution:
    """Remove exactly the pendant edges from a modified-instance solution."""
    if not inst.modified:
        raise NotModified("instance carries no pendant gadget")
    pendant_eids = {eid for _, eid in inst.pendant_map.values()}
    if not pendant_eids <= sol.edges:
        raise NotModified("solution is missing a pendant edge")
    remaining = frozenset(sol.edges - pendant_eids)
    return Solution(
        edges=remaining,
        cost=inst.graph.total_cost(remaining),
        optimal=sol.optimal,
        ratio_bound=sol.ratio_bound,
    )


def _two_disjoint_paths(
    net: tuple[list[int], list[int], list[int], list[list[int]]], a: int, b: int
) -> tuple[int, frozenset[int]] | None:
    """Minimum total weight of two edge-disjoint a-b paths, or None.

    Two calls of ``graph._augment`` (successive shortest augmenting
    paths) on the residual network of ``_protected_arcs``, whose
    capacities start afresh here. All weights are >= 1, so a minimum
    cost flow never sends a unit both ways along one edge and the two
    units decompose into genuinely edge-disjoint paths: under
    ``twonc._perturbed`` weights, the unique minimum pair. An end of degree
    below 2 (every pendant node) has no such pair; each incident edge
    lists two arcs at its node.
    """
    head, cost, eid, out = net
    if a == b or len(out[a]) < 4 or len(out[b]) < 4:
        return None
    cap = [1, 0] * (len(head) // 2)
    total = 0
    for _ in range(2):
        got = _augment(head, cost, cap, out, a, b)
        if got is None:
            return None
        total += got
    # a consumed forward capacity marks a used edge
    used = frozenset(eid[ai] for ai in range(0, len(cap), 2) if cap[ai] == 0)
    return total, used


def _protected_arcs(
    g: Graph, w: list[int]
) -> dict[tuple[int, int], tuple[int, frozenset[int]]]:
    """Single-segment protections per node pair (a < b).

    A minimal 1-protected path is a chain of safe bridges and small
    2-edge-connected blocks, and the cheapest block through two nodes is
    a pair of edge-disjoint paths. So one segment is either a safe edge
    or such a pair; chains of segments are left to the table builder.
    The residual network of the pair search is built once per graph:
    both directions of every edge, each followed by its zero-capacity
    twin (arc i ^ 1). A tie keeps the first segment found.
    """
    arcs: dict[tuple[int, int], tuple[int, frozenset[int]]] = {}
    head: list[int] = []
    cost: list[int] = []
    eid: list[int] = []
    out: list[list[int]] = [[] for _ in range(g.n)]
    for e in g.edges:
        for u, v in ((e.u, e.v), (e.v, e.u)):
            out[u].append(len(head))
            out[v].append(len(head) + 1)
            head += (v, u)
            cost += (w[e.id], -w[e.id])
            eid += (e.id, e.id)
        if not e.safe or e.u == e.v:
            continue
        key = (min(e.u, e.v), max(e.u, e.v))
        if key not in arcs or w[e.id] < arcs[key][0]:
            arcs[key] = (w[e.id], frozenset({e.id}))

    net = (head, cost, eid, out)
    for pair in itertools.combinations(range(g.n), 2):
        got = _two_disjoint_paths(net, pair[0], pair[1])
        if got is not None and (pair not in arcs or got[0] < arcs[pair][0]):
            arcs[pair] = got
    return arcs


@dataclass
class ProtectedPathTable:
    """All-pairs minimum 1-protected paths: ``dist[u][v]`` is the weight
    and ``pay[u][v]`` the edge set, both None when no protection exists.

    Symmetric, zero on the diagonal, and every stored edge set really
    keeps its endpoints connected through any single unsafe failure.
    ``link`` answers set-to-set queries from it.
    """

    dist: list[list[int | None]]
    pay: list[list[frozenset[int] | None]]

    def cost(self, u: int, v: int) -> int | None:
        return self.dist[u][v]

    def path(self, u: int, v: int) -> frozenset[int] | None:
        return self.pay[u][v]

    def link(self, a: frozenset[int], b: frozenset[int]) -> tuple[int, int, int] | None:
        """Cheapest ``(weight, u, v)`` with u in a and v in b, the
        smallest such triple on ties; None when no pair is protected.
        Overlapping sets link at weight 0 through a shared node."""
        dist = self.dist
        return min(
            ((dist[u][v], u, v) for u in a for v in b if dist[u][v] is not None),
            default=None,
        )


def build_protected_table(
    g: Graph, weights: list[int] | None = None
) -> ProtectedPathTable:
    """Floyd-Warshall over single-segment protections."""
    w = weights if weights is not None else [1] * g.m
    arcs = _protected_arcs(g, w)
    n = g.n
    dist: list[list[int | None]] = [[None] * n for _ in range(n)]
    pay: list[list[frozenset[int] | None]] = [[None] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
        pay[v][v] = frozenset()
    for (a, b), (cost, es) in arcs.items():
        dist[a][b] = dist[b][a] = cost
        pay[a][b] = pay[b][a] = es
    for mid in range(n):
        dm = dist[mid]
        for i in range(n):
            dim = dist[i][mid]
            if dim is None:
                continue
            row = dist[i]
            for j in range(i + 1, n):
                dmj = dm[j]
                if dmj is None:
                    continue
                alt = dim + dmj
                if row[j] is None or alt < row[j]:
                    row[j] = dist[j][i] = alt
                    pay[i][j] = pay[j][i] = pay[i][mid] | pay[mid][j]
    return ProtectedPathTable(dist, pay)


def min_protected_path(g: Graph, u: int, v: int) -> Solution:
    """Minimum-size edge set connecting u and v through any single
    unsafe-edge failure, the lexicographically smallest (its table runs on
    ``twonc._perturbed`` unit weights); u = v yields the empty set."""
    for node in (u, v):
        if not 0 <= node < g.n:
            raise ValueError(f"node {node} outside the node range")
    if u == v:
        return Solution(edges=frozenset(), cost=Fraction(0))
    table = build_protected_table(g, _perturbed([1] * g.m))
    found = table.path(u, v)
    if found is None:
        raise NoProtectedPath(f"no 1-protected path between {u} and {v}")
    return Solution(edges=found, cost=g.total_cost(found))


def mst_join(
    table: ProtectedPathTable, parts, terminals
) -> tuple[int, frozenset[int]]:
    """Kruskal over the parts and the terminal singletons, linked by
    ``table.link``: the spanning-tree weight and the union of its
    realizing paths.

    The weight is the tree total in the table metric; the edge union
    can only be cheaper when realizing paths overlap. Links rank by weight,
    then node index (parts in order, then the sorted terminals); the k-FST
    bound needs only the tree's weight to be minimal. Raises ValueError on
    an empty part and InfiniteMst when the links do not span.
    """
    nodes = [frozenset(p) for p in parts]
    if not all(nodes):
        raise ValueError("empty part")
    nodes += [frozenset((t,)) for t in sorted(set(terminals))]
    links = []
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            got = table.link(nodes[i], nodes[j])
            if got is not None:
                links.append((got[0], i, j, got[1], got[2]))
    links.sort()
    parent = list(range(len(nodes)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges: set[int] = set()
    total = 0
    joined = 0
    for w, i, j, u, v in links:
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        parent[ri] = rj
        edges |= table.pay[u][v]
        total += w
        joined += 1
    if joined != len(nodes) - 1:
        raise InfiniteMst("the protected links do not span the parts and terminals")
    return total, frozenset(edges)


def _part_families(universe: list[int], k: int):
    """All families of distinct non-empty node sets: at most k-2 of
    them, total size at most 3k-6. Duplicated sets and padded tuple
    slots never change the assembled candidate, so they are skipped.
    The empty family comes only at k = 2, as the one family: a block tree
    with two terminal leaves is a path, while one with three or more
    leaves branches at a part."""
    budget = 3 * k - 6
    max_parts = k - 2
    pool: list[frozenset[int]] = []
    for size in range(1, min(budget, len(universe)) + 1):
        for combo in itertools.combinations(universe, size):
            pool.append(frozenset(combo))

    def rec(start: int, chosen: list[frozenset[int]], left: int):
        if chosen or not max_parts:
            yield tuple(chosen)
        if len(chosen) == max_parts:
            return
        for idx in range(start, len(pool)):
            cand = pool[idx]
            if len(cand) > left:
                continue
            chosen.append(cand)
            yield from rec(idx + 1, chosen, left - len(cand))
            chosen.pop()

    yield from rec(0, [], budget)


def _kfst_core(
    inst: FstInstance,
    *,
    weights: dict[int, int] | None = None,
    stats: SolveStats | None = None,
) -> frozenset[int]:
    """Shared search; returns the edge set in original edge ids (pendant
    edges already stripped)."""
    if inst.modified:
        raise AlreadyModified("the solver applies its own pendant gadget")
    stats = stats if stats is not None else SolveStats()
    terms = sorted(inst.terminals)
    k = len(terms)
    if k < 2:
        raise ValueError("the solver needs at least two terminals")
    mod = apply_pendant_gadget(inst)
    g2 = mod.graph
    t2 = sorted(mod.terminals)
    if not prefix_feasible(g2, t2, ProblemKind.KFST, list(g2.edge_ids())):
        raise Infeasible("no subgraph connects the terminals through every failure")
    calls = _Subcalls(inst.graph, weights, stats)
    w2 = _perturbed(calls.w + [1] * k)  # pendant edges weigh one unit each
    table = build_protected_table(g2, w2)
    pairs = sum(d is not None for i, row in enumerate(table.dist) for d in row[i + 1 :])
    stats.count("protected_pairs", pairs)
    incumbent = _Incumbent(g2.m)

    families = list(_part_families(list(range(inst.graph.n)), k))
    stats.iterations += len(families)

    # the plain MST weight plus max(3, |p|) per multi-node part
    bounded: list[tuple[int, int, tuple, frozenset[int]]] = []
    for index, parts in enumerate(families):
        try:
            mst, tree = mst_join(table, parts, t2)
        except InfiniteMst:
            continue
        bound = -(-mst >> g2.m) + sum(0 if len(p) == 1 else max(3, len(p)) for p in parts)
        bounded.append((bound, index, parts, tree))
    bounded.sort()  # by (bound, index): indices are distinct

    for bound, index, parts, tree in bounded:
        if bound > incumbent.weight:
            break  # no later family is the optimum's own (module docstring)
        union = set(tree)
        for part in parts:
            got = calls.container(part) if len(part) > 1 else frozenset()
            if got is None:
                break
            union |= got
        else:  # every part priced; feasible by the union lemma
            cand = frozenset(union)
            if incumbent.offer(sum(w2[e] for e in cand), cand):
                stats.updates.append((index, incumbent.weight))

    if incumbent.edges is None:
        raise Infeasible("no feasible candidate was assembled")
    return incumbent.edges - {eid for _, eid in mod.pendant_map.values()}


def solve_kfst_unweighted(
    inst: FstInstance,
    eta=Fraction(1, 100),
    seed: int = 0,
    *,
    threads: int = 1,
    stats: SolveStats | None = None,
) -> Solution:
    """Minimum-size edge set that keeps the terminals connected through
    any single unsafe-edge failure. Deterministic; ``eta``, ``seed`` and
    ``threads`` are only recorded in ``stats``."""
    stats = run_stats(stats, seed, eta, threads)
    edges = _kfst_core(inst, stats=stats)
    return Solution(edges=edges, cost=inst.graph.total_cost(edges))


def solve_kfst_weighted(
    inst: FstInstance,
    epsilon,
    eta=Fraction(1, 100),
    seed: int = 0,
    *,
    threads: int = 1,
    stats: SolveStats | None = None,
) -> Solution:
    """(1+eps)-approximate minimum-cost survivable connection:
    ``scaling.solve_scaled`` over ``_kfst_core`` (subdivided edges inherit
    safety, so a chain stands in for its unsafe original both ways).
    ``eta``, ``seed`` and ``threads`` are only recorded in ``stats``.
    """
    if inst.modified:
        raise AlreadyModified("pass the unmodified instance")
    stats = run_stats(stats, seed, eta, threads)
    return solve_scaled(
        inst.graph, inst.terminals, epsilon, ProblemKind.KFST, stats,
        lambda folded, weights: _kfst_core(
            FstInstance(folded, inst.terminals), weights=weights, stats=stats
        ),
    )


def solve_2ecs(
    g: Graph,
    terminals,
    epsilon=None,
    eta=Fraction(1, 100),
    seed: int = 0,
    *,
    threads: int = 1,
    stats: SolveStats | None = None,
) -> Solution:
    """2-edge-connected Steiner subgraphs: every edge treated as unsafe.

    Relabels the graph all-unsafe (same costs and edge ids) and delegates;
    ``epsilon`` switches to the weighted approximation.
    """
    relabeled = Graph.build(
        g.n, [(e.u, e.v, e.cost, False) for e in g.edges]
    )
    inst = FstInstance(relabeled, frozenset(terminals))
    if epsilon is None:
        return solve_kfst_unweighted(inst, eta, seed, threads=threads, stats=stats)
    return solve_kfst_weighted(inst, epsilon, eta, seed, threads=threads, stats=stats)
