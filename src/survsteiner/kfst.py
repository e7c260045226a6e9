"""Minimum subgraphs that survive any single unsafe-edge failure.

The problem: connect a terminal set so that the subgraph stays connected
when any one UNSAFE edge is removed (safe edges never fail). With every
edge unsafe this is the 2-edge-connected Steiner variant.

Solver outline. Each terminal first gets a pendant node on a fresh safe
edge, which normalises minimal solutions: terminals become leaves of the
condensed block tree, at most k-2 of its nodes are internal, and their
cut nodes number at most 3k-6 with repetition. The search enumerates
families of up to k-2 candidate cut-node sets (total size at most 3k-6),
solves a minimum 2-node-connected subgraph per multi-node set (a
singleton stands for a lone branching cut node and contributes no
edges), and joins everything with terminals through a minimum spanning
tree over 1-protected paths: connections that themselves survive any
single unsafe failure, i.e. chains of safe edges and two-edge-disjoint
path pairs. The cheapest feasible assembly over all families wins.

Families are evaluated in order of a cheap bound, in batches of fixed
size, on the calling thread.
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
from .graph import Graph, is_connected, subgraph_nodes
from .scaling import prefix_feasible, solve_scaled
from .solution import ProblemKind, Solution, SolveStats, run_stats
from .twonc import _Incumbent, _solve_core, _Subcalls

# Families are pruned against the incumbent only at batch starts.
# ``family_bound`` is not admissible (ROADMAP item C): pruning item by
# item would skip families that are evaluated now and can change which
# edge set wins a tie, so the batch size is part of the answer.
_BATCH = 32
_MISS = object()


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
    g: Graph, a: int, b: int, w: list[int]
) -> tuple[int, frozenset[int]] | None:
    """Minimum total weight of two edge-disjoint a-b paths, or None.

    Two rounds of successive shortest augmenting paths on the usual
    undirected-to-directed encoding. All weights are >= 1, so a minimum
    cost flow never sends a unit both ways along one edge and the two
    units decompose into genuinely edge-disjoint paths.
    """
    if a == b:
        return None
    # arcs: [head, cap, cost, eid]; arc i^1 is the residual twin of arc i
    arcs: list[list[int]] = []
    out: list[list[int]] = [[] for _ in range(g.n)]

    def add(u: int, v: int, cost: int, eid: int) -> None:
        out[u].append(len(arcs))
        arcs.append([v, 1, cost, eid])
        out[v].append(len(arcs))
        arcs.append([u, 0, -cost, eid])

    for e in g.edges:
        add(e.u, e.v, w[e.id], e.id)
        add(e.v, e.u, w[e.id], e.id)

    total = 0
    for _ in range(2):
        # Bellman-Ford over the residual graph (negative residual costs)
        dist = [None] * g.n
        pre: list[int] = [-1] * g.n
        dist[a] = 0
        frontier = {a}
        while frontier:
            nxt = set()
            for u in frontier:
                du = dist[u]
                for ai in out[u]:
                    head, cap, cost, _ = arcs[ai]
                    if cap <= 0:
                        continue
                    cand = du + cost
                    if dist[head] is None or cand < dist[head]:
                        dist[head] = cand
                        pre[head] = ai
                        nxt.add(head)
            frontier = nxt
        if dist[b] is None:
            return None
        total += dist[b]
        v = b
        while v != a:
            ai = pre[v]
            arcs[ai][1] -= 1
            arcs[ai ^ 1][1] += 1
            v = arcs[ai ^ 1][0]

    used = set()
    for ai in range(0, len(arcs), 2):
        if arcs[ai][1] == 0:  # forward capacity consumed
            used.add(arcs[ai][3])
    return total, frozenset(used)


def _protected_arcs(
    g: Graph, w: list[int]
) -> dict[tuple[int, int], tuple[int, frozenset[int]]]:
    """Single-segment protections per node pair (a < b).

    A minimal 1-protected path is a chain of safe bridges and small
    2-edge-connected blocks, and the cheapest block through two nodes is
    a pair of edge-disjoint paths. So one segment is either a safe edge
    or such a pair; chains of segments are left to the table builder.
    """
    arcs: dict[tuple[int, int], tuple[int, frozenset[int]]] = {}
    for e in g.edges:
        if not e.safe or e.u == e.v:
            continue
        key = (min(e.u, e.v), max(e.u, e.v))
        cand = (w[e.id], frozenset({e.id}))
        old = arcs.get(key)
        if old is None or (cand[0], sorted(cand[1])) < (old[0], sorted(old[1])):
            arcs[key] = cand

    for pair in itertools.combinations(range(g.n), 2):
        got = _two_disjoint_paths(g, pair[0], pair[1], w)
        if got is None:
            continue
        old = arcs.get(pair)
        if old is None or (got[0], sorted(got[1])) < (old[0], sorted(old[1])):
            arcs[pair] = got
    return arcs


@dataclass
class ProtectedPathTable:
    """All-pairs minimum 1-protected paths; missing pair = no protection.

    Symmetric, zero on the diagonal, and every stored edge set really
    keeps its endpoints connected through any single unsafe failure.
    """

    size: int
    weight: dict[frozenset[int], int]
    edges: dict[frozenset[int], frozenset[int]]

    def cost(self, u: int, v: int) -> int | None:
        if u == v:
            return 0
        return self.weight.get(frozenset((u, v)))

    def path(self, u: int, v: int) -> frozenset[int] | None:
        if u == v:
            return frozenset()
        return self.edges.get(frozenset((u, v)))


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
    weight: dict[frozenset[int], int] = {}
    edges: dict[frozenset[int], frozenset[int]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] is not None:
                key = frozenset((i, j))
                weight[key] = dist[i][j]
                edges[key] = pay[i][j]
    return ProtectedPathTable(size=n, weight=weight, edges=edges)


def min_protected_path(g: Graph, u: int, v: int) -> Solution:
    """Minimum-size edge set connecting u and v through any single
    unsafe-edge failure; u = v yields the empty set."""
    for node in (u, v):
        if not 0 <= node < g.n:
            raise ValueError(f"node {node} outside the node range")
    if u == v:
        return Solution(edges=frozenset(), cost=Fraction(0))
    table = build_protected_table(g)
    found = table.path(u, v)
    if found is None:
        raise NoProtectedPath(f"no 1-protected path between {u} and {v}")
    return Solution(edges=found, cost=g.total_cost(found))


@dataclass
class AuxiliaryGraphK:
    """Complete graph over the parts and the terminal singletons.

    Edge weights follow the min-over-pairs rule on the protected-path
    table, are 0 when the two node sets overlap, and None when no pair
    has any protection; finite edges carry their realizing edge set.
    """

    nodes: tuple[frozenset[int], ...]
    weight: dict[tuple[int, int], int | None]
    payload: dict[tuple[int, int], frozenset[int] | None]
    part_count: int


def build_auxiliary_k(
    table: ProtectedPathTable, parts, terminals
) -> AuxiliaryGraphK:
    part_list = [frozenset(p) for p in parts]
    for p in part_list:
        if not p:
            raise ValueError("empty part")
    term_list = sorted(set(terminals))
    nodes = tuple(part_list + [frozenset({t}) for t in term_list])
    weight: dict[tuple[int, int], int | None] = {}
    payload: dict[tuple[int, int], frozenset[int] | None] = {}
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if nodes[i] & nodes[j]:
                weight[(i, j)] = 0
                payload[(i, j)] = frozenset()
                continue
            best: tuple[int, int, int] | None = None
            for u in sorted(nodes[i]):
                for v in sorted(nodes[j]):
                    c = table.cost(u, v)
                    if c is not None and (best is None or (c, u, v) < best):
                        best = (c, u, v)
            if best is None:
                weight[(i, j)] = None
                payload[(i, j)] = None
            else:
                weight[(i, j)] = best[0]
                payload[(i, j)] = table.path(best[1], best[2])
    return AuxiliaryGraphK(nodes, weight, payload, len(part_list))


def mst_join(k_graph: AuxiliaryGraphK) -> Solution:
    """Union of realizing paths over a minimum spanning tree of K.

    The reported cost is the spanning-tree total in the table metric;
    the edge union can only be cheaper when realizing paths overlap.
    Raises InfiniteMst when the finite edges do not span K.
    """
    count = len(k_graph.nodes)
    finite = sorted(
        (w, ij) for ij, w in k_graph.weight.items() if w is not None
    )
    parent = list(range(count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges: set[int] = set()
    total = 0
    joined = 0
    for w, (i, j) in finite:
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        parent[ri] = rj
        edges |= k_graph.payload[(i, j)]
        total += w
        joined += 1
        if joined == count - 1:
            break
    if joined != count - 1:
        raise InfiniteMst("no finite spanning tree in the auxiliary graph")
    return Solution(edges=frozenset(edges), cost=Fraction(total))


def _survives(g: Graph, edges: frozenset[int], terms: set[int]) -> bool:
    """Terminals covered, connected, and connected minus any unsafe edge.

    The node set stays fixed while edges are deleted: orphaning a
    covered node counts as a disconnection.
    """
    if not edges:
        return False
    nodes = subgraph_nodes(g, edges)
    if not terms <= nodes or not is_connected(g, edges):
        return False
    for eid in edges:
        if g.edges[eid].safe:
            continue
        rest = edges - {eid}
        if not rest or not is_connected(g, rest, nodes):
            return False
    return True


def _part_families(universe: list[int], k: int):
    """All families of distinct non-empty node sets: at most k-2 of
    them, total size at most 3k-6. Duplicated sets and padded tuple
    slots never change the assembled candidate, so they are skipped."""
    budget = 3 * k - 6
    max_parts = k - 2
    pool: list[frozenset[int]] = []
    for size in range(1, min(budget, len(universe)) + 1):
        for combo in itertools.combinations(universe, size):
            pool.append(frozenset(combo))

    def rec(start: int, chosen: list[frozenset[int]], left: int):
        if chosen:
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
    mode: str = "audit",
    stats: SolveStats | None = None,
) -> frozenset[int]:
    """Shared search; returns the edge set in original edge ids (pendant
    edges already stripped)."""
    if inst.modified:
        raise AlreadyModified("the solver applies its own pendant gadget")
    if mode not in ("audit", "fast"):
        raise ValueError("mode must be 'audit' or 'fast'")
    stats = stats if stats is not None else SolveStats()
    terms = sorted(inst.terminals)
    k = len(terms)
    if k < 2:
        raise ValueError("the solver needs at least two terminals")
    g0 = inst.graph
    w0 = [1] * g0.m
    if weights:
        for eid, val in weights.items():
            w0[eid] = val

    if k == 2:
        # two terminals make the whole problem one 1-protected path
        table = build_protected_table(g0, w0)
        found = table.path(terms[0], terms[1])
        if found is None:
            raise Infeasible("no 1-protected path joins the two terminals")
        stats.iterations += 1
        return found

    mod = apply_pendant_gadget(inst)
    g2 = mod.graph
    t2 = sorted(mod.terminals)
    if not prefix_feasible(g2, t2, ProblemKind.KFST, list(g2.edge_ids())):
        raise Infeasible("no subgraph connects the terminals through every failure")
    w2 = w0 + [1] * k  # pendant edges weigh one unit each

    table = build_protected_table(g2, w2)
    stats.count("protected_pairs", len(table.weight))
    universe = list(range(g0.n))

    full = frozenset(g2.edge_ids())
    incumbent = _Incumbent(sum(w2), full)
    lower_bound = 2 * k - 1  # k pendant edges plus a spanning structure
    term_set = set(t2)

    twonc_memo: dict[frozenset[int], tuple[int, frozenset[int]] | None] = {}
    small_parts = _Subcalls(g0, weights, stats)

    def twonc_edges(part: frozenset[int]) -> tuple[int, frozenset[int]] | None:
        hit = twonc_memo.get(part, _MISS)
        if hit is not _MISS:
            return hit
        if len(part) <= 3:
            # A part of at most three nodes is priced by its minimum Steiner
            # cycle, and a part with no such cycle is skipped. That is not
            # always the minimum 2-node-connected container: the three
            # degree-2 nodes of K_{2,3} share no cycle (ROADMAP item C).
            got = small_parts.cycle(part)
        else:
            scratch = SolveStats()
            try:
                got = _solve_core(
                    g0,
                    part,
                    weights=weights,
                    mode="fast",
                    stats=scratch,
                )
            except Infeasible:
                got = None
            stats.count("twonc_calls")
            stats.count("twonc_iterations", scratch.iterations)
        twonc_memo[part] = got
        return got

    families = list(_part_families(universe, k))
    stats.iterations += len(families)

    def family_bound(parts) -> tuple[int, object] | None:
        kg = build_auxiliary_k(table, parts, t2)
        try:
            tree = mst_join(kg)
        except InfiniteMst:
            return None
        part_lb = sum(0 if len(p) == 1 else max(3, len(p)) for p in parts)
        return int(tree.cost) + part_lb, tree

    bounded: list[tuple[int, int, tuple, Solution]] = []
    for index, parts in enumerate(families):
        got = family_bound(parts)
        if got is None:
            continue
        bounded.append((got[0], index, parts, got[1]))
    bounded.sort(key=lambda item: (item[0], item[1]))

    def evaluate(item) -> tuple[int, frozenset[int]] | None:
        _, _, parts, tree = item
        union = set(tree.edges)
        for part in parts:
            if len(part) == 1:
                continue
            got = twonc_edges(part)
            if got is None:
                return None
            union |= got[1]
        cand = frozenset(union)
        weight_total = sum(w2[e] for e in cand)
        return weight_total, cand

    pos = 0
    while pos < len(bounded):
        batch = bounded[pos : pos + _BATCH]
        pos += _BATCH
        floor_now = incumbent.weight
        for item in batch:
            if item[0] > floor_now:
                continue
            outcome = evaluate(item)
            if outcome is None:
                continue
            weight_total, cand = outcome
            if incumbent.beats(weight_total, cand) and _survives(g2, cand, term_set):
                if incumbent.offer(weight_total, cand):
                    stats.updates.append((item[1], weight_total))
        if mode == "fast" and incumbent.weight <= lower_bound:
            break
        if bounded and pos < len(bounded) and bounded[pos][0] > incumbent.weight:
            # sorted by lower bound: nothing after this point can win
            break

    final = incumbent.edges
    if final == full and not _survives(g2, full, term_set):
        raise Infeasible("no feasible candidate was assembled")

    return final - {eid for _, eid in mod.pendant_map.values()}


def solve_kfst_unweighted(
    inst: FstInstance,
    eta=Fraction(1, 100),
    seed: int = 0,
    *,
    mode: str = "audit",
    threads: int = 1,
    stats: SolveStats | None = None,
) -> Solution:
    """Minimum-size edge set that keeps the terminals connected through
    any single unsafe-edge failure. Deterministic; ``eta``, ``seed`` and
    ``threads`` are only recorded in ``stats``."""
    stats = run_stats(stats, seed, eta, threads)
    edges = _kfst_core(inst, mode=mode, stats=stats)
    return Solution(edges=edges, cost=inst.graph.total_cost(edges))


def solve_kfst_weighted(
    inst: FstInstance,
    epsilon,
    eta=Fraction(1, 100),
    seed: int = 0,
    *,
    mode: str = "audit",
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
            FstInstance(folded, inst.terminals), weights=weights, mode=mode, stats=stats
        ),
    )


def solve_2ecs(
    g: Graph,
    terminals,
    epsilon=None,
    eta=Fraction(1, 100),
    seed: int = 0,
    *,
    mode: str = "audit",
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
        return solve_kfst_unweighted(
            inst, eta, seed, mode=mode, threads=threads, stats=stats
        )
    return solve_kfst_weighted(
        inst, epsilon, eta, seed, mode=mode, threads=threads, stats=stats
    )
