"""Brute-force reference solvers used to validate the real ones.

Everything in this module is deliberately naive and self-contained: it
shares only the Graph type with the rest of the package. Connectivity is
union-find, cut nodes and bridges are found by deleting one node or edge
and re-checking, and minimisation is exhaustive subset search. Budgets
keep the exponential scans honest.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, Infeasible
from .graph import Graph
from .solution import ProblemKind, Solution


@dataclass(frozen=True)
class OracleBudget:
    """Hard limits on what the exhaustive oracles will attempt."""

    max_nodes: int = 12
    max_edges: int = 22
    max_millis: int | None = None

    def admit(self, g: Graph) -> None:
        if g.n > self.max_nodes or g.m > self.max_edges:
            raise BudgetExceeded(
                f"instance ({g.n} nodes, {g.m} edges) exceeds oracle budget "
                f"({self.max_nodes} nodes, {self.max_edges} edges)"
            )


class _Deadline:
    def __init__(self, max_millis: int | None):
        self._until = None if max_millis is None else time.monotonic() + max_millis / 1000.0

    def check(self) -> None:
        if self._until is not None and time.monotonic() > self._until:
            raise BudgetExceeded("oracle time budget exhausted")


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _covered_nodes(g: Graph, edges) -> set[int]:
    nodes: set[int] = set()
    for eid in edges:
        e = g.edge(eid)
        nodes.add(e.u)
        nodes.add(e.v)
    return nodes


def _uf_connected(g: Graph, nodes: set[int], edges) -> bool:
    """Is the subgraph (nodes, edges) connected? Empty node set counts as no."""
    if not nodes:
        return False
    uf = _UnionFind(nodes)
    parts = len(nodes)
    for eid in edges:
        e = g.edge(eid)
        if uf.union(e.u, e.v):
            parts -= 1
    return parts == 1


def oracle_feasible(g: Graph, edge_set, terminals, kind: ProblemKind) -> bool:
    """Verbatim feasibility test for one problem kind.

    The subgraph under test is (V(F), F) where F is ``edge_set`` and V(F)
    its covered endpoints. The empty edge set is never feasible when at
    least one terminal is required.
    """
    terms = set(terminals)
    edges = list(edge_set)
    nodes = _covered_nodes(g, edges)
    if not terms <= nodes:
        return False
    if kind is ProblemKind.CYCLE:
        if not edges:
            return False
        deg: dict[int, int] = {v: 0 for v in nodes}
        for eid in edges:
            e = g.edge(eid)
            deg[e.u] += 1
            deg[e.v] += 1
        if any(d != 2 for d in deg.values()):
            return False
        return _uf_connected(g, nodes, edges)
    if kind is ProblemKind.TWO_NCS:
        if len(nodes) < 3 or not _uf_connected(g, nodes, edges):
            return False
        for v in nodes:
            rest = nodes - {v}
            kept = [eid for eid in edges if v not in g.edge(eid).ends]
            if not _uf_connected(g, rest, kept):
                return False
        return True
    if kind is ProblemKind.TWO_ECS:
        if len(nodes) < 2 or not _uf_connected(g, nodes, edges):
            return False
        for eid in edges:
            kept = [f for f in edges if f != eid]
            if not _uf_connected(g, nodes, kept):
                return False
        return True
    if kind is ProblemKind.KFST:
        if not _uf_connected(g, nodes, edges):
            return False
        for eid in edges:
            if g.edge(eid).safe:
                continue
            kept = [f for f in edges if f != eid]
            if not _uf_connected(g, nodes, kept):
                return False
        return True
    raise ValueError(f"unknown kind {kind!r}")


def _cheap_reject(g: Graph, kind: ProblemKind, terms: set[int], edges) -> bool:
    """True when the subset obviously cannot be feasible."""
    nodes = _covered_nodes(g, edges)
    if not terms <= nodes:
        return True
    deg: dict[int, int] = {}
    for eid in edges:
        e = g.edge(eid)
        deg[e.u] = deg.get(e.u, 0) + 1
        deg[e.v] = deg.get(e.v, 0) + 1
    if kind is ProblemKind.CYCLE:
        if any(d != 2 for d in deg.values()):
            return True
    elif kind in (ProblemKind.TWO_NCS, ProblemKind.TWO_ECS):
        if any(deg.get(t, 0) < 2 for t in terms):
            return True
    return not _uf_connected(g, nodes, edges)


def _scan_subsets(
    g: Graph,
    feasible,
    cheap_reject,
    weighted: bool,
    deadline: _Deadline,
) -> tuple[Fraction, frozenset[int]]:
    """Common exhaustive core: minimise (size, lex) or (cost, lex)."""
    ids = sorted(g.edge_ids())
    if not weighted:
        for size in range(len(ids) + 1):
            for combo in itertools.combinations(ids, size):
                deadline.check()
                if cheap_reject(combo):
                    continue
                if feasible(combo):
                    edges = frozenset(combo)
                    return g.total_cost(edges), edges
        raise Infeasible("no feasible subgraph exists")

    best: tuple[Fraction, tuple[int, ...]] | None = None
    for size in range(len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            deadline.check()
            cost = sum((g.edge(eid).cost for eid in combo), Fraction(0))
            if best is not None and (cost, combo) >= best:
                continue
            if cheap_reject(combo):
                continue
            if feasible(combo):
                best = (cost, combo)
    if best is None:
        raise Infeasible("no feasible subgraph exists")
    return best[0], frozenset(best[1])


def oracle_min_subgraph(
    g: Graph,
    terminals,
    kind: ProblemKind,
    weighted: bool = False,
    budget: OracleBudget | None = None,
) -> Solution:
    """Exhaustive minimisation over all edge subsets.

    Unweighted runs scan size by size and stop at the first feasible
    cardinality; the first combination found is the lexicographically
    smallest edge-id tuple of that size, which makes the result
    deterministic. Weighted runs examine every subset and break ties the
    same way. Raises Infeasible when nothing works.
    """
    budget = budget or OracleBudget()
    budget.admit(g)
    deadline = _Deadline(budget.max_millis)
    terms = set(terminals)
    cost, edges = _scan_subsets(
        g,
        lambda combo: oracle_feasible(g, combo, terms, kind),
        lambda combo: _cheap_reject(g, kind, terms, combo),
        weighted,
        deadline,
    )
    return Solution(edges=edges, cost=cost)


def oracle_min_subgraph_bb(
    g: Graph,
    terminals,
    kind: ProblemKind,
    weighted: bool = False,
    budget: OracleBudget | None = None,
) -> Solution:
    """Second exhaustive enumerator, written differently on purpose.

    Depth-first include/exclude over edges sorted by (cost, id), pruning
    branches whose partial cost already exceeds the incumbent and cycle
    branches where some node has degree above two. Used to cross-check
    ``oracle_min_subgraph``.
    """
    budget = budget or OracleBudget()
    budget.admit(g)
    deadline = _Deadline(budget.max_millis)
    terms = set(terminals)

    def price(eid: int) -> Fraction:
        return g.edge(eid).cost if weighted else Fraction(1)

    order = sorted(g.edge_ids(), key=lambda eid: (price(eid), eid))
    m = len(order)
    best: tuple[Fraction, tuple[int, ...]] | None = None
    chosen: list[int] = []
    deg: dict[int, int] = {}

    def visit(idx: int, cost: Fraction) -> None:
        nonlocal best
        deadline.check()
        if best is not None and cost > best[0]:
            return
        if idx == m:
            if oracle_feasible(g, chosen, terms, kind):
                key = (cost, tuple(sorted(chosen)))
                if best is None or key < best:
                    best = key
            return
        eid = order[idx]
        e = g.edge(eid)
        take = True
        if kind is ProblemKind.CYCLE:
            if deg.get(e.u, 0) >= 2 or deg.get(e.v, 0) >= 2:
                take = False
        if take:
            chosen.append(eid)
            deg[e.u] = deg.get(e.u, 0) + 1
            deg[e.v] = deg.get(e.v, 0) + 1
            visit(idx + 1, cost + price(eid))
            deg[e.u] -= 1
            deg[e.v] -= 1
            chosen.pop()
        visit(idx + 1, cost)

    visit(0, Fraction(0))
    if best is None:
        raise Infeasible(f"no feasible {kind.value} subgraph exists")
    edges = frozenset(best[1])
    return Solution(edges=edges, cost=g.total_cost(edges))


def oracle_protected_all_pairs(
    g: Graph,
    weighted: bool = False,
    budget: OracleBudget | None = None,
) -> dict[frozenset[int], Solution]:
    """Cheapest protected connection for every node pair, in one scan.

    A subset F protects a pair {u, v} when (V(F), F) is connected,
    contains both endpoints, and stays connected after deleting any one
    unsafe edge. Any such F serves every pair inside V(F), so a single
    subset scan fills the whole table. Pairs with no protected connection
    are absent from the result.
    """
    budget = budget or OracleBudget()
    budget.admit(g)
    deadline = _Deadline(budget.max_millis)
    ids = sorted(g.edge_ids())
    found: dict[frozenset[int], tuple[Fraction, tuple[int, ...]]] = {}
    all_pairs = {frozenset(p) for p in itertools.combinations(range(g.n), 2)}

    def robust(nodes: set[int], edges) -> bool:
        if not _uf_connected(g, nodes, edges):
            return False
        for eid in edges:
            if g.edge(eid).safe:
                continue
            kept = [f for f in edges if f != eid]
            if not _uf_connected(g, nodes, kept):
                return False
        return True

    for size in range(1, len(ids) + 1):
        if not weighted and found.keys() >= all_pairs:
            break
        for combo in itertools.combinations(ids, size):
            deadline.check()
            nodes = _covered_nodes(g, combo)
            if len(nodes) < 2 or not robust(nodes, combo):
                continue
            cost = sum((g.edge(eid).cost for eid in combo), Fraction(0))
            key = (cost, combo) if weighted else (Fraction(size), combo)
            for u, v in itertools.combinations(sorted(nodes), 2):
                pair = frozenset((u, v))
                prev = found.get(pair)
                if prev is None or key < prev:
                    found[pair] = key
    return {
        pair: Solution(edges=frozenset(combo), cost=g.total_cost(combo))
        for pair, (_, combo) in found.items()
    }
