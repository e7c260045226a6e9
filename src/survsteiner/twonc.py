"""Exact minimum 2-node-connected Steiner subgraphs, and their FPTAS.

The unweighted solver walks a three-level search space: candidate sets S
of would-be degree-3 nodes (size at most 2k-4 by the structure bound),
ordered partitions of T union S whose first part keeps at least two
nodes, and one anchor pair per later part drawn from the union of
earlier parts. ``_solve_core``'s scan is the one place
this space is built. Every configuration assembles a candidate subgraph:
a minimum Steiner cycle through the first part (three nodes or more,
since the target subgraph needs them) unioned with a minimum Steiner path
per later part between its anchors. The smallest feasible candidate wins;
ties break to the lexicographically smallest edge-id set, so the answer
does not depend on the scan order, but the recorded updates do.

Two parts of the space are counted but never walked, because every
candidate in them was offered before and the register only decreases,
so none could update. A mirrored anchor pair (t, s) gets the same path as
(s, t), which comes first, so its subtree is skipped. Subsets come
smallest first, so an S that meets T repeats the ground T union S, and
with it every configuration, of the smaller S - T; the ground's total is
reused.

The iteration counter counts every (S, partition, anchor vector) point
exactly once, walked or not: each partition adds its number of ordered
anchor vectors and a repeated ground adds its first total, so it always
equals the closed-form sum of anchor-pair products over all subsets and
partitions.

Subcall results are memoized by their arguments; with integer edge
weights the same machinery solves the rounded-and-subdivided weighted
instance of ``scaling.solve_scaled`` without ever materialising
subdivision chains. The scan runs on the calling thread in a fixed
order, so every count repeats exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cycles import SearchPrep, search_min_cycle, search_min_path
from .enumeration import ordered_partitions, subsets_up_to
from .errors import Infeasible, NoCycle, NoPath
from .graph import Graph, is_2nc, subgraph_nodes
from .scaling import prefix_feasible, solve_scaled
from .solution import ProblemKind, Solution, SolveStats, run_stats


_MISS = object()


class _Subcalls:
    """Memoized cycle/path subcalls over one graph and weight vector; all
    of them share one ``SearchPrep`` of the search kernel's tables."""

    def __init__(
        self,
        g: Graph,
        weights: dict[int, int] | None,
        stats: SolveStats,
    ):
        self.g = g
        self.prep = SearchPrep(g, weights)
        self.w = self.prep.w
        self.stats = stats
        self.cycles: dict[frozenset[int], tuple[int, frozenset[int]] | None] = {}
        self.paths: dict[tuple[frozenset[int], int, int], tuple[int, frozenset[int]] | None] = {}

    def _weigh(self, edges: frozenset[int]) -> int:
        return sum(self.w[eid] for eid in edges)

    def cycle(self, part: frozenset[int]) -> tuple[int, frozenset[int]] | None:
        hit = self.cycles.get(part, _MISS)
        if hit is not _MISS:
            return hit
        result: tuple[int, frozenset[int]] | None
        try:
            # the target subgraph needs >= 3 nodes
            total, eids, _ = search_min_cycle(self.g, part, min_nodes=3, prep=self.prep)
            result = (total, frozenset(eids))
        except NoCycle:
            result = None
        self.stats.count("cycle_calls")
        self.cycles[part] = result
        return result

    def path(self, part: frozenset[int], s: int, t: int) -> tuple[int, frozenset[int]] | None:
        key = (part, s, t)
        hit = self.paths.get(key, _MISS)
        if hit is not _MISS:
            return hit
        result: tuple[int, frozenset[int]] | None
        try:
            total, eids = search_min_path(self.g, part, s, t, prep=self.prep)
            result = (total, frozenset(eids))
        except NoPath:
            result = None
        self.stats.count("path_calls")
        self.paths[key] = result
        return result


class _Incumbent:
    """Minimum register: min by (weight, lexicographic edge tuple)."""

    def __init__(self, weight: int, edges: frozenset[int]):
        self.weight = weight
        self.key = tuple(sorted(edges))
        self.edges = edges

    def beats(self, weight: int, edges: frozenset[int]) -> bool:
        """Would ``offer`` accept this candidate now? The register only
        decreases, so a feasibility test is needed only where this holds."""
        key = tuple(sorted(edges))
        return (weight, key) < (self.weight, self.key)

    def offer(self, weight: int, edges: frozenset[int]) -> bool:
        key = tuple(sorted(edges))
        if (weight, key) < (self.weight, self.key):
            self.weight, self.key, self.edges = weight, key, edges
            return True
        return False


def _solve_core(
    g: Graph,
    terminals,
    *,
    weights: dict[int, int] | None = None,
    mode: str = "audit",
    stats: SolveStats | None = None,
) -> tuple[int, frozenset[int]]:
    terms = sorted(set(terminals))
    k = len(terms)
    if k < 2:
        raise ValueError("the solver needs at least two terminals")
    if mode not in ("audit", "fast"):
        raise ValueError("mode must be 'audit' or 'fast'")
    if not prefix_feasible(g, terms, ProblemKind.TWO_NCS, list(g.edge_ids())):
        raise Infeasible("terminals do not lie in a common 2-node-connected block")

    stats = stats if stats is not None else SolveStats()
    calls = _Subcalls(g, weights, stats)
    full = frozenset(g.edge_ids())
    incumbent = _Incumbent(calls._weigh(full), full)
    lower_bound = max(3, k)
    term_set = set(terms)
    bound = max(2 * k - 4, 0)
    stop = False  # fast mode: an update reached the lower bound

    def feasible(edges: frozenset[int]) -> bool:
        return term_set <= subgraph_nodes(g, edges) and is_2nc(g, edges)

    iterations = 0
    ground_totals: dict[tuple[int, ...], int] = {}
    for subset_index, S in enumerate(subsets_up_to(range(g.n), bound)):
        if stop:
            break
        ground = tuple(sorted(term_set | S))
        if ground in ground_totals:
            # S meets T, so the smaller S - T came first with this ground
            # and the same configurations: nothing here can update
            iterations += ground_totals[ground]
            continue
        ground_total = 0
        for parts in ordered_partitions(ground, k, 2):
            if stop:
                break
            r = len(parts)
            # one anchor pair s < t per unordered pair: a t-s path is an
            # s-t path reversed, so the kernel gives the mirror the same
            # (weight, edges) and its subtree only repeats candidates
            # offered already; the count still covers both orders
            dims: list[list[tuple[int, int]]] = []
            pool = set(parts[0])
            for i in range(1, r):
                nodes = sorted(pool)
                dims.append([(s, t) for s in nodes for t in nodes if s < t])
                pool |= parts[i]
            ground_total += math.prod(2 * len(d) for d in dims)

            cyc = calls.cycle(parts[0])
            if cyc is None:
                continue

            def walk(idx: int, union: frozenset[int], weight: int) -> None:
                nonlocal stop
                if idx == len(dims):
                    # feasibility is only ever tested on would-be updates
                    if incumbent.beats(weight, union) and feasible(union):
                        if incumbent.offer(weight, union):
                            stats.updates.append((subset_index, weight))
                            if mode == "fast" and weight <= lower_bound:
                                stop = True
                    return
                part = parts[idx + 1]
                for s, t in dims[idx]:
                    sub = calls.path(part, s, t)
                    if sub is None:
                        continue
                    added = sub[1] - union
                    nw = weight + sum(calls.w[e] for e in added)
                    if nw > incumbent.weight:
                        continue
                    walk(idx + 1, union | sub[1], nw)

            walk(0, cyc[1], cyc[0])
        iterations += ground_total
        ground_totals[ground] = ground_total
    stats.iterations += iterations

    final = incumbent.edges
    if final == full and not feasible(full):
        # the sentinel never got replaced and is itself no solution
        raise Infeasible("no feasible candidate was assembled")
    return incumbent.weight, final


def solve_2ncs_unweighted(
    g: Graph,
    terminals,
    eta=Fraction(1, 100),
    seed: int = 0,
    *,
    mode: str = "audit",
    threads: int = 1,
    stats: SolveStats | None = None,
) -> Solution:
    """Minimum-size 2-node-connected subgraph containing the terminals.

    Deterministic; ``eta``, ``seed`` and ``threads`` are only recorded in
    ``stats``. Raises Infeasible when the terminals do not share a block
    of at least three nodes.
    """
    stats = run_stats(stats, seed, eta, threads)
    _, edges = _solve_core(g, terminals, mode=mode, stats=stats)
    return Solution(edges=edges, cost=g.total_cost(edges))


def solve_2ncs_weighted(
    g: Graph,
    terminals,
    epsilon,
    eta=Fraction(1, 100),
    seed: int = 0,
    *,
    mode: str = "audit",
    threads: int = 1,
    stats: SolveStats | None = None,
) -> Solution:
    """(1+eps)-approximate minimum-cost 2-node-connected Steiner subgraph:
    ``scaling.solve_scaled`` over ``_solve_core``, whose integer weights
    stand in for subdivision chains. ``eta``, ``seed`` and ``threads`` are
    only recorded in ``stats``.
    """
    stats = run_stats(stats, seed, eta, threads)
    return solve_scaled(
        g, terminals, epsilon, ProblemKind.TWO_NCS, stats,
        lambda folded, weights: _solve_core(
            folded, terminals, weights=weights, mode=mode, stats=stats
        )[1],
    )
