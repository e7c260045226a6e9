"""Exact minimum 2-node-connected Steiner subgraphs, and their FPTAS.

The unweighted solver walks a three-level search space: candidate sets S
of would-be degree-3 nodes (size at most 2k-4 by the structure bound),
ordered partitions of T union S whose first part keeps at least two
nodes, and one anchor pair per later part drawn from the union of
earlier parts. ``_solve_core``'s scan is the one place
this space is built. Every configuration assembles a candidate subgraph:
a minimum Steiner cycle through the first part (three nodes or more,
since the target subgraph needs them) unioned with a minimum Steiner path
per later part between its anchors. The register (``_Incumbent``) keeps
the smallest ``cycles._perturbed`` sum, as the kernel does: the smallest
weight, ties broken to the lexicographically smallest edge-id set. So the
answer does not depend on the scan order, but the recorded updates do.

Lemma 0: every candidate is feasible (Whitney's ear theorem, 1932). The
first part's cycle has at least 3 nodes (``min_nodes=3``). Each later
path is simple, and its ends s < t lie on the union so far, so every
stretch of it outside the union has two distinct ends on the union: an
open ear. So every union is 2-node-connected, and it covers the ground,
which contains T. The scan therefore offers each candidate as it stands;
``prefix_feasible`` before it is the only feasibility test, and a register
still empty after it is a fault, reported as Infeasible.

Two parts of the space are counted but never searched, because every
candidate in them was offered before and the register only decreases,
so none could update. A mirrored anchor pair (t, s) gets the same path as
(s, t), which comes first, so its subtree is skipped. Subsets come
smallest first, so an S that meets T repeats the ground T union S, and
with it every configuration, of the smaller S - T.

Three edge-count bounds skip the parts of the space whose candidates are
all heavier than the incumbent. Edge weights are integers >= 1, and each
bound is strict and compared in plain units, so a candidate that ties the
incumbent's weight still reaches the register. Every candidate over a
ground covers the ground, and by lemma 0 every one is 2-node-connected on
>= 3 nodes, so each of its nodes has degree >= 2.

1. Ears. Let P be a partial union (the first part's cycle, then each
   added path) and N the ground nodes it misses. Every edge at a node of
   N is new, the degrees at N need >= 2|N| edge ends, and >= 2 new edges
   leave N: with one, its end outside N would separate N from the rest
   of P's >= 3 nodes, a cut node. So a completed union adds >= |N| + 1
   edges, and a prefix with ``weight + |N| + 1 > incumbent`` is pruned.
2. Later parts. A feasible union has at least as many edges as nodes, so
   its weight is at least |ground|, and at exactly |ground| it is a simple
   cycle on exactly the ground. The one-part partition, which comes first,
   has offered the ground's cycle of least perturbed sum, the kernel's
   record. So once ``|ground| + 1 > incumbent``, no partition with two or
   more parts can update; partitions come in increasing part count, so
   the rest of the ground is counted in bulk.
3. Grounds. By the same count, a ground with ``|ground| > incumbent`` is
   skipped whole.

The solvers scan the series reduction of their graph (``_solve``), where an
edge may stand for a chain of Steiner nodes of degree two. Lemmas 0-3 hold
there as on any graph: every reduced edge weighs >= 1, and no cycle on two
kept nodes stands for a longer one, so ``min_nodes=3`` still rejects
exactly the cycles that are not 2-node-connected.

The iteration counter counts every (S, partition, anchor vector) point
exactly once, searched or counted in bulk. A ground's total depends only
on its size and k (``enumeration.count_anchor_vectors``), so each ground
adds its total once, and the counter always equals the closed-form sum
over all subsets. ``ground_skips``, ``later_part_skips`` and ``ear_prunes``
count the three bounds' skips.

``_Subcalls`` memoizes the scan's subcalls by their arguments: Steiner
cycles, Steiner paths, and the 2-node-connected part containers that
k-FST prices. A container of four or more nodes is this scan, run on the
same memo, so the inner scans of a k-FST request reuse every cycle and
path found before them. With integer edge weights the same machinery
solves the rounded-and-subdivided weighted instance of
``scaling.solve_scaled`` without ever materialising subdivision chains.
The scan runs on the calling thread in a fixed order, so every count
repeats exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cycles import (
    SearchPrep,
    _perturbed,
    _Record,
    _reduced,
    _weight_list,
    search_min_cycle,
    search_min_path,
)
from .enumeration import count_anchor_vectors, ordered_partitions, subsets_up_to
from .errors import Infeasible, NoCycle, NoPath
from .graph import Graph
from .scaling import prefix_feasible, solve_scaled
from .solution import ProblemKind, Solution, SolveStats, run_stats


_MISS = object()


class _Incumbent:
    """Register of the least ``cycles._perturbed`` sum over ``shift`` edges
    and its plain ``weight``; empty (no edges, both infinite) until the
    first offer."""

    def __init__(self, shift: int):
        self.shift = shift
        self.total = self.weight = math.inf
        self.edges: frozenset[int] | None = None

    def offer(self, total: int, edges: frozenset[int]) -> bool:
        if total >= self.total:
            return False
        self.total, self.edges = total, edges
        self.weight = -(-total >> self.shift)
        return True


class _Subcalls:
    """Memoized subcalls over one graph and weight vector: cycles, paths
    and part containers; all of them share one ``SearchPrep`` of the
    search kernel's tables, perturbed weights included. A cycle or path
    result is the kernel's record ``(perturbed sum, edges, node mask)``,
    kept as it comes, or None. The perturbed weights are ``p``, by default
    ``_perturbed`` of the weights, and ``shift`` is their width, by default
    g.m: a sum s weighs ``-(-s >> shift)``."""

    def __init__(
        self,
        g: Graph,
        weights,
        stats: SolveStats,
        p: list[int] | None = None,
        shift: int | None = None,
    ):
        self.g = g
        w = _weight_list(g, weights)
        self.prep = SearchPrep(g, w, _perturbed(w) if p is None else p)
        self.shift = g.m if shift is None else shift
        self.stats = stats
        self.cycles: dict[frozenset[int], _Record | None] = {}
        self.paths: dict[tuple[frozenset[int], int, int], _Record | None] = {}
        self.containers: dict[frozenset[int], frozenset[int] | None] = {}

    def cycle(self, part: frozenset[int]) -> _Record | None:
        hit = self.cycles.get(part, _MISS)
        if hit is not _MISS:
            return hit
        result: _Record | None
        try:
            # the target subgraph needs >= 3 nodes (lemma 0)
            result = search_min_cycle(self.g, part, min_nodes=3, prep=self.prep)
        except NoCycle:
            result = None
        self.stats.count("cycle_calls")
        self.cycles[part] = result
        return result

    def path(self, part: frozenset[int], s: int, t: int) -> _Record | None:
        key = (part, s, t)
        hit = self.paths.get(key, _MISS)
        if hit is not _MISS:
            return hit
        result: _Record | None
        try:
            result = search_min_path(self.g, part, s, t, prep=self.prep)
        except NoPath:
            result = None
        self.stats.count("path_calls")
        self.paths[key] = result
        return result

    def container(self, part: frozenset[int]) -> frozenset[int] | None:
        """The edges of the 2-node-connected container that k-FST prices
        ``part`` with, or None: its minimum Steiner cycle up to
        three nodes, else the 2NCS scan on this memo, memoized per part.
        That scan's own counters, iterations included, are kept as
        ``twonc_<name>``; its cycle and path calls count as this memo's."""
        if len(part) <= 3:
            # A part of at most three nodes is priced by its minimum Steiner
            # cycle, and a part with no such cycle is skipped. That is not
            # always the minimum 2-node-connected container: the three
            # degree-2 nodes of K_{2,3} share no cycle (ROADMAP K, small-part gap).
            hit = self.cycle(part)
            return hit and hit[1]
        hit = self.containers.get(part, _MISS)
        if hit is not _MISS:
            return hit
        scratch = SolveStats()
        try:
            got = _solve_core(self, part, scratch)[1]
        except Infeasible:
            got = None
        self.stats.count("twonc_calls")
        self.stats.count("twonc_iterations", scratch.iterations)
        for name, count in scratch.subcalls.items():
            self.stats.count(f"twonc_{name}", count)
        self.containers[part] = got
        return got


def _solve_core(
    calls: _Subcalls, terminals, stats: SolveStats
) -> tuple[int, frozenset[int]]:
    """The scan over the graph of ``calls``: (plain weight, edges). Its cycle
    and path calls count in ``calls.stats``, everything else in ``stats``."""
    g = calls.g
    terms = sorted(set(terminals))
    k = len(terms)
    if k < 2:
        raise ValueError("the solver needs at least two terminals")
    if not prefix_feasible(g, terms, ProblemKind.TWO_NCS, list(g.edge_ids())):
        raise Infeasible("terminals do not lie in a common 2-node-connected block")

    p, shift = calls.prep.p, calls.shift
    incumbent = _Incumbent(shift)
    term_set = set(terms)
    bound = max(2 * k - 4, 0)
    iterations = 0
    totals = [count_anchor_vectors(size, k) for size in range(k + bound + 1)]
    ground_skips = later_part_skips = ear_prunes = 0
    for subset_index, S in enumerate(subsets_up_to(range(g.n), bound)):
        size = k + len(S - term_set)
        iterations += totals[size]
        if S & term_set:
            # S meets T, so the smaller S - T came first with this ground
            # and the same configurations: nothing here can update
            continue
        if size > incumbent.weight:
            # every candidate here covers the ground: lemma 3
            ground_skips += 1
            continue
        ground = sorted(term_set | S)
        ground_mask = sum(1 << v for v in ground)
        for parts in ordered_partitions(ground, k, 2):
            r = len(parts)
            if r > 1 and size + 1 > incumbent.weight:
                # lemma 2; r only grows from here and the register only
                # decreases, so the rest of the ground, already counted,
                # is skipped
                later_part_skips += 1
                break
            cyc = calls.cycle(parts[0])
            if cyc is None:
                continue
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

            def walk(idx: int, union: frozenset[int], total: int, mask: int) -> None:
                nonlocal ear_prunes  # total is perturbed, the bounds are plain
                missing = (ground_mask & ~mask).bit_count()
                if missing and -(-total >> shift) + missing + 1 > incumbent.weight:
                    ear_prunes += 1  # lemma 1
                    return
                if idx == len(dims):
                    # feasible by lemma 0
                    if incumbent.offer(total, union):
                        stats.updates.append((subset_index, incumbent.weight))
                    return
                part = parts[idx + 1]
                for s, t in dims[idx]:
                    sub = calls.path(part, s, t)
                    if sub is None:
                        continue
                    nt = total + sum(p[e] for e in sub[1] - union)
                    if -(-nt >> shift) > incumbent.weight:
                        continue
                    walk(idx + 1, union | sub[1], nt, mask | sub[2])

            walk(0, cyc[1], cyc[0], cyc[2])
    stats.iterations += iterations
    stats.count("ground_skips", ground_skips)
    stats.count("later_part_skips", later_part_skips)
    stats.count("ear_prunes", ear_prunes)

    if incumbent.edges is None:
        raise Infeasible("no feasible candidate was assembled")
    return incumbent.weight, incumbent.edges


def _solve(g: Graph, terminals, weights, stats: SolveStats) -> frozenset[int]:
    """The scan on g's series reduction under the weights (``_weight_list``),
    its answer in g's edge ids. A Steiner node of degree 2 lies in a
    2-node-connected subgraph with both of its edges or not at all, and one
    of degree <= 1 in none."""
    terms = sorted(set(terminals))
    if not all(0 <= t < g.n for t in terms):
        raise Infeasible("terminals do not lie in a common 2-node-connected block")
    w = _weight_list(g, weights)
    h, hw, hp, terms, expand = _reduced(g, terms, w, _perturbed(w), stats)
    return expand(_solve_core(_Subcalls(h, hw, stats, hp, g.m), terms, stats)[1])


def solve_2ncs_unweighted(
    g: Graph,
    terminals,
    eta=Fraction(1, 100),
    seed: int = 0,
    *,
    threads: int = 1,
    stats: SolveStats | None = None,
) -> Solution:
    """Minimum-size 2-node-connected subgraph containing the terminals.

    Deterministic; ``eta``, ``seed`` and ``threads`` are only recorded in
    ``stats``. Raises Infeasible when the terminals do not share a block
    of at least three nodes.
    """
    stats = run_stats(stats, seed, eta, threads)
    edges = _solve(g, terminals, None, stats)
    return Solution(edges=edges, cost=g.total_cost(edges))


def solve_2ncs_weighted(
    g: Graph,
    terminals,
    epsilon,
    eta=Fraction(1, 100),
    seed: int = 0,
    *,
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
        lambda folded, weights: _solve(folded, terminals, weights, stats),
    )
