"""The 2-node-connected solvers and their configuration scan."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from survsteiner import (
    Graph,
    Infeasible,
    ProblemKind,
    SolveStats,
    is_2nc,
    oracle_min_subgraph,
    solve_2ncs_unweighted,
    solve_2ncs_weighted,
    subgraph_nodes,
)
from survsteiner import twonc
from survsteiner.enumeration import count_anchor_vectors, ordered_partitions, subsets_up_to


def cycle_graph(n, cost=1):
    return Graph.build(n, [(i, (i + 1) % n, cost, True) for i in range(n)])


def k4():
    return Graph.build(
        4,
        [(0, 1, 1, True), (1, 2, 1, True), (2, 3, 1, True),
         (3, 0, 1, True), (0, 2, 1, True), (1, 3, 1, True)],
    )


def theta():
    # nodes 2,3,4 sit on three internally disjoint 0-1 paths
    return Graph.build(
        5,
        [(0, 2, 1, True), (2, 1, 1, True), (0, 3, 1, True),
         (3, 1, 1, True), (0, 4, 1, True), (4, 1, 1, True)],
    )


def random_graph(rng, n_lo=4, n_hi=8):
    n = rng.randrange(n_lo, n_hi)
    specs = [(i, (i + 1) % n, 1, True) for i in range(n)]
    for _ in range(rng.randrange(0, n)):
        u, v = rng.sample(range(n), 2)
        specs.append((u, v, 1, True))
    return Graph.build(n, specs)


class TestUnweightedSolver:
    def test_cycle_graph_needs_all_edges(self):
        sol = solve_2ncs_unweighted(cycle_graph(5), [0, 1, 3])
        assert sol.edges == frozenset(range(5))
        assert sol.optimal is True

    def test_k4_all_terminals(self):
        sol = solve_2ncs_unweighted(k4(), [0, 1, 2, 3])
        assert len(sol.edges) == 4
        # ties break lexicographically: the 0-1-2-3-0 square wins
        assert sol.edges == frozenset({0, 1, 2, 3})

    def test_terminals_in_different_blocks_infeasible(self):
        g = Graph.build(
            5,
            [(0, 1, 1, True), (1, 2, 1, True), (2, 0, 1, True),
             (2, 3, 1, True), (3, 4, 1, True), (4, 2, 1, True)],
        )
        with pytest.raises(Infeasible):
            solve_2ncs_unweighted(g, [0, 3, 4])

    def test_two_terminals(self):
        g = theta()
        sol = solve_2ncs_unweighted(g, [0, 1])
        assert len(sol.edges) == 4
        assert is_2nc(g, edges=sol.edges)

    def test_steiner_nodes_get_used_when_needed(self):
        g = theta()
        sol = solve_2ncs_unweighted(g, [2, 3])
        nodes = subgraph_nodes(g, sol.edges)
        assert {0, 1} <= nodes
        assert is_2nc(g, edges=sol.edges)

    def test_incumbent_updates_never_grow(self):
        stats = SolveStats()
        solve_2ncs_unweighted(k4(), [0, 1, 2, 3], stats=stats)
        sizes = [size for _, size in stats.updates]
        assert sizes == sorted(sizes, reverse=True)
        assert stats.iterations > 0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        # k=4 stays on small graphs; the acceptance suite covers scale
        k = 4 if seed % 5 == 0 else 3
        g = random_graph(rng, n_hi=6 if k == 4 else 8)
        terms = rng.sample(range(g.n), k)
        try:
            ref = oracle_min_subgraph(g, terms, ProblemKind.TWO_NCS)
        except Infeasible:
            with pytest.raises(Infeasible):
                solve_2ncs_unweighted(g, terms)
            return
        sol = solve_2ncs_unweighted(g, terms)
        assert len(sol.edges) == len(ref.edges)
        assert is_2nc(g, edges=sol.edges)
        assert set(terms) <= subgraph_nodes(g, sol.edges)


class TestWeightedSolver:
    def test_unit_costs_match_unweighted(self):
        g = k4()
        exact = solve_2ncs_unweighted(g, [0, 1, 2, 3])
        approx = solve_2ncs_weighted(g, [0, 1, 2, 3], Fraction(1, 2))
        assert approx.cost <= Fraction(3, 2) * exact.cost
        assert is_2nc(g, edges=approx.edges)

    def test_frozen_weighted_instance(self):
        g = Graph.build(
            5,
            [(0, 1, 4, True), (1, 2, 1, True), (2, 3, 3, True),
             (3, 4, 2, True), (4, 0, 1, True), (0, 2, 2, True),
             (1, 3, 5, True)],
        )
        ref = oracle_min_subgraph(g, [0, 1, 3], ProblemKind.TWO_NCS, weighted=True)
        assert ref.cost == 11
        sol = solve_2ncs_weighted(g, [0, 1, 3], Fraction(1, 10))
        assert sol.cost <= Fraction(11, 10) * 11
        assert sol.ratio_bound == Fraction(11, 10)

    def test_zero_cost_edges_terminate(self):
        g = Graph.build(
            4,
            [(0, 1, 0, True), (1, 2, 0, True), (2, 3, 0, True),
             (3, 0, 0, True), (0, 2, 3, True)],
        )
        sol = solve_2ncs_weighted(g, [0, 1, 2, 3], Fraction(1, 2))
        assert sol.cost == 0
        assert is_2nc(g, edges=sol.edges)

    def test_stats_carry_the_gadget(self):
        g = Graph.build(
            4,
            [(0, 1, 2, True), (1, 2, 5, True), (2, 3, 1, True),
         (3, 0, 4, True), (0, 2, 3, True)],
        )
        stats = SolveStats()
        solve_2ncs_weighted(g, [0, 1, 2], Fraction(1, 2), stats=stats)
        assert stats.epsilon == Fraction(1, 2)
        assert stats.beta is not None
        assert stats.subdivided_nodes is not None

    @pytest.mark.parametrize("seed", range(12))
    def test_ratio_against_oracle(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randrange(4, 7)
        specs = [(i, (i + 1) % n, rng.randrange(0, 15), True) for i in range(n)]
        for _ in range(rng.randrange(0, 3)):
            u, v = rng.sample(range(n), 2)
            specs.append((u, v, rng.randrange(0, 15), True))
        g = Graph.build(n, specs)
        terms = rng.sample(range(n), 3)
        try:
            ref = oracle_min_subgraph(g, terms, ProblemKind.TWO_NCS, weighted=True)
        except Infeasible:
            with pytest.raises(Infeasible):
                solve_2ncs_weighted(g, terms, Fraction(1, 2))
            return
        for eps in (Fraction(1, 2), Fraction(1, 10)):
            sol = solve_2ncs_weighted(g, terms, eps)
            assert sol.cost <= (1 + eps) * ref.cost
            assert is_2nc(g, edges=sol.edges)


def ring_chords(rng, n, m):
    """A shuffled Hamiltonian ring plus m - n random chords."""
    perm = list(range(n))
    rng.shuffle(perm)
    specs = [(perm[i], perm[(i + 1) % n], 1, True) for i in range(n)]
    while len(specs) < m:
        u, v = rng.sample(range(n), 2)
        specs.append((u, v, 1, True))
    return Graph.build(n, specs)


def reference_scan(g, terms, weights, subset_bound, stats):
    """The configuration scan with nothing skipped: every subset S of at
    most ``subset_bound`` nodes, every ordered partition of T union S and
    every ordered anchor pair, pruned only where a subcall fails or the
    partial union already outweighs the incumbent, with those subtrees
    counted by their closed-form size. Its register starts empty and keeps
    the plain rule, the minimum (weight, sorted edge-id tuple), where the
    solver compares ``twonc._perturbed`` sums."""
    k = len(terms)
    calls = twonc._Subcalls(g, weights, stats)

    def weigh(edges):
        return sum(calls.w[e] for e in edges)

    best = (math.inf, ())  # empty: every candidate holds a cycle
    term_set = set(terms)

    def feasible(edges):
        return term_set <= subgraph_nodes(g, edges) and is_2nc(g, edges)

    for index, S in enumerate(subsets_up_to(range(g.n), subset_bound)):
        for parts in ordered_partitions(sorted(term_set | S), k, 2):
            pools = [sorted(set().union(*parts[: i + 1])) for i in range(len(parts) - 1)]

            def points(idx):
                # anchor vectors below level idx
                return math.prod(len(p) * (len(p) - 1) for p in pools[idx:])

            def walk(idx, union, weight):
                nonlocal best
                if idx == len(pools):
                    stats.iterations += 1
                    # feasibility is tested only on would-be updates,
                    # independently of the solver's lemma 0
                    key = tuple(sorted(union))
                    if (weight, key) < best and feasible(union):
                        best = (weight, key)
                        stats.updates.append((index, weight))
                    return
                for s, t in itertools.permutations(pools[idx], 2):
                    sub = calls.path(parts[idx + 1], s, t)
                    nw = None if sub is None else weight + weigh(sub[1] - union)
                    if nw is None or nw > best[0]:
                        stats.iterations += points(idx + 1)
                        continue
                    walk(idx + 1, union | sub[1], nw)

            cyc = calls.cycle(parts[0])
            if cyc is None:
                stats.iterations += points(0)
            else:
                walk(0, cyc[1], weigh(cyc[1]))
    if not best[1]:
        raise Infeasible("no feasible candidate")
    return best[0], frozenset(best[1])


# graph sizes per (k, wide), with two seeds on the smallest; a wide case
# lets the reference scan subsets of up to 2k nodes instead of the
# structure bound's 2k - 4. The unskipped scan walks 4 M anchor vectors for
# k = 4 at n = 6, and a wide one 2 M for k = 3 at n = 7 and 12 M at n = 8
SCAN_SIZES = {(3, False): (6, 8), (3, True): (5, 6), (4, False): (5, 6), (4, True): (5,)}
SCAN_CASES = [
    (k, n, weighted, wide, seed)
    for (k, wide), sizes in SCAN_SIZES.items()
    for n in sizes
    for weighted in (False, True)
    for seed in range(2 if n == 5 else 1)
]


def scan_name(k, n, weighted, wide, seed):
    """A scan case's test id and the seed of its instance. The tag
    ``audit`` names the one scan; it stays in the name so that the ids and
    the seeded instances stay those the scan has always been checked on."""
    return f"{k}-{n}-{weighted}-audit-{wide}-{seed}"


def compare_scans(g, terms, weights, subset_bound):
    """``reference_scan`` and ``_solve_core`` on one instance: the
    reference's answer and stats, the solver's, and the grounds the solver
    scanned."""
    ref_stats, stats = SolveStats(), SolveStats()
    ref = reference_scan(g, terms, weights, subset_bound, ref_stats)
    grounds = []

    def scanned(ground, *args):
        grounds.append(tuple(ground))
        return ordered_partitions(ground, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(twonc, "ordered_partitions", scanned)
        got = twonc._solve_core(twonc._Subcalls(g, weights, stats), terms, stats)
    return ref, ref_stats, got, stats, grounds


@functools.cache
def scan_pair(k, n, weighted, wide, seed):
    """One scan case through ``compare_scans``; cached, so the tests over
    all cases reuse the runs."""
    rng = random.Random(f"scan-{scan_name(k, n, weighted, wide, seed)}")
    g = ring_chords(rng, n, n + rng.randrange(2, 5))
    weights = {e: rng.randint(1, 4) for e in g.edge_ids()} if weighted else None
    terms = sorted(rng.sample(range(n), k))
    return compare_scans(g, terms, weights, 2 * k if wide else 2 * k - 4)


def assert_same_scan(ref, ref_stats, got, stats, grounds):
    """Equal answers, iterations and updates; each ground scanned once;
    no more cycle subcalls and at most half the path subcalls."""
    assert got == ref
    assert len(grounds) == len(set(grounds))
    assert stats.iterations == ref_stats.iterations
    assert stats.updates == ref_stats.updates
    assert stats.subcalls.get("cycle_calls", 0) <= ref_stats.subcalls.get("cycle_calls", 0)
    assert 2 * stats.subcalls.get("path_calls", 0) <= ref_stats.subcalls.get("path_calls", 0)


def k23_ring():
    """K_{2,3} on the branch nodes 3, 4 with the terminals 0, 1, 2 on its
    other side (unit edges, ids 0-5), then a triangle of weight-2 edges on
    the terminals. The first incumbent weighs 6, as K_{2,3} does, and its
    smaller edge-id tuple is reached only through prefixes whose ear bound
    equals 6: a 4-cycle through two terminals that misses the third."""
    specs = [(t, side, 1, True) for t in range(3) for side in (3, 4)]
    specs += [(t, (t + 1) % 3, 2, True) for t in range(3)]
    g = Graph.build(5, specs)
    return g, [0, 1, 2], {e: int(g.edges[e].cost) for e in g.edge_ids()}


class TestScanSkips:
    """The scan skips mirrored anchor pairs and repeated grounds and bounds
    the rest by edge counts; against a scan that does none of this, every
    answer, ``iterations`` and ``updates`` match, and at most half of the
    path subcalls remain. Against a reference that also scans subsets
    beyond the structure bound (``wide``), the answer matches: the bound
    loses none."""

    @pytest.mark.parametrize(
        "k,n,weighted,wide,seed", SCAN_CASES, ids=[scan_name(*c) for c in SCAN_CASES]
    )
    def test_matches_the_full_scan(self, k, n, weighted, wide, seed):
        ref, ref_stats, got, stats, grounds = scan_pair(k, n, weighted, wide, seed)
        if wide:
            # the wider reference scans more, so only the answer compares
            assert got == ref
            assert len(grounds) == len(set(grounds))
            return
        assert_same_scan(ref, ref_stats, got, stats, grounds)

    def test_a_tie_at_the_ear_bound_matches_the_full_scan(self):
        g, terms, weights = k23_ring()
        scans = compare_scans(g, terms, weights, 2)
        assert scans[2] == (6, frozenset(range(6)))
        assert_same_scan(*scans)

    def test_the_bounds_cut_the_subcalls(self):
        # a bound that never fires passes the tests above; over all cases
        # each one fires and the path subcalls fall below half
        totals, ref_paths = {}, 0
        for case in SCAN_CASES:
            if case[3]:
                continue
            _, ref_stats, _, stats, _ = scan_pair(*case)
            ref_paths += ref_stats.subcalls.get("path_calls", 0)
            for name, count in stats.subcalls.items():
                totals[name] = totals.get(name, 0) + count
        assert 2 * totals["path_calls"] < ref_paths
        for name in ("ground_skips", "later_part_skips", "ear_prunes"):
            assert totals[name] > 0, name

    def test_updates_at_the_lower_bound_come_from_the_empty_subset(self):
        # a feasible union weighs >= max(3, k), and at that weight it is a
        # cycle on exactly T, which the first configuration (S = {}, one
        # part) offers; so no later subset can update at that weight
        at_bound = 0
        for case in SCAN_CASES:
            k = case[0]
            _, ref_stats, _, stats, _ = scan_pair(*case)
            for index, weight in ref_stats.updates + stats.updates:
                if weight <= max(3, k):
                    assert index == 0, (case, index, weight)
                    at_bound += 1
        assert at_bound > 0

    def test_each_bound_fires_at_its_equality(self):
        # a 4-cycle 0-1-2-3 (ids 0-3) and a triangle 0-1-4, T = {0, 1, 2};
        # S ranges over subsets of at most two nodes
        g = Graph.build(5, [(0, 1, 1, True), (1, 2, 1, True), (2, 3, 1, True),
                            (3, 0, 1, True), (0, 4, 1, True), (4, 1, 1, True)])
        stats = SolveStats()
        calls = twonc._Subcalls(g, None, stats)
        assert twonc._solve_core(calls, [0, 1, 2], stats) == (4, frozenset(range(4)))
        assert stats.updates == [(0, 4)]  # the 4-cycle, at S = {}
        assert stats.subcalls == {
            # S = {}: the one-part cycle and the 2-node first parts; the
            # one-part cycles of S = {3} and S = {4}
            "cycle_calls": 6,
            # S = {}, first part {0, 1}: the triangle misses node 2, and
            # 3 + 1 + 1 > 4; first parts {0, 2} and {1, 2}: their 4-cycle
            # covers the ground and is walked, one path each
            "ear_prunes": 1,
            "path_calls": 2,
            # S = {3}, {4}: 4 + 1 > 4 after the one-part partition
            "later_part_skips": 2,
            # S = {3, 4}: 5 > 4; S = {3} and {4} are not skipped, 4 > 4 fails
            "ground_skips": 1,
        }
        # ground sizes: 3 for S = {} and the six S inside T; 4 for {3},
        # {4} and their six extensions by a terminal; 5 for {3, 4}. Each
        # ground adds its closed-form total
        assert stats.iterations == sum(
            count_anchor_vectors(size, 3) * grounds
            for size, grounds in ((3, 7), (4, 8), (5, 1))
        )
