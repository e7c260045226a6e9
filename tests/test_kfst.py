"""Pendant gadget, protected paths, the join over parts and terminals,
the survivability test, and the solvers."""

import math
import random
from fractions import Fraction

import pytest

from survsteiner import (
    AlreadyModified,
    FstInstance,
    Graph,
    Infeasible,
    InfiniteMst,
    NoProtectedPath,
    NotModified,
    ProblemKind,
    Solution,
    SolveStats,
    apply_pendant_gadget,
    build_protected_table,
    min_protected_path,
    mst_join,
    oracle_feasible,
    oracle_min_subgraph,
    oracle_protected_all_pairs,
    solve_2ecs,
    solve_kfst_unweighted,
    solve_kfst_weighted,
    strip_pendant_gadget,
)
from survsteiner import cycles, kfst, twonc
from survsteiner.instance_io import read_instance


def mixed_five() -> Graph:
    # unsafe ring segments with a safe chord structure around node 4
    return Graph.build(
        5,
        [(0, 1, 1, False), (1, 2, 1, True), (2, 3, 1, False),
         (3, 0, 1, True), (1, 3, 1, False), (1, 4, 1, True),
         (4, 3, 1, True)],
    )


def random_mixed(rng, n_lo=4, n_hi=8, unsafe=0.4):
    n = rng.randrange(n_lo, n_hi)
    specs = []
    for i in range(n):
        specs.append((i, (i + 1) % n, 1, rng.random() >= unsafe))
    for _ in range(rng.randrange(0, n)):
        u, v = rng.sample(range(n), 2)
        specs.append((u, v, 1, rng.random() >= unsafe))
    return Graph.build(n, specs)


class TestPendantGadget:
    def test_adds_one_safe_pendant_per_terminal(self):
        g = Graph.build(3, [(0, 1, 1, False), (1, 2, 1, False), (2, 0, 1, False)])
        inst = FstInstance(g, frozenset({0, 1, 2}))
        mod = apply_pendant_gadget(inst)
        assert mod.graph.n == 6 and mod.graph.m == 6
        assert mod.terminals == frozenset({3, 4, 5})
        for t, (node, eid) in mod.pendant_map.items():
            e = mod.graph.edge(eid)
            assert e.safe and {e.u, e.v} == {t, node}
        assert mod.modified

    def test_apply_twice_refused(self):
        inst = FstInstance(Graph.build(2, [(0, 1, 1, True)]), frozenset({0, 1}))
        with pytest.raises(AlreadyModified):
            apply_pendant_gadget(apply_pendant_gadget(inst))

    def test_strip_removes_exactly_the_pendants(self):
        g = Graph.build(3, [(0, 1, 1, True), (1, 2, 1, True), (2, 0, 1, True)])
        mod = apply_pendant_gadget(FstInstance(g, frozenset({0, 2})))
        sol = Solution(edges=frozenset({0, 1, 3, 4}), cost=Fraction(4))
        stripped = strip_pendant_gadget(mod, sol)
        assert stripped.edges == frozenset({0, 1})
        assert stripped.cost == sol.cost - 2

    def test_strip_demands_every_pendant(self):
        g = Graph.build(3, [(0, 1, 1, True), (1, 2, 1, True), (2, 0, 1, True)])
        mod = apply_pendant_gadget(FstInstance(g, frozenset({0, 2})))
        with pytest.raises(NotModified):
            strip_pendant_gadget(mod, Solution(edges=frozenset({0, 3}), cost=Fraction(2)))

    def test_strip_needs_a_modified_instance(self):
        inst = FstInstance(Graph.build(2, [(0, 1, 1, True)]), frozenset({0, 1}))
        with pytest.raises(NotModified):
            strip_pendant_gadget(inst, Solution(edges=frozenset(), cost=Fraction(0)))

    def test_feasibility_transfers_both_ways(self):
        g = mixed_five()
        inst = FstInstance(g, frozenset({0, 2, 4}))
        mod = apply_pendant_gadget(inst)
        pendants = frozenset(eid for _, eid in mod.pendant_map.values())
        sol = solve_kfst_unweighted(inst)
        assert oracle_feasible(g, sol.edges, [0, 2, 4], ProblemKind.KFST)
        assert oracle_feasible(
            mod.graph, sol.edges | pendants, sorted(mod.terminals), ProblemKind.KFST
        )


class TestProtectedPaths:
    def test_single_safe_edge(self):
        g = Graph.build(2, [(0, 1, 1, True)])
        sol = min_protected_path(g, 0, 1)
        assert sol.edges == frozenset({0}) and sol.cost == 1

    def test_single_unsafe_edge_has_no_protection(self):
        g = Graph.build(2, [(0, 1, 1, False)])
        with pytest.raises(NoProtectedPath):
            min_protected_path(g, 0, 1)

    def test_parallel_unsafe_pair_protects(self):
        g = Graph.build(2, [(0, 1, 1, False), (0, 1, 1, False)])
        sol = min_protected_path(g, 0, 1)
        assert sol.edges == frozenset({0, 1}) and sol.cost == 2

    def test_same_endpoints_cost_nothing(self):
        g = Graph.build(2, [(0, 1, 1, True)])
        sol = min_protected_path(g, 1, 1)
        assert sol.edges == frozenset() and sol.cost == 0

    def test_endpoint_out_of_range(self):
        g = Graph.build(2, [(0, 1, 1, True)])
        with pytest.raises(ValueError):
            min_protected_path(g, 0, 9)

    def test_safe_shortcut_beats_unsafe_detour(self):
        g = Graph.build(
            3,
            [(0, 1, 1, True), (0, 2, 1, False), (2, 1, 1, False),
             (0, 2, 1, False), (2, 1, 1, False)],
        )
        assert min_protected_path(g, 0, 1).edges == frozenset({0})

    def test_table_is_symmetric_with_zero_diagonal(self):
        g = mixed_five()
        table = build_protected_table(g)
        for u in range(g.n):
            assert table.cost(u, u) == 0 and table.path(u, u) == frozenset()
            for v in range(g.n):
                assert table.cost(u, v) == table.cost(v, u)

    def test_second_pair_cancels_the_first_path(self):
        # the cheapest single 0-3 path 0-1-2-3 (weight 3) leaves no second
        # path on the other edges; the second search must send the flow on
        # edge 1 (1-2) back to end with 0-1-3 and 0-2-3 (weight 8)
        g = Graph.build(
            4,
            [(0, 1, 1, False), (1, 2, 1, False), (2, 3, 1, False),
             (0, 2, 1, False), (1, 3, 1, False)],
        )
        table = build_protected_table(g, [1, 1, 1, 3, 3])
        assert table.dist[0][3] == 8
        assert table.pay[0][3] == frozenset({0, 2, 3, 4})

    @pytest.mark.parametrize("seed", range(10))
    def test_table_matches_all_pairs_oracle(self, seed):
        # the pendant graph adds degree-1 nodes, which no pair search reaches
        rng = random.Random(seed)
        g = random_mixed(rng, n_hi=7)
        inst = FstInstance(g, frozenset(rng.sample(range(g.n), 3)))
        pendant = apply_pendant_gadget(inst).graph
        for graph in (g, pendant):
            table = build_protected_table(graph)
            ref = oracle_protected_all_pairs(graph)
            for u in range(graph.n):
                for v in range(u + 1, graph.n):
                    key = frozenset((u, v))
                    got = table.cost(u, v)
                    if key not in ref:
                        assert got is None
                        continue
                    assert got == ref[key].cost
                    found = table.path(u, v)
                    assert oracle_feasible(graph, found, [u, v], ProblemKind.KFST)
                    assert len(found) == ref[key].cost
                    assert min_protected_path(graph, u, v).edges == ref[key].edges
        stats = SolveStats()
        solve_kfst_unweighted(inst, stats=stats)
        assert stats.subcalls["protected_pairs"] == len(ref)


class TestAuxiliaryGraph:
    """The complete graph over the parts and the terminal singletons, as
    ``mst_join`` reads it from ``ProtectedPathTable.link``."""

    def test_one_part_three_terminals_is_complete_on_four(self):
        g = Graph.build(
            4,
            [(0, 1, 1, True), (1, 2, 1, True), (2, 3, 1, True), (3, 0, 1, True)],
        )
        table = build_protected_table(g)
        assert mst_join(table, [{0}], [1, 2, 3]) == (3, frozenset({0, 1, 3}))
        # a second family with the same terminals gets the same join
        assert mst_join(table, [{0}], [1, 2, 3]) == (3, frozenset({0, 1, 3}))

    def test_overlap_means_free_edge(self):
        g = Graph.build(2, [(0, 1, 1, True)])
        table = build_protected_table(g)
        assert table.link(frozenset({0, 1}), frozenset({0})) == (0, 0, 0)
        assert mst_join(table, [{0, 1}], [0]) == (0, frozenset())

    def test_min_over_pairs_rule(self):
        # part {0,1} reaches terminal 3 through the cheaper endpoint
        g = Graph.build(
            4,
            [(0, 1, 1, True), (1, 2, 1, True), (2, 3, 1, True), (0, 3, 1, True)],
        )
        table = build_protected_table(g)
        assert table.link(frozenset({0, 1}), frozenset({3})) == (1, 0, 3)
        assert mst_join(table, [{0, 1}], [3]) == (1, frozenset({3}))

    def test_empty_part_refused(self):
        g = Graph.build(2, [(0, 1, 1, True)])
        with pytest.raises(ValueError):
            mst_join(build_protected_table(g), [set()], [0])

    def test_mst_join_unions_realizing_paths(self):
        g = Graph.build(3, [(0, 1, 1, True), (1, 2, 1, True)])
        assert mst_join(build_protected_table(g), [{1}], [0, 2]) == (2, frozenset({0, 1}))

    def test_mst_join_without_spanning_edges(self):
        g = Graph.build(
            6,
            [(0, 1, 1, True), (1, 2, 1, True), (2, 0, 1, True),
             (3, 4, 1, True), (4, 5, 1, True), (5, 3, 1, True)],
        )
        table = build_protected_table(g)
        assert table.link(frozenset({0}), frozenset({4})) is None
        with pytest.raises(InfiniteMst):
            mst_join(table, [{0}], [4])


class TestUnweightedSolver:
    def test_all_safe_reduces_to_a_steiner_tree(self):
        g = Graph.build(
            7,
            [(0, 1, 1, True), (1, 2, 1, True), (2, 3, 1, True),
             (3, 4, 1, True), (4, 0, 1, True), (1, 5, 1, True),
             (5, 3, 1, True), (2, 6, 1, True), (6, 0, 1, True)],
        )
        sol = solve_kfst_unweighted(FstInstance(g, frozenset({0, 3, 6})))
        assert len(sol.edges) == 3
        assert sol.edges == frozenset({2, 7, 8})

    def test_mixed_safety_instance(self):
        sol = solve_kfst_unweighted(FstInstance(mixed_five(), frozenset({0, 2, 4})))
        assert sol.edges == frozenset({1, 3, 5, 6})

    def test_all_unsafe_ring_needs_every_edge(self):
        g = Graph.build(5, [(i, (i + 1) % 5, 1, False) for i in range(5)])
        sol = solve_kfst_unweighted(FstInstance(g, frozenset({0, 1, 3})))
        assert sol.edges == frozenset(range(5))

    def test_unsafe_bridge_is_infeasible(self):
        g = Graph.build(3, [(0, 1, 1, True), (1, 2, 1, False)])
        with pytest.raises(Infeasible):
            solve_kfst_unweighted(FstInstance(g, frozenset({0, 2})))

    def test_modified_instance_refused(self):
        g = Graph.build(3, [(0, 1, 1, True), (1, 2, 1, True), (2, 0, 1, True)])
        mod = apply_pendant_gadget(FstInstance(g, frozenset({0, 1})))
        with pytest.raises(AlreadyModified):
            solve_kfst_unweighted(mod)

    def test_two_terminals_use_the_table_directly(self):
        g = mixed_five()
        sol = solve_kfst_unweighted(FstInstance(g, frozenset({0, 2})))
        ref = min_protected_path(g, 0, 2)
        assert sol.cost == ref.cost

    @pytest.mark.parametrize("seed", range(18))
    def test_matches_oracle(self, seed):
        rng = random.Random(40 + seed)
        g = random_mixed(rng)
        terms = rng.sample(range(g.n), 3)
        try:
            ref = oracle_min_subgraph(g, terms, ProblemKind.KFST)
        except Infeasible:
            with pytest.raises(Infeasible):
                solve_kfst_unweighted(FstInstance(g, frozenset(terms)))
            return
        sol = solve_kfst_unweighted(FstInstance(g, frozenset(terms)))
        assert len(sol.edges) == len(ref.edges)
        assert oracle_feasible(g, sol.edges, terms, ProblemKind.KFST)


# Request 90 of the benchmark's kfst-mixed workload at seed 0: unit costs,
# n = 11, m = 15, terminals {2, 3, 6}. A family scan with a batch floor and
# plain weights skipped the family of this optimum and returned the
# equal-weight [2, 8, 9, 10, 12, 13]
TIE_BREAK_TEXT = """kfst 11 15 3
t 2
t 3
t 6
e 1 7 1 S
e 7 2 1 S
e 2 0 1 S
e 0 6 1 U
e 6 9 1 S
e 9 10 1 U
e 10 8 1 S
e 8 4 1 S
e 4 5 1 S
e 5 3 1 S
e 3 1 1 S
e 7 10 1 U
e 0 1 1 S
e 4 6 1 S
e 1 7 1 S
"""
TIE_BREAK_EDGES = frozenset({0, 1, 8, 9, 10, 13})


# The join minimizes the sum of table costs, not the weight of the edge
# union, so on plain weights even a scan of every family missed this
# optimum: it returned [0, 3, 6, 7, 8, 10, 11], which also weighs 7.
UNION_TIE_TEXT = """kfst 9 12 3
t 1
t 4
t 5
e 7 1 1 U
e 1 3 1 U
e 3 8 1 S
e 8 4 1 S
e 4 2 1 S
e 2 5 1 S
e 5 6 1 S
e 6 0 1 S
e 0 7 1 S
e 6 5 1 U
e 8 0 1 S
e 0 1 1 U
"""
UNION_TIE_EDGES = frozenset({0, 3, 4, 5, 8, 10, 11})


# Two k = 2 ties (terminals 0 and 1): the graph, the oracle's optimum and
# the answer of equal cost that a protected table on plain weights gives.
# A sweep of 4,000 random unit multigraphs (n 2-7, m 1-10, k-FST and 2ECS)
# found 131 such answers among 4,557 feasible ones
TWO_TERMINAL_TIES = {
    ProblemKind.KFST: (
        Graph.build(3, [(1, 2, 1, True), (0, 2, 1, True), (2, 0, 1, False),
                        (1, 2, 1, True), (1, 0, 1, False), (1, 0, 1, False)]),
        frozenset({0, 1}), [4, 5],
    ),
    ProblemKind.TWO_ECS: (
        Graph.build(4, [(0, 3), (2, 1), (1, 3), (1, 0), (2, 0)]),
        frozenset({0, 2, 3}), [1, 3, 4],
    ),
}


def solve_two_terminals(kind, g):
    if kind is ProblemKind.TWO_ECS:
        return solve_2ecs(g, [0, 1])
    return solve_kfst_unweighted(FstInstance(g, frozenset({0, 1})))


class TestTieBreak:
    def test_the_oracle_optimum_and_the_solver_cost(self):
        inst = read_instance(TIE_BREAK_TEXT)[1]
        ref = oracle_min_subgraph(inst.graph, sorted(inst.terminals), ProblemKind.KFST)
        assert ref.edges == TIE_BREAK_EDGES and ref.cost == 6
        assert solve_kfst_unweighted(inst).cost == 6

    def test_union_tie_oracle_optimum_and_solver_cost(self):
        inst = read_instance(UNION_TIE_TEXT)[1]
        ref = oracle_min_subgraph(inst.graph, sorted(inst.terminals), ProblemKind.KFST)
        assert ref.edges == UNION_TIE_EDGES and ref.cost == 7
        assert solve_kfst_unweighted(inst).cost == 7

    def test_union_weight_ties_break_to_the_smallest_edge_set(self):
        inst = read_instance(UNION_TIE_TEXT)[1]
        assert solve_kfst_unweighted(inst).edges == UNION_TIE_EDGES

    def test_ties_break_to_the_smallest_edge_set(self):
        inst = read_instance(TIE_BREAK_TEXT)[1]
        assert solve_kfst_unweighted(inst).edges == TIE_BREAK_EDGES

    @pytest.mark.parametrize("kind", [ProblemKind.KFST, ProblemKind.TWO_ECS])
    def test_two_terminal_oracle_optimum_and_solver_cost(self, kind):
        g, want, _ = TWO_TERMINAL_TIES[kind]
        ref = oracle_min_subgraph(g, [0, 1], kind)
        assert ref.edges == want
        assert solve_two_terminals(kind, g).cost == ref.cost

    @pytest.mark.parametrize("kind", [ProblemKind.KFST, ProblemKind.TWO_ECS])
    def test_two_terminal_ties_break_to_the_smallest_edge_set(self, kind):
        g, want, _ = TWO_TERMINAL_TIES[kind]
        assert solve_two_terminals(kind, g).edges == want


def k23_variant(rng):
    """K_{2,3} with its degree-2 nodes as terminals, plus up to three
    Steiner nodes on two edges each, mixed safety and shuffled labels.
    Every variant is 2-edge-connected, so both kinds are feasible."""
    pairs = [(a, x) for a in (0, 1) for x in (2, 3, 4)]
    n = 5 + rng.randrange(0, 4)
    for extra in range(5, n):
        pairs += [(extra, v) for v in rng.sample(range(extra), 2)]
    label = list(range(n))
    rng.shuffle(label)
    specs = [(label[u], label[v], 1, rng.random() >= 0.5) for u, v in pairs]
    return Graph.build(n, specs), [label[x] for x in (2, 3, 4)]


class TestK23:
    """The three degree-2 nodes of K_{2,3} share no cycle, so a family whose
    one part is exactly the terminals finds no price for that part; other
    families must still reach the optimum."""

    def test_plain_k23(self):
        g = Graph.build(5, [(a, x, 1, False) for a in (0, 1) for x in (2, 3, 4)])
        assert solve_2ecs(g, [2, 3, 4]).edges == frozenset(range(6))
        assert solve_kfst_unweighted(FstInstance(g, frozenset({2, 3, 4}))).cost == 6

    @pytest.mark.parametrize("seed", range(16))
    def test_costs_match_the_oracle(self, seed):
        g, terms = k23_variant(random.Random(500 + seed))
        for kind, solve in (
            (ProblemKind.KFST, lambda: solve_kfst_unweighted(FstInstance(g, frozenset(terms)))),
            (ProblemKind.TWO_ECS, lambda: solve_2ecs(g, terms)),
        ):
            ref = oracle_min_subgraph(g, terms, kind)
            sol = solve()
            assert sol.cost == ref.cost
            assert oracle_feasible(g, sol.edges, terms, kind)


def mixed_ring_chords(rng, n, m, unsafe):
    """A shuffled Hamiltonian ring plus m - n random chords, each edge
    unsafe with probability ``unsafe``."""
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    while len(pairs) < m:
        pairs.append(tuple(rng.sample(range(n), 2)))
    return Graph.build(n, [(u, v, 1, rng.random() >= unsafe) for u, v in pairs])


class TestFourTerminals:
    """k = 4 prices parts of four or more nodes with the 2NCS scan
    (``twonc._solve_core``); both kinds match the oracle. The graphs carry
    three to five chords: on a ring with one chord a k = 4 request can
    take tens of seconds."""

    @pytest.mark.parametrize("seed", range(8))
    def test_costs_match_the_oracle(self, seed):
        rng = random.Random(f"k4-{seed}")
        n = rng.choice([6, 7])
        g = mixed_ring_chords(rng, n, n + rng.randrange(3, 6), 0.4)
        terms = sorted(rng.sample(range(n), 4))
        for kind, solve in (
            (ProblemKind.KFST, lambda: solve_kfst_unweighted(FstInstance(g, frozenset(terms)))),
            (ProblemKind.TWO_ECS, lambda: solve_2ecs(g, terms)),
        ):
            ref = oracle_min_subgraph(g, terms, kind)
            sol = solve()
            assert sol.cost == ref.cost
            assert oracle_feasible(g, sol.edges, terms, kind)

    def test_inner_scans_report_their_counters(self):
        # perfbench's ring_chords(random.Random(4), 6, 10, False, 0.4) and
        # its terminals: nine parts are priced by the 2NCS scan
        g = Graph.build(6, [
            (3, 5, 1, True), (5, 4, 1, False), (4, 0, 1, False), (0, 2, 1, True),
            (2, 1, 1, False), (1, 3, 1, True), (0, 1, 1, True), (2, 5, 1, True),
            (0, 2, 1, False), (0, 2, 1, True),
        ])
        stats = SolveStats()
        solve_kfst_unweighted(FstInstance(g, frozenset({1, 2, 4, 5})), stats=stats)
        assert stats.subcalls["twonc_calls"] == 9
        assert stats.subcalls["path_calls"] > 0
        for name in ("ground_skips", "later_part_skips", "ear_prunes"):
            assert f"twonc_{name}" in stats.subcalls, name


def reference_kfst_scan(inst, weights, stats, floor=True):
    """The k-FST family scan: families joined on the protected table of the
    pendant graph's ``cycles._perturbed`` weights, sorted by (bound, index),
    and ``oracle_feasible`` on every would-be update. Its register starts
    empty and keeps the plain rule, the minimum (weight, sorted edge-id
    tuple). With ``floor`` the scan stops at the first bound above the
    incumbent's weight, the bound being ceil(MST / 2^M) plus max(3, |p|)
    per multi-node part; without it every family is evaluated. A family's
    parts are priced in order on one ``twonc._Subcalls`` counting in
    ``stats``, up to the first without a container, so equal counts mean
    equal families priced. Returns the edges in original ids."""
    g0, k = inst.graph, len(inst.terminals)
    mod = apply_pendant_gadget(inst)
    g2, t2 = mod.graph, sorted(mod.terminals)
    w2 = [(weights or {}).get(e, 1) for e in range(g0.m)] + [1] * k
    table = build_protected_table(g2, cycles._perturbed(w2))
    best = (math.inf, ())  # empty: every candidate holds the pendant edges
    calls = twonc._Subcalls(g0, weights, stats)

    families = list(kfst._part_families(list(range(g0.n)), k))
    stats.iterations += len(families)
    bounded = []
    for index, parts in enumerate(families):
        try:
            mst, tree = mst_join(table, parts, t2)
        except InfiniteMst:
            continue
        bound = math.ceil(Fraction(mst, 2**g2.m))
        bound += sum(0 if len(p) == 1 else max(3, len(p)) for p in parts)
        bounded.append((bound, index, parts, tree))
    bounded.sort(key=lambda item: item[:2])

    for bound, index, parts, tree in bounded:
        if floor and bound > best[0]:
            break
        got = []
        for part in (p for p in parts if len(p) > 1):
            got.append(calls.container(part))
            if got[-1] is None:
                break
        if None in got:
            continue
        cand = frozenset(tree.union(*got))
        key = (sum(w2[e] for e in cand), tuple(sorted(cand)))
        if key < best and oracle_feasible(g2, cand, t2, ProblemKind.KFST):
            best = key
            stats.updates.append((index, key[0]))
    if not best[1]:
        raise Infeasible("no feasible candidate")
    return frozenset(best[1]) - {eid for _, eid in mod.pendant_map.values()}


def reference_case(k, ecs, weighted, seed):
    """A seeded k-FST instance, all-unsafe (2ECS) when ``ecs``, and its edge
    weights (None for unit): k = 3 on 7-11 nodes with 2-4 chords and
    weights 1-4, or k = 4 on 6 nodes with 3-5 chords and weights 1-2 (a
    weighted k = 4 scan on 7 nodes can take seconds)."""
    rng = random.Random(f"kfst-b-{seed}")
    n = 6 if k == 4 else 7 + seed % 5
    g = mixed_ring_chords(rng, n, n + k - 1 + rng.randrange(0, 3), 0.4)
    if ecs:
        g = Graph.build(n, [(e.u, e.v, e.cost, False) for e in g.edges])
    weights = {e: rng.randint(1, 7 - k) for e in g.edge_ids()} if weighted else None
    return FstInstance(g, frozenset(rng.sample(range(n), k))), weights


# (k, ecs, weighted, seed). The unit k = 4 k-FST seeds are the four of the
# first 40 whose answer or updates changed with the batch size of an
# earlier family loop, which refreshed its floor once per batch: 1 and 26
# under a batch of 1, 28 and 37 under a batch of 64
REFERENCE_CASES = (
    [(4, False, False, seed) for seed in (1, 26, 28, 37)]
    + [(4, True, False, seed) for seed in range(4)]
    + [(4, ecs, True, seed) for ecs in (False, True) for seed in range(2)]
    + [(3, ecs, weighted, seed) for ecs in (False, True) for weighted in (False, True)
       for seed in range(5)]
)


class TestReferenceScan:
    """The one-pass family loop against ``reference_kfst_scan``: exact
    edges, ``iterations`` and ``updates``, over k-FST and 2ECS, unit and
    integer weights, k = 3 and 4, with the same part pricing counts; and
    the same edges from the reference without its floor, which shows that
    the family bound loses no optimum. Mutations checked against, each
    failing a case: skipping a family whose bound equals the incumbent's
    weight (``>=``), the MST term without its ceiling (``>>``), and a part
    term of max(3, |p|) + 1."""

    @pytest.mark.parametrize("k,ecs,weighted,seed", REFERENCE_CASES)
    def test_matches_the_reference(self, k, ecs, weighted, seed):
        inst, weights = reference_case(k, ecs, weighted, seed)
        ref_stats, stats = SolveStats(), SolveStats()
        try:
            want = reference_kfst_scan(inst, weights, ref_stats)
        except Infeasible:
            with pytest.raises(Infeasible):
                kfst._kfst_core(inst, weights=weights, stats=stats)
            return
        assert kfst._kfst_core(inst, weights=weights, stats=stats) == want
        assert stats.iterations == ref_stats.iterations
        assert stats.updates == ref_stats.updates
        for name in ("cycle_calls", "path_calls", "twonc_calls"):
            assert stats.subcalls.get(name) == ref_stats.subcalls.get(name), name
        assert reference_kfst_scan(inst, weights, SolveStats(), floor=False) == want


def two_terminal_case(seed):
    """A seeded multigraph on 2-7 nodes with 1-10 edges of mixed safety
    (parallel edges common, many instances infeasible), two terminals, and
    integer weights 1-4."""
    rng = random.Random(f"k2-{seed}")
    n = rng.randrange(2, 8)
    specs = [
        (*rng.sample(range(n), 2), 1, rng.random() >= 0.5)
        for _ in range(rng.randrange(1, 11))
    ]
    g = Graph.build(n, specs)
    return g, frozenset(rng.sample(range(n), 2)), {e: rng.randint(1, 4) for e in g.edge_ids()}


def two_terminal_answers(seed):
    """Per solve of a two-terminal case, the protected path of the original
    graph's table (None if there is none) and the solver's edges (None on
    Infeasible): unit and weighted ``_kfst_core``, and unit ``solve_2ecs``."""
    g, terms, weights = two_terminal_case(seed)
    unsafe = Graph.build(g.n, [(e.u, e.v, e.cost, False) for e in g.edges])
    cases = (
        (g, None, lambda: kfst._kfst_core(FstInstance(g, terms))),
        (g, weights, lambda: kfst._kfst_core(FstInstance(g, terms), weights=weights)),
        (unsafe, None, lambda: solve_2ecs(g, terms).edges),
    )
    out = []
    for graph, w, solve in cases:
        w2 = [(w or {}).get(e, 1) for e in graph.edge_ids()]
        table = build_protected_table(graph, cycles._perturbed(w2))
        try:
            got = solve()
        except Infeasible:
            got = None
        out.append((table.path(*sorted(terms)), got))
    return out


class TestTwoTerminals:
    """k = 2 runs the family scan with its one, empty family: the join of
    the two pendant terminals is the original graph's protected path.
    Checked against ``_part_families`` yielding no family at k = 2."""

    @pytest.mark.parametrize("seed", range(200))
    def test_answer_is_the_protected_path(self, seed):
        for want, got in two_terminal_answers(seed):
            assert got == want

    def test_the_cases_cover_both_outcomes(self):
        outcomes = {
            (solve, want is None)
            for seed in range(200)
            for solve, (want, _) in enumerate(two_terminal_answers(seed))
        }
        assert outcomes == {(solve, none) for solve in range(3) for none in (False, True)}

    def test_one_family_and_its_stats(self):
        # an unsafe triangle edge is no protection alone: the answer is the
        # triangle, and the pendant edge 2-3 stays out
        g = Graph.build(4, [(0, 1, 1, False), (1, 2, 1, True), (2, 0, 1, False),
                            (2, 3, 1, True)])
        stats = SolveStats()
        sol = solve_kfst_unweighted(FstInstance(g, frozenset({0, 1})), stats=stats)
        assert sol.edges == {0, 1, 2}
        assert stats.iterations == 1
        assert stats.updates == [(0, 5)]  # with the gadget's two pendant edges
        assert stats.subcalls["protected_pairs"] > 0


class TestTwoEdgeConnected:
    def test_ring_with_all_terminals(self):
        g = Graph.build(4, [(i, (i + 1) % 4, 1, True) for i in range(4)])
        sol = solve_2ecs(g, [0, 1, 2, 3])
        assert sol.edges == frozenset(range(4))

    def test_parallel_pair_between_two_terminals(self):
        g = Graph.build(2, [(0, 1, 1, True), (0, 1, 1, True)])
        sol = solve_2ecs(g, [0, 1])
        assert sol.edges == frozenset({0, 1})

    def test_safe_flags_are_ignored(self):
        specs = [(i, (i + 1) % 4, 1, True) for i in range(4)]
        g_safe = Graph.build(4, specs)
        g_unsafe = Graph.build(4, [(u, v, c, False) for u, v, c, _ in specs])
        assert solve_2ecs(g_safe, [0, 2]).edges == solve_2ecs(g_unsafe, [0, 2]).edges

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_oracle(self, seed):
        rng = random.Random(70 + seed)
        g = random_mixed(rng, n_hi=7)
        terms = rng.sample(range(g.n), 3)
        try:
            ref = oracle_min_subgraph(g, terms, ProblemKind.TWO_ECS)
        except Infeasible:
            with pytest.raises(Infeasible):
                solve_2ecs(g, terms)
            return
        sol = solve_2ecs(g, terms)
        assert len(sol.edges) == len(ref.edges)
        assert oracle_feasible(g, sol.edges, terms, ProblemKind.TWO_ECS)


class TestWeightedSolver:
    def test_unit_costs_stay_within_ratio(self):
        g = mixed_five()
        inst = FstInstance(g, frozenset({0, 2, 4}))
        exact = solve_kfst_unweighted(inst)
        approx = solve_kfst_weighted(inst, Fraction(1, 4))
        assert approx.cost <= Fraction(5, 4) * exact.cost
        assert approx.ratio_bound == Fraction(5, 4)
        assert oracle_feasible(g, approx.edges, [0, 2, 4], ProblemKind.KFST)

    def test_zero_cost_unsafe_edges(self):
        g = Graph.build(
            4,
            [(0, 1, 0, False), (1, 2, 0, False), (2, 3, 0, False),
             (3, 0, 0, False), (0, 2, 5, True)],
        )
        sol = solve_kfst_weighted(FstInstance(g, frozenset({0, 2})), Fraction(1, 2))
        assert sol.cost == 0
        assert oracle_feasible(g, sol.edges, [0, 2], ProblemKind.KFST)

    def test_modified_instance_refused(self):
        g = Graph.build(3, [(0, 1, 1, True), (1, 2, 1, True), (2, 0, 1, True)])
        mod = apply_pendant_gadget(FstInstance(g, frozenset({0, 1})))
        with pytest.raises(AlreadyModified):
            solve_kfst_weighted(mod, Fraction(1, 2))

    def test_weighted_two_ecs_ratio(self):
        g = Graph.build(
            4,
            [(0, 1, 3, True), (1, 2, 1, True), (2, 3, 4, True),
             (3, 0, 2, True), (0, 2, 2, True)],
        )
        ref = oracle_min_subgraph(g, [0, 1, 2], ProblemKind.TWO_ECS, weighted=True)
        sol = solve_2ecs(g, [0, 1, 2], epsilon=Fraction(1, 10))
        assert sol.cost <= Fraction(11, 10) * ref.cost

    @pytest.mark.parametrize("seed", range(10))
    def test_ratio_against_oracle(self, seed):
        rng = random.Random(90 + seed)
        n = rng.randrange(4, 7)
        specs = []
        for i in range(n):
            specs.append((i, (i + 1) % n, rng.randrange(0, 12), rng.random() >= 0.4))
        for _ in range(rng.randrange(0, 3)):
            u, v = rng.sample(range(n), 2)
            specs.append((u, v, rng.randrange(0, 12), rng.random() >= 0.4))
        g = Graph.build(n, specs)
        terms = rng.sample(range(n), 3)
        try:
            ref = oracle_min_subgraph(g, terms, ProblemKind.KFST, weighted=True)
        except Infeasible:
            with pytest.raises(Infeasible):
                solve_kfst_weighted(FstInstance(g, frozenset(terms)), Fraction(1, 2))
            return
        for eps in (Fraction(1, 2), Fraction(1, 10)):
            sol = solve_kfst_weighted(FstInstance(g, frozenset(terms)), eps)
            assert sol.cost <= (1 + eps) * ref.cost
            assert oracle_feasible(g, sol.edges, terms, ProblemKind.KFST)
