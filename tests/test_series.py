"""Series reduction (``graph.reduce_series``) and the cores that run on it.

The reduction deletes Steiner nodes of degree <= 1 and folds chains of
Steiner nodes of degree 2 into single edges. The differential tests solve
every kind twice, once as the solvers do and once with the reduction
swapped for the identity (``unreduced``), and compare exact edges, cost
and the last recorded update. Mutations checked against, each failing
tests here: a chain weighed by the sum of its plain weights instead of
its perturbed ones; an unsafe chain contracted as safe; the kept interior
node of a chain that closes on its own start, and of one parallel to
another edge, dropped; and the shift of the perturbed sums taken from the
reduced graph's edge count instead of the original one. Two tie-break
mutants pass every test and are equivalent: perturbing the reduced edges
by their own ids, and dropping the tie bits of every chain edge but its
smallest. Reduced edges rank by their smallest original id, and chains
are disjoint, so the smallest original id where two reduced sets differ
is the smallest id of the first reduced edge where they differ.
"""

import functools
import random
from fractions import Fraction

import pytest

from survsteiner import (
    FstInstance,
    Graph,
    Infeasible,
    NoCycle,
    ProblemKind,
    SolveStats,
    degrees,
    min_steiner_cycle,
    oracle_min_subgraph,
    reduce_series,
    solve_2ecs,
    solve_2ncs_unweighted,
    solve_2ncs_weighted,
    solve_kfst_unweighted,
    solve_kfst_weighted,
    weighted_steiner_cycle,
)
from survsteiner import cycles, kfst, twonc

KINDS = (ProblemKind.CYCLE, ProblemKind.TWO_NCS, ProblemKind.KFST, ProblemKind.TWO_ECS)


def chained_graph(rng, costs=(1,)):
    """A ring of 3-4 core nodes with 0-2 chords, each core edge subdivided
    with probability 1/2 into a chain of 1-2 Steiner nodes, plus 0-2
    chains parallel to a core pair, 0-1 chain of 1-3 nodes that closes on
    its own start, 0-2 pendant paths of 1-2 nodes, and 0-1 parallel copy
    of an edge. Every edge is unsafe with probability 0.3 and costs one of
    ``costs``. Returns the graph and its core nodes."""
    core = rng.randint(3, 4)
    pairs = [(v, (v + 1) % core) for v in range(core)]
    pairs += [tuple(rng.sample(range(core), 2)) for _ in range(rng.randint(0, 2))]
    n = core
    specs = []

    def chain(u, v, inner):
        nonlocal n
        nodes = [u, *range(n, n + inner), v]
        n += inner
        specs.extend(zip(nodes, nodes[1:]))

    for u, v in pairs:
        chain(u, v, rng.choice((0, 0, 1, 2)))
    for _ in range(rng.randint(0, 2)):
        chain(*rng.sample(range(core), 2), rng.randint(1, 2))
    if rng.random() < 0.5:
        u = rng.randrange(core)
        chain(u, u, rng.randint(1, 3))
    for _ in range(rng.randint(0, 2)):
        tip = n + rng.randint(1, 2)
        chain(rng.randrange(n), tip - 1, tip - 1 - n)
        n = tip
    if rng.random() < 0.5:
        specs.append(rng.choice(specs))
    order = list(range(len(specs)))
    rng.shuffle(order)
    return Graph.build(n, [
        (*specs[i], rng.choice(costs), rng.random() >= 0.3) for i in order
    ]), core


def chained_case(kind, weighted, seed):
    """A seeded ``chained_graph`` with terminals for the kind (1-3 for a
    cycle, 2-3 otherwise), each drawn from the core nodes with probability
    0.7, and integer weights 1-3 (None for unit)."""
    rng = random.Random(f"series-{kind.value}-{weighted}-{seed}")
    g, core = chained_graph(rng)
    if kind is ProblemKind.TWO_ECS:
        g = Graph.build(g.n, [(e.u, e.v, 1, False) for e in g.edges])
    k = rng.randint(1 if kind is ProblemKind.CYCLE else 2, 3)
    terms = set()
    while len(terms) < k:
        terms.add(rng.randrange(core) if rng.random() < 0.7 else rng.randrange(g.n))
    weights = [rng.randint(1, 3) for _ in g.edges] if weighted else None
    return g, sorted(terms), weights


def core_solve(kind, g, terms, weights, stats):
    """The exact core of the kind on integer weights (None: unit)."""
    if kind is ProblemKind.CYCLE:
        return min_steiner_cycle(g, terms, stats, weights).edges
    if kind is ProblemKind.TWO_NCS:
        return twonc._solve(g, terms, weights, stats)
    return kfst._kfst_core(FstInstance(g, frozenset(terms)), weights=weights, stats=stats)


def outcome(solve):
    """(edges or the exception's name, last update's weight, stats)."""
    stats = SolveStats()
    try:
        got = solve(stats)
    except (Infeasible, NoCycle) as exc:
        return type(exc).__name__, None, stats
    return got, stats.updates[-1][1] if stats.updates else None, stats


@functools.cache
def reduced_outcome(kind, weighted, seed):
    g, terms, weights = chained_case(kind, weighted, seed)
    return outcome(lambda stats: core_solve(kind, g, terms, weights, stats))


SEEDS = range(30)


class TestReducedCores:
    """Each core on its series reduction against the same core on the
    graph as given: the same exact edges, and the same last update."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("weighted", (False, True))
    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
    def test_same_edges_and_weight(self, kind, weighted, seed, request):
        g, terms, weights = chained_case(kind, weighted, seed)
        got, last, _ = reduced_outcome(kind, weighted, seed)
        request.getfixturevalue("unreduced")
        want, want_last, _ = outcome(lambda stats: core_solve(kind, g, terms, weights, stats))
        assert (got, last) == (want, want_last)
        if isinstance(got, frozenset) and kind is not ProblemKind.CYCLE:
            w = cycles._weight_list(g, weights)
            pendants = 0 if kind is ProblemKind.TWO_NCS else len(terms)
            assert last == sum(w[e] for e in got) + pendants

    def test_the_cases_exercise_the_reduction(self):
        """Most cases fold a chain, some delete a Steiner leaf, and some
        answers run through a folded chain."""
        folded = deleted = answered = 0
        for kind in KINDS:
            for weighted in (False, True):
                for seed in SEEDS:
                    got, _, stats = reduced_outcome(kind, weighted, seed)
                    folded += stats.subcalls["series_contracted"] > 0
                    deleted += stats.subcalls["series_deleted"] > 0
                    g = chained_case(kind, weighted, seed)[0]
                    if isinstance(got, frozenset):
                        deg = degrees(g)
                        answered += any(
                            deg[v] == 2 for e in got for v in g.edge(e).ends
                        )
        cases = len(KINDS) * 2 * len(SEEDS)
        assert folded > cases // 2
        assert deleted > cases // 10
        assert answered > cases // 4


class TestZeroCosts:
    """The public weighted solvers, whose FPTAS rounds zero costs up to one
    grid step, with and without the reduction of the folded graph."""

    SOLVERS = {
        ProblemKind.CYCLE: lambda g, t, s: weighted_steiner_cycle(g, t, Fraction(1, 10), stats=s),
        ProblemKind.TWO_NCS: lambda g, t, s: solve_2ncs_weighted(g, t, Fraction(1, 10), stats=s),
        ProblemKind.KFST: lambda g, t, s: solve_kfst_weighted(
            FstInstance(g, frozenset(t)), Fraction(1, 10), stats=s
        ),
        ProblemKind.TWO_ECS: lambda g, t, s: solve_2ecs(g, t, Fraction(1, 10), stats=s),
    }

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
    def test_same_solution(self, kind, seed, request):
        rng = random.Random(f"series-zero-{kind.value}-{seed}")
        g, core = chained_graph(rng, costs=(0, 0, 1, 2, 5))
        terms = sorted(rng.sample(range(core), 1 if kind is ProblemKind.CYCLE else 2))
        solve = self.SOLVERS[kind]
        got = outcome(lambda stats: solve(g, terms, stats))
        request.getfixturevalue("unreduced")
        want = outcome(lambda stats: solve(g, terms, stats))
        assert got[:2] == want[:2]


class TestPitfalls:
    """The cases the reduction must not lose, each against the oracle."""

    def test_one_terminal_cycle_through_a_closing_chain(self):
        # the chain 0-1-2-0 closes on the one terminal, and the 4-cycle
        # 0-3-4-5-0 is longer: the answer is the chain itself
        g = Graph.build(6, [(0, 3), (3, 4), (4, 5), (5, 0), (0, 1), (1, 2), (2, 0)])
        stats = SolveStats()
        assert min_steiner_cycle(g, [0], stats).edges == {4, 5, 6}
        # node 3 folds into 0-3-4; every other contraction would close a
        # loop or double an edge
        assert stats.subcalls["series_contracted"] == 1

    def test_closing_chains_of_one_and_two_nodes(self):
        g = Graph.build(4, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 0)])
        assert min_steiner_cycle(g, [0]).edges == {0, 1}
        assert min_steiner_cycle(g, [0, 3]).edges == {2, 3, 4}

    def test_two_terminal_2ncs_on_parallel_chains(self):
        # three chains between the terminals: the answer is the two short ones
        g = Graph.build(6, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 1)])
        sol = solve_2ncs_unweighted(g, [0, 1])
        assert sol.edges == {0, 1, 2, 3}
        assert sol.edges == oracle_min_subgraph(g, [0, 1], ProblemKind.TWO_NCS).edges

    def test_unsafe_edge_inside_a_chain(self):
        # the chain 0-2-1 holds an unsafe edge, so only 0-3-1 is protected
        g = Graph.build(4, [(0, 2, 1, True), (2, 1, 1, False), (0, 3, 1, True), (3, 1, 1, True)])
        sol = solve_kfst_unweighted(FstInstance(g, frozenset({0, 1})))
        assert sol.edges == {2, 3}
        assert sol.edges == oracle_min_subgraph(g, [0, 1], ProblemKind.KFST).edges

    def test_steiner_leaves_and_pendant_paths(self):
        # a triangle with a pendant path 2-3-4 and a leaf 1-5
        g = Graph.build(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (1, 5)])
        stats = SolveStats()
        sol = solve_2ecs(g, [0, 1], stats=stats)
        assert sol.edges == {0, 1, 2}
        assert stats.subcalls["series_deleted"] == 3
        # node 2 is then a Steiner node of degree 2 on the triangle, whose
        # chain 1-2-0 is parallel to the edge 0-1 and keeps it
        assert stats.subcalls["series_contracted"] == 0

    def test_a_terminal_outside_the_graph_is_infeasible(self):
        g = Graph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        for terms in ([0, 1, 9], [-1, 0, 1]):
            with pytest.raises(Infeasible):
                solve_2ncs_unweighted(g, terms)


class TestReduceSeries:
    def test_nothing_to_reduce_returns_the_graph_itself(self):
        g = Graph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        h, w, origin, kept = reduce_series(g, [0, 1, 2], [1] * 6)
        assert h is g
        assert (w, origin, kept) == ([1] * 6, tuple((e,) for e in range(6)), (0, 1, 2, 3))

    def test_chain_sums_weights_and_costs_and_ands_safety(self):
        # the chain 0 -e0- 3 -e1- 4 -e2- 1 beside the terminals' triangle
        g = Graph.build(5, [(0, 3, 2, True), (3, 4, 5, False), (4, 1, 1, True),
                            (0, 2, 1, True), (2, 1, 1, True), (1, 2, 1, True)])
        h, w, origin, kept = reduce_series(g, [0, 1, 2], [4, 3, 2, 1, 1, 1])
        assert kept == (0, 1, 2)
        assert origin == ((0, 1, 2), (3,), (4,), (5,))
        assert w == [9, 1, 1, 1]
        chain = h.edge(0)
        assert {chain.u, chain.v} == {0, 1}
        assert chain.cost == 8 and not chain.safe
        assert [e.safe for e in h.edges] == [False, True, True, True]

    def test_leaves_go_to_a_fixpoint(self):
        # the pendant path 0-3-4 and the isolated node 5 go; node 2 keeps
        # the triangle's chain 1-2-0 apart from the edge 0-1
        g = Graph.build(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)])
        h, w, origin, kept = reduce_series(g, [0, 1], [1] * 5)
        assert kept == (0, 1, 2)
        assert origin == ((0,), (1,), (2,))
        assert h.m == 3 and w == [1, 1, 1]

    def test_closing_chain_keeps_two_nodes(self):
        g = Graph.build(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 0)])
        h, _, origin, kept = reduce_series(g, [0], [1] * 6)
        assert kept == (0, 2, 3, 4)  # node 1 folds into 0-1-2
        assert sorted(origin) == [(0, 1), (2,), (3,), (4,), (5,)]
        assert all(e.u != e.v for e in h.edges)

    @pytest.mark.parametrize("seed", range(40))
    def test_fixpoint_invariants(self, seed):
        rng = random.Random(f"series-fix-{seed}")
        g, core = chained_graph(rng)
        terms = rng.sample(range(g.n), rng.randint(1, 3))
        w = [rng.randint(1, 3) for _ in g.edges]
        h, hw, origin, kept = reduce_series(g, terms, w)
        # chains partition the surviving original edges, weights add up
        assert len({e for ids in origin for e in ids}) == sum(map(len, origin))
        assert hw == [sum(w[e] for e in ids) for ids in origin]
        assert [h.edge(i).cost for i in h.edge_ids()] == [g.total_cost(ids) for ids in origin]
        assert [e.safe for e in h.edges] == [all(g.edge(e).safe for e in ids) for ids in origin]
        assert list(kept) == sorted(kept) and set(terms) <= set(kept)
        # every kept Steiner node has degree >= 3, or 2 with a contraction
        # that would close a loop or double an edge; an edge bundle on two
        # kept nodes is original edges only
        index = {v: i for i, v in enumerate(kept)}
        steiner = set(range(h.n)) - {index[t] for t in terms}
        deg = degrees(h)
        bundles = {}
        for e in h.edges:
            assert e.u != e.v
            bundles.setdefault(frozenset(e.ends), []).append(e.id)
        for ids in bundles.values():
            assert len(ids) == 1 or all(len(origin[i]) == 1 for i in ids)
        for v in steiner:
            assert deg[v] >= 2
            if deg[v] == 2:
                a, b = (h.edge(e).other(v) for e in h.incident(v))
                assert a == b or frozenset((a, b)) in bundles
        # a second pass finds nothing
        assert reduce_series(h, [index[t] for t in terms], hw)[0] is h
