"""Cost scaling, rounding, and subdivision behind the weighted solvers."""

import math
import random
from fractions import Fraction

import pytest

from survsteiner import (
    Graph,
    Infeasible,
    ProblemKind,
    SolveStats,
    build_scaling_gadget,
    oracle_min_subgraph,
    subgraph_nodes,
    weighted_steiner_cycle,
)
from survsteiner.cycles import cycle_node_order
from survsteiner.scaling import prefix_feasible


def triangle(costs=(1, 1, 1)):
    return Graph.build(
        3,
        [(0, 1, costs[0], True), (1, 2, costs[1], True), (2, 0, costs[2], True)],
    )


def square_with_diagonal():
    return Graph.build(
        4,
        [(0, 1, 3, True), (1, 2, 1, True), (2, 3, 4, True),
         (3, 0, 2, True), (0, 2, 2, True)],
    )


class TestGadgetConstruction:
    def test_unit_costs_epsilon_one(self):
        g = triangle()
        gadget = build_scaling_gadget(g, [0, 1, 2], Fraction(1))
        assert gadget.beta == 1
        assert gadget.mu == Fraction(1, 3)
        # every edge becomes ceil(1 / (1/3)) = 3 unit edges
        counts = gadget.fold_weights()
        assert all(counts[eid] == 3 for eid in g.edge_ids())
        assert sum(gadget.counts.values()) == 9
        # the subdivided triangle has its 3 nodes plus 2 inner nodes per edge
        stats = SolveStats()
        weighted_steiner_cycle(g, [0, 1, 2], Fraction(1), stats=stats)
        assert stats.subdivided_nodes == 9

    def test_zero_cost_edge_becomes_one_unit_edge(self):
        g = Graph.build(
            3,
            [(0, 1, 0, True), (1, 2, 2, True), (2, 0, 2, True)],
        )
        gadget = build_scaling_gadget(g, [0, 1, 2], Fraction(1, 2))
        assert gadget.fold_weights()[0] == 1

    def test_node_budget_bound(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randrange(3, 7)
            specs = [(v - 1, v, rng.randrange(0, 30), True) for v in range(1, n)]
            specs += [(n - 1, 0, rng.randrange(0, 30), True)]
            for _ in range(rng.randrange(0, 4)):
                u, v = rng.sample(range(n), 2)
                specs.append((u, v, rng.randrange(0, 30), True))
            g = Graph.build(n, specs)
            for eps in (Fraction(1, 2), Fraction(1, 10)):
                gadget = build_scaling_gadget(g, [0, 1, 2], eps)
                bound = g.n + Fraction(g.m * g.n * g.n, eps)
                subdivided_nodes = g.n + sum(t - 1 for t in gadget.counts.values())
                assert subdivided_nodes <= bound

    def test_threshold_is_smallest_feasible_prefix(self):
        # expensive detour edge is not needed; beta stays at the cycle's max
        g = Graph.build(
            3,
            [(0, 1, 1, True), (1, 2, 2, True), (2, 0, 3, True), (0, 1, 50, True)],
        )
        gadget = build_scaling_gadget(g, [0, 1, 2], Fraction(1))
        assert gadget.beta == 3

    def test_costlier_than_n_beta_edges_are_dropped(self):
        g = Graph.build(
            3,
            [(0, 1, 1, True), (1, 2, 1, True), (2, 0, 1, True), (0, 1, 99, True)],
        )
        gadget = build_scaling_gadget(g, [0, 1, 2], Fraction(1))
        assert 3 not in gadget.fold_weights()

    def test_infeasible_graph_raises(self):
        g = Graph.build(2, [(0, 1, 1, True)])
        with pytest.raises(Infeasible):
            build_scaling_gadget(g, [0, 1], Fraction(1))

    def test_rounding_error_on_any_cycle_is_bounded(self):
        g = square_with_diagonal()
        eps = Fraction(1, 10)
        gadget = build_scaling_gadget(g, [0, 1, 2], eps)
        counts = gadget.fold_weights()
        mu = gadget.mu
        # rounded cost minus true cost on each surviving edge is < mu, so any
        # simple cycle (<= n edges) errs by at most n*mu <= eps*beta
        for eid, t in counts.items():
            c = g.edge(eid).cost
            assert 0 <= t * mu - c <= mu
        assert g.n * mu <= eps * gadget.beta


class TestWeightedSteinerCycle:
    def test_unit_triangle_is_exact(self):
        sol = weighted_steiner_cycle(triangle(), [0, 1, 2], Fraction(1, 2))
        assert sol.cost == 3
        assert sol.ratio_bound == Fraction(3, 2)
        assert sol.optimal is False

    def test_square_with_diagonal_within_ratio(self):
        g = square_with_diagonal()
        ref = oracle_min_subgraph(g, [0, 1, 2], ProblemKind.CYCLE, weighted=True)
        assert ref.cost == 6
        sol = weighted_steiner_cycle(g, [0, 1, 2], Fraction(1, 10))
        assert sol.cost <= Fraction(11, 10) * ref.cost

    def test_single_edge_graph_infeasible(self):
        g = Graph.build(2, [(0, 1, 5, True)])
        with pytest.raises(Infeasible):
            weighted_steiner_cycle(g, [0, 1], Fraction(1))

    def test_back_mapping_returns_original_edges(self):
        g = square_with_diagonal()
        sol = weighted_steiner_cycle(g, [0, 1, 2], Fraction(1, 2))
        assert sol.edges <= set(g.edge_ids())
        assert {0, 1, 2} <= set(cycle_node_order(g, sol.edges))

    def test_stats_record_the_gadget(self):
        g = square_with_diagonal()
        stats = SolveStats()
        weighted_steiner_cycle(g, [0, 1, 2], Fraction(1, 2), stats=stats)
        assert stats.beta is not None and stats.mu is not None
        assert stats.subdivided_nodes is not None
        assert stats.subdivided_nodes >= g.n

    def test_zero_cost_optimum(self):
        # a zero-cost cycle exists: scaling short-circuits to the exact answer
        g = Graph.build(
            3,
            [(0, 1, 0, True), (1, 2, 0, True), (2, 0, 0, True), (0, 2, 7, True)],
        )
        sol = weighted_steiner_cycle(g, [0, 1, 2], Fraction(1, 10))
        assert sol.cost == 0
        assert sol.edges == frozenset({0, 1, 2})

    @pytest.mark.parametrize("seed", range(25))
    def test_ratio_against_oracle_on_random_instances(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(4, 7)
        specs = [(i, (i + 1) % n, rng.randrange(0, 20), True) for i in range(n)]
        for _ in range(rng.randrange(0, 3)):
            u, v = rng.sample(range(n), 2)
            specs.append((u, v, rng.randrange(0, 20), True))
        g = Graph.build(n, specs)
        terms = rng.sample(range(n), 3)
        ref = oracle_min_subgraph(g, terms, ProblemKind.CYCLE, weighted=True)
        for eps in (Fraction(1, 2), Fraction(1, 10)):
            sol = weighted_steiner_cycle(g, terms, eps)
            assert sol.cost <= (1 + eps) * ref.cost
            nodes = subgraph_nodes(g, sol.edges)
            assert set(terms) <= nodes


def linear_threshold(g, terms, kind):
    """Reference scan: the first cost-sorted prefix that is feasible."""
    order = sorted(g.edge_ids(), key=lambda eid: (g.edge(eid).cost, eid))
    for j in range(1, g.m + 1):
        if prefix_feasible(g, terms, kind, order[:j]):
            return j, g.edge(order[j - 1]).cost
    return None


class TestBinaryThresholdScan:
    @pytest.mark.parametrize("kind", list(ProblemKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_linear_scan(self, kind, seed):
        rng = random.Random(800 + seed)
        n = rng.randrange(4, 9)
        # costs 0-3: zero-cost edges and long runs of equal costs
        specs = [
            (u, v, rng.randrange(0, 4), rng.random() < 0.6)
            for u, v in [(i, (i + 1) % n) for i in range(n)]
            + [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(0, n + 2))]
        ]
        rng.shuffle(specs)
        g = Graph.build(n, specs)
        terms = rng.sample(range(n), rng.randrange(2, 4))
        eps = Fraction(1, rng.choice((2, 10)))
        ref = linear_threshold(g, terms, kind)
        if ref is None:
            with pytest.raises(Infeasible):
                build_scaling_gadget(g, terms, eps, kind)
            return
        gadget = build_scaling_gadget(g, terms, eps, kind)
        assert (gadget.threshold_index, gadget.beta) == ref
        beta = ref[1]
        mu = eps * beta / n
        assert gadget.counts == {
            eid: max(1, math.ceil(g.edge(eid).cost / mu)) if mu else 1
            for eid in g.edge_ids()
            if g.edge(eid).cost <= n * beta
        }


class TestPrefixFeasible:
    @pytest.mark.parametrize(
        "kind", [ProblemKind.KFST, ProblemKind.TWO_ECS], ids=lambda k: k.value
    )
    def test_matches_the_oracle_on_edge_subsets(self, kind):
        # mixed-safety multigraphs with bridges, chains of bridges and
        # parallel edges: the subset holds a solution exactly when the
        # exhaustive oracle finds one on the subgraph of those edges
        rng = random.Random(21)
        for _ in range(300):
            n = rng.randrange(3, 9)
            m = rng.randrange(n - 1, n + 4)
            pairs = [tuple(rng.sample(range(n), 2)) for _ in range(m)]
            pairs += [rng.choice(pairs) for _ in range(rng.randrange(3))]
            g = Graph.build(n, [(u, v, 1, rng.random() < 0.5) for u, v in pairs])
            eids = [eid for eid in g.edge_ids() if rng.random() < 0.85]
            terms = rng.sample(range(n), rng.randrange(2, min(4, n) + 1))
            sub = Graph.build(n, [
                (g.edge(eid).u, g.edge(eid).v, 1, g.edge(eid).safe) for eid in eids
            ])
            try:
                oracle_min_subgraph(sub, terms, kind)
                found = True
            except Infeasible:
                found = False
            assert prefix_feasible(g, terms, kind, eids) == found, (pairs, eids, terms)
