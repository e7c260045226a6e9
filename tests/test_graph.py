"""Multigraph structure: blocks, cut nodes, bridges, 2EC/2NC predicates."""

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from survsteiner import (
    Graph,
    blocks_and_cuts,
    connected_components,
    degree3_nodes,
    degrees,
    exact_fraction,
    is_2ec,
    is_2nc,
    is_connected,
    subgraph_nodes,
)
from survsteiner.graph import _augment


def triangle():
    return Graph.build(3, [(0, 1, 1, True), (1, 2, 1, True), (2, 0, 1, True)])


def bowtie():
    # two triangles sharing node 2
    return Graph.build(
        5,
        [(0, 1, 1, True), (1, 2, 1, True), (2, 0, 1, True),
         (2, 3, 1, True), (3, 4, 1, True), (4, 2, 1, True)],
    )


def k4():
    return Graph.build(
        4,
        [(0, 1, 1, True), (0, 2, 1, True), (0, 3, 1, True),
         (1, 2, 1, True), (1, 3, 1, True), (2, 3, 1, True)],
    )


def cycle_graph(n):
    return Graph.build(n, [(i, (i + 1) % n, 1, True) for i in range(n)])


@st.composite
def random_graphs(draw, max_nodes=9, max_extra=8):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    specs = []
    if pairs:
        count = draw(st.integers(min_value=0, max_value=min(len(pairs), n + max_extra)))
        chosen = draw(st.permutations(pairs))[:count]
        for u, v in chosen:
            specs.append((u, v, 1, True))
        # sprinkle in a few parallel copies to keep the multigraph case honest
        for u, v in chosen[: draw(st.integers(min_value=0, max_value=2))]:
            specs.append((u, v, 1, True))
    return Graph.build(n, specs)


class TestGraphConstruction:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            Graph.build(2, [(0, 0, 1, True)])

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            Graph.build(2, [(0, 1, -1, True)])

    def test_rejects_endpoints_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.build(2, [(0, 2, 1, True)])

    def test_parallel_edges_get_distinct_ids(self):
        g = Graph.build(2, [(0, 1, 1, True), (0, 1, 1, True)])
        assert g.m == 2
        assert g.edges[0].ends == g.edges[1].ends

    def test_adjacency_consistent_with_edge_list(self):
        g = bowtie()
        for eid in g.edge_ids():
            e = g.edge(eid)
            assert eid in g.incident(e.u)
            assert eid in g.incident(e.v)
        for v in range(g.n):
            for eid in g.incident(v):
                assert v in g.edge(eid).ends

    def test_costs_are_exact_rationals(self):
        g = Graph.build(2, [(0, 1, 0.1, True)])
        assert g.edges[0].cost == Fraction("0.1")
        assert exact_fraction(0.1) == Fraction(1, 10)

    def test_extended_appends_nodes_and_edges(self):
        g = triangle()
        g2 = g.extended(1, [(0, 3, 1, False)])
        assert g2.n == 4 and g2.m == 4
        assert g2.edges[3].safe is False
        # original untouched
        assert g.n == 3 and g.m == 3

    def test_total_cost_sums_selected_edges(self):
        g = Graph.build(3, [(0, 1, 2, True), (1, 2, 3, True), (2, 0, 5, True)])
        assert g.total_cost({0, 2}) == 7


class TestBlocksAndCuts:
    def test_triangle_is_one_block(self):
        blocks, cuts, bridges = blocks_and_cuts(triangle())
        assert len(blocks) == 1 and not cuts and not bridges

    def test_bowtie_two_blocks_one_cut(self):
        blocks, cuts, bridges = blocks_and_cuts(bowtie())
        assert len(blocks) == 2
        assert cuts == {2}
        assert not bridges

    def test_path_every_edge_is_a_bridge(self):
        g = Graph.build(3, [(0, 1, 1, True), (1, 2, 1, True)])
        blocks, cuts, bridges = blocks_and_cuts(g)
        assert sorted(sorted(b.edges) for b in blocks) == [[0], [1]]
        assert cuts == {1}
        assert bridges == {0, 1}

    def test_edgeless_graph_has_empty_outputs(self):
        g = Graph.build(2, [])
        blocks, cuts, bridges = blocks_and_cuts(g)
        assert blocks == [] and not cuts and not bridges

    @given(random_graphs())
    @settings(max_examples=120, deadline=None)
    def test_block_partition_properties(self, g):
        blocks, cuts, bridges = blocks_and_cuts(g)
        seen = [eid for b in blocks for eid in sorted(b.edges)]
        assert sorted(seen) == list(g.edge_ids())
        membership = {}
        for i, b in enumerate(blocks):
            for v in b.nodes:
                membership.setdefault(v, set()).add(i)
        assert cuts == {v for v, bs in membership.items() if len(bs) >= 2}
        assert bridges == {
            next(iter(b.edges)) for b in blocks if len(b.edges) == 1
        }


class TestConnectivityPredicates:
    def test_single_edge_neither_2ec_nor_2nc(self):
        g = Graph.build(2, [(0, 1, 1, True)])
        assert not is_2ec(g) and not is_2nc(g)

    def test_parallel_pair_is_2ec_not_2nc(self):
        g = Graph.build(2, [(0, 1, 1, True), (0, 1, 1, True)])
        assert is_2ec(g)
        assert not is_2nc(g)

    def test_c4_is_both(self):
        g = cycle_graph(4)
        assert is_2ec(g) and is_2nc(g)

    def test_bowtie_is_2ec_not_2nc(self):
        g = bowtie()
        assert is_2ec(g) and not is_2nc(g)

    def test_predicates_respect_edge_views(self):
        g = bowtie()
        # a view restricts to covered nodes, so one triangle of the bowtie is 2NC
        assert is_2nc(g, edges={0, 1, 2})
        assert is_connected(g, edges={0, 1, 2})
        # naming an uncovered node widens the view and breaks connectivity
        assert not is_connected(g, edges={0, 1, 2}, nodes={0, 4})

    def test_connected_components_widen_to_named_nodes(self):
        g = Graph.build(4, [(0, 1, 1, True)])
        comps = connected_components(g, edges={0}, nodes={0, 1, 3})
        assert sorted(sorted(c) for c in comps) == [[0, 1], [3]]


class TestDegrees:
    def test_cycle_has_no_degree3_nodes(self):
        assert degree3_nodes(cycle_graph(6)) == frozenset()

    def test_k4_every_node_has_degree3(self):
        assert degree3_nodes(k4()) == frozenset({0, 1, 2, 3})

    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_degree3_agrees_with_recount(self, g):
        count = {v: 0 for v in range(g.n)}
        for e in g.edges:
            count[e.u] += 1
            count[e.v] += 1
        assert degree3_nodes(g) == frozenset(v for v, d in count.items() if d >= 3)
        assert degrees(g) == count

    def test_subgraph_nodes_are_covered_endpoints(self):
        g = bowtie()
        assert subgraph_nodes(g, {0, 3}) == frozenset({0, 1, 2, 3})


@pytest.mark.parametrize("seed", range(30))
def test_attaching_a_path_preserves_2nc(seed):
    """A 2NC graph plus a path with endpoints on it and fresh interior
    nodes is still 2NC."""
    import random

    rng = random.Random(seed)
    base = rng.choice([4, 5, 6])
    specs = [(i, (i + 1) % base, 1, True) for i in range(base)]
    chord = rng.randrange(2, base)
    if chord not in (0, 1):
        specs.append((0, chord, 1, True))
    inner = Graph.build(base, specs)
    assert is_2nc(inner)

    tail = rng.randrange(1, 4)
    a, b = rng.sample(range(base), 2)
    extra = [(a, base, 1, True)]
    for i in range(tail - 1):
        extra.append((base + i, base + i + 1, 1, True))
    extra.append((base + tail - 1, b, 1, True))
    assert is_2nc(inner.extended(tail, extra))


class TestAugment:
    """``_augment`` over arc arrays: arc i ^ 1 is the reverse twin of arc i."""

    @staticmethod
    def chain():
        # 0 -> 1 at cost 2, 1 -> 2 at cost 3, one unit each; node 3 is cut off
        head, cost, cap = [1, 0, 2, 1], [2, -2, 3, -3], [1, 0, 1, 0]
        out = [[0], [1, 2], [3], []]
        return head, cost, cap, out

    def test_pushes_one_unit_and_frees_the_twins(self):
        head, cost, cap, out = self.chain()
        assert _augment(head, cost, cap, out, 0, 2) == 5
        assert cap == [0, 1, 0, 1]

    def test_unreachable_returns_none_and_leaves_capacities(self):
        head, cost, cap, out = self.chain()
        assert _augment(head, cost, cap, out, 0, 3) is None
        assert cap == [1, 0, 1, 0]
        _augment(head, cost, cap, out, 0, 2)
        assert _augment(head, cost, cap, out, 0, 2) is None
        assert cap == [0, 1, 0, 1]
