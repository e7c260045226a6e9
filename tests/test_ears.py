"""Ear decompositions: existence mirrors 2EC/2NC, checker accepts outputs."""

import random

import pytest

from survsteiner import (
    Graph,
    NotTwoConnected,
    TerminalMissing,
    blocks_and_cuts,
    check_ear_decomposition,
    ear_decomposition,
    is_2ec,
    is_2nc,
    terminal_ear_decomposition,
)


def cycle_graph(n):
    return Graph.build(n, [(i, (i + 1) % n, 1, True) for i in range(n)])


def k4():
    return Graph.build(
        4,
        [(0, 1, 1, True), (0, 2, 1, True), (0, 3, 1, True),
         (1, 2, 1, True), (1, 3, 1, True), (2, 3, 1, True)],
    )


def bowtie():
    return Graph.build(
        5,
        [(0, 1, 1, True), (1, 2, 1, True), (2, 0, 1, True),
         (2, 3, 1, True), (3, 4, 1, True), (4, 2, 1, True)],
    )


def theta():
    # two degree-3 hubs (0, 1) joined by three internally disjoint paths
    return Graph.build(
        5,
        [(0, 2, 1, True), (2, 1, 1, True), (0, 3, 1, True),
         (3, 1, 1, True), (0, 4, 1, True), (4, 1, 1, True)],
    )


def random_graph(rng, n_max=12):
    n = rng.randrange(2, n_max + 1)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    m = rng.randrange(0, min(len(pairs), 2 * n) + 1)
    specs = [(u, v, 1, True) for u, v in pairs[:m]]
    if m and rng.random() < 0.3:
        u, v = pairs[0]
        specs.append((u, v, 1, True))
    return Graph.build(n, specs)


def ring_with_chords(rng, n):
    # a ring plus random chords, some edges doubled: a 2-node-connected multigraph
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(n))]
    pairs += [rng.choice(pairs) for _ in range(rng.randrange(3))]
    rng.shuffle(pairs)
    return Graph.build(n, pairs)


def block_chain(rng, bridge=False):
    """2-5 blocks glued in a chain at cut nodes, each a ring with chords or
    a bundle of parallel edges; with ``bridge`` one more block is a single
    edge. Node labels and edge ids are shuffled."""
    pairs = []
    glue, n = 0, 1
    kinds = ["block"] * rng.randrange(2, 6) + (["bridge"] if bridge else [])
    rng.shuffle(kinds)
    for kind in kinds:
        if kind == "bridge" or rng.random() < 0.3:
            copies = 1 if kind == "bridge" else rng.randrange(2, 4)
            pairs += [(glue, n)] * copies
            glue, n = n, n + 1
            continue
        ring = [glue, *range(n, n + rng.randrange(2, 5))]
        pairs += [(ring[i - 1], ring[i]) for i in range(len(ring))]
        pairs += [tuple(rng.sample(ring, 2)) for _ in range(rng.randrange(3))]
        glue, n = rng.choice(ring[1:]), ring[-1] + 1
    label = rng.sample(range(n), n)
    rng.shuffle(pairs)
    return Graph.build(n, [(label[u], label[v]) for u, v in pairs])


class TestEarDecomposition:
    def test_cycle_is_one_closed_ear(self):
        dec = ear_decomposition(cycle_graph(5))
        assert len(dec.ears) == 1
        assert dec.ears[0].closed
        assert len(dec.ears[0].edges) == 5
        check_ear_decomposition(cycle_graph(5), dec)

    def test_k4_decomposes_into_cycle_plus_open_ears(self):
        g = k4()
        dec = ear_decomposition(g, open_required=True)
        assert sum(len(e.edges) for e in dec.ears) == 6
        assert dec.ears[0].closed
        assert all(not e.closed for e in dec.ears[1:])
        check_ear_decomposition(g, dec, open_required=True)

    def test_bowtie_refuses_open_decomposition(self):
        with pytest.raises(NotTwoConnected):
            ear_decomposition(bowtie(), open_required=True)

    def test_bowtie_has_no_plain_decomposition_either(self):
        # 2EC holds, so a (closed-allowed) decomposition exists
        dec = ear_decomposition(bowtie())
        check_ear_decomposition(bowtie(), dec)

    def test_bridge_graph_refuses_decomposition(self):
        g = Graph.build(2, [(0, 1, 1, True)])
        with pytest.raises(NotTwoConnected):
            ear_decomposition(g)

    def test_parallel_pair_decomposes_closed_only(self):
        g = Graph.build(2, [(0, 1, 1, True), (0, 1, 1, True)])
        dec = ear_decomposition(g)
        check_ear_decomposition(g, dec)
        with pytest.raises(NotTwoConnected):
            ear_decomposition(g, open_required=True)

    def test_checker_rejects_edge_smuggling(self):
        g = cycle_graph(4)
        dec = ear_decomposition(g)
        bad = dec.ears[0].edges[:-1]
        from survsteiner import Ear, EarDecomposition

        forged = EarDecomposition(
            base_node=dec.base_node,
            ears=(Ear(dec.ears[0].nodes[:-1], bad, False),),
        )
        with pytest.raises(ValueError):
            check_ear_decomposition(g, forged)

    @pytest.mark.parametrize("seed", range(80))
    def test_existence_mirrors_connectivity_predicates(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, n_max=10)
        try:
            dec = ear_decomposition(g)
            check_ear_decomposition(g, dec)
            has_plain = True
        except NotTwoConnected:
            has_plain = False
        assert has_plain == is_2ec(g)
        try:
            dec = ear_decomposition(g, open_required=True)
            check_ear_decomposition(g, dec, open_required=True)
            has_open = True
        except NotTwoConnected:
            has_open = False
        assert has_open == is_2nc(g)


class TestBlockChains:
    @pytest.mark.parametrize("seed", range(60))
    def test_chain_decomposes_with_closed_ears_only(self, seed):
        g = block_chain(random.Random(seed))
        blocks = blocks_and_cuts(g)[0]
        assert 2 <= len(blocks) <= 5 and is_2ec(g)
        check_ear_decomposition(g, ear_decomposition(g))
        with pytest.raises(NotTwoConnected):
            ear_decomposition(g, open_required=True)
        for block in blocks:
            dec = ear_decomposition(g, edges=block.edges)
            check_ear_decomposition(g, dec, edges=block.edges)
            if is_2nc(g, block.edges):
                dec = ear_decomposition(g, open_required=True, edges=block.edges)
                check_ear_decomposition(g, dec, edges=block.edges, open_required=True)
            else:
                with pytest.raises(NotTwoConnected):
                    ear_decomposition(g, open_required=True, edges=block.edges)

    @pytest.mark.parametrize("seed", range(20))
    def test_a_bridge_in_the_chain_refuses_decomposition(self, seed):
        g = block_chain(random.Random(seed), bridge=True)
        assert not is_2ec(g)
        for open_required in (False, True):
            with pytest.raises(NotTwoConnected):
                ear_decomposition(g, open_required=open_required)


class TestTerminalEarDecomposition:
    def test_c4_with_three_terminals_is_one_ear(self):
        g = cycle_graph(4)
        dec = terminal_ear_decomposition(g, [0, 1, 2])
        assert len(dec.ears) == 1 and dec.ears[0].closed
        check_ear_decomposition(g, dec, open_required=True, terminals={0, 1, 2})

    def test_theta_first_cycle_then_terminal_path(self):
        g = theta()
        dec = terminal_ear_decomposition(g, [2, 3, 4])
        assert dec.ears[0].closed
        assert not dec.ears[1].closed
        # every pre-coverage ear carries a terminal internally
        assert dec.terminal_prefix <= 2
        for i in range(dec.terminal_prefix):
            assert {2, 3, 4} & set(dec.ears[i].internal_nodes)
        check_ear_decomposition(g, dec, open_required=True, terminals={2, 3, 4})

    def test_three_terminals_need_at_most_two_special_ears(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph(rng, n_max=9)
            if not is_2nc(g):
                continue
            terms = rng.sample(range(g.n), 3)
            dec = terminal_ear_decomposition(g, terms)
            assert dec.terminal_prefix <= 2
            check_ear_decomposition(
                g, dec, open_required=True, terminals=set(terms)
            )

    def test_fan_reroutes_through_a_used_node(self):
        # the first fan path from 5 to the body {2} is 5-4-1-2, which
        # holds both of 5's ways into node 1; the second search must send
        # the flow on chord 4-1 back to end with 5-4-3-2 and 5-6-1-2
        g = Graph.build(
            7,
            [(i, (i + 1) % 7) for i in range(7)] + [(1, 4), (1, 6), (1, 6)],
        )
        dec = terminal_ear_decomposition(g, [2, 5])
        check_ear_decomposition(g, dec, open_required=True, terminals={2, 5})

    def test_missing_terminal_raises(self):
        with pytest.raises(TerminalMissing):
            terminal_ear_decomposition(cycle_graph(4), [0, 9])

    def test_not_2nc_raises(self):
        with pytest.raises(NotTwoConnected):
            terminal_ear_decomposition(bowtie(), [0, 3])

    def test_respects_edge_views(self):
        # decompose only one triangle of the bowtie
        g = bowtie()
        dec = terminal_ear_decomposition(g, [0, 1], edges={0, 1, 2})
        check_ear_decomposition(
            g, dec, edges={0, 1, 2}, open_required=True, terminals={0, 1}
        )

    def test_isolated_node_is_never_a_fan_source(self):
        # C4 with chord (0, 2) plus node 4, which no edge touches
        g = Graph.build(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        for terms in ([0, 2], [1]):
            dec = terminal_ear_decomposition(g, terms)
            check_ear_decomposition(g, dec, open_required=True, terminals=set(terms))
            assert 4 not in {v for ear in dec.ears for v in ear.nodes}

    def test_lone_terminal_opens_with_a_cycle_through_it(self):
        g = k4()
        dec = terminal_ear_decomposition(g, [2])
        assert dec.terminal_prefix == 0
        assert dec.base_node == 2
        first = dec.ears[0]
        assert first.closed and first.nodes[0] == first.nodes[-1] == 2
        check_ear_decomposition(g, dec, open_required=True, terminals={2})

    def test_fans_decompose_random_multigraphs(self):
        rng = random.Random(14)
        for _ in range(150):
            g = ring_with_chords(rng, rng.randrange(3, 10))
            k = rng.randrange(1, min(5, g.n) + 1)
            terms = rng.sample(range(g.n), k)
            dec = terminal_ear_decomposition(g, terms)
            assert dec.terminal_prefix <= max(k - 1, 0)
            check_ear_decomposition(g, dec, open_required=True, terminals=set(terms))

    def test_fans_decompose_block_views(self):
        rng = random.Random(41)
        views = 0
        while views < 50:
            g = random_graph(rng, n_max=10)
            for block in blocks_and_cuts(g)[0]:
                if len(block.nodes) < 3:
                    continue
                views += 1
                k = rng.randrange(1, min(5, len(block.nodes)) + 1)
                terms = rng.sample(sorted(block.nodes), k)
                dec = terminal_ear_decomposition(g, terms, edges=block.edges)
                assert dec.terminal_prefix <= max(k - 1, 0)
                check_ear_decomposition(
                    g, dec, edges=block.edges, open_required=True, terminals=set(terms)
                )
