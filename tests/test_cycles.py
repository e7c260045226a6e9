"""Minimum Steiner cycles and paths against the brute-force reference."""

import itertools
import random
import sys

import pytest

from survsteiner import (
    Graph,
    Infeasible,
    NoCycle,
    NoPath,
    ProblemKind,
    degrees,
    is_connected,
    min_steiner_cycle,
    min_steiner_path,
    oracle_min_subgraph,
    subgraph_nodes,
)
from survsteiner import cycles
from survsteiner.cycles import (
    SearchPrep,
    search_min_cycle,
    search_min_path,
    steiner_cycle_exists,
)


def triangle():
    return Graph.build(3, [(0, 1, 1, True), (1, 2, 1, True), (2, 0, 1, True)])


def k4():
    return Graph.build(
        4,
        [(0, 1, 1, True), (0, 2, 1, True), (0, 3, 1, True),
         (1, 2, 1, True), (1, 3, 1, True), (2, 3, 1, True)],
    )


def random_connected(rng, n_max=8):
    n = rng.randrange(3, n_max + 1)
    specs = []
    for v in range(1, n):
        specs.append((rng.randrange(v), v, 1, True))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs[: rng.randrange(0, n)]:
        specs.append((u, v, 1, True))
    return Graph.build(n, specs)


def weighted_multigraph(rng):
    """Small random graph plus two parallel copies, weights 1-4."""
    base = random_connected(rng, n_max=6)
    specs = [(e.u, e.v) for e in base.edges]
    specs += [(e.u, e.v) for e in rng.sample(base.edges, min(2, base.m))]
    g = Graph.build(base.n, specs)
    return g, {eid: rng.randint(1, 4) for eid in g.edge_ids()}


def brute_force_shapes(g, weights):
    """(weight, sorted edge tuple) and degree map of every connected edge
    subset with all degrees <= 2: every simple path and cycle."""
    shapes = []
    for r in range(1, g.m + 1):
        for combo in itertools.combinations(g.edge_ids(), r):
            deg = degrees(g, combo)
            if max(deg.values()) <= 2 and is_connected(g, combo):
                shapes.append(((sum(weights[e] for e in combo), combo), deg))
    return shapes


def cycle_optimum(shapes, terms, min_nodes):
    """The brute-force minimum (weight, sorted edge tuple) of a cycle of at
    least ``min_nodes`` nodes through ``terms``, or None."""
    return min(
        (
            key
            for key, deg in shapes
            if len(deg) >= min_nodes
            and set(terms) <= deg.keys()
            and min(deg.values()) == 2
        ),
        default=None,
    )


def path_optimum(shapes, s, t, terms):
    """The brute-force minimum (weight, sorted edge tuple) of an s-t path
    through ``terms``, or None."""
    return min(
        (
            key
            for key, deg in shapes
            if deg.get(s) == 1 and deg.get(t) == 1 and set(terms) <= deg.keys()
        ),
        default=None,
    )


def decode(record, m):
    """The kernel's record (perturbed sum, edge ids, node mask) as
    (plain weight, sorted edge tuple); None stays None."""
    return record and (-(-record[0] >> m), tuple(sorted(record[1])))


def assert_simple_cycle(g, edges, terminals):
    nodes = subgraph_nodes(g, edges)
    assert set(terminals) <= nodes
    deg = degrees(g, edges)
    assert all(deg[v] == 2 for v in nodes)
    assert is_connected(g, edges)


class TestMinSteinerCycle:
    def test_triangle_full_terminal_set(self):
        sol = min_steiner_cycle(triangle(), [0, 1, 2])
        assert sol.size == 3 and sol.cost == 3

    def test_k4_three_terminals_skip_the_fourth_node(self):
        sol = min_steiner_cycle(k4(), [0, 1, 2])
        assert sol.size == 3
        assert sol.edges == frozenset({0, 1, 3})
        assert 3 not in subgraph_nodes(k4(), sol.edges)

    def test_star_has_no_cycle(self):
        g = Graph.build(4, [(0, 1, 1, True), (0, 2, 1, True), (0, 3, 1, True)])
        with pytest.raises(NoCycle):
            min_steiner_cycle(g, [1, 2, 3])

    def test_parallel_pair_counts_as_a_cycle(self):
        g = Graph.build(2, [(0, 1, 1, True), (0, 1, 1, True)])
        sol = min_steiner_cycle(g, [0, 1])
        assert sol.size == 2

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_oracle_on_random_instances(self, seed):
        rng = random.Random(seed)
        g = random_connected(rng)
        terms = rng.sample(range(g.n), rng.randrange(1, min(4, g.n) + 1))
        try:
            sol = min_steiner_cycle(g, terms)
        except NoCycle:
            sol = None
        try:
            ref = oracle_min_subgraph(g, terms, ProblemKind.CYCLE)
        except Infeasible:
            ref = None
        if ref is None:
            assert sol is None
        else:
            assert sol is not None
            assert sol.size == ref.size
            assert_simple_cycle(g, sol.edges, terms)

        # exact tie-broken answers on a weighted multigraph, for every
        # terminal set of up to three nodes
        wg, weights = weighted_multigraph(rng)
        shapes = brute_force_shapes(wg, weights)
        min_nodes = 2 + seed % 2
        for r in (1, 2, 3):
            for wterms in itertools.combinations(range(wg.n), r):
                expect = cycle_optimum(shapes, wterms, min_nodes)
                try:
                    got = search_min_cycle(wg, wterms, weights, min_nodes=min_nodes)
                except NoCycle:
                    got = None
                assert decode(got, wg.m) == expect, (wterms, min_nodes)

    def test_lexicographic_tie_break(self):
        # two triangles hanging off terminals 0,1: ids {0,1,2} vs {0,3,4}
        g = Graph.build(
            4,
            [(0, 1, 1, True), (1, 2, 1, True), (2, 0, 1, True),
             (1, 3, 1, True), (3, 0, 1, True)],
        )
        sol = min_steiner_cycle(g, [0, 1])
        assert sol.edges == frozenset({0, 1, 2})


class TestMinSteinerPath:
    def test_two_edge_path_through_terminal(self):
        g = Graph.build(3, [(0, 1, 1, True), (1, 2, 1, True)])
        sol = min_steiner_path(g, [1], 0, 2)
        assert sol.size == 2

    def test_c4_takes_the_short_way_round(self):
        # cycle 0-1-2-3, terminals {1}: path 0..2 through 1 has 2 edges
        g = Graph.build(4, [(0, 1, 1, True), (1, 2, 1, True), (2, 3, 1, True), (3, 0, 1, True)])
        sol = min_steiner_path(g, [1], 0, 2)
        assert sol.size == 2
        assert sol.edges == frozenset({0, 1})

    def test_detour_forced_by_terminal(self):
        g = Graph.build(4, [(0, 1, 1, True), (1, 2, 1, True), (2, 3, 1, True), (3, 0, 1, True)])
        sol = min_steiner_path(g, [3], 0, 2)
        assert sol.edges == frozenset({2, 3})

    def test_disconnected_endpoints_raise(self):
        g = Graph.build(4, [(0, 1, 1, True), (2, 3, 1, True)])
        with pytest.raises(NoPath):
            min_steiner_path(g, [], 0, 3)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force_paths(self, seed):
        rng = random.Random(1000 + seed)
        g = random_connected(rng, n_max=7)
        s, t = rng.sample(range(g.n), 2)
        pool = [v for v in range(g.n) if v not in (s, t)]
        terms = rng.sample(pool, min(len(pool), rng.randrange(0, 3)))

        best = None
        # brute force: grow simple paths from s
        stack = [(s, frozenset({s}), frozenset())]
        while stack:
            node, used, eids = stack.pop()
            if node == t:
                if set(terms) <= used and (best is None or len(eids) < best):
                    best = len(eids)
                continue
            for eid in g.incident(node):
                w = g.edge(eid).other(node)
                if w not in used:
                    stack.append((w, used | {w}, eids | {eid}))

        try:
            sol = min_steiner_path(g, terms, s, t)
        except NoPath:
            sol = None
        if best is None:
            assert sol is None
        else:
            assert sol is not None and sol.size == best

        # exact tie-broken answers on a weighted multigraph, for every
        # ordered endpoint pair (most start at no smallest terminal) and
        # terminal sets of size zero to two
        wg, weights = weighted_multigraph(rng)
        shapes = brute_force_shapes(wg, weights)
        extra = rng.sample(range(wg.n), 2)
        for s, t in itertools.permutations(range(wg.n), 2):
            for wterms in ((), (extra[0],), tuple(extra)):
                expect = path_optimum(shapes, s, t, wterms)
                try:
                    got = search_min_path(wg, wterms, s, t, weights)
                except NoPath:
                    got = None
                assert decode(got, wg.m) == expect, (s, t, wterms)
                # a t-s path is an s-t path reversed: the 2NCS scan skips
                # mirrored anchor pairs on the strength of this
                try:
                    mirror = search_min_path(wg, wterms, t, s, weights)
                except NoPath:
                    mirror = None
                assert mirror == got, (s, t, wterms)


class TestKernelRecord:
    """The kernel returns the record it kept while walking: the perturbed
    sum of its edges, the edge ids, and the mask of their end nodes. Every
    cycle and s-t query of the tests above, on one shared ``SearchPrep``.
    Checked against recording ``accp`` without the closing edge (the sum
    differs) and against ``>=`` for ``>`` at the closing's plain check
    (ties no longer reach the sum comparison). ``<=`` for ``<`` at the sum
    comparison is an equivalent mutant: each edge set closes once, and
    distinct sets never share a perturbed sum."""

    @staticmethod
    def assert_record(g, prep, record, expect):
        assert decode(record, g.m) == expect
        if record is not None:
            total, edges, mask = record
            assert total == sum(prep.p[e] for e in edges)
            assert mask == bit({v for e in edges for v in (g.edge(e).u, g.edge(e).v)})

    @pytest.mark.parametrize("seed", range(30))
    def test_record_is_the_tie_broken_minimum(self, seed):
        rng = random.Random(8000 + seed)
        g, weights = weighted_multigraph(rng)
        shapes = brute_force_shapes(g, weights)
        prep = SearchPrep(g, weights)
        for min_nodes in (2, 3):
            for r in (1, 2, 3):
                for terms in itertools.combinations(range(g.n), r):
                    try:
                        got = search_min_cycle(g, terms, min_nodes=min_nodes, prep=prep)
                    except NoCycle:
                        got = None
                    expect = cycle_optimum(shapes, terms, min_nodes)
                    self.assert_record(g, prep, got, expect)
        extra = rng.sample(range(g.n), 2)
        for s, t in itertools.permutations(range(g.n), 2):
            for terms in ((), (extra[0],), tuple(extra)):
                try:
                    got = search_min_path(g, terms, s, t, prep=prep)
                except NoPath:
                    got = None
                self.assert_record(g, prep, got, path_optimum(shapes, s, t, terms))


def chorded_multigraph(rng, unit):
    """A ring of 5-9 nodes plus chords and parallel copies; weights 1-4
    (or all 1, where ties are most common)."""
    n = rng.randrange(5, 10)
    specs = [(v, (v + 1) % n) for v in range(n)]
    for _ in range(rng.randrange(1, n)):
        specs.append(tuple(rng.sample(range(n), 2)))
    specs += rng.sample(specs, 2)
    g = Graph.build(n, specs)
    return g, {eid: 1 if unit else rng.randint(1, 4) for eid in g.edge_ids()}


def bit(nodes):
    return sum(1 << v for v in nodes)


class TestDistanceBound:
    """The kernel's distance bound against a kernel whose distance rows
    are all zero, which leaves only the one-per-missing-node prune."""

    @pytest.mark.parametrize("seed", range(30))
    def test_bounded_search_matches_unbounded(self, seed, monkeypatch):
        rng = random.Random(5000 + seed)
        g, weights = chorded_multigraph(rng, unit=seed % 3 == 0)
        queries = []
        for _ in range(6):
            terms = sorted(rng.sample(range(g.n), rng.randrange(1, 5)))
            min_nodes = rng.choice((2, 3))
            queries.append((terms[0], terms[0], bit(terms), min_nodes))
            s, t = rng.sample(range(g.n), 2)
            queries.append((s, t, bit(rng.sample(range(g.n), rng.randrange(0, 4))), 0))
        bounded = SearchPrep(g, weights)
        got = [cycles._search(bounded, *q) for q in queries]
        monkeypatch.setattr(cycles, "_distance_row", lambda prep, src: [0] * g.n)
        unbounded = SearchPrep(g, weights)
        want = [cycles._search(unbounded, *q) for q in queries]
        assert got == want
        # the bound was in force on one side and absent on the other
        assert bounded.rows
        assert all(row == [0] * g.n for row in unbounded.rows.values())

    @pytest.mark.parametrize("seed", range(30))
    def test_root_bound_never_exceeds_the_optimum(self, seed):
        rng = random.Random(6000 + seed)
        wg, weights = weighted_multigraph(rng)
        shapes = brute_force_shapes(wg, weights)
        prep = SearchPrep(wg, weights)

        def root_bound(start, end, need):
            missing = [v for v in need if v not in (start, end)]
            to_end = prep.row(end)
            legs = [prep.row(v)[start] + to_end[v] for v in missing]
            return max([len(missing) + 1, to_end[start], *legs])

        for r in (1, 2, 3):
            for terms in itertools.combinations(range(wg.n), r):
                opt = min(
                    (key[0] for key, deg in shapes
                     if set(terms) <= deg.keys() and min(deg.values()) == 2),
                    default=None,
                )
                if opt is not None:
                    assert root_bound(terms[0], terms[0], terms) <= opt, terms
        for s, t in itertools.permutations(range(wg.n), 2):
            for via in range(wg.n):
                opt = min(
                    (key[0] for key, deg in shapes
                     if deg.get(s) == 1 and deg.get(t) == 1 and via in deg),
                    default=None,
                )
                if opt is not None:
                    assert root_bound(s, t, (via,)) <= opt, (s, t, via)


def dead_branch(q):
    """A triangle on terminals 0, 1, 2 (the last three edges) and a K_q on
    nodes 3.. hung off node 0 by edge 0, which the walk from 0 tries first.
    No terminal lies behind the cut node 0, so that branch is dead."""
    clique = range(3, 3 + q)
    specs = [(0, 3)] + [(u, v) for u in clique for v in clique if u < v]
    return Graph.build(3 + q, specs + [(0, 1), (1, 2), (2, 0)])


def dfs_calls(run):
    """Calls of the kernel's ``dfs`` while ``run()`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name == "dfs" and code.co_filename == cycles.__file__:
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


class TestReachabilityPrune:
    """The kernel drops a step whose missing terminals or closing edge can
    no longer be reached. Without that test the walk enters the K_8 behind
    the cut node and makes 13,705 ``dfs`` calls (K_11: seconds); with it,
    5. Checked against deleting the ``reachable`` test in ``_search``."""

    def test_minimum_search_skips_the_dead_branch(self):
        g = dead_branch(8)
        calls = dfs_calls(lambda: search_min_cycle(g, [0, 1, 2]))
        assert decode(search_min_cycle(g, [0, 1, 2]), g.m) == (3, (g.m - 3, g.m - 2, g.m - 1))
        assert calls <= 10

    def test_existence_search_skips_the_dead_branch(self):
        # without the triangle's last edge no cycle holds 0, 1 and 2
        g = dead_branch(8)
        edges = list(range(g.m - 1))
        calls = dfs_calls(lambda: steiner_cycle_exists(g, [0, 1, 2], edges))
        assert not steiner_cycle_exists(g, [0, 1, 2], edges)
        assert calls <= 10


class TestExistenceMode:
    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_the_minimum_search(self, seed):
        rng = random.Random(7000 + seed)
        g = random_connected(rng)
        for _ in range(8):
            terms = rng.sample(range(g.n), rng.randrange(1, min(4, g.n) + 1))
            edges = rng.sample(g.edge_ids(), rng.randrange(0, g.m + 1))
            try:
                search_min_cycle(
                    Graph.build(g.n, [(g.edge(e).u, g.edge(e).v) for e in edges]), terms
                )
                found = True
            except NoCycle:
                found = False
            assert steiner_cycle_exists(g, terms, edges) is found
            try:
                search_min_cycle(g, terms)
                found = True
            except NoCycle:
                found = False
            assert steiner_cycle_exists(g, terms) is found
