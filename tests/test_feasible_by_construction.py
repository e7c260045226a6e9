"""The two lemmas that let the exact scans offer every candidate untested.

``twonc`` states Lemma 0: every 2NCS candidate (a cycle on >= 3 nodes plus
simple paths between nodes of the union so far) is 2-node-connected over
its ground. ``kfst`` states the union lemma: every assembled k-FST union
(protected paths, 2-node-connected part containers and the spanning tree
that joins them) survives any single unsafe failure. Here the oracle checks
every candidate the scans offer, and every entry of the protected-path
table that the union lemma rests on.

Mutations checked against, each failing a test below: ``min_nodes=2`` in
``twonc._Subcalls.cycle`` (a 2-node parallel cycle offered at k = 2), and
one Bellman-Ford round in ``kfst._two_disjoint_paths`` (a single unsafe
path stored as protected).
"""

import functools
import random

import pytest

from survsteiner import (
    FstInstance,
    Graph,
    Infeasible,
    ProblemKind,
    build_protected_table,
    oracle_feasible,
    solve_2ecs,
    solve_2ncs_unweighted,
    solve_2ncs_weighted,
    solve_kfst_unweighted,
    solve_kfst_weighted,
)
from survsteiner import kfst, twonc


def ring_plus_chords(rng, n, chords, weighted, unsafe):
    """A shuffled Hamiltonian ring plus random chords and one parallel copy
    of a ring edge (returned too). Costs are 1, or 0-3 when ``weighted``;
    each edge is unsafe with probability ``unsafe``."""
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(chords)]
    doubled = pairs[rng.randrange(n)]
    pairs.append(doubled)
    specs = [
        (u, v, rng.randint(0, 3) if weighted else 1, rng.random() >= unsafe)
        for u, v in pairs
    ]
    return Graph.build(n, specs), doubled


def lemma_case(seed):
    """A seeded instance: the kind, k in 2-4, unit or weighted costs. At
    k = 2 the terminals are the ends of the parallel pair, where a 2-node
    cycle would be the cheapest union."""
    rng = random.Random(f"lemma-{seed}")
    kind = (ProblemKind.TWO_NCS, ProblemKind.KFST, ProblemKind.TWO_ECS)[seed % 3]
    weighted = seed // 3 % 2 == 1
    k = 2 + seed // 6 % 3
    n = rng.randrange(5, 7) if k == 4 else rng.randrange(4, 8)
    g, doubled = ring_plus_chords(rng, n, rng.randrange(3, 6), weighted, 0.4)
    terms = sorted(doubled) if k == 2 else sorted(rng.sample(range(n), k))
    return kind, weighted, g, terms


LEMMA_CASES = range(72)


def solve(kind, weighted, g, terms):
    """The public solver of the kind; weighted ones run at epsilon 1."""
    if kind is ProblemKind.TWO_NCS:
        return solve_2ncs_weighted(g, terms, 1) if weighted else solve_2ncs_unweighted(g, terms)
    if kind is ProblemKind.TWO_ECS:
        return solve_2ecs(g, terms, 1 if weighted else None)
    inst = FstInstance(g, frozenset(terms))
    return solve_kfst_weighted(inst, 1) if weighted else solve_kfst_unweighted(inst)


@functools.cache
def offered(seed):
    """Solve lemma case ``seed`` with ``_Incumbent.offer`` patched so that
    the oracle checks every offered candidate against the problem of the
    scan that offers it: a 2NCS scan on its graph and terminals, a k-FST or
    2ECS scan on its pendant graph and pendant terminals (k-FST either
    way). Returns the failed (kind, terminals, edges) and the number of
    distinct candidates checked per kind; cached, so the tests share runs."""
    kind, weighted, g, terms = lemma_case(seed)
    scope, failed, checked, seen = [], [], {}, set()
    core, gadget, offer = twonc._solve_core, kfst.apply_pendant_gadget, twonc._Incumbent.offer

    def scoped_core(calls, terminals, stats):
        scope.append((calls.g, sorted(set(terminals)), ProblemKind.TWO_NCS))
        try:
            return core(calls, terminals, stats)
        finally:
            scope.pop()

    def scoped_gadget(inst):
        mod = gadget(inst)
        scope.append((mod.graph, sorted(mod.terminals), ProblemKind.KFST))
        return mod

    def checked_offer(self, weight, edges):
        graph, terminals, scan = scope[-1]
        key = (id(graph), tuple(terminals), edges)
        if key not in seen:
            seen.add(key)
            checked[scan] = checked.get(scan, 0) + 1
            if not oracle_feasible(graph, edges, terminals, scan):
                failed.append((scan, terminals, sorted(edges)))
        return offer(self, weight, edges)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(twonc, "_solve_core", scoped_core)
        patch.setattr(kfst, "apply_pendant_gadget", scoped_gadget)
        patch.setattr(twonc._Incumbent, "offer", checked_offer)
        try:
            solve(kind, weighted, g, terms)
        except Infeasible:
            pass
    return failed, checked


class TestEveryOfferIsFeasible:
    @pytest.mark.parametrize("seed", LEMMA_CASES)
    def test_the_oracle_accepts_every_offer(self, seed):
        assert offered(seed)[0] == []

    def test_the_cases_cover_every_kind_and_k(self):
        # every scan offers somewhere: 2NCS at k = 2-4, k-FST and 2ECS at
        # k = 3-4, unit and weighted, and the inner 2NCS scans of k = 4
        # parts; a harness that checks nothing passes the test above
        covered = set()
        for seed in LEMMA_CASES:
            kind, weighted, _, terms = lemma_case(seed)
            for scan in offered(seed)[1]:
                covered.add((kind, len(terms), weighted, scan))
        for k in (2, 3, 4):
            for weighted in (False, True):
                assert (ProblemKind.TWO_NCS, k, weighted, ProblemKind.TWO_NCS) in covered
        for kind in (ProblemKind.KFST, ProblemKind.TWO_ECS):
            for k in (3, 4):
                for weighted in (False, True):
                    assert (kind, k, weighted, ProblemKind.KFST) in covered
            assert (kind, 4, False, ProblemKind.TWO_NCS) in covered


class TestProtectedTable:
    @pytest.mark.parametrize("seed", range(24))
    def test_every_entry_survives(self, seed):
        # the union lemma's premise: no pay set has an unsafe bridge
        rng = random.Random(f"table-{seed}")
        g, _ = ring_plus_chords(rng, rng.randrange(4, 9), rng.randrange(0, 5), seed % 2, 0.5)
        weights = [max(1, int(e.cost)) for e in g.edges]
        table = build_protected_table(g, weights)
        entries = 0
        for u in range(g.n):
            for v in range(u + 1, g.n):
                pay = table.path(u, v)
                if pay is not None:
                    entries += 1
                    assert kfst._survives(g, pay, {u, v}), (u, v, sorted(pay))
        assert entries > 0
