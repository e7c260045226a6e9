"""Every exact scan returns the oracle's edge set: the minimum weight and,
among those, the lexicographically smallest edge-id set; and its last
recorded update is that set's weight.

The scans run on integer weights directly (``kfst._kfst_core`` for k-FST
and 2ECS, ``twonc._solve_core`` for 2NCS), on graphs whose costs equal
those weights, so ``oracle_min_subgraph`` prices the same instance. The
public weighted solvers round through the FPTAS, so they cannot be
compared edge for edge.
"""

import functools
import random

import pytest

from survsteiner import (
    FstInstance,
    Graph,
    Infeasible,
    ProblemKind,
    SolveStats,
    oracle_min_subgraph,
    solve_2ecs,
    solve_2ncs_unweighted,
    solve_kfst_unweighted,
)
from survsteiner import kfst, twonc

KINDS = (ProblemKind.TWO_NCS, ProblemKind.KFST, ProblemKind.TWO_ECS)
BLOCKS, BLOCK = 6, 50  # 300 cases per kind


def exact_case(kind, seed):
    """A shuffled ring on 4-7 nodes plus 1-4 random chords, k 2-4 (k = 4
    only on at most 6 nodes with at least 3 chords), each edge unsafe with
    probability 0.4 (all unsafe for 2ECS), and unit weights or integer
    weights 1-3 as the graph's costs. Returns the graph, the terminals and
    the weights (None for unit)."""
    rng = random.Random(f"exact-{kind.value}-{seed}")
    n, chords = rng.randrange(4, 8), rng.randrange(1, 5)
    k = rng.randint(2, 4 if n <= 6 and chords >= 3 else 3)
    weighted = rng.random() < 0.5
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(chords)]
    specs = [
        (u, v, rng.randint(1, 3) if weighted else 1,
         kind is not ProblemKind.TWO_ECS and rng.random() >= 0.4)
        for u, v in pairs
    ]
    g = Graph.build(n, specs)
    weights = {e.id: int(e.cost) for e in g.edges} if weighted else None
    return g, sorted(rng.sample(range(n), k)), weights


def scan(kind, g, terms, weights, stats):
    """The exact scan of the kind on integer weights: its edge set."""
    if kind is ProblemKind.TWO_NCS:
        return twonc._solve_core(twonc._Subcalls(g, weights, stats), terms, stats)[1]
    return kfst._kfst_core(FstInstance(g, frozenset(terms)), weights=weights, stats=stats)


@functools.cache
def outcome(kind, seed):
    """The oracle's edges and the scan's, each None when infeasible, and
    the scan's recorded updates."""
    g, terms, weights = exact_case(kind, seed)
    stats = SolveStats()
    answers = []
    for solve in (
        lambda: oracle_min_subgraph(g, terms, kind, weighted=weights is not None).edges,
        lambda: scan(kind, g, terms, weights, stats),
    ):
        try:
            answers.append(solve())
        except Infeasible:
            answers.append(None)
    return (*answers, stats.updates)


class TestOracleEdges:
    @pytest.mark.parametrize("block", range(BLOCKS))
    @pytest.mark.parametrize("kind", KINDS, ids=[kind.value for kind in KINDS])
    def test_edges_equal_the_oracle(self, kind, block):
        seeds = range(block * BLOCK, (block + 1) * BLOCK)
        answers = [(seed, *outcome(kind, seed)[:2]) for seed in seeds]
        assert [case for case in answers if case[1] != case[2]] == []

    @pytest.mark.parametrize("block", range(BLOCKS))
    @pytest.mark.parametrize("kind", KINDS, ids=[kind.value for kind in KINDS])
    def test_the_last_update_is_the_answer(self, kind, block):
        # the register starts empty, so every answer was recorded; a k-FST
        # or 2ECS weight counts the pendant edges, one unit per terminal
        wrong = []
        for seed in range(block * BLOCK, (block + 1) * BLOCK):
            _, terms, weights = exact_case(kind, seed)
            edges, updates = outcome(kind, seed)[1:]
            weight = sum(weights[e] if weights else 1 for e in edges)
            if kind is not ProblemKind.TWO_NCS:
                weight += len(terms)
            if not updates or updates[-1][1] != weight:
                wrong.append((seed, weight, updates[-1:]))
        assert wrong == []

    def test_the_cases_cover_every_kind_k_and_weighting(self):
        # a ring plus chords is 2-node-connected, so every case is feasible
        # and the test above compares an optimum each time
        covered = set()
        for kind in KINDS:
            for seed in range(BLOCKS * BLOCK):
                _, terms, weights = exact_case(kind, seed)
                assert outcome(kind, seed)[0] is not None
                covered.add((kind, len(terms), weights is not None))
        assert covered == {(kind, k, w) for kind in KINDS for k in (2, 3, 4) for w in (False, True)}


class TestWholeGraphAnswers:
    # when the optimum is the whole graph, it is offered and recorded like
    # any other answer (a register seeded with the whole graph recorded no
    # update here)
    def test_triangle_2ncs(self):
        g = Graph.build(3, [(0, 1, 1, True), (1, 2, 1, True), (2, 0, 1, True)])
        stats = SolveStats()
        assert solve_2ncs_unweighted(g, [0, 1, 2], stats=stats).edges == {0, 1, 2}
        assert stats.updates == [(0, 3)]

    def four_cycle(self):
        return Graph.build(
            4, [(0, 1, 1, False), (1, 2, 1, True), (2, 3, 1, False), (3, 0, 1, True)]
        )

    def test_four_cycle_2ecs(self):
        stats = SolveStats()
        assert solve_2ecs(self.four_cycle(), [0, 2], stats=stats).edges == {0, 1, 2, 3}
        assert stats.updates == [(0, 6)]

    def test_four_cycle_kfst(self):
        stats = SolveStats()
        inst = FstInstance(self.four_cycle(), frozenset({0, 1, 2}))
        assert solve_kfst_unweighted(inst, stats=stats).edges == {0, 1, 2, 3}
        assert stats.updates == [(10, 7)]
