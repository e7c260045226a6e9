"""Every exact scan returns the oracle's edge set: the minimum weight and,
among those, the lexicographically smallest edge-id set.

The scans run on integer weights directly (``kfst._kfst_core`` for k-FST
and 2ECS, ``twonc._solve_core`` for 2NCS), on graphs whose costs equal
those weights, so ``oracle_min_subgraph`` prices the same instance. The
public weighted solvers round through the FPTAS, so they cannot be
compared edge for edge.
"""

import functools
import random

import pytest

from survsteiner import FstInstance, Graph, Infeasible, ProblemKind, SolveStats, oracle_min_subgraph
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


def scan(kind, g, terms, weights):
    """The exact scan of the kind on integer weights: its edge set."""
    if kind is ProblemKind.TWO_NCS:
        stats = SolveStats()
        return twonc._solve_core(twonc._Subcalls(g, weights, stats), terms, stats)[1]
    return kfst._kfst_core(FstInstance(g, frozenset(terms)), weights=weights)


@functools.cache
def outcome(kind, seed):
    """The oracle's edges and the scan's, each None when infeasible."""
    g, terms, weights = exact_case(kind, seed)
    answers = []
    for solve in (
        lambda: oracle_min_subgraph(g, terms, kind, weighted=weights is not None).edges,
        lambda: scan(kind, g, terms, weights),
    ):
        try:
            answers.append(solve())
        except Infeasible:
            answers.append(None)
    return tuple(answers)


class TestOracleEdges:
    @pytest.mark.parametrize("block", range(BLOCKS))
    @pytest.mark.parametrize("kind", KINDS, ids=[kind.value for kind in KINDS])
    def test_edges_equal_the_oracle(self, kind, block):
        seeds = range(block * BLOCK, (block + 1) * BLOCK)
        answers = [(seed, *outcome(kind, seed)) for seed in seeds]
        assert [case for case in answers if case[1] != case[2]] == []

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
