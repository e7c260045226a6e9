"""Cost scaling and edge subdivision: weighted problems on unit engines.

``solve_scaled`` is the one FPTAS path; every weighted solver is a call
into it with its own unweighted core.

The recipe: sort edges by cost, find the shortest prefix that still
contains a feasible solution, call its top cost beta, drop edges costing
more than n*beta, round every surviving cost up to a multiple of
mu = eps*beta/n (zero-cost edges round to mu), and replace each edge by a
path of cost/mu unit edges. A minimum-size solution on the subdivided
graph maps back to a (1+eps)-approximate solution for cycles: a simple
cycle has at most n edges, each rounded up by less than mu, so it loses
at most n*mu = eps*beta <= eps*OPT, and OPT <= n*beta keeps the filter
exact. A minimal 2NCS, 2ECS or k-FST solution can have about 2n edges
(K_{2,r} has 2n - 4), so for those kinds the ratio and filter are open.

The shortest feasible prefix is found by binary search over prefix
lengths: a feasible subgraph of one prefix lies inside every longer
prefix, so feasibility is monotone in the length. Each probe only asks
whether a solution exists (for cycles, the search kernel's existence
mode), and a gadget makes about log2(m) + 1 of them.

The subdivided graph is never built: subdivision nodes have degree two,
so a simple cycle or path uses each subdivision chain all or nothing, and
searching the original topology with integer edge weights equal to the
chain lengths is equivalent and far smaller. Its size is still reported.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction

from .cycles import search_min_cycle, steiner_cycle_exists
from .errors import Infeasible
from .graph import Graph, blocks_and_cuts, connected_components, exact_fraction
from .solution import ProblemKind, Solution, SolveStats, run_stats


@dataclass(frozen=True)
class ScalingGadget:
    """Everything produced by one threshold-and-round pass.

    ``folded_graph`` keeps only the edges costing at most n*beta, under
    fresh dense ids; ``fold_origin[new_id]`` recovers the original id and
    ``counts`` gives each kept original edge's subdivision length, the
    weight to use on the folded graph (its rounded cost is ``mu`` times
    that length).
    """

    beta: Fraction
    mu: Fraction
    threshold_index: int
    counts: dict[int, int]
    folded_graph: Graph
    fold_origin: tuple[int, ...]

    def fold_weights(self) -> dict[int, int]:
        return {new: self.counts[orig] for new, orig in enumerate(self.fold_origin)}

    def unfold(self, folded_edges: Iterable[int]) -> frozenset[int]:
        return frozenset(self.fold_origin[eid] for eid in folded_edges)


def _twonc_exists(g: Graph, terminals: set[int], eids: list[int]) -> bool:
    blocks, _, _ = blocks_and_cuts(g, eids)
    return any(len(b.nodes) >= 3 and terminals <= b.nodes for b in blocks)


def _fst_exists(g: Graph, terminals: set[int], eids: list[int], all_unsafe: bool) -> bool:
    # drop the unsafe bridges in one pass: a bridge lies on no cycle, so
    # deleting it leaves every other edge a bridge or not as before. Any
    # surviving component is protectable, so feasibility is just terminal
    # co-membership there
    _, _, bridges = blocks_and_cuts(g, eids)
    gone = {eid for eid in bridges if all_unsafe or not g.edge(eid).safe}
    comps = connected_components(g, [eid for eid in eids if eid not in gone])
    return any(terminals <= comp for comp in comps)


def prefix_feasible(
    g: Graph, terminals: Iterable[int], kind: ProblemKind, eids: list[int]
) -> bool:
    """Does the edge subset contain some feasible solution for the kind?"""
    terms = set(terminals)
    if kind is ProblemKind.CYCLE:
        return steiner_cycle_exists(g, terms, eids)
    if kind is ProblemKind.TWO_NCS:
        return _twonc_exists(g, terms, eids)
    if kind is ProblemKind.TWO_ECS:
        return _fst_exists(g, terms, eids, all_unsafe=True)
    if kind is ProblemKind.KFST:
        return _fst_exists(g, terms, eids, all_unsafe=False)
    raise ValueError(f"unknown kind {kind!r}")


def _restrict(g: Graph, eids: list[int]) -> tuple[Graph, tuple[int, ...]]:
    """Same nodes, only the given edges, re-indexed densely."""
    specs = []
    origin = []
    for eid in sorted(eids):
        e = g.edges[eid]
        specs.append((e.u, e.v, e.cost, e.safe))
        origin.append(eid)
    return Graph.build(g.n, specs), tuple(origin)


def build_scaling_gadget(
    g: Graph,
    terminals: Iterable[int],
    epsilon,
    kind: ProblemKind = ProblemKind.CYCLE,
) -> ScalingGadget:
    """Threshold scan, nb filter, rounding, and subdivision in one go.

    Binary-searches the prefixes of the cost-sorted edge list (ties by
    edge id) for the shortest one that contains a feasible solution,
    raising Infeasible if even the full graph does not; ``threshold_index``
    is its length, the same as a linear scan finds. Takes beta there and
    produces the folded view with each edge's subdivision length. A zero beta short-circuits the arithmetic:
    all surviving edges are zero-cost and count as single unit edges.
    """
    eps = exact_fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    terms = set(terminals)
    order = sorted(g.edge_ids(), key=lambda eid: (g.edges[eid].cost, eid))

    if not prefix_feasible(g, terms, kind, order):
        raise Infeasible(f"no feasible {kind.value} solution exists in the graph")
    # feasibility is monotone in the prefix length: the shortest feasible
    # prefix lies in (low, threshold]
    low, threshold = 0, len(order)
    while threshold - low > 1:
        mid = (low + threshold) // 2
        if prefix_feasible(g, terms, kind, order[:mid]):
            threshold = mid
        else:
            low = mid

    beta = g.edges[order[threshold - 1]].cost
    n = g.n
    limit = n * beta
    surviving = tuple(sorted(eid for eid in g.edge_ids() if g.edges[eid].cost <= limit))
    mu = eps * beta / n if beta > 0 else Fraction(0)

    counts: dict[int, int] = {}
    for eid in surviving:
        c = g.edges[eid].cost
        counts[eid] = max(1, math.ceil(c / mu)) if mu > 0 else 1

    folded, fold_origin = _restrict(g, list(surviving))
    return ScalingGadget(
        beta=beta,
        mu=mu,
        threshold_index=threshold,
        counts=counts,
        folded_graph=folded,
        fold_origin=fold_origin,
    )


def solve_scaled(
    g: Graph,
    terminals: Iterable[int],
    epsilon,
    kind: ProblemKind,
    stats: SolveStats,
    solve_folded: Callable[[Graph, dict[int, int]], Iterable[int]],
) -> Solution:
    """The one FPTAS: a (1+eps)-approximate solution of the weighted kind.

    Records ``epsilon`` first, so even an infeasible instance reports it,
    then builds the scaling gadget and records its sizes, including the
    node count of the subdivided graph (every chain of t unit edges adds
    t - 1 nodes). ``solve_folded(folded_graph, fold_weights)`` solves the
    unweighted instance on the folded view and returns its edge ids, which
    are mapped back to ``g``.
    """
    eps = stats.epsilon = exact_fraction(epsilon)
    gadget = build_scaling_gadget(g, terminals, eps, kind)
    stats.threshold_index = gadget.threshold_index
    stats.beta = gadget.beta
    stats.mu = gadget.mu
    stats.subdivided_nodes = gadget.folded_graph.n + sum(
        t - 1 for t in gadget.counts.values()
    )
    edges = gadget.unfold(solve_folded(gadget.folded_graph, gadget.fold_weights()))
    return Solution(
        edges=edges, cost=g.total_cost(edges), optimal=False, ratio_bound=1 + eps
    )


def weighted_steiner_cycle(
    g: Graph,
    terminals: Iterable[int],
    epsilon,
    eta=Fraction(1, 100),
    seed: int = 0,
    stats: SolveStats | None = None,
) -> Solution:
    """(1+eps)-approximate minimum-cost Steiner cycle through
    ``solve_scaled``. ``eta`` and ``seed`` are only recorded: the engine is
    deterministic."""
    stats = run_stats(stats, seed, eta)
    return solve_scaled(
        g, terminals, epsilon, ProblemKind.CYCLE, stats,
        lambda folded, weights: search_min_cycle(folded, terminals, weights=weights)[1],
    )
