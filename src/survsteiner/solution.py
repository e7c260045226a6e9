"""Shared result types for solvers and oracles."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .graph import exact_fraction


class ProblemKind(str, Enum):
    """The four problems the package solves."""

    CYCLE = "cycle"
    TWO_NCS = "2ncs"
    TWO_ECS = "2ecs"
    KFST = "kfst"


@dataclass(frozen=True)
class Solution:
    """An edge subset of an input graph together with its total cost.

    ``optimal`` is True for the exact solvers; the weighted solvers, all
    of which run through ``scaling.solve_scaled``, return ``optimal=False``
    with ``ratio_bound = 1 + eps``. Structural certificates are built from
    the edge set by ``report.build_certificate``.
    """

    edges: frozenset[int]
    cost: Fraction
    optimal: bool = True
    ratio_bound: Fraction | None = None

    @property
    def size(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> tuple[int, ...]:
        return tuple(sorted(self.edges))


@dataclass
class SolveStats:
    """Mutable run accounting filled in by the solvers.

    ``iterations`` counts every configuration of the outer enumeration,
    walked or counted in bulk (including ones skipped after a failed
    subcall or by a bound), so tests can compare it against closed-form
    counts. ``updates`` records ``(index, incumbent weight)`` pairs, the
    index being the marker subset's for 2NCS and the family's for k-FST
    and 2ECS, the weight plain (not the scans' perturbed sums) and never
    rising. The register starts empty, so a solve records at least one,
    and the last is the answer's weight (pendant edges in, for k-FST).
    """

    iterations: int = 0
    subcalls: dict[str, int] = field(default_factory=dict)
    updates: list[tuple[int, int]] = field(default_factory=list)
    eta: Fraction | None = None
    epsilon: Fraction | None = None
    seed: int | None = None
    threads: int = 1
    elapsed_ms: float = 0.0
    threshold_index: int | None = None
    beta: Fraction | None = None
    mu: Fraction | None = None
    subdivided_nodes: int | None = None

    def count(self, name: str, inc: int = 1) -> None:
        self.subcalls[name] = self.subcalls.get(name, 0) + inc


def run_stats(
    stats: SolveStats | None, seed: int, eta, threads: int | None = None
) -> SolveStats:
    """The stats of one solver call (a fresh one if None) with its run
    settings recorded; ValueError when ``eta`` is outside (0, 1]. A
    ``threads`` of None keeps the count already recorded.

    Every entry point that accepts ``eta`` and ``seed`` starts here,
    although the deterministic engine only records them.
    """
    eta = exact_fraction(eta)
    if not 0 < eta <= 1:
        raise ValueError("eta must be in (0, 1]")
    stats = stats if stats is not None else SolveStats()
    stats.seed, stats.eta = seed, eta
    if threads is not None:
        stats.threads = threads
    return stats
