"""Workload definitions and the seeded request streams they draw from.

Every request is one instance text solved through the command line entry
point. Request ``i`` of a workload depends only on (workload, seed, i), so
a run can draw as many requests as its time allows and two runs with one
seed see the same prefix. Graphs are a Hamiltonian ring plus random
chords, which keeps every instance feasible for all four problems without
planting the optimum the way ``generate_instance`` does.

The problem size of request ``i`` cycles through a fixed table (the
``strata``) and only the graph itself is random, so every seed gets the
same mix of sizes; that keeps run-to-run spread down to what the graphs
themselves cause.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Request:
    index: int
    kind: str  # cycle, 2ncs, 2ecs or kfst
    n: int
    edges: tuple[tuple[int, int, int, bool], ...]  # (u, v, cost, safe)
    terminals: tuple[int, ...]
    weighted: bool
    graph_key: tuple  # equal keys mean an identical graph

    def text(self) -> str:
        lines = [f"{self.kind} {self.n} {len(self.edges)} {len(self.terminals)}"]
        lines += [f"t {t}" for t in self.terminals]
        lines += [
            f"e {u} {v} {c} {'S' if safe else 'U'}" for u, v, c, safe in self.edges
        ]
        return "\n".join(lines) + "\n"


def ring_chords(rng: random.Random, n: int, m: int, weighted: bool, unsafe: float):
    """A Hamiltonian ring plus random chords: always one 2-connected block."""
    perm = list(range(n))
    rng.shuffle(perm)

    def edge(u: int, v: int) -> tuple[int, int, int, bool]:
        cost = rng.randint(0, 50) if weighted else 1
        return (u, v, cost, rng.random() >= unsafe)

    edges = [edge(perm[i], perm[(i + 1) % n]) for i in range(n)]
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.append(edge(u, v))
    return tuple(edges)


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple[dict, ...]
    # the highest percentile that leaves ten of min_requests samples beyond it
    tail_percentile: int
    # a run goes on until it has this many requests, and stops at
    # max_requests, which bounds the reference work of a very fast program
    min_requests: int
    max_requests: int
    terminal_sets: int = 1  # consecutive requests sharing one graph

    def request(self, seed: int, i: int) -> Request:
        graph_no = i // self.terminal_sets
        spec = self.strata[graph_no % len(self.strata)]
        grng = random.Random(f"{self.name}:{seed}:graph:{graph_no}")
        n = spec["n"]
        edges = ring_chords(grng, n, spec["m"], spec["weighted"], spec.get("unsafe", 0.0))
        trng = random.Random(f"{self.name}:{seed}:terminals:{i}")
        kinds = spec["kinds"]
        kind = kinds[(i % self.terminal_sets) % len(kinds)]
        terminals = tuple(sorted(trng.sample(range(n), spec["k"])))
        return Request(
            index=i,
            kind=kind,
            n=n,
            edges=edges,
            terminals=terminals,
            weighted=spec["weighted"],
            graph_key=(self.name, seed, graph_no),
        )


# Unit cycles grow dear much faster with n than weighted ones, so unit
# requests use larger graphs: each stratum then has a median latency within
# a factor of two of the others, and the median of the mix falls inside one
# dense band instead of in the gap between a fast and a slow band.
_CYCLE_STRATA = tuple(
    {"kinds": ("cycle",), "k": k, "n": n, "m": m, "weighted": w}
    for n, m, k, w in (
        (17, 34, 4, False), (12, 27, 4, True), (17, 38, 5, False), (12, 24, 5, True),
        (18, 40, 4, False), (13, 29, 4, True), (19, 38, 4, False), (12, 30, 6, True),
        (16, 36, 6, False), (13, 26, 5, True), (18, 45, 5, False), (11, 25, 6, True),
    )
)

# Latency grows with n and, inside each n, with m. These eight sizes make
# three bands: two fast strata (n = 6), three middle ones and three slow
# ones, so the median falls in the middle of the middle band and the 75th
# percentile inside the slow band rather than in a gap between bands.
_TWONC_STRATA = tuple(
    {"kinds": ("2ncs",), "k": 3, "n": n, "m": m, "weighted": False}
    for n, m in ((7, 12), (8, 11), (6, 10), (7, 13), (8, 12), (7, 10), (6, 12), (7, 15))
)

_KFST_STRATA = tuple(
    {"kinds": ("kfst", "2ecs"), "k": 3, "n": n, "m": m, "unsafe": u, "weighted": w}
    for n, m, u, w in (
        (8, 10, 0.2, False), (10, 14, 0.4, True), (12, 18, 0.6, False),
        (9, 13, 0.6, True), (11, 15, 0.2, False), (10, 12, 0.4, True),
    )
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cycle-mixed",
            strata=_CYCLE_STRATA,
            tail_percentile=90,
            min_requests=100,
            max_requests=2000,
        ),
        Workload(
            name="twonc-unit",
            strata=_TWONC_STRATA,
            tail_percentile=75,
            min_requests=40,
            max_requests=200,
        ),
        Workload(
            name="kfst-mixed",
            strata=_KFST_STRATA,
            tail_percentile=90,
            min_requests=100,
            max_requests=2000,
            terminal_sets=4,
        ),
    )
}
