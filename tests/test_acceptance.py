"""End-to-end acceptance gate.

Every test prints one visible PASS or FAIL line for its criterion before
asserting, so a full run reads as a checklist. Corpora are seeded and the
heavyweight ones are shared through module fixtures.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from survsteiner import (
    FstInstance,
    Graph,
    Infeasible,
    NoProtectedPath,
    NotTwoConnected,
    ProblemKind,
    SolveStats,
    apply_pendant_gadget,
    block_tree,
    condensed_block_tree,
    check_ear_decomposition,
    degree3_nodes,
    ear_decomposition,
    generate_instance,
    is_2ec,
    is_2nc,
    min_protected_path,
    oracle_min_subgraph,
    oracle_protected_all_pairs,
    ordered_bell,
    ordered_partitions,
    parse_instance,
    solve_2ecs,
    solve_2ncs_unweighted,
    solve_2ncs_weighted,
    solve_kfst_unweighted,
    solve_kfst_weighted,
    weighted_steiner_cycle,
)


def announce(capsys, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(f"\ncriterion {text.split(':', 1)[0]}: {'PASS' if ok else 'FAIL'} -"
              f"{text.split(':', 1)[1]}")


def ring_chords(rng, n, m, weighted=False, unsafe=0.0):
    """A Hamiltonian ring plus random chords: always one 2NC block."""
    perm = list(range(n))
    rng.shuffle(perm)

    def cost():
        return rng.randint(0, 50) if weighted else 1

    specs = [
        (perm[i], perm[(i + 1) % n], cost(), rng.random() >= unsafe)
        for i in range(n)
    ]
    while len(specs) < m:
        u, v = rng.sample(range(n), 2)
        specs.append((u, v, cost(), rng.random() >= unsafe))
    return Graph.build(n, specs)


def sparse_random(rng, n, m, unsafe=0.4):
    """Unfiltered random graph; may be disconnected or bridge-heavy."""
    specs = []
    for _ in range(m):
        u, v = rng.sample(range(n), 2)
        specs.append((u, v, 1, rng.random() >= unsafe))
    return Graph.build(n, specs)


# --- criterion 1 corpus: unit-cost 2NCS against the oracle ----------------


@pytest.fixture(scope="module")
def twonc_corpus():
    rng = random.Random(20250825)
    records = []
    start = time.monotonic()
    for i in range(200):
        if i < 170:
            k, n = 3, 4 + i % 7
        else:
            k, n = 4, 5 + i % 3
        m = min(20, n + 1 + rng.randrange(0, n))
        if i % 3 == 0:
            text = generate_instance(
                {"kind": "2ncs", "n": n, "m": max(m, n), "k": k, "seed": i}
            )
            inst = parse_instance(text)
            g, terms = inst.graph, sorted(inst.terminals)
        else:
            g = ring_chords(rng, n, m)
            terms = rng.sample(range(n), k)
        ref = oracle_min_subgraph(g, terms, ProblemKind.TWO_NCS)
        sol = solve_2ncs_unweighted(g, terms)
        records.append(
            {
                "g": g,
                "terms": tuple(terms),
                "k": k,
                "opt": ref.edges,
                "match": len(sol.edges) == len(ref.edges),
            }
        )
    return {"records": records, "elapsed": time.monotonic() - start}


def test_criterion_1_unweighted_2ncs_exactness(twonc_corpus, capsys):
    records = twonc_corpus["records"]
    elapsed = twonc_corpus["elapsed"]
    matches = sum(r["match"] for r in records)
    ok = len(records) >= 200 and matches == len(records) and elapsed <= 600
    announce(
        capsys, ok,
        f"1: {matches}/{len(records)} unit-cost 2NCS solves equal the oracle "
        f"optimum (k in {{3,4}}, n <= 10, m <= 20) in {elapsed:.1f}s",
    )
    assert ok


# --- criterion 2 corpus: mixed-safety k-FST and 2ECS ----------------------


@pytest.fixture(scope="module")
def kfst_corpus():
    rng = random.Random(1137)
    records = []
    start = time.monotonic()
    for i in range(200):
        n = 4 + i % 6
        m = min(18, n + 1 + rng.randrange(0, n))
        if i % 4 == 0:
            unsafe = (0.2, 0.4, 0.6, 0.8)[(i // 4) % 4]
            text = generate_instance(
                {"kind": "kfst", "n": n, "m": max(m, n), "k": 3,
                 "seed": 5000 + i, "unsafe_fraction": unsafe}
            )
            inst = parse_instance(text)
            g, terms = inst.graph, sorted(inst.terminals)
        elif i % 4 == 2:
            g = sparse_random(rng, n, m, unsafe=rng.choice([0.3, 0.5]))
            terms = rng.sample(range(n), 3)
        else:
            g = ring_chords(rng, n, m, unsafe=rng.choice([0.2, 0.4, 0.6]))
            terms = rng.sample(range(n), 3)
        rec = {"g": g, "terms": tuple(terms), "k": 3}
        inst = FstInstance(g, frozenset(terms))
        try:
            rec["kfst_opt"] = oracle_min_subgraph(g, terms, ProblemKind.KFST).edges
        except Infeasible:
            rec["kfst_opt"] = None
        if rec["kfst_opt"] is None:
            try:
                solve_kfst_unweighted(inst)
                rec["kfst_match"] = False
            except Infeasible:
                rec["kfst_match"] = True
        else:
            sol = solve_kfst_unweighted(inst)
            rec["kfst_match"] = len(sol.edges) == len(rec["kfst_opt"])
        try:
            rec["ecs_opt"] = oracle_min_subgraph(g, terms, ProblemKind.TWO_ECS).edges
        except Infeasible:
            rec["ecs_opt"] = None
        if rec["ecs_opt"] is None:
            try:
                solve_2ecs(g, terms)
                rec["ecs_match"] = False
            except Infeasible:
                rec["ecs_match"] = True
        else:
            sol = solve_2ecs(g, terms)
            rec["ecs_match"] = len(sol.edges) == len(rec["ecs_opt"])
        records.append(rec)
    return {"records": records, "elapsed": time.monotonic() - start}


def test_criterion_2_unweighted_kfst_and_2ecs_exactness(kfst_corpus, capsys):
    records = kfst_corpus["records"]
    elapsed = kfst_corpus["elapsed"]
    matches = sum(r["kfst_match"] and r["ecs_match"] for r in records)
    ok = len(records) >= 200 and matches == len(records) and elapsed <= 900
    announce(
        capsys, ok,
        f"2: {matches}/{len(records)} mixed-safety instances (n <= 9, k = 3) "
        f"solved exactly by both solvers in {elapsed:.1f}s",
    )
    assert ok


# --- criterion 3: (1+eps) ratio and the subdivision node bound ------------


def test_criterion_3_fptas_ratio_and_node_bound(capsys):
    rng = random.Random(404)
    kinds = [ProblemKind.CYCLE, ProblemKind.TWO_NCS,
             ProblemKind.TWO_ECS, ProblemKind.KFST]
    instances = checks = ratio_ok = bound_ok = zero_cost_edges = 0
    for i in range(100):
        n = 4 + i % 5
        m = min(2 * n, n + 1 + rng.randrange(0, n))
        kind = kinds[i % 4]
        unsafe = 0.35 if kind is ProblemKind.KFST else 0.0
        g = ring_chords(rng, n, m, weighted=True, unsafe=unsafe)
        if i % 3 == 0:
            zeroed = rng.randrange(g.m)
            g = Graph.build(
                g.n,
                [(e.u, e.v, 0 if e.id == zeroed else e.cost, e.safe)
                 for e in g.edges],
            )
        zero_cost_edges += sum(1 for e in g.edges if e.cost == 0)
        terms = rng.sample(range(n), 3)
        ref = oracle_min_subgraph(g, terms, kind, weighted=True)
        instances += 1
        for eps in (Fraction(1, 2), Fraction(1, 10)):
            stats = SolveStats()
            if kind is ProblemKind.CYCLE:
                sol = weighted_steiner_cycle(g, terms, eps, stats=stats)
            elif kind is ProblemKind.TWO_NCS:
                sol = solve_2ncs_weighted(g, terms, eps, stats=stats)
            elif kind is ProblemKind.TWO_ECS:
                sol = solve_2ecs(g, terms, epsilon=eps, stats=stats)
            else:
                sol = solve_kfst_weighted(FstInstance(g, frozenset(terms)), eps,
                                          stats=stats)
            checks += 1
            if sol.cost <= (1 + eps) * ref.cost:
                ratio_ok += 1
            bound = g.n + Fraction(g.m * g.n * g.n, 1) / eps
            if stats.subdivided_nodes is not None and stats.subdivided_nodes <= bound:
                bound_ok += 1
    ok = (instances >= 100 and zero_cost_edges > 0
          and ratio_ok == checks and bound_ok == checks)
    announce(
        capsys, ok,
        f"3: {instances} weighted instances x eps in {{0.5, 0.1}}: "
        f"{ratio_ok}/{checks} within (1+eps) of optimum, "
        f"{bound_ok}/{checks} subdivision node bounds hold",
    )
    assert ok


# --- criterion 4: structure bounds on oracle optima -----------------------


def _modified_bounds_hold(g, terms, opt_edges, all_unsafe):
    k = len(terms)
    if all_unsafe:
        g = Graph.build(g.n, [(e.u, e.v, e.cost, False) for e in g.edges])
    mod = apply_pendant_gadget(FstInstance(g, frozenset(terms)))
    pendants = frozenset(eid for _, eid in mod.pendant_map.values())
    bt = block_tree(mod.graph, edges=opt_edges | pendants)
    cbt = condensed_block_tree(bt)
    internal = cbt.internal_nodes()
    if len(internal) > k - 2:
        return False
    cuts = set(bt.cut_node_map)
    multiplicity = sum(
        len(bt.blocks[i].nodes & cuts)
        for i in internal
        if bt.blocks[i].is_twonc
    )
    return multiplicity <= 3 * k - 6


def test_criterion_4_structure_bounds(twonc_corpus, kfst_corpus, capsys):
    d3_checked = d3_bad = 0
    for rec in twonc_corpus["records"]:
        d3_checked += 1
        if len(degree3_nodes(rec["g"], rec["opt"])) > 2 * (rec["k"] - 2):
            d3_bad += 1
    cbt_checked = cbt_bad = 0
    for rec in kfst_corpus["records"]:
        for key, all_unsafe in (("kfst_opt", False), ("ecs_opt", True)):
            if rec[key] is None:
                continue
            cbt_checked += 1
            if not _modified_bounds_hold(
                rec["g"], rec["terms"], rec[key], all_unsafe
            ):
                cbt_bad += 1
    ok = d3_bad == 0 and cbt_bad == 0 and d3_checked >= 200 and cbt_checked >= 200
    announce(
        capsys, ok,
        f"4: degree-3 bound holds on {d3_checked - d3_bad}/{d3_checked} 2NCS "
        f"optima; condensed-tree bounds hold on {cbt_checked - cbt_bad}/"
        f"{cbt_checked} pendant-modified optima",
    )
    assert ok


# --- criterion 5: ear decompositions characterise 2EC and 2NC -------------


def test_criterion_5_whitney_equivalence(capsys):
    rng = random.Random(99)
    graphs = violations = produced = 0
    for i in range(500):
        n = rng.randrange(1, 13)
        specs = []
        if n >= 2:
            for _ in range(rng.randrange(0, 2 * n + 1)):
                u, v = rng.sample(range(n), 2)
                specs.append((u, v, 1, True))
        if i % 5 == 0 and n >= 3:
            specs += [(v, (v + 1) % n, 1, True) for v in range(n)]
        g = Graph.build(n, specs)
        graphs += 1
        for open_required, predicate in ((False, is_2ec), (True, is_2nc)):
            try:
                dec = ear_decomposition(g, open_required=open_required)
            except NotTwoConnected:
                dec = None
            if (dec is not None) != predicate(g):
                violations += 1
                continue
            if dec is not None:
                produced += 1
                check_ear_decomposition(g, dec, open_required=open_required)
    ok = graphs >= 500 and violations == 0
    announce(
        capsys, ok,
        f"5: {graphs} random graphs, {violations} equivalence violations, "
        f"{produced} decompositions verified by the structural checker",
    )
    assert ok


# --- criterion 6: iteration accounting against the closed form ------------


def _independent_ordered_partitions(items, max_parts):
    for r in range(1, min(max_parts, len(items)) + 1):
        for assign in itertools.product(range(r), repeat=len(items)):
            if set(assign) != set(range(r)):
                continue
            yield [
                [x for x, a in zip(items, assign) if a == j] for j in range(r)
            ]


def _closed_form_iterations(n, terms, k):
    total = 0
    for size in range(2 * k - 4 + 1):
        for subset in itertools.combinations(range(n), size):
            ground = sorted(set(terms) | set(subset))
            for parts in _independent_ordered_partitions(ground, k):
                if len(parts[0]) < 2:
                    continue
                product = 1
                pool = set(parts[0])
                for part in parts[1:]:
                    product *= len(pool) * (len(pool) - 1)
                    pool |= set(part)
                total += product
    return total


def test_criterion_6_enumeration_accounting(capsys):
    bell = [1]
    for i in range(1, 5):
        bell.append(sum(math.comb(i, j) * bell[i - j] for j in range(1, i + 1)))
    bell_ok = bell[1:] == [1, 3, 13, 75]
    bell_ok = bell_ok and all(ordered_bell(i) == bell[i] for i in range(1, 5))
    bell_ok = bell_ok and all(
        sum(1 for _ in ordered_partitions(range(i), i)) == bell[i]
        for i in range(1, 5)
    )

    fixtures = [
        (Graph.build(5, [(i, (i + 1) % 5, 1, True) for i in range(5)]), (0, 1, 3)),
        (Graph.build(5, [(0, 2, 1, True), (2, 1, 1, True), (0, 3, 1, True),
                         (3, 1, 1, True), (0, 4, 1, True), (4, 1, 1, True)]),
         (2, 3, 4)),
        (Graph.build(4, [(0, 1, 1, True), (1, 2, 1, True), (2, 3, 1, True),
                         (3, 0, 1, True), (0, 2, 1, True), (1, 3, 1, True)]),
         (0, 1, 2)),
        (ring_chords(random.Random(6), 6, 10), (0, 2, 4)),
    ]
    counter_ok = 0
    for g, terms in fixtures:
        stats = SolveStats()
        solve_2ncs_unweighted(g, list(terms), stats=stats)
        if stats.iterations == _closed_form_iterations(g.n, terms, 3):
            counter_ok += 1
    ok = bell_ok and counter_ok == len(fixtures)
    announce(
        capsys, ok,
        f"6: iteration counters equal the closed form on {counter_ok}/"
        f"{len(fixtures)} fixed k=3 instances; ordered Bell numbers "
        f"1, 3, 13, 75 reproduced independently: {bell_ok}",
    )
    assert ok


# --- criterion 7: protected-path table against the all-pairs oracle -------


def test_criterion_7_protected_path_validation(capsys):
    rng = random.Random(77)
    instances = pairs = mismatches = 0
    for i in range(50):
        n = 4 + i % 5
        m = min(2 * n, n + rng.randrange(0, n + 1))
        if i % 3 == 2:
            g = sparse_random(rng, n, m, unsafe=0.5)
        else:
            g = ring_chords(rng, n, m, unsafe=rng.choice([0.3, 0.6]))
        instances += 1
        ref = oracle_protected_all_pairs(g)
        for u in range(n):
            for v in range(u + 1, n):
                pairs += 1
                try:
                    got = min_protected_path(g, u, v).cost
                except NoProtectedPath:
                    got = None
                key = frozenset((u, v))
                want = ref[key].cost if key in ref else None
                if got != want:
                    mismatches += 1
    ok = instances >= 50 and mismatches == 0
    announce(
        capsys, ok,
        f"7: protected paths equal the brute-force oracle on "
        f"{pairs - mismatches}/{pairs} node pairs over {instances} instances",
    )
    assert ok


# --- criterion 8: reproducibility across thread counts --------------------


def test_criterion_8_reproducibility(capsys):
    rng = random.Random(55)
    g1 = ring_chords(rng, 7, 12)
    g2 = ring_chords(rng, 6, 10, weighted=True)
    g3 = ring_chords(rng, 7, 12, unsafe=0.4)
    g4 = ring_chords(rng, 6, 10, weighted=True, unsafe=0.3)
    runs = [
        lambda t: solve_2ncs_unweighted(g1, [0, 2, 4], seed=3, threads=t),
        lambda t: solve_2ncs_weighted(g2, [0, 1, 3], Fraction(1, 4), seed=3,
                                      threads=t),
        lambda t: solve_kfst_unweighted(FstInstance(g3, frozenset({0, 2, 5})),
                                        seed=3, threads=t),
        lambda t: solve_kfst_weighted(FstInstance(g4, frozenset({0, 1, 4})),
                                      Fraction(1, 4), seed=3, threads=t),
    ]
    value_stable = edges_stable = 0
    for run in runs:
        sols = {t: run(t) for t in (1, 2, 4)}
        if (len({s.cost for s in sols.values()}) == 1
                and len({len(s.edges) for s in sols.values()}) == 1):
            value_stable += 1
        if run(1).edges == sols[1].edges:
            edges_stable += 1
    ok = value_stable == len(runs) and edges_stable == len(runs)
    announce(
        capsys, ok,
        f"8: {value_stable}/{len(runs)} solvers report identical value and "
        f"cost across threads 1/2/4; {edges_stable}/{len(runs)} return "
        f"identical edge sets on repeated single-thread runs",
    )
    assert ok


def test_threads_do_not_change_the_counts():
    # SolveStats counts are part of the reproducibility contract too
    rng = random.Random(56)
    runs = []
    for _ in range(2):
        g1 = ring_chords(rng, 7, 12)
        g2 = ring_chords(rng, 6, 10, weighted=True)
        g3 = ring_chords(rng, 7, 12, unsafe=0.4)
        t1, t2, t3 = (sorted(rng.sample(range(g.n), 3)) for g in (g1, g2, g3))
        runs += [
            lambda t, st, g=g1, ts=t1: solve_2ncs_unweighted(
                g, ts, threads=t, stats=st),
            lambda t, st, g=g2, ts=t2: solve_2ncs_weighted(
                g, ts, Fraction(1, 4), threads=t, stats=st),
            lambda t, st, g=g3, ts=t3: solve_kfst_unweighted(
                FstInstance(g, frozenset(ts)), threads=t, stats=st),
        ]
    for run in runs:
        counts = set()
        for threads in (1, 2, 4):
            stats = SolveStats()
            run(threads, stats)
            counts.add((stats.iterations, tuple(sorted(stats.subcalls.items())),
                        tuple(stats.updates)))
        assert len(counts) == 1
