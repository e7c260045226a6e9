"""Run reports: JSON results carrying re-checkable structural certificates.

Certificates never ask the reader to trust the solver: a cycle report
carries the node order of the tour, a 2-node-connected report carries a
terminal-aware ear decomposition of the solution, and a survivable-tree
report carries the solution's block tree, its condensation, and the
protected connection behind every condensed edge. ``validate_report``
re-derives everything from the instance graph and the report text alone.
"""

from __future__ import annotations

import json

from .blocktree import (
    BlockTree,
    CondensedBlockTree,
    block_tree,
    check_block_tree,
    check_condensed_block_tree,
    condensed_block_tree,
)
from .ears import Ear, EarDecomposition, check_ear_decomposition, terminal_ear_decomposition
from .graph import Block, Graph, connected_components
from .instance_io import cost_text
from .solution import ProblemKind, Solution, SolveStats


def _pair_connected(g: Graph, eids, s: int, t: int) -> bool:
    if s == t:
        return True
    for comp in connected_components(g, eids, nodes={s, t}):
        if s in comp:
            return t in comp
    return False


def _shared_node(blocks: tuple[Block, ...], i: int, j: int) -> int:
    shared = blocks[i].nodes & blocks[j].nodes
    if len(shared) != 1:
        raise ValueError(f"blocks {i} and {j} share {len(shared)} nodes, expected 1")
    return next(iter(shared))


def _chain_payload(bt: BlockTree, a: int, b: int, chain: tuple[int, ...]):
    """Edge union and endpoint nodes of one condensed chain."""
    seq = [a, *chain, b]
    start = _shared_node(bt.blocks, seq[0], seq[1])
    end = _shared_node(bt.blocks, seq[-2], seq[-1])
    eids: set[int] = set()
    for i in chain:
        eids |= bt.blocks[i].edges
    return frozenset(eids), start, end


def build_certificate(g: Graph, kind: ProblemKind, terminals, edges) -> dict:
    """Structural witness that the edge set solves the problem kind."""
    from .cycles import cycle_node_order

    edge_set = frozenset(edges)
    terms = sorted(set(terminals))
    if kind is ProblemKind.CYCLE:
        order = cycle_node_order(g, edge_set)
        return {"kind": "cycle", "nodes": list(order)}
    if kind is ProblemKind.TWO_NCS:
        dec = terminal_ear_decomposition(g, terms, edges=edge_set)
        return {
            "kind": "ears",
            "base_node": dec.base_node,
            "terminal_prefix": dec.terminal_prefix,
            "ears": [
                {"nodes": list(e.nodes), "edges": list(e.edges), "closed": e.closed}
                for e in dec.ears
            ],
        }
    if kind in (ProblemKind.TWO_ECS, ProblemKind.KFST):
        bt = block_tree(g, edges=edge_set)
        cbt = condensed_block_tree(bt)
        protected = []
        for a, b, chain in cbt.edges:
            eids, start, end = _chain_payload(bt, a, b, chain)
            protected.append(
                {"a": a, "b": b, "ends": [start, end], "edges": sorted(eids)}
            )
        return {
            "kind": "blocks",
            "blocks": [
                {"nodes": sorted(blk.nodes), "edges": sorted(blk.edges)}
                for blk in bt.blocks
            ],
            "tree_edges": [list(e) for e in bt.tree_edges],
            "cut_nodes": sorted(
                [v, sorted(members)] for v, members in bt.cut_node_map.items()
            ),
            "condensed_nodes": list(cbt.nodes),
            "condensed_edges": [
                {"a": a, "b": b, "chain": list(chain)} for a, b, chain in cbt.edges
            ],
            "protected_paths": protected,
        }
    raise ValueError(f"unknown kind {kind!r}")


def _validate_cycle(g: Graph, terminals, edge_set: frozenset[int], cert: dict) -> None:
    nodes = cert["nodes"]
    if len(nodes) != len(set(nodes)):
        raise ValueError("cycle order repeats a node")
    if len(nodes) != len(edge_set):
        raise ValueError("cycle order length does not match the edge count")
    if not set(terminals) <= set(nodes):
        raise ValueError("cycle order misses a terminal")
    remaining = set(edge_set)
    for i, u in enumerate(nodes):
        v = nodes[(i + 1) % len(nodes)]
        pick = None
        for eid in sorted(remaining):
            if {g.edges[eid].u, g.edges[eid].v} == {u, v}:
                pick = eid
                break
        if pick is None:
            raise ValueError(f"no unused solution edge joins {u} and {v}")
        remaining.discard(pick)
    if remaining:
        raise ValueError("cycle order does not consume every solution edge")


def _validate_ears(g: Graph, terminals, edge_set: frozenset[int], cert: dict) -> None:
    dec = EarDecomposition(
        base_node=cert["base_node"],
        ears=tuple(
            Ear(tuple(e["nodes"]), tuple(e["edges"]), bool(e["closed"]))
            for e in cert["ears"]
        ),
        terminal_prefix=cert["terminal_prefix"],
    )
    check_ear_decomposition(
        g, dec, edges=edge_set, open_required=True, terminals=set(terminals)
    )


def _validate_blocks(
    g: Graph, kind: ProblemKind, terminals, edge_set: frozenset[int], cert: dict
) -> None:
    blocks = tuple(
        Block(frozenset(b["nodes"]), frozenset(b["edges"])) for b in cert["blocks"]
    )
    bt = BlockTree(
        blocks=blocks,
        tree_edges=tuple((a, b) for a, b in cert["tree_edges"]),
        cut_node_map={v: tuple(members) for v, members in cert["cut_nodes"]},
    )
    check_block_tree(g, bt, edges=edge_set)
    cbt = CondensedBlockTree(
        tree=bt,
        nodes=tuple(cert["condensed_nodes"]),
        edges=tuple((e["a"], e["b"], tuple(e["chain"])) for e in cert["condensed_edges"]),
    )
    check_condensed_block_tree(bt, cbt)
    covered = {t for t in terminals}
    hit = set()
    for blk in blocks:
        hit |= blk.nodes
    if not covered <= hit:
        raise ValueError("blocks do not cover every terminal")
    # direct survivability: terminals stay connected without any one unsafe edge
    anchor = min(covered, default=None)
    if anchor is not None:
        for t in covered:
            if not _pair_connected(g, edge_set, anchor, t):
                raise ValueError("solution does not connect the terminals")
        for eid in edge_set:
            if kind is not ProblemKind.TWO_ECS and g.edges[eid].safe:
                continue
            rest = edge_set - {eid}
            for t in covered:
                if not _pair_connected(g, rest, anchor, t):
                    raise ValueError(
                        f"terminals separate when unsafe edge {eid} is removed"
                    )
    listed = {(p["a"], p["b"]): p for p in cert["protected_paths"]}
    for a, b, chain in cbt.edges:
        entry = listed.get((a, b))
        if entry is None:
            raise ValueError(f"condensed edge {a}-{b} has no protected path entry")
        eids, start, end = _chain_payload(bt, a, b, chain)
        if sorted(eids) != list(entry["edges"]) or [start, end] != list(entry["ends"]):
            raise ValueError(f"protected path entry {a}-{b} does not match the chain")
        if not eids:
            if start != end:
                raise ValueError("empty chain with distinct endpoints")
            continue
        if not _pair_connected(g, eids, start, end):
            raise ValueError(f"chain {a}-{b} does not connect its endpoints")
        for eid in eids:
            unsafe = kind is ProblemKind.TWO_ECS or not g.edges[eid].safe
            if unsafe and not _pair_connected(g, eids - {eid}, start, end):
                raise ValueError(
                    f"chain {a}-{b} breaks when unsafe edge {eid} is removed"
                )


def validate_certificate(
    g: Graph, kind: ProblemKind, terminals, edges, cert: dict
) -> None:
    """Re-check a certificate against the instance; ValueError on breach."""
    edge_set = frozenset(edges)
    label = cert.get("kind")
    if kind is ProblemKind.CYCLE:
        if label != "cycle":
            raise ValueError(f"expected a cycle certificate, got {label!r}")
        _validate_cycle(g, terminals, edge_set, cert)
    elif kind is ProblemKind.TWO_NCS:
        if label != "ears":
            raise ValueError(f"expected an ear certificate, got {label!r}")
        _validate_ears(g, terminals, edge_set, cert)
    elif kind in (ProblemKind.TWO_ECS, ProblemKind.KFST):
        if label != "blocks":
            raise ValueError(f"expected a block certificate, got {label!r}")
        _validate_blocks(g, kind, terminals, edge_set, cert)
    else:
        raise ValueError(f"unknown kind {kind!r}")


def _stats_payload(stats: SolveStats | None) -> dict:
    if stats is None:
        return {}
    return {
        "iterations": stats.iterations,
        "subcalls": dict(stats.subcalls),
        "updates": [[int(i), int(w)] for i, w in stats.updates],
        "elapsed_ms": stats.elapsed_ms,
        "seed": stats.seed,
        "epsilon": cost_text(stats.epsilon) if stats.epsilon is not None else None,
        "eta": cost_text(stats.eta) if stats.eta is not None else None,
        "threads": stats.threads,
        "beta": cost_text(stats.beta) if stats.beta is not None else None,
        "mu": cost_text(stats.mu) if stats.mu is not None else None,
        "threshold_index": stats.threshold_index,
        "subdivided_nodes": stats.subdivided_nodes,
    }


def build_report(
    g: Graph,
    kind: ProblemKind,
    terminals,
    solution: Solution | None,
    stats: SolveStats | None = None,
    status: str = "ok",
    message: str | None = None,
    oracle_check: dict | None = None,
) -> dict:
    report: dict = {
        "status": status,
        "problem": kind.value,
        "terminals": sorted(set(terminals)),
        "stats": _stats_payload(stats),
    }
    if message is not None:
        report["message"] = message
    if solution is not None:
        report["optimal"] = solution.optimal
        report["ratio_bound"] = (
            cost_text(solution.ratio_bound) if solution.ratio_bound is not None else None
        )
        report["edges"] = solution.sorted_edges()
        report["cost"] = cost_text(solution.cost)
        report["certificate"] = build_certificate(
            g, kind, terminals, solution.edges
        )
    if oracle_check is not None:
        report["oracle_check"] = oracle_check
    return report


def emit_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def validate_report(g: Graph, report: dict) -> None:
    """Re-validate a parsed report against its instance graph."""
    if report.get("status") != "ok":
        return
    kind = ProblemKind(report["problem"])
    validate_certificate(
        g, kind, report["terminals"], report["edges"], report["certificate"]
    )
