"""Block trees and their degree-2 condensation.

The block tree has one node per block (maximal 2-node-connected subgraph,
bridge, or a degenerate one-node block for an isolated node). Blocks
sharing a cut-node are wired into a star centered on a deterministic hub,
which keeps the structure a tree while the blocks containing any given
cut-node still induce a connected piece. Condensation removes the chains:
only blocks of tree degree other than two survive, and each condensed edge
remembers the degree-2 blocks it ran through.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import Disconnected
from .graph import Block, Graph, _view, blocks_and_cuts, is_connected


@dataclass(frozen=True)
class BlockTree:
    """Tree over blocks; ``tree_edges`` index into ``blocks``."""

    blocks: tuple[Block, ...]
    tree_edges: tuple[tuple[int, int], ...]
    cut_node_map: dict[int, tuple[int, ...]]

    def degree(self, i: int) -> int:
        return sum(1 for a, b in self.tree_edges if i in (a, b))


@dataclass(frozen=True)
class CondensedBlockTree:
    """Blocks of tree degree != 2, joined across contracted degree-2 chains.

    ``edges`` entries are (a, b, chain) where chain lists the block indices
    traversed between a and b, in order from a's side.
    """

    tree: BlockTree
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int, tuple[int, ...]], ...]

    def degree(self, i: int) -> int:
        return sum(1 for a, b, _ in self.edges if i in (a, b))

    def internal_nodes(self) -> tuple[int, ...]:
        return tuple(i for i in self.nodes if self.degree(i) >= 2)


def _hub_index(blocks: tuple[Block, ...], members: list[int], cuts: frozenset[int]) -> int:
    """Star center among the blocks at one cut-node.

    Prefer the block touching the most cut-nodes, then the most edges,
    then the smallest minimum edge id, so the choice is reproducible.
    """

    def key(i: int) -> tuple[int, int, int]:
        b = blocks[i]
        return (-len(b.nodes & cuts), -len(b.edges), min(b.edges, default=-1))

    return min(members, key=key)


def block_tree(g: Graph, edges: Iterable[int] | None = None) -> BlockTree:
    """Build the block tree of a connected view; raises Disconnected otherwise."""
    nodes, eids = _view(g, edges)
    if not is_connected(g, eids if edges is not None else None):
        raise Disconnected("block tree needs a connected graph")
    blocks_list, cuts, _ = blocks_and_cuts(g, eids)
    if not blocks_list and len(nodes) == 1:
        blocks_list = [Block(frozenset(nodes), frozenset())]
    blocks = tuple(blocks_list)

    cut_map: dict[int, tuple[int, ...]] = {}
    tree_edges: list[tuple[int, int]] = []
    for v in sorted(cuts):
        members = [i for i, b in enumerate(blocks) if v in b.nodes]
        cut_map[v] = tuple(members)
        hub = _hub_index(blocks, members, cuts)
        for i in members:
            if i != hub:
                tree_edges.append((min(hub, i), max(hub, i)))
    tree_edges.sort()
    return BlockTree(blocks=blocks, tree_edges=tuple(tree_edges), cut_node_map=cut_map)


def condensed_block_tree(bt: BlockTree) -> CondensedBlockTree:
    """Contract every maximal chain of degree-2 blocks into one edge."""
    n = len(bt.blocks)
    deg = [0] * n
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in bt.tree_edges:
        deg[a] += 1
        deg[b] += 1
        adj[a].append(b)
        adj[b].append(a)
    kept = tuple(i for i in range(n) if deg[i] != 2)

    used: set[tuple[int, int]] = set()
    out_edges: list[tuple[int, int, tuple[int, ...]]] = []
    for a in kept:
        for nb in sorted(adj[a]):
            step = (min(a, nb), max(a, nb))
            if step in used:
                continue
            used.add(step)
            chain: list[int] = []
            prev, cur = a, nb
            while deg[cur] == 2:
                chain.append(cur)
                nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
                used.add((min(cur, nxt), max(cur, nxt)))
                prev, cur = cur, nxt
            out_edges.append((a, cur, tuple(chain)))
    out_edges.sort(key=lambda t: (t[0], t[1], t[2]))
    return CondensedBlockTree(tree=bt, nodes=kept, edges=tuple(out_edges))


def check_block_tree(g: Graph, bt: BlockTree, edges: Iterable[int] | None = None) -> None:
    """Re-verify every block-tree property from scratch; ValueError on breach."""
    nodes, eids = _view(g, edges)
    target = set(eids)

    seen: set[int] = set()
    for b in bt.blocks:
        if b.edges:
            if b.nodes != frozenset(
                x for eid in b.edges for x in g.edge(eid).ends
            ):
                raise ValueError("block node set disagrees with its edges")
            if b.edges & seen:
                raise ValueError("blocks overlap on edges")
            seen.update(b.edges)
        elif len(b.nodes) != 1:
            raise ValueError("edgeless block must be a single node")
    if seen != target:
        raise ValueError("blocks do not partition the edge set")

    n = len(bt.blocks)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parts = n
    for a, b in bt.tree_edges:
        if not bt.blocks[a].nodes & bt.blocks[b].nodes:
            raise ValueError("tree edge joins blocks sharing no node")
        ra, rb = find(a), find(b)
        if ra == rb:
            raise ValueError("block tree contains a cycle")
        parent[ra] = rb
        parts -= 1
    if n and parts != 1:
        raise ValueError("block tree is not connected")

    _, cuts, _ = blocks_and_cuts(g, eids)
    expect = {
        v: tuple(i for i, b in enumerate(bt.blocks) if v in b.nodes) for v in sorted(cuts)
    }
    if dict(bt.cut_node_map) != expect:
        raise ValueError("cut_node_map disagrees with block membership")
    for v, members in expect.items():
        inside = set(members)
        if len(inside) < 2:
            raise ValueError(f"cut-node {v} lies in fewer than two blocks")
        root = members[0]
        stack = [root]
        seen_m = {root}
        while stack:
            x = stack.pop()
            for a, b in bt.tree_edges:
                if a == x and b in inside and b not in seen_m:
                    seen_m.add(b)
                    stack.append(b)
                elif b == x and a in inside and a not in seen_m:
                    seen_m.add(a)
                    stack.append(a)
        if seen_m != inside:
            raise ValueError(f"blocks at cut-node {v} are not connected in the tree")


def check_condensed_block_tree(bt: BlockTree, cbt: CondensedBlockTree) -> None:
    """Re-verify the condensation against its block tree; ValueError on breach."""
    n = len(bt.blocks)
    deg = [0] * n
    for a, b in bt.tree_edges:
        deg[a] += 1
        deg[b] += 1
    if set(cbt.nodes) != {i for i in range(n) if deg[i] != 2}:
        raise ValueError("condensed nodes are not exactly the degree-!=2 blocks")

    bt_edges = {tuple(sorted(e)) for e in bt.tree_edges}
    walked: list[tuple[int, int]] = []
    for a, b, chain in cbt.edges:
        if a not in cbt.nodes or b not in cbt.nodes:
            raise ValueError("condensed edge endpoint is not a condensed node")
        path = [a, *chain, b]
        for x in chain:
            if deg[x] != 2:
                raise ValueError("condensed edge traverses a non-chain block")
        for x, y in zip(path, path[1:]):
            step = tuple(sorted((x, y)))
            if step not in bt_edges:
                raise ValueError("condensed edge does not follow block-tree edges")
            walked.append(step)
    if sorted(walked) != sorted(bt_edges):
        raise ValueError("condensed edges do not cover the block tree exactly once")
