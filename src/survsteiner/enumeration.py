"""Deterministic enumeration streams driving the solver search loops.

All streams are lazy, duplicate-free, and fully determined by their
inputs, so solver runs are reproducible and iteration counts can be
checked against closed forms (binomials, ordered Bell numbers).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from math import comb


def subsets_up_to(universe: Iterable[int], max_size: int) -> Iterator[frozenset[int]]:
    """Every subset of size <= max_size, smallest sizes first, lexicographic."""
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    items = sorted(set(universe))
    for size in range(min(max_size, len(items)) + 1):
        for combo in itertools.combinations(items, size):
            yield frozenset(combo)


def count_subsets_up_to(n: int, max_size: int) -> int:
    return sum(comb(n, i) for i in range(min(max_size, n) + 1))


def ordered_partitions(
    ground: Iterable[int], max_parts: int, first_part_min: int = 0
) -> Iterator[tuple[frozenset[int], ...]]:
    """Ordered partitions of a ground set into r <= max_parts non-empty parts.

    For r = 1, 2, ... in turn, partitions come in lexicographic order of
    their position-to-part assignment over the sorted ground. The first
    part keeps at least ``first_part_min`` nodes. A position goes only to
    a part that can still be completed: the positions after it must cover
    every part left empty and the first part's shortfall, so every branch
    ends in a partition.
    """
    items = sorted(set(ground))
    n = len(items)
    first_min = max(first_part_min, 1)
    for r in range(1, min(max_parts, n) + 1):
        parts: list[list[int]] = [[] for _ in range(r)]

        def place(i: int, need: int) -> Iterator[tuple[frozenset[int], ...]]:
            # need: positions still owed to empty parts and to the first part
            if i == n:
                yield tuple(map(frozenset, parts))
                return
            left = n - i - 1
            for p, part in enumerate(parts):
                owed = len(part) < first_min if p == 0 else not part
                if need - owed > left:
                    continue
                part.append(items[i])
                yield from place(i + 1, need - owed)
                part.pop()

        yield from place(0, first_min + r - 1)


def count_anchor_vectors(size: int, k: int) -> int:
    """The (partition, ordered anchor vector) points over one ground set
    of ``size`` nodes: ordered partitions into at most k parts whose first
    part keeps at least two nodes, each weighted by the ordered anchor
    pairs of its later parts, p (p - 1) for a part after p nodes.

    This is the sum of ``ordered_partitions(ground, k, 2)``'s anchor-pair
    products in closed form: ``ways[c]`` sums, over the ways to place c
    nodes in the parts so far, the products so far.
    """
    ways = [comb(size, c) if c >= 2 else 0 for c in range(size + 1)]
    total = ways[size]
    for _ in range(1, k):
        ways = [
            sum(ways[p] * p * (p - 1) * comb(size - p, c - p) for p in range(2, c))
            for c in range(size + 1)
        ]
        total += ways[size]
    return total


def ordered_bell(i: int) -> int:
    """Ordered Bell number via B(i) = sum_j C(i,j) B(i-j), B(0) = 1."""
    if i < 0:
        raise ValueError("ordered Bell numbers need i >= 0")
    memo = [1]
    for n in range(1, i + 1):
        memo.append(sum(comb(n, j) * memo[n - j] for j in range(1, n + 1)))
    return memo[i]
