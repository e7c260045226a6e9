"""Search-space streams: subsets and ordered partitions."""

from itertools import product
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from survsteiner import (
    count_anchor_vectors,
    count_subsets_up_to,
    ordered_bell,
    ordered_partitions,
    subsets_up_to,
)


def brute_ordered_partitions(items, max_parts, first_min):
    """Independent enumeration via surjective assignments, in the order the
    stream must follow: by part count, then lexicographic in the
    position-to-part assignment over the sorted items."""
    items = sorted(items)
    out = []
    for r in range(1, min(max_parts, len(items)) + 1):
        for assign in product(range(r), repeat=len(items)):
            if len(set(assign)) != r:
                continue
            parts = tuple(
                frozenset(x for x, a in zip(items, assign) if a == p)
                for p in range(r)
            )
            if len(parts[0]) >= first_min:
                out.append(parts)
    return out


class TestSubsets:
    def test_two_element_universe_max_one(self):
        got = list(subsets_up_to([5, 7], 1))
        assert got == [frozenset(), frozenset({5}), frozenset({7})]

    def test_three_element_universe_all(self):
        assert len(list(subsets_up_to([1, 2, 3], 3))) == 8

    def test_counts_match_binomial_sums(self):
        for n in range(7):
            for cap in range(7):
                got = len(list(subsets_up_to(range(n), cap)))
                assert got == sum(comb(n, i) for i in range(min(cap, n) + 1))
                assert got == count_subsets_up_to(n, cap)

    @given(st.sets(st.integers(0, 20), max_size=7), st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_stream_is_duplicate_free_and_sorted_by_size(self, universe, cap):
        got = list(subsets_up_to(universe, cap))
        assert len(got) == len(set(got))
        sizes = [len(s) for s in got]
        assert sizes == sorted(sizes)


class TestOrderedPartitions:
    def test_three_elements_unconstrained_is_thirteen(self):
        got = list(ordered_partitions([0, 1, 2], 3))
        assert len(got) == 13

    def test_first_part_min_two_on_pair(self):
        got = list(ordered_partitions([0, 1], 2, first_part_min=2))
        assert got == [(frozenset({0, 1}),)]

    def test_single_element_with_first_min_two_is_empty(self):
        assert list(ordered_partitions([0], 2, first_part_min=2)) == []

    def test_matches_independent_enumeration(self):
        # the sequence, not just the set: the 2NCS scan's recorded updates
        # and its count digest follow this order
        for n in range(1, 7):
            ground = [3 * i + 1 for i in range(n)]
            for max_parts in range(1, 5):
                for first_min in range(3):
                    got = list(ordered_partitions(ground, max_parts, first_min))
                    want = brute_ordered_partitions(ground, max_parts, first_min)
                    assert got == want
        # a repeated value is one node: the ground is the set of values
        got = list(ordered_partitions([7, 4, 7, 1], 3, 2))
        assert got == brute_ordered_partitions([1, 4, 7], 3, 2)

    def test_counts_are_ordered_bell_numbers(self):
        # B(i) for unconstrained ordered set partitions, checked against an
        # independently coded recurrence B(i) = sum_j C(i,j) B(i-j)
        memo = {0: 1}
        for i in range(1, 5):
            memo[i] = sum(comb(i, j) * memo[i - j] for j in range(1, i + 1))
        assert [memo[i] for i in range(1, 5)] == [1, 3, 13, 75]
        for i in range(1, 5):
            stream = list(ordered_partitions(range(i), i))
            assert len(stream) == memo[i] == ordered_bell(i)

    def test_parts_disjoint_and_cover_for_set_grounds(self):
        for parts in ordered_partitions(range(5), 3, first_part_min=2):
            union = set()
            for part in parts:
                assert part
                assert not (union & part)
                union |= part
            assert union == set(range(5))
            assert len(parts[0]) >= 2
            assert len(parts) <= 3


class TestAnchorVectorCount:
    def test_matches_a_sum_over_the_partition_stream(self):
        # each partition adds p (p - 1) ordered anchor pairs per later
        # part, p being the nodes of the parts before it
        for k in range(2, 6):
            for size in range(2 * k):
                brute = 0
                for parts in ordered_partitions(range(size), k, 2):
                    vectors, pool = 1, len(parts[0])
                    for part in parts[1:]:
                        vectors *= pool * (pool - 1)
                        pool += len(part)
                    brute += vectors
                assert count_anchor_vectors(size, k) == brute, (size, k)
