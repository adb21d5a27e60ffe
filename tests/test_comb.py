import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from galledtrees import comb


def _compositions(total, parts):
    # independent oracle: the compositions of total into parts positive parts,
    # one per choice of parts - 1 cut points among 1 .. total - 1
    for cuts in itertools.combinations(range(1, total), parts - 1):
        ends = (0,) + cuts + (total,)
        yield tuple(b - a for a, b in zip(ends, ends[1:]))


def _orderings(total, parts):
    # compositions counted through partitions: each partition of total into
    # parts parts has partition_multinomial orderings
    return sum(comb.partition_multinomial(wp) for wp in comb.weighted_partitions(total)
               if sum(wp.values()) == parts)


@pytest.mark.parametrize("a", range(1, 13))
def test_composition_counts_match_binomials(a):
    for b in range(1, a + 2):
        got = list(_compositions(a, b))
        assert _orderings(a, b) == len(got) == math.comb(a - 1, b - 1)
        assert all(len(c) == b and sum(c) == a and min(c) >= 1 for c in got)


@given(st.integers(min_value=1, max_value=11))
def test_compositions_sum_over_parts_is_power_of_two(a):
    got = sum(map(comb.partition_multinomial, comb.weighted_partitions(a)))
    assert got == 2 ** (a - 1)


def _palindromic_orderings(total, parts):
    # a palindromic composition is a half composition of s mirrored, around a
    # center part of total - 2s when parts is odd
    half = parts // 2
    if parts % 2 == 0:
        return _orderings(total // 2, half) if total % 2 == 0 else 0
    return sum(_orderings(s, half) for s in range((total - 1) // 2 + 1))


@pytest.mark.parametrize("a", range(1, 11))
def test_palindromic_equals_filtered_full_stream(a):
    for b in range(1, a + 1):
        full = [c for c in _compositions(a, b) if c == tuple(reversed(c))]
        assert _palindromic_orderings(a, b) == len(full)


def _partition_count(w):
    # independent oracle: classic coin-change DP over parts 1..w
    table = [1] + [0] * w
    for part in range(1, w + 1):
        for v in range(part, w + 1):
            table[v] += table[v - part]
    return table[w]


def test_weighted_partition_examples():
    assert list(comb.weighted_partitions(0)) == [{}]
    two = list(comb.weighted_partitions(2))
    assert sorted(two, key=str) == sorted([{1: 2}, {2: 1}], key=str)
    assert len(list(comb.weighted_partitions(4))) == 5


@pytest.mark.parametrize("w", range(0, 13))
def test_weighted_partition_count_is_partition_number(w):
    got = list(comb.weighted_partitions(w))
    assert all(sum(i * k for i, k in wp.items()) == w for wp in got)
    assert len({tuple(sorted(wp.items())) for wp in got}) == len(got)
    assert len(got) == _partition_count(w)


def test_partition_multinomial():
    assert comb.partition_multinomial({1: 2, 3: 1}) == 3
    assert comb.partition_multinomial({}) == 1


def test_multinomial():
    # the multinomial n! / prod(k_i!) now lives only in partition_multinomial
    assert comb.partition_multinomial({1: 5}) == 1
    assert comb.partition_multinomial({1: 2, 2: 2}) == 6
    assert comb.partition_multinomial({1: 2, 2: 2, 3: 3}) == 210  # 7!/(2!2!3!)
    assert comb.partition_multinomial({1: 2, 2: 2, 3: 3}) == math.factorial(7) // (2 * 2 * 6)
    with pytest.raises(ValueError):
        comb.partition_multinomial({1: 2, 2: -1})


def test_catalan_and_factorials():
    assert [comb.catalan(m) for m in range(6)] == [1, 1, 2, 5, 14, 42]
    assert comb.catalan(3) == 5
    assert comb.catalan(11) == 58786
    assert comb.double_factorial_odd(0) == 1
    assert comb.double_factorial_odd(3) == 15  # 1*3*5, the 4-leaf labeled tree count
    assert comb.double_factorial_odd(5) == 945
    # catalan via factorial arithmetic, independent route
    for m in range(20):
        assert comb.catalan(m) == Fraction(math.factorial(2 * m), math.factorial(m) ** 2) / (m + 1)
