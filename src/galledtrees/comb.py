"""Exact combinatorial primitives: weighted partitions and counting helpers.

All functions return exact Python integers (arbitrary precision) or yield
dicts of them.  The partition stream is deterministic: largest part first.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Iterator

# Weighted partition: sparse multiplicity vector {i: k_i} with sum(i * k_i) fixed.
WeightedPartition = Dict[int, int]


def weighted_partitions(weight: int) -> Iterator[WeightedPartition]:
    """Yield every sparse vector {i: k_i} with sum(i * k_i) = weight, k_i >= 1.

    For weight 0, yields the empty dict once (the empty product convention).
    One vector per integer partition of `weight`, largest part first.
    """
    if weight < 0:
        raise ValueError(f"need weight >= 0, got {weight}")
    yield from _weighted(weight, weight)


def _weighted(remaining, max_part):
    if remaining == 0:
        yield {}
        return
    for part in range(min(remaining, max_part), 0, -1):
        for mult in range(remaining // part, 0, -1):
            for rest in _weighted(remaining - part * mult, part - 1):
                out = {part: mult}
                out.update(rest)
                yield out


def partition_multinomial(wp: WeightedPartition) -> int:
    """Multinomial coefficient (sum k_i)! / prod(k_i!) of a multiplicity vector:
    the number of orderings of its parts."""
    out, seen = 1, 0
    for k in wp.values():
        seen += k
        out *= math.comb(seen, k)
    return out


@lru_cache(maxsize=None)
def catalan(m: int) -> int:
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    return math.comb(2 * m, m) // (m + 1)


@lru_cache(maxsize=None)
def double_factorial_odd(m: int) -> int:
    """(2m-1)!! = 1 * 3 * 5 * ... * (2m-1), with the empty product 1 for m <= 0."""
    if m <= 0:
        return 1
    out = 1
    for j in range(1, 2 * m, 2):
        out *= j
    return out

