"""Exact combinatorial primitives: compositions, partitions, and counting helpers.

All functions return exact Python integers (arbitrary precision) or yield
tuples/dicts of them.  Streams are deterministic: compositions come out in
lexicographic order of their parts.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Iterator, Sequence, Tuple

Composition = Tuple[int, ...]
# Weighted partition: sparse multiplicity vector {i: k_i} with sum(i * k_i) fixed.
WeightedPartition = Dict[int, int]


def compositions(total: int, parts: int) -> Iterator[Composition]:
    """Yield every ordered tuple of `parts` positive integers summing to `total`.

    Lexicographic order; there are binomial(total-1, parts-1) of them, and the
    stream is empty when parts > total.
    """
    if total < 1 or parts < 1:
        raise ValueError(f"need total >= 1 and parts >= 1, got {total}, {parts}")
    yield from _compositions(total, parts)


def _compositions(total, parts):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def bounded_compositions(total: int, bounds: Sequence[int]) -> Iterator[Composition]:
    """Compositions of `total` into len(bounds) parts with 1 <= c_i <= bounds[i].

    Generated directly rather than by filtering `compositions`, so parts that
    would exceed their bound are never produced.
    """
    if total < 1 or not bounds:
        return
    yield from _bounded(total, tuple(bounds))


def _bounded(total, bounds):
    if len(bounds) == 1:
        if 1 <= total <= bounds[0]:
            yield (total,)
        return
    rest = bounds[1:]
    lo = max(1, total - sum(rest))
    hi = min(bounds[0], total - len(rest))
    for first in range(lo, hi + 1):
        for tail in _bounded(total - first, rest):
            yield (first,) + tail


def palindromic_compositions(total: int, parts: int) -> Iterator[Composition]:
    """Yield compositions with c_i = c_{parts+1-i} for all i.

    Generated by choosing the first floor(parts/2) parts freely; for odd
    `parts` the middle part is whatever positive remainder is left, so parity
    obstructions make some streams empty (e.g. total 3 into 2 parts).
    """
    if total < 1 or parts < 1:
        raise ValueError(f"need total >= 1 and parts >= 1, got {total}, {parts}")
    half = parts // 2
    if parts % 2 == 0:
        if total % 2 != 0:
            return
        for first in _compositions(total // 2, half) if half else iter(()):
            yield first + tuple(reversed(first))
        return
    if half == 0:
        yield (total,)
        return
    for first in _compositions_any_sum(half, total - 1):
        middle = total - 2 * sum(first)
        if middle >= 1:
            yield first + (middle,) + tuple(reversed(first))


def _compositions_any_sum(parts, max_sum):
    # All tuples of `parts` positive integers with sum <= max_sum, lexicographic.
    if parts == 0:
        yield ()
        return
    for first in range(1, max_sum - parts + 2):
        for rest in _compositions_any_sum(parts - 1, max_sum - first):
            yield (first,) + rest


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


def even_weighted_partitions(weight: int) -> Iterator[WeightedPartition]:
    """Weighted partitions of `weight` using even indices only: sum(2i * r_{2i}) = weight.

    Empty stream for odd weight; used by the t^2 (symmetric half) sums.
    """
    if weight < 0:
        raise ValueError(f"need weight >= 0, got {weight}")
    if weight % 2 != 0:
        return
    for wp in _weighted(weight // 2, weight // 2):
        yield {2 * i: k for i, k in wp.items()}


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Exact n! / prod(parts_i!); rejects parts that do not sum to n."""
    if any(p < 0 for p in parts):
        raise ValueError(f"parts must be nonnegative, got {parts!r}")
    if sum(parts) != n:
        raise ValueError(f"parts {parts!r} do not sum to {n}")
    out = 1
    seen = 0
    for p in parts:
        seen += p
        out *= math.comb(seen, p)
    return out


def partition_multinomial(wp: WeightedPartition) -> int:
    """Multinomial coefficient (sum k_i)! / prod(k_i!) of a multiplicity vector."""
    ks = list(wp.values())
    return multinomial(sum(ks), ks)


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


def factorial(m: int) -> int:
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    return math.factorial(m)
