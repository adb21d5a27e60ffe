"""Memoized exact counting recursions for galled trees.

Covers all six (network class x labeling) families.  Each count is assembled
from four structural contributions: a root split into two subtrees, the
symmetric-half correction (unlabeled only), a root gall whose two node
sequences are both nonempty, and -- for the general class only -- a root gall
with one empty sequence.  Time-consistent counts reuse the general recursion
with the one-empty-side contribution dropped.

Everything here is exact big-integer arithmetic.  The sums over the ways to
share a gall's leaves among its children are not enumerated composition by
composition.  The recursion reads them only summed over the part count k,
with weight 1 or k, so two running sums per leaf count are kept, each built
by splitting off the first part (see `_compute_row`): a row of n costs
O(n^3) coefficient products and a table to n costs O(n^4).
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from typing import Dict, List, NamedTuple, Tuple

from .comb import double_factorial_odd


class NetworkClass(Enum):
    GENERAL = "general"
    TIME_CONSISTENT = "time-consistent"
    SIMPLEX_TC = "simplex-tc"


class Labeling(Enum):
    UNLABELED = "unlabeled"
    LEAF_LABELED = "labeled"


class TreeClassSpec(NamedTuple):
    network_class: NetworkClass
    labeling: Labeling

    def max_galls(self, n: int) -> int:
        """Largest legal gall count for n leaves in this class."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if self.network_class is NetworkClass.GENERAL:
            return n - 1
        return (n - 1) // 2

    @property
    def is_labeled(self) -> bool:
        return self.labeling is Labeling.LEAF_LABELED


GENERAL_UNLABELED = TreeClassSpec(NetworkClass.GENERAL, Labeling.UNLABELED)
GENERAL_LABELED = TreeClassSpec(NetworkClass.GENERAL, Labeling.LEAF_LABELED)
TC_UNLABELED = TreeClassSpec(NetworkClass.TIME_CONSISTENT, Labeling.UNLABELED)
TC_LABELED = TreeClassSpec(NetworkClass.TIME_CONSISTENT, Labeling.LEAF_LABELED)
SIMPLEX_UNLABELED = TreeClassSpec(NetworkClass.SIMPLEX_TC, Labeling.UNLABELED)
SIMPLEX_LABELED = TreeClassSpec(NetworkClass.SIMPLEX_TC, Labeling.LEAF_LABELED)

ALL_SPECS = (
    GENERAL_UNLABELED,
    GENERAL_LABELED,
    TC_UNLABELED,
    TC_LABELED,
    SIMPLEX_UNLABELED,
    SIMPLEX_LABELED,
)

# Largest n the command line serves from the exact recursion.  A row of n
# leaves costs O(n^3) coefficient products and a table to n costs O(n^4): all
# six tables to n = 30 take 0.05-0.09 s (Python 3.11, 2-vCPU Xeon).  Larger n
# is served by the generating-function engine.
EXACT_ENGINE_LIMIT = 30

# Keyed by `_cache_key`, the members' string values and n: a str hashes in C
# and caches its hash, where hashing an Enum member (or a spec of two) runs
# the Python-level Enum.__hash__ on every lookup.  Each entry is what
# `_compute_row` returns for its n: the row and the composition sums A and B.
_row_cache: Dict[Tuple[str, str, int], Tuple[Tuple[int, ...], List[int], List[int]]] = {}


def _cache_key(spec: TreeClassSpec, n: int) -> Tuple[str, str, int]:
    return spec.network_class._value_, spec.labeling._value_, n


def _addmul(out: List[int], w: int, a, b) -> None:
    """out += w * (a * b), the convolution of a and b added in place."""
    for i, x in enumerate(a):
        if x:
            wx = w * x
            for j, y in enumerate(b, i):
                if y:
                    out[j] += wx * y


def _stretch2(row) -> List[int]:
    # Gall polynomial of a mirrored child: every gall appears on both sides.
    out = [0] * (2 * len(row) - 1)
    for b, v in enumerate(row):
        out[2 * b] = v
    return out


def _add_root_gall(acc: List[int], vec, weight: int = 1) -> None:
    # The root gall adds one gall to those of its children.
    for h, v in enumerate(vec):
        if v:
            acc[h + 1] += weight * v


def _plus_row(row, vec) -> List[int]:
    # row + vec, for a vec whose nonzero entries lie inside the row's gall range.
    out = list(row)
    for h, v in enumerate(vec):
        if v:
            out[h] += v
    return out


def _compute_row(spec: TreeClassSpec, n: int) -> Tuple[Tuple[int, ...], List[int], List[int]]:
    """(row, A(n), B(n)): the row of counts (g = 0 .. max_galls(n)) for n
    leaves and the composition sums of n, from the cached entries below n.

    Let P_k(v) be the sum, over compositions (c_1, ..., c_k) of v into k
    positive parts, of the convolution of the rows of c_1, ..., c_k leaves,
    each composition carrying the multinomial v! / (c_1! ... c_k!) in labeled
    families.  The recursion reads P_k only through A(v) = sum_k P_k(v) and
    B(v) = sum_k k P_k(v).  Splitting off the first part f, with
    w = comb(v, f) labeled and 1 unlabeled,
    P_k(v) = sum_f w row(f) * P_{k-1}(v - f), so the parts with k >= 2 are
    A'(v) = sum_f w row(f) * A(v - f) and B'(v) = sum_f w row(f) * (A + B)(v - f),
    and A = row + A', B = row + B'.
    """
    if n == 1:
        return (1,), [1], [1]
    labeled = spec.is_labeled
    below = [_row_cache[_cache_key(spec, m)] for m in range(1, n)]
    rows = [None] + [e[0] for e in below]
    sums = [None] + [e[1:] for e in below]
    width = n  # scratch is wider than any legal row; the tail must stay zero
    general = spec.network_class is NetworkClass.GENERAL
    simplex = spec.network_class is NetworkClass.SIMPLEX_TC

    sym = [0] * width  # contributions halved by left-right symmetry
    extra = [0] * width  # the general-only one-empty-side root gall

    # Root split into two subtrees, ordered, galls distributed freely.  The
    # splits a and n - a carry the same weight, so each pair is visited once.
    for a in range(1, n // 2 + 1):
        w = math.comb(n, a) if labeled else 1
        _addmul(sym, w if 2 * a == n else 2 * w, rows[a], rows[n - a])

    # Identical-subtree correction (a pair of equal halves is one structure).
    if not labeled and n % 2 == 0:
        for h, v in enumerate(rows[n // 2]):
            sym[2 * h] += v

    # A'(n) and B'(n); a composition into k >= 2 parts has at most n - 2 galls.
    a1, b1 = [0] * (n - 1), [0] * (n - 1)
    for f in range(1, n):
        w = math.comb(n, f) if labeled else 1
        rest_a, rest_b = sums[n - f]
        _addmul(a1, w, rows[f], rest_a)
        _addmul(b1, w, rows[f], list(map(operator.add, rest_a, rest_b)))

    # Root gall, both node sequences nonempty: k non-root nodes in the gall,
    # k - 2 possible positions for the reticulation node, so the children add
    # sum_{k >= 3} (k - 2) P_k(n) = B'(n) - 2 A'(n).  In the simplex class the
    # reticulation subtree is a single leaf, so only k - 1 children receive
    # the remaining n - 1 leaves (and the labeled leaf is one of n):
    # sum_j (j - 1) P_j(n - 1) = B(n - 1) - A(n - 1).
    if simplex:
        low_a, low_b = sums[n - 1]
        _add_root_gall(sym, map(operator.sub, low_b, low_a), n if labeled else 1)
    else:
        _add_root_gall(sym, [y - 2 * x for x, y in zip(a1, b1)])

    # Mirror-symmetric root galls (unlabeled only): the reticulation sits at
    # the center and one side determines the other, so side galls count twice.
    # Stretching commutes with convolution, so the a mirrored children of a
    # side with s leaves contribute the stretched P_a(s), and every a counts
    # once: the sum over a is the stretched A(s).
    if not labeled:
        if simplex:
            if n % 2 == 1:
                _add_root_gall(sym, _stretch2(sums[(n - 1) // 2][0]))
        else:
            # A palindromic composition of n: mirrored parts summing to s on
            # each side and a center part of n - 2s.
            pal = [0] * (n - 1)
            for s in range(1, (n - 1) // 2 + 1):
                _addmul(pal, 1, _stretch2(sums[s][0]), rows[n - 2 * s])
            _add_root_gall(sym, pal)

    # General class only: root gall with an empty sequence on one side, its
    # children sum_{k >= 2} P_k(n) = A'(n).  The reticulation node is pinned at
    # the bottom of the single path, so the two sides are distinguishable: no
    # 1/2 factor, no palindromic correction.
    if general:
        _add_root_gall(extra, a1)

    gmax = spec.max_galls(n)
    row = []
    for g in range(width):
        if sym[g] % 2:
            raise ArithmeticError(f"odd symmetric sum at n={n}, g={g}")
        value = sym[g] // 2 + extra[g]
        if g <= gmax:
            row.append(value)
        else:
            if value:
                raise ArithmeticError(f"nonzero count outside gall range at n={n}, g={g}")
    # A composition of n has no more galls than a row of n may hold.
    return tuple(row), _plus_row(row, a1), _plus_row(row, b1)


def _get_row(spec: TreeClassSpec, n: int) -> Tuple[int, ...]:
    key = _cache_key(spec, n)
    entry = _row_cache.get(key)
    if entry is None:
        for m in range(1, n + 1):  # bottom-up, each entry from those below it
            low = _cache_key(spec, m)
            if low not in _row_cache:
                _row_cache[low] = _compute_row(spec, m)
        entry = _row_cache[key]
    return entry[0]


def count(spec: TreeClassSpec, n: int, g: int) -> int:
    """Exact number of networks with n leaves and g galls.

    Returns 0 for g outside the legal gall range (so convolution sums need no
    boundary guards); rejects n <= 0 or g < 0 as input errors.
    """
    if n <= 0:
        raise ValueError(f"need n >= 1, got {n}")
    if g < 0:
        raise ValueError(f"need g >= 0, got {g}")
    if g > spec.max_galls(n):
        return 0
    return _get_row(spec, n)[g]


def total(spec: TreeClassSpec, n: int) -> int:
    """Row sum over the legal gall range."""
    if n <= 0:
        raise ValueError(f"need n >= 1, got {n}")
    return sum(_get_row(spec, n))


def wedderburn(n: int) -> int:
    """Number of unlabeled non-plane rooted binary trees with n leaves."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return wedderburn_sequence(n)[n]


def wedderburn_sequence(max_n: int) -> List[int]:
    """[U_0 .. U_max_n] via the split recursion with symmetric-half correction."""
    u = [0] * (max_n + 1)
    if max_n >= 1:
        u[1] = 1
    for n in range(2, max_n + 1):
        # the pairs a < n - a, doubled; even n adds u[n/2]^2 and the symmetric half
        s = 2 * sum(map(operator.mul, u[1 : (n + 1) // 2], u[n - 1 : n // 2 : -1]))
        if n % 2 == 0:
            s += u[n // 2] * (u[n // 2] + 1)
        if s % 2:
            raise ArithmeticError(f"odd doubled sum at n={n}")
        u[n] = s // 2
    return u


def labeled_tree_count(n: int) -> int:
    """Number of leaf-labeled rooted binary trees: (2n-3)!! for n >= 2, else 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return 1
    return double_factorial_odd(n - 1)


def simplex_total_sequence(max_n: int) -> List[int]:
    """Totals over all gall counts for unlabeled simplex time-consistent trees,
    via the dedicated arbitrary-gall recursion (index 0 is 0).

    The composition sums enter only as comp[v] and kcomp[v], the sums over
    compositions of v into j parts of prod a[c_i], weighted 1 and j; splitting
    off the first part carries both forward in O(n) products per n.
    """
    a = [0] * (max_n + 1)
    comp = [0] * (max_n + 1)
    kcomp = [0] * (max_n + 1)
    for n in range(1, max_n + 1):
        if n == 1:
            a[1] = 1
        else:
            s = sum(map(operator.mul, a[1:n], a[n - 1 : 0 : -1]))
            if n % 2 == 0:
                s += a[n // 2]
            s += kcomp[n - 1] - comp[n - 1]  # sum_j (j - 1) over compositions of n - 1
            if n % 2 == 1:
                s += comp[(n - 1) // 2]  # the mirrored sides of a palindromic gall
            if s % 2:
                raise ArithmeticError(f"odd doubled sum at n={n}")
            a[n] = s // 2
        firsts, rests = a[1:n], comp[n - 1 : 0 : -1]
        comp[n] = a[n] + sum(map(operator.mul, firsts, rests))
        rests = map(operator.add, rests, kcomp[n - 1 : 0 : -1])
        kcomp[n] = a[n] + sum(map(operator.mul, firsts, rests))
    return a


def simplex_total_direct(n: int) -> int:
    """Total count of unlabeled simplex time-consistent galled trees with n
    leaves, computed without per-gall resolution."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return simplex_total_sequence(n)[n]


class CountTable(NamedTuple):
    spec: TreeClassSpec
    max_n: int
    entries: Dict[Tuple[int, int], int]
    row_totals: Dict[int, int]

    def row(self, n: int) -> Tuple[int, ...]:
        return tuple(self.entries[(n, g)] for g in range(self.spec.max_galls(n) + 1))


def build_table(spec: TreeClassSpec, max_n: int) -> CountTable:
    """Fill all legal (n, g) cells and row totals for n = 1 .. max_n."""
    if max_n < 1:
        raise ValueError(f"need max_n >= 1, got {max_n}")
    entries: Dict[Tuple[int, int], int] = {}
    row_totals: Dict[int, int] = {}
    for n in range(1, max_n + 1):
        row = _get_row(spec, n)
        for g, v in enumerate(row):
            entries[(n, g)] = v
        row_totals[n] = sum(row)
    return CountTable(spec, max_n, entries, row_totals)


def clear_cache() -> None:
    _row_cache.clear()
