"""Memoized exact counting recursions for galled trees.

Covers all six (network class x labeling) families.  Each count is assembled
from four structural contributions: a root split into two subtrees, the
symmetric-half correction (unlabeled only), a root gall whose two node
sequences are both nonempty, and -- for the general class only -- a root gall
with one empty sequence.  Time-consistent counts reuse the general recursion
with the one-empty-side contribution dropped.

Everything here is exact big-integer arithmetic.  The sums over the ways to
share a gall's leaves among its children are not enumerated composition by
composition: they are memoized convolution powers of the smaller rows (see
`_powers`), so a table to n costs polynomial time in n.
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
# leaves costs O(n^4) coefficient products, and a whole table to n = 30 takes
# a fraction of a second; larger n is served by the generating-function engine.
EXACT_ENGINE_LIMIT = 30

_row_cache: Dict[Tuple[TreeClassSpec, int], Tuple[int, ...]] = {}
_power_cache: Dict[Tuple[TreeClassSpec, int], List[List[int]]] = {}


def _conv(a, b) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


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


def _powers(spec: TreeClassSpec, v: int) -> List[List[int]]:
    """Convolution powers of the rows for v leaves, indexed by part count k.

    Entry k is the sum, over compositions (c_1, ..., c_k) of v into k positive
    parts, of the convolution of the rows of c_1, ..., c_k leaves; in labeled
    families each composition carries the multinomial v! / (c_1! ... c_k!).
    Entry k >= 2 follows from P_k(v) = sum_f w(v, f) row(f) * P_{k-1}(v - f),
    with w = comb(v, f) labeled and 1 unlabeled, so only rows below v are
    read.  Entries 0 and 1 (the row of v itself) are left empty; use _power.
    """
    key = (spec, v)
    column = _power_cache.get(key)
    if column is None:
        labeled = spec.is_labeled
        column = [[], []]
        for k in range(2, v + 1):
            acc = [0] * (v - k + 1)  # a composition into k parts has <= v - k galls
            for f in range(1, v - k + 2):
                w = math.comb(v, f) if labeled else 1
                for h, x in enumerate(_conv(_get_row(spec, f), _power(spec, k - 1, v - f))):
                    acc[h] += w * x
            while not acc[-1]:  # classes narrower than general leave a zero tail
                acc.pop()
            column.append(acc)
        _power_cache[key] = column
    return column


def _power(spec: TreeClassSpec, k: int, v: int):
    """P_k(v) of `_powers`, with P_1(v) the row of v itself."""
    return _get_row(spec, v) if k == 1 else _powers(spec, v)[k]


def _compute_row(spec: TreeClassSpec, n: int) -> Tuple[int, ...]:
    """Row of counts (g = 0 .. max_galls(n)) for n leaves, from smaller rows."""
    if n == 1:
        return (1,)
    rows = [None] + [_get_row(spec, m) for m in range(1, n)]
    width = n  # scratch is wider than any legal row; the tail must stay zero
    general = spec.network_class is NetworkClass.GENERAL
    simplex = spec.network_class is NetworkClass.SIMPLEX_TC

    sym = [0] * width  # contributions halved by left-right symmetry
    extra = [0] * width  # the general-only one-empty-side root gall

    # Root split into two subtrees, ordered, galls distributed freely.
    for a in range(1, n):
        left, right = rows[a], rows[n - a]
        if spec.is_labeled:
            w = math.comb(n, a)
            for g1, x in enumerate(left):
                if x:
                    for g2, y in enumerate(right):
                        if y:
                            sym[g1 + g2] += w * x * y
        else:
            for g1, x in enumerate(left):
                if x:
                    for g2, y in enumerate(right):
                        if y:
                            sym[g1 + g2] += x * y

    # Identical-subtree correction (a pair of equal halves is one structure).
    if not spec.is_labeled and n % 2 == 0:
        for h, v in enumerate(rows[n // 2]):
            sym[2 * h] += v

    # Root gall, both node sequences nonempty: k non-root nodes in the gall,
    # k - 2 possible positions for the reticulation node.  In the simplex
    # class the reticulation subtree is a single leaf, so only k - 1 children
    # receive the remaining n - 1 leaves (and the labeled leaf is one of n).
    if simplex:
        powers = _powers(spec, n - 1)
        for k in range(3, n + 1):
            _add_root_gall(sym, powers[k - 1], (k - 2) * (n if spec.is_labeled else 1))
    else:
        powers = _powers(spec, n)
        for k in range(3, n + 1):
            _add_root_gall(sym, powers[k], k - 2)

    # Mirror-symmetric root galls (unlabeled only): the reticulation sits at
    # the center and one side determines the other, so side galls count twice.
    # Stretching commutes with convolution, so the a mirrored children of a
    # side with s leaves contribute the stretched power P_a(s).
    if not spec.is_labeled:
        if simplex:
            if n % 2 == 1:
                half = (n - 1) // 2
                for a in range(1, half + 1):
                    _add_root_gall(sym, _stretch2(_power(spec, a, half)))
        else:
            # A palindromic composition of n into 2a + 1 parts: a mirrored
            # parts summing to s on each side and a center part of n - 2s.
            for a in range(1, (n - 1) // 2 + 1):
                for s in range(a, (n - 1) // 2 + 1):
                    mirrored = _stretch2(_power(spec, a, s))
                    _add_root_gall(sym, _conv(mirrored, rows[n - 2 * s]))

    # General class only: root gall with an empty sequence on one side.  The
    # reticulation node is pinned at the bottom of the single path, so the two
    # sides are distinguishable: no 1/2 factor, no palindromic correction.
    if general:
        for k in range(2, n + 1):
            _add_root_gall(extra, powers[k])

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
    return tuple(row)


def _get_row(spec: TreeClassSpec, n: int) -> Tuple[int, ...]:
    key = (spec, n)
    row = _row_cache.get(key)
    if row is None:
        for m in range(1, n):  # build bottom-up so recursion depth stays O(1)
            if (spec, m) not in _row_cache:
                _row_cache[(spec, m)] = _compute_row(spec, m)
        row = _compute_row(spec, n)
        _row_cache[key] = row
    return row


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

    The composition sums are evaluated as convolution powers of the prefix
    sequence, which keeps n ~ 25 cheap.
    """
    a = [0] * (max_n + 1)
    if max_n >= 1:
        a[1] = 1
    # S[(j, v)] = sum over compositions of v into j parts of prod a[c_i]
    memo: Dict[Tuple[int, int], int] = {}

    def comp_power(j, v):
        if j == 1:
            return a[v] if v >= 1 else 0
        key = (j, v)
        got = memo.get(key)
        if got is None:
            got = sum(comp_power(j - 1, v - i) * a[i] for i in range(1, v - j + 2))
            memo[key] = got
        return got

    for n in range(2, max_n + 1):
        s = sum(a[m] * a[n - m] for m in range(1, n))
        if n % 2 == 0:
            s += a[n // 2]
        s += sum((k - 2) * comp_power(k - 1, n - 1) for k in range(3, n + 1))
        if n % 2 == 1:
            half = (n - 1) // 2
            s += sum(comp_power(q, half) for q in range(1, half + 1))
        if s % 2:
            raise ArithmeticError(f"odd doubled sum at n={n}")
        a[n] = s // 2
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
    _power_cache.clear()
