"""Generating-function engines for galled-tree counting.

Each (network class, labeling) family gets three routes to the same numbers:

* ``solve_bivariate`` -- fixed point of the family's bivariate functional
  equation in (t, u), where u marks galls.  Unlabeled equations carry the
  (t^2, u^2) substitution terms coming from unordered pairs.
* ``fixed_g_series`` -- the explicit one-variable formula for a fixed number
  of galls g, assembled from convolutions of the lower ladder (each unordered
  pair of rungs once), weighted partitions with multinomial coefficients,
  parity guards, and (unlabeled) symmetric-half blocks in t^2.  Each
  partition sum is split by part count, and each part count's kernel, built
  once per ladder, multiplies its share in one product.  For g >= order the
  series is zero and no rung is built.
* ``closed_small_g`` -- the closed rational expressions in the base tree
  series available for g = 1, 2, for all three classes.

Each family's functional equation is written once, in ``_equation``:
``solve_bivariate`` evaluates it over ``BivariateSeries``, and
``arbitrary_galls_series`` over ``TruncatedSeries`` at u = 1, counting over
all gall numbers at once.  The g = 1, 2 closed forms are written once too, in
``_ring``, with the methods the fixed-g ladder runs on, and evaluated
over ``TruncatedSeries`` (unlabeled) and ``_Laurent`` polynomials in
v = sqrt(1 - 2t) (labeled).  ``fixed_g_counts``, the integer fast path for
large truncation orders that ``closed_small_g`` wraps as a series, reads the
labeled arrays off the Laurent terms, as ``labeled_fixed_g_count_at`` reads
one labeled count at a single n; ``unlabeled_fixed_g_count_at`` reads one
unlabeled count off the one held unlabeled ring with one dot product.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from types import SimpleNamespace
from typing import Dict, List, Tuple

from .comb import partition_multinomial, weighted_partitions
from .counts import Labeling, NetworkClass, TreeClassSpec, _cache_key, wedderburn_sequence
from .series import (
    BivariateSeries,
    TruncatedSeries,
    bivariate_fixed_point,
    fixed_point_solve,
    int_geom_inverse,
    int_mul,
    int_scale,
    int_substitute_t_squared,
)

HALF = Fraction(1, 2)

# The caches are keyed by the members' string values (`counts._cache_key`),
# which hash in C, not by Enum members, whose hash runs in Python.
_base_cache: Dict[Tuple[str, int], TruncatedSeries] = {}
_ladder_cache: Dict[Tuple[str, str, int], "_Ladder"] = {}


def base_tree_series(labeling: Labeling, order: int) -> TruncatedSeries:
    """Series of gall-free trees: OGF of unlabeled shapes or EGF of labeled trees."""
    key = (labeling._value_, order)
    got = _base_cache.get(key)
    if got is None:
        if labeling is Labeling.UNLABELED:
            got = fixed_point_solve(
                lambda f: (f.substitute_t_squared() + f * f).scale(HALF)
                + TruncatedSeries.t(order),
                order,
            )
        else:
            got = fixed_point_solve(
                lambda f: (f * f).scale(HALF) + TruncatedSeries.t(order), order
            )
        _base_cache[key] = got
    return got


def _equation(spec: TreeClassSpec, f, f2, t, mark):
    """Right side of the family's functional equation F = Phi(F), over
    `TruncatedSeries` or `BivariateSeries` alike.  f2 is F(t^2, u^2) for the
    unlabeled families and None for the labeled ones; mark multiplies by u,
    the gall marker, or is the identity at u = 1."""
    ff = f * f
    inv = f.geom_inverse()  # sequences of subtrees hanging off a gall path
    ffi = ff * inv
    paths = ffi * inv  # ordered pair of nonempty gall paths
    pairs = ff
    if f2 is not None:  # unordered pairs: add the symmetric halves
        pairs = pairs + f2
        paths = paths + f2 * f2.geom_inverse()
    cls = spec.network_class
    # below the reticulation: a pinned leaf (simplex) or a subtree
    gall = paths.shift_by_t() if cls is NetworkClass.SIMPLEX_TC else f * paths
    out = t + (pairs + mark(gall)).scale(HALF)
    if cls is NetworkClass.GENERAL:
        out = out + mark(ffi)  # root gall with one empty path
    return out


def solve_bivariate(spec: TreeClassSpec, t_order: int, u_order: int) -> BivariateSeries:
    """Fixed point of the family's bivariate equation; the coefficient of
    t^n u^g is the (n, g) count (divided by n! in the labeled case)."""
    if t_order < 1 or u_order < 0:
        raise ValueError("need t_order >= 1 and u_order >= 0")
    t = BivariateSeries.t(t_order, u_order)
    unlabeled = spec.labeling is Labeling.UNLABELED
    mark = operator.methodcaller("shift_by_u")  # on the solver's lazy series too

    def update(f):
        f2 = f.substitute_squared() if unlabeled else None
        return _equation(spec, f, f2, t, mark)

    return bivariate_fixed_point(update, t_order, u_order)


# -- derivative blocks --------------------------------------------------------
# (1/k!) D_x^k of the root-gall kernels, evaluated at the base series.  The
# closed power-law forms hold from k = 2 on; k = 0 and k = 1 pick up constant
# corrections, which is what makes the g = 1 ladder rung come out right.


def _dxk_both_paths(k: int, base: TruncatedSeries, inv_pows) -> TruncatedSeries:
    # kernel x^3 / (1-x)^2: both gall paths nonempty, subtree below the gall.
    out = inv_pows[k + 2].scale(k + 1) - inv_pows[k + 1].scale(3)
    if k == 0:
        out = out + base + 2
    elif k == 1:
        out = out + 1
    return out


def _dxk_one_empty(k: int, base: TruncatedSeries, inv_pows) -> TruncatedSeries:
    # kernel x^2 / (1-x): general-only root gall with one empty path.
    out = inv_pows[k + 1]
    if k == 0:
        out = out - base - 1
    elif k == 1:
        out = out - 1
    return out


def _dxk_pinned_leaf(k: int, inv_pows) -> TruncatedSeries:
    # kernel x^2 / (1-x)^2: simplex root gall (leaf below the reticulation).
    out = inv_pows[k + 2].scale(k + 1) - inv_pows[k + 1].scale(2)
    if k == 0:
        out = out + 1
    return out


def _dxk_seq(k: int, inv_pows) -> TruncatedSeries:
    # kernel x / (1-x): symmetric-half sequence block.
    out = inv_pows[k + 1]
    if k == 0:
        out = out - 1
    return out


class _Ladder(list):
    """Rungs 0..g of one family's fixed-g ladder at one order, rung 0 being
    the base tree series.  Every rung reads powers of 1 / (1 - base) (and,
    unlabeled, of 1 / (1 - base(t^2))), powers of lower rungs, the family's
    root-gall kernel for each part count ls and, unlabeled, the
    symmetric-half sum for each weight; those are kept here, each power one
    product from the one below it and each kernel and sum built the first
    time a rung reads it, and grown as later rungs need more of them.
    A rung's convolution of lower rungs forms each unordered pair once and
    reads the middle rung's square from the rung powers.  Zero and one come
    from the base, so it runs over `TruncatedSeries` and `_Laurent` alike."""

    __slots__ = ("inv_pows", "inv2_pows", "rung_pows", "kernels", "halves")

    def __init__(self, base: TruncatedSeries) -> None:
        super().__init__([base])
        self.inv_pows = [base.scale(0) + 1]
        self.inv2_pows = self.inv_pows[:]
        self.rung_pows: Dict[int, List[TruncatedSeries]] = {}
        self.kernels: Dict[int, TruncatedSeries] = {}
        self.halves: Dict[int, TruncatedSeries] = {}

    def inverse_powers(self, top: int, squared: bool = False) -> List[TruncatedSeries]:
        """(1 / (1 - b))^k for k = 0..top at least, b the base series or,
        squared, base(t^2)."""
        pows = self.inv2_pows if squared else self.inv_pows
        if len(pows) == 1:
            b = self[0].substitute_t_squared() if squared else self[0]
            pows.append(b.geom_inverse())
        while len(pows) <= top:
            pows.append(pows[-1] * pows[1])
        return pows

    def rung_pow(self, m: int, k: int) -> TruncatedSeries:
        pows = self.rung_pows.setdefault(m, [self[m]])  # pows[i] = rung m ^ (i + 1)
        while len(pows) < k:
            pows.append(pows[-1] * self[m])
        return pows[k - 1]

    def kernel(self, spec: TreeClassSpec, ls: int) -> TruncatedSeries:
        """The root-gall kernel of the ls-part terms: (1/ls!) D_x^ls of the
        family's root-gall kernels at the base series, halved where the two
        gall paths are interchangeable."""
        got = self.kernels.get(ls)
        if got is None:
            base, inv_pows = self[0], self.inverse_powers(ls + 2)
            if spec.network_class is NetworkClass.SIMPLEX_TC:
                got = _dxk_pinned_leaf(ls, inv_pows).shift_by_t().scale(HALF)
            else:
                got = _dxk_both_paths(ls, base, inv_pows).scale(HALF)
                if spec.network_class is NetworkClass.GENERAL:
                    got = got + _dxk_one_empty(ls, base, inv_pows)
            self.kernels[ls] = got
        return got


def _wp_product(ladder: _Ladder, wp, squared=False) -> TruncatedSeries:
    """Product of rung m to the power k over the items (m, k) of wp, taken at
    t^2 when squared ((f^k)(t^2) = f(t^2)^k); 1 for an empty wp."""
    factors = [ladder.rung_pow(m, k) for m, k in wp.items()]
    if squared:
        factors = [f.substitute_t_squared() for f in factors]
    return reduce(operator.mul, factors) if factors else ladder[0].scale(0) + 1


def _by_part_count(ladder: _Ladder, partitions, squared=False) -> Dict[int, TruncatedSeries]:
    """{ls: sum of multinomial(wp) * `_wp_product`(wp)} over the partitions
    wp with ls parts, so each part count's kernel multiplies its sum once
    (the split of a partition sum by part count, the partial Bell
    polynomials)."""
    sums: Dict[int, TruncatedSeries] = {}
    for wp in partitions:
        ls = sum(wp.values())
        term = _wp_product(ladder, wp, squared).scale(partition_multinomial(wp))
        sums[ls] = sums[ls] + term if ls in sums else term
    return sums


def _seq_sum(ladder: _Ladder, weight: int) -> TruncatedSeries:
    """The symmetric-half sum for an even weight: a partition of weight / 2
    read at t^2 is an even partition of weight.  One `_dxk_seq` product per
    part count; built once per ladder."""
    acc = ladder.halves.get(weight)
    if acc is None:
        inv2_pows = ladder.inverse_powers(weight + 1, squared=True)
        acc = ladder[0].scale(0)
        for sr, s in _by_part_count(ladder, weighted_partitions(weight // 2), squared=True).items():
            acc = acc + _dxk_seq(sr, inv2_pows) * s
        ladder.halves[weight] = acc
    return acc


def fixed_g_series(spec: TreeClassSpec, g: int, order: int) -> TruncatedSeries:
    """Series counting networks with exactly g galls, from the explicit
    fixed-g formula; the whole ladder 1..g is computed and memoized, with the
    inverse and rung powers and the kernels its rungs share (`_Ladder`).
    Every family has at most n - 1 galls on n leaves, so for g >= order the
    series is zero through t^order and no rung is built."""
    if g < 1:
        raise ValueError("fixed_g_series needs g >= 1; g = 0 is the base tree series")
    if order < 0:
        raise ValueError(f"need order >= 0, got {order}")
    if g >= order:
        return TruncatedSeries.zero(order)
    key = _cache_key(spec, order)
    ladder = _ladder_cache.get(key)
    if ladder is None:
        ladder = _ladder_cache[key] = _Ladder(base_tree_series(spec.labeling, order))
    while len(ladder) <= g:
        ladder.append(_next_rung(spec, ladder))
    return ladder[g]


def _next_rung(spec: TreeClassSpec, ladder: _Ladder) -> TruncatedSeries:
    g = len(ladder)
    unlabeled = spec.labeling is Labeling.UNLABELED

    # half the sum of rung l times rung g - l over 1 <= l < g: each unordered
    # pair once, and the middle rung squared at half weight
    bracket = ladder[0].scale(0)
    for l in range(1, (g + 1) // 2):
        bracket = bracket + ladder[l] * ladder[g - l]
    if g % 2 == 0:
        middle = ladder.rung_pow(g // 2, 2)
        if unlabeled:
            middle = middle + ladder[g // 2].substitute_t_squared()
        bracket = bracket + middle.scale(HALF)

    for ls, s in _by_part_count(ladder, weighted_partitions(g - 1)).items():
        bracket = bracket + ladder.kernel(spec, ls) * s

    if unlabeled:
        if spec.network_class is NetworkClass.SIMPLEX_TC:
            if g % 2 == 1:
                bracket = bracket + _seq_sum(ladder, g - 1).shift_by_t().scale(HALF)
        else:
            for b in range(0, (g - 1) // 2 + 1):
                bracket = bracket + (ladder[g - 2 * b - 1] * _seq_sum(ladder, 2 * b)).scale(HALF)

    return ladder.inverse_powers(1)[1] * bracket


def closed_small_g(spec: TreeClassSpec, g: int, order: int) -> TruncatedSeries:
    """Closed rational expression in the base tree series, g in {1, 2} only:
    the `fixed_g_counts` array as a series, divided by n! when labeled."""
    counts = fixed_g_counts(spec, g, order)
    if spec.is_labeled:
        counts = [Fraction(c, math.factorial(n)) for n, c in enumerate(counts)]
    return TruncatedSeries(counts)


def arbitrary_galls_series(spec: TreeClassSpec, order: int) -> TruncatedSeries:
    """Fixed point of the u = 1 equation: coefficient n is the total count
    over all gall numbers (divided by n! in the labeled case)."""
    if order < 1:
        raise ValueError("need order >= 1")
    t = TruncatedSeries.t(order)
    unlabeled = spec.labeling is Labeling.UNLABELED

    def update(f):
        f2 = f.substitute_t_squared() if unlabeled else None
        return _equation(spec, f, f2, t, lambda x: x)

    return fixed_point_solve(update, order)


# ---------------------------------------------------------------------------
# The g = 1, 2 closed forms, written once.  Every u^k inv^k in them, with u
# the base tree series and inv = 1 / (1 - u), is w^k for w = inv - 1 =
# u / (1 - u), and likewise u(t^2) inv(t^2) = w2 = inv(t^2) - 1 = w(t^2), so
#   general  e1 = 1/2 w (w^2 + 2w + w2)
#            e2 = 1/2 inv (e1 (e1 + w^2 + w2 + 2w + 2p) + e1(t^2))
#   tc       e1 = 1/2 w (w^2 + w2)   (time-consistent: general without mark(ffi))
#            e2 = 1/2 inv (e1 (e1 + 3w^2 + 2w^3 + w2) + e1(t^2))
#   simplex  e1 = 1/2 t inv (w^2 + w2)
#            e2 = 1/2 inv (e1 (e1 + 2t p) + e1(t^2))
# with p = inv (w^2 + w) = w inv^2; w2 and the e1(t^2) terms drop out for
# the labeled families.  Since inv = 1 + w, the products w^3 = w w^2 and
# ww2 = w w2 give p = w^3 + 2w^2 + w and the g = 1 forms as plain sums:
#   tc e1 = 1/2 (w^3 + ww2),  general e1 = tc e1 + w^2,  simplex e1 = t (tc e1 + 1/2 (w^2 + w2))
# `_ring` evaluates these, and each family's g = 2 cofactor (the factor
# after e1 in e2), from inv with the methods the ladder runs on, the t^2
# terms only when squared.  g = 2 takes two more products: `_inner` =
# e1 cof (+ e1(t^2)), kept on the ring, and 2 e2 = inv `_inner`.  Two
# classes carry a ring:
# * `TruncatedSeries` through t^order for the unlabeled families.  One ring,
#   at least as high as every order asked for, is held and shared by the
#   families.  Below NEWTON_MIN its inv comes from the two recurrences
#   (`wedderburn_sequence`, `int_geom_inverse`), and the six series cost 9
#   products and 1 geometric inverse in all; from NEWTON_MIN on,
#   `_base_and_inverse` lifts U and inv by Newton steps of 4 products each
#   from the recurrences below NEWTON_MIN.  A single count skips the last
#   product: g = 1 is an entry of e1, and g = 2 half of one dot product of
#   inv with `_inner` (`unlabeled_fixed_g_count_at`).
# * `_Laurent` polynomials in v = sqrt(1 - 2t) for the labeled families,
#   whose base series is 1 - v: inv = 1/v and t = (1 - v^2) / 2.  Each form
#   is 4 to 8 terms c_k v^k, and n! [t^n] v^k = prod_{j<n} (2j - k) is a
#   running product in n, so counts are read off the terms, one or all
#   through t^order, without a series product.
# ---------------------------------------------------------------------------


def _ring(inv, squared: bool) -> SimpleNamespace:
    w = inv - 1
    ww = w * w
    www = w * ww
    w2 = w.substitute_t_squared() if squared else 0
    e1t = (www + w * w2).scale(HALF)
    e1s = (e1t + (ww + w2).scale(HALF)).shift_by_t()
    coft = e1t + ww.scale(3) + www.scale(2) + w2
    p = www + ww.scale(2) + w
    del www  # at large orders these series are most of the live memory
    # keyed by class value: the g = 1 form, the g = 2 cofactor of e1 and `_inner`
    return SimpleNamespace(
        inv=inv, squared=squared, inner={},
        e1={"general": e1t + ww, "time-consistent": e1t, "simplex-tc": e1s},
        cof={"general": coft + ww.scale(3) + w.scale(4), "time-consistent": coft,
             "simplex-tc": e1s + p.shift_by_t().scale(2)},
    )


def _inner(ring: SimpleNamespace, cls: str):
    """e1 cof (+ e1(t^2)), whose product with inv is twice e2; built once
    per ring and family."""
    got = ring.inner.get(cls)
    if got is None:
        e1 = ring.e1[cls]
        got = e1 * ring.cof[cls]
        if ring.squared:
            got = got + e1.substitute_t_squared()
        ring.inner[cls] = got
    return got


# Orders at or above this lift U and 1 / (1 - U) by Newton iteration.  One
# Newton step from half the order first beat the two recurrences by 10% or
# more at order 400 (fastest of 31 interleaved runs per order, 250 to 450;
# 2-vCPU Xeon, CPython 3.11); from 300 to 400 the two were within noise.
NEWTON_MIN = 400


def _base_and_inverse(order: int) -> Tuple[List[int], List[int]]:
    """(U, H) through t^order, U = t + 1/2 (U^2 + U(t^2)) the unlabeled base
    series and H = 1 / (1 - U): below NEWTON_MIN from the recurrences, and
    from NEWTON_MIN on by one coupled Newton step (Pivoteau, Salvy & Soria,
    JCTA 119(8), 2012) from (U, H) through t^k, k = order // 2.  With r the
    t^(k+1..order) part of 1/2 (U^2 + U(t^2)),
        U <- U + r H,    H <- H + H e,
    e the t^(k+1..order) part of U H for the new U.  Both are exact through
    t^(2k+1) >= t^order, since U's error has valuation k + 1 and enters the
    equation squared or at t^2.  Every operand is nonnegative, so each
    product can run on the Kronecker kernel."""
    if order < NEWTON_MIN:
        u = wedderburn_sequence(order)
        return u, int_geom_inverse(u, order)
    k = order // 2
    u, h = _base_and_inverse(k)
    sq, u2 = int_mul(u, u, order), int_substitute_t_squared(u, order)
    r = [0] * (k + 1) + int_scale([a + b for a, b in zip(sq[k + 1 :], u2[k + 1 :])], 1, 2)
    u = u + int_mul(r, h, order)[k + 1 :]
    e = [0] * (k + 1) + int_mul(u, h, order)[k + 1 :]
    return u, h + int_mul(h, e, order)[k + 1 :]


# The one unlabeled ring, at the highest order asked for so far.
_ring_cache: List[SimpleNamespace] = []


def _unlabeled_ring(order: int) -> SimpleNamespace:
    """The held ring if it reaches t^order, else a new ring at max(order,
    twice the held order) that replaces it: a rising sweep builds few rings."""
    if not _ring_cache or _ring_cache[0].inv.order < order:
        order = max([order] + [2 * r.inv.order for r in _ring_cache])
        _ring_cache.clear()  # first, so the two rings are never both held
        _ring_cache.append(_ring(TruncatedSeries._make(_base_and_inverse(order)[1], 1), True))
    return _ring_cache[0]


def _check_closed_form(g: int, order: int) -> None:
    if g not in (1, 2):
        raise ValueError(f"closed forms exist for g in {{1, 2}}, got {g}")
    if order < 0:
        raise ValueError(f"need order >= 0, got {order}")


def fixed_g_counts(spec: TreeClassSpec, g: int, order: int) -> List[int]:
    """Exact counts with g galls (g in {1, 2}) through t^order, as integers
    (n! times the coefficient for the labeled families)."""
    _check_closed_form(g, order)
    if spec.is_labeled:
        den, terms = _laurent_terms(spec, g)
        acc = [0] * (order + 1)
        for k, c in terms:  # c n! [t^n] v^k, one factor per step in n
            for n in range(order + 1):
                acc[n] += c
                c *= 2 * n - k
        return [_exact_count(a, den, n) for n, a in enumerate(acc)]
    ring, cls = _unlabeled_ring(order), spec.network_class._value_
    if g == 1:
        return ring.e1[cls].truncate(order).integer_coefficients()
    # the held ring may reach past order; the product stops at t^order
    return (ring.inv.truncate(order) * _inner(ring, cls)).scale(HALF).integer_coefficients()


def unlabeled_fixed_g_count_at(spec: TreeClassSpec, g: int, n: int, order: int) -> int:
    """Exact unlabeled count with g galls (g in {1, 2}) at one n <= order,
    off the held ring: an entry of e1 for g = 1, and for g = 2 half the dot
    product sum_i inv[i] `_inner`[n - i], with no full-length product by
    inv."""
    _check_closed_form(g, order)
    if spec.is_labeled or not 0 <= n <= order:
        raise ValueError(f"need an unlabeled family and 0 <= n <= order, got n={n}, order={order}")
    ring, cls = _unlabeled_ring(order), spec.network_class._value_
    if g == 1:
        e1 = ring.e1[cls]
        return _exact_count(e1.nums[n], e1.den, n)
    inv, inner = ring.inv, _inner(ring, cls)
    twice = sum(map(operator.mul, inv.nums[: n + 1], inner.nums[n::-1]))
    return _exact_count(twice, 2 * inv.den * inner.den, n)


class _Laurent(dict):
    """A Laurent polynomial in v = sqrt(1 - 2t), {exponent of v: Fraction}
    with no zero terms, with the ladder's methods.  The labeled base series is
    1 - v and t = (1 - v^2) / 2, so the closed forms and the ladder evaluate
    over it exactly (Flajolet & Sedgewick, Analytic Combinatorics, ch. VI)."""

    @classmethod
    def _sum(cls, terms) -> "_Laurent":
        acc: Dict[int, Fraction] = {}
        for k, c in terms:
            acc[k] = acc.get(k, 0) + c
        return cls((k, c) for k, c in acc.items() if c)

    def __add__(self, other) -> "_Laurent":
        more = other.items() if isinstance(other, _Laurent) else [(0, other)]
        return _Laurent._sum([*self.items(), *more])

    def __sub__(self, other) -> "_Laurent":
        return self + other * -1

    def __mul__(self, other) -> "_Laurent":
        if not isinstance(other, _Laurent):
            return self.scale(other)
        return _Laurent._sum((i + j, x * y) for i, x in self.items() for j, y in other.items())

    def scale(self, c) -> "_Laurent":
        return _Laurent._sum((k, c * x) for k, x in self.items())

    def shift_by_t(self) -> "_Laurent":
        return self * _Laurent({0: HALF, 2: -HALF})

    def geom_inverse(self) -> "_Laurent":
        """1 / (1 - f) for f = 1 - c v^k: v^(-k) / c."""
        ((k, c),) = (self * -1 + 1).items()
        return _Laurent({-k: Fraction(1) / c})


def _labeled_laurent(spec: TreeClassSpec, g: int) -> _Laurent:
    if spec.labeling is not Labeling.LEAF_LABELED:
        raise ValueError("laurent closed forms cover the labeled families")
    if g not in (1, 2):
        raise ValueError(f"need g in {{1, 2}}, got {g}")
    ring, cls = _ring(_Laurent({-1: Fraction(1)}), False), spec.network_class._value_
    return ring.e1[cls] if g == 1 else (ring.inv * _inner(ring, cls)).scale(HALF)


_laurent_cache: Dict[Tuple[str, str, int], Tuple[int, Tuple[Tuple[int, int], ...]]] = {}


def _laurent_terms(spec: TreeClassSpec, g: int) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """(den, ((k, den c_k), ...)): the labeled Laurent form sum c_k v^k over
    the lcm den of its denominators, so its counts accumulate as integers.
    Built once per (family, g)."""
    key = _cache_key(spec, g)
    got = _laurent_cache.get(key)
    if got is None:
        laurent = _labeled_laurent(spec, g)
        den = math.lcm(*(c.denominator for c in laurent.values()))
        terms = tuple((k, c.numerator * (den // c.denominator)) for k, c in laurent.items())
        got = _laurent_cache[key] = (den, terms)
    return got


def _exact_count(acc: int, den: int, n: int) -> int:
    q, r = divmod(acc, den)
    if r:
        raise ValueError(f"non-integer count at n={n}: {Fraction(acc, den)}")
    return q


def labeled_fixed_g_count_at(spec: TreeClassSpec, g: int, n: int) -> int:
    """Exact labeled count at a single n via the closed singular expansion."""
    den, terms = _laurent_terms(spec, g)
    acc = 0
    for k, c in terms:
        for j in range(n):  # n! [t^n] (1 - 2t)^(k/2)
            c *= 2 * j - k
        acc += c
    return _exact_count(acc, den, n)


def clear_caches() -> None:
    _base_cache.clear()
    _ladder_cache.clear()
    _ring_cache.clear()
    _laurent_cache.clear()
