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

All three start from the gall-free base series and 1 / (1 - base), held
once per labeling (`_context`) and seeding every ladder: unlabeled, U = t +
1/2 (U^2 + U(t^2)) and its inverse from one Newton lift ``_base_and_inverse``
at the highest order asked for; labeled, the Laurent constants
``_LABELED_BASE`` = 1 - v and 1/v in v = sqrt(1 - 2t).
Each family's functional equation is written once, in ``_equation``:
``solve_bivariate`` evaluates it over ``BivariateSeries``, and
``arbitrary_galls_series`` over ``TruncatedSeries`` at u = 1, counting over
all gall numbers at once.  The g = 1, 2 closed forms are written once too, in
``_ring``, with the methods the fixed-g ladder runs on, and evaluated over
each held context's inverse: ``TruncatedSeries`` (unlabeled) and ``_Laurent``
polynomials in v (labeled).  ``fixed_g_counts``, the integer fast path for
large truncation orders that ``closed_small_g`` wraps as a series, reads the
labeled arrays off the Laurent terms; ``fixed_g_count_at`` reads one count at
a single n, labeled off the same terms and unlabeled off the held ring with
at most two dot products.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from types import SimpleNamespace
from typing import Dict, List, Tuple

from .comb import partition_multinomial, weighted_partitions
from .counts import Labeling, NetworkClass, TreeClassSpec, _cache_key
from .series import (
    BivariateSeries,
    TruncatedSeries,
    bivariate_fixed_point,
    fixed_point_solve,
    int_mul,
    int_scale,
    int_substitute_t_squared,
)

HALF = Fraction(1, 2)

# an unlabeled ratio at order 8000 took 42 s and 202 MB, and a labeled one at
# n = 8000 0.15 s, about 4x per doubling of n (2-vCPU Xeon, CPython 3.11); the
# held unlabeled context grows on its own no further than this order
RATIO_MAX_ORDER = 8000

# One context per labeling and one ladder per family and order, keyed by the
# members' string values (`counts._cache_key`), which hash in C, not in Python.
_base_cache: Dict[str, SimpleNamespace] = {}
_ladder_cache: Dict[Tuple[str, str, int], "_Ladder"] = {}


def base_tree_series(labeling: Labeling, order: int) -> TruncatedSeries:
    """Series of gall-free trees: OGF of unlabeled shapes (the Newton lift's
    U) or EGF of labeled trees (the counts of `_LABELED_BASE` over n!)."""
    return _base_pair(labeling, order)[0]


def _base_pair(labeling: Labeling, order: int) -> Tuple[TruncatedSeries, TruncatedSeries]:
    """The base series and 1 / (1 - base) through t^order off the held
    context: unlabeled, truncated; labeled, the EGFs of its Laurent terms."""
    if order < 0:
        raise ValueError(f"need order >= 0, got {order}")
    ctx = _context(labeling, order)
    if labeling is Labeling.UNLABELED:
        return ctx.base.truncate(order), ctx.inv.truncate(order)
    return tuple(_egf_series(_laurent_counts(f, order)) for f in (ctx.base, ctx.inv))


def _context(labeling: Labeling, order: int) -> SimpleNamespace:
    """The labeling's held base series, its 1 / (1 - base) and the g = 1, 2
    ring over that inverse (`_held_ring`), None until a closed form reads it.
    Labeled, the pair is the Laurent constants 1 - v and 1/v, exact at every
    order.  Unlabeled, it is U and 1 / (1 - U) from one Newton lift at the
    highest order asked for so far; an order past it drops the context, ring
    and all, and lifts again at max(order, min(twice the held order,
    `RATIO_MAX_ORDER`)), so a rising sweep lifts few times."""
    key = labeling._value_
    ctx = _base_cache.get(key)
    if ctx is None or labeling is Labeling.UNLABELED and ctx.base.order < order:
        if labeling is Labeling.LEAF_LABELED:
            pair = _LABELED_BASE, _LABELED_BASE.geom_inverse()
        else:
            if ctx is not None:
                order = max(order, min(2 * ctx.base.order, RATIO_MAX_ORDER))
                del _base_cache[key], ctx  # first, so two lifts are never both held
            pair = [TruncatedSeries._make(x, 1) for x in _base_and_inverse(order)]
        ctx = _base_cache[key] = SimpleNamespace(base=pair[0], inv=pair[1], ring=None)
    return ctx


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
    the base tree series, seeded with 1 / (1 - base).  Every rung reads its
    powers (and, unlabeled, those of 1 / (1 - base(t^2))), powers of lower
    rungs, the family's root-gall kernel for each part count ls and,
    unlabeled, the symmetric-half sum for each weight; those are kept here,
    each power one product from the one below it and each kernel and sum
    built the first time a rung reads it, and grown as later rungs need more
    of them.  A rung's convolution of lower rungs forms each unordered pair
    once and reads the middle rung's square from the rung powers.  Zero and
    one come from the base, so it runs over `TruncatedSeries` and `_Laurent`
    alike."""

    __slots__ = ("inv_pows", "inv2_pows", "rung_pows", "kernels", "halves")

    def __init__(self, base: TruncatedSeries, inv: TruncatedSeries) -> None:
        super().__init__([base])
        one = base.scale(0) + 1
        self.inv_pows = [one, inv]
        self.inv2_pows = [one]
        self.rung_pows: Dict[int, List[TruncatedSeries]] = {}
        self.kernels: Dict[int, TruncatedSeries] = {}
        self.halves: Dict[int, TruncatedSeries] = {}

    def inverse_powers(self, top: int, squared: bool = False) -> List[TruncatedSeries]:
        """(1 / (1 - b))^k for k = 0..top at least, b the base series or,
        squared, base(t^2)."""
        pows = self.inv2_pows if squared else self.inv_pows
        if len(pows) == 1:  # 1 / (1 - b(t^2)) is (1 / (1 - b))(t^2)
            pows.append(self.inv_pows[1].substitute_t_squared())
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
    polynomials).  A partition is skipped when its product vanishes through
    the ladder's order, the sum of k val(rung m) (doubled when squared)
    passing it; a `_Laurent` ladder has no order and skips none."""
    top = getattr(ladder[0], "order", None)
    if top is not None:
        vals = [next((i for i, x in enumerate(r.nums) if x), top + 1) for r in ladder]
    sums: Dict[int, TruncatedSeries] = {}
    for wp in partitions:
        if top is not None and (1 + squared) * sum(k * vals[m] for m, k in wp.items()) > top:
            continue
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
        ladder = _ladder_cache[key] = _Ladder(*_base_pair(spec.labeling, order))
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

    return ladder.inv_pows[1] * bracket


def closed_small_g(spec: TreeClassSpec, g: int, order: int) -> TruncatedSeries:
    """Closed rational expression in the base tree series, g in {1, 2} only:
    the `fixed_g_counts` array as a series, divided by n! when labeled."""
    counts = fixed_g_counts(spec, g, order)
    return _egf_series(counts) if spec.is_labeled else TruncatedSeries(counts)


def _egf_series(counts: List[int]) -> TruncatedSeries:
    """sum counts[n] t^n / n!."""
    return TruncatedSeries([Fraction(c, math.factorial(n)) for n, c in enumerate(counts)])


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
# terms only when squared.  With y = inv e1, twice e2 is
#   2 e2 = inv (e1 cof + e1(t^2)) = y cof + inv e1(t^2),
# and y needs no product of its own: inv = 1 + w makes the time-consistent
# yt = e1t + w e1t, and the other two sums of yt and the ring's series
# (`_inv_e1`), so one product, w e1t, serves all three.  Each labeling's
# held context carries one ring over its inv (`_held_ring`):
# * `TruncatedSeries` through the held order for the unlabeled families,
#   shared by the families and read, truncated, at lower orders.  Its inv
#   comes from `_base_and_inverse`, which lifts U and inv from t by Newton
#   steps of 4 products each; the ring then costs 3 products.  An array
#   (`fixed_g_counts`) takes 2 more per g = 2 family, e1 cof and inv times
#   the bracket; y cof and inv e1(t^2) would take as many, and w e1t too.
#   A single count (`fixed_g_count_at`) takes none past w e1t: g = 1 is an
#   entry of e1, and g = 2 half the dot product of y with cof plus the
#   half-length one of inv with e1(t^2).
# * `_Laurent` polynomials in v = sqrt(1 - 2t) for the labeled families,
#   whose base series is `_LABELED_BASE` = 1 - v: inv = 1/v and
#   t = (1 - v^2) / 2.  Each form is 4 to 8 terms c_k v^k, read off as
#   counts by `_laurent_counts` without a series product.
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
    # keyed by class value: the g = 1 form, the g = 2 cofactor of e1 and `_inv_e1`
    return SimpleNamespace(
        inv=inv, squared=squared, y={},
        e1={"general": e1t + ww, "time-consistent": e1t, "simplex-tc": e1s},
        cof={"general": coft + ww.scale(3) + w.scale(4), "time-consistent": coft,
             "simplex-tc": e1s + p.shift_by_t().scale(2)},
    )


def _inv_e1(ring: SimpleNamespace, cls: str) -> TruncatedSeries:
    """y = inv e1 of the family cls.  The first g = 2 read of any family
    builds all three from one product, w e1t, and the ring's series:
        tc       yt = e1t + w e1t
        general  yt + inv ww,  inv ww = ww + www = 1/2 (cof tc - e1 general - w2)
        simplex  e1s + t yt,   as w e1s / t = w e1t + 1/2 (www + ww2) = w e1t + e1t."""
    if not ring.y:
        e1, cof = ring.e1, ring.cof
        yt = e1["time-consistent"] + (ring.inv - 1) * e1["time-consistent"]
        w2 = ring.inv.substitute_t_squared() - 1 if ring.squared else 0
        inv_ww = (cof["time-consistent"] - e1["general"] - w2).scale(HALF)
        ring.y = {"general": yt + inv_ww, "time-consistent": yt,
                  "simplex-tc": e1["simplex-tc"] + yt.shift_by_t()}
    return ring.y[cls]


def _base_and_inverse(order: int) -> Tuple[List[int], List[int]]:
    """(U, H) through t^order, U = t + 1/2 (U^2 + U(t^2)) the unlabeled base
    series and H = 1 / (1 - U): (t, 1 + t) through t^1, and above that one
    coupled Newton step (Pivoteau, Salvy & Soria, JCTA 119(8), 2012) from
    (U, H) through t^k, k = order // 2.  With r the t^(k+1..order) part of
    1/2 (U^2 + U(t^2)),
        U <- U + r H,    H <- H + H e,
    e the t^(k+1..order) part of U H for the new U.  Both are exact through
    t^(2k+1) >= t^order, since U's error has valuation k + 1 and enters the
    equation squared or at t^2.  Every operand is nonnegative, so each
    product can run on the Kronecker kernel."""
    if order < 2:
        return [0, 1][: order + 1], [1, 1][: order + 1]
    k = order // 2
    u, h = _base_and_inverse(k)
    sq, u2 = int_mul(u, u, order), int_substitute_t_squared(u, order)
    r = [0] * (k + 1) + int_scale([a + b for a, b in zip(sq[k + 1 :], u2[k + 1 :])], 1, 2)
    u = u + int_mul(r, h, order)[k + 1 :]
    e = [0] * (k + 1) + int_mul(u, h, order)[k + 1 :]
    return u, h + int_mul(h, e, order)[k + 1 :]


def _held_ring(labeling: Labeling, order: int) -> SimpleNamespace:
    """The ring on the held context reaching t^order, built when first read."""
    ctx = _context(labeling, order)
    if ctx.ring is None:
        ctx.ring = _ring(ctx.inv, labeling is Labeling.UNLABELED)
    return ctx.ring


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
        return _laurent_counts(_labeled_laurent(spec, g), order)
    ring, cls = _held_ring(Labeling.UNLABELED, order), spec.network_class._value_
    # the held ring may reach past order; every product stops at t^order
    e1 = ring.e1[cls].truncate(order)
    if g == 1:
        return e1.integer_coefficients()
    inner = e1 * ring.cof[cls].truncate(order) + e1.substitute_t_squared()
    return (ring.inv.truncate(order) * inner).scale(HALF).integer_coefficients()


def fixed_g_count_at(spec: TreeClassSpec, g: int, n: int, order: int) -> int:
    """Exact count with g galls (g in {1, 2}) at one n, 0 <= n <= order, with
    no product of its own: labeled, off the Laurent terms through t^n;
    unlabeled, off the held ring, an entry of e1 for g = 1 and for g = 2 half
    of 2 e2 = y cof + inv e1(t^2) at n, y = inv e1 (`_inv_e1`): the dot
    product sum_i y[i] cof[n - i] plus the half-length sum_j inv[n - 2j] e1[j]."""
    _check_closed_form(g, order)
    if not 0 <= n <= order:
        raise ValueError(f"need 0 <= n <= order, got n={n}, order={order}")
    if spec.is_labeled:
        return _laurent_counts(_labeled_laurent(spec, g), n, n)[0]
    ring, cls = _held_ring(Labeling.UNLABELED, order), spec.network_class._value_
    e1 = ring.e1[cls]
    if g == 1:
        return _exact_count(e1.nums[n], e1.den, n)
    y, cof, inv = _inv_e1(ring, cls), ring.cof[cls], ring.inv
    a = sum(map(operator.mul, y.nums[: n + 1], cof.nums[n::-1]))
    b = sum(map(operator.mul, inv.nums[n::-2], e1.nums[: n // 2 + 1]))
    da, db = y.den * cof.den, inv.den * e1.den
    return _exact_count(a * db + b * da, 2 * da * db, n)


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


# The labeled base series 1 - sqrt(1 - 2t).
_LABELED_BASE = _Laurent({0: Fraction(1), 1: Fraction(-1)})


def _labeled_laurent(spec: TreeClassSpec, g: int) -> _Laurent:
    """The labeled g = 1, 2 closed form over `_LABELED_BASE`, off its ring."""
    if spec.labeling is not Labeling.LEAF_LABELED:
        raise ValueError("laurent closed forms cover the labeled families")
    _check_closed_form(g, 0)
    ring, cls = _held_ring(Labeling.LEAF_LABELED, 0), spec.network_class._value_
    return ring.e1[cls] if g == 1 else (_inv_e1(ring, cls) * ring.cof[cls]).scale(HALF)


def _laurent_counts(laurent: _Laurent, order: int, first: int = 0) -> List[int]:
    """n! [t^n] of sum c_k v^k for n = first..order, exact integers.  Over
    the lcm den of the c_k's denominators each term den c_k n! [t^n] v^k =
    den c_k prod_{j<n} (2j - k) is a running int product in n.  Its head
    at n = first comes, going down in k, from the term with k + 2's head
    times (2 first - 2 - k) / (-k - 2); a new product starts where that
    neighbour is missing or zero, or k = -2."""
    den = math.lcm(*(c.denominator for c in laurent.values()))
    acc = [0] * (order + 1 - first)
    heads: Dict[int, int] = {}
    for k, c in sorted(laurent.items(), reverse=True):
        up = heads.get(k + 2)
        if up and k != -2:
            heads[k] = up * (2 * first - 2 - k) // (-k - 2)
        else:
            heads[k] = math.prod(range(-k, 2 * first - k, 2))
        c = c.numerator * (den // c.denominator) * heads[k]
        for n in range(first, order + 1):  # one factor per step in n
            acc[n - first] += c
            c *= 2 * n - k
    return [_exact_count(a, den, n) for n, a in enumerate(acc, first)]


def _exact_count(acc: int, den: int, n: int) -> int:
    q, r = divmod(acc, den)
    if r:
        raise ValueError(f"non-integer count at n={n}: {Fraction(acc, den)}")
    return q


def clear_caches() -> None:
    _base_cache.clear()
    _ladder_cache.clear()
