"""Generating-function engines for galled-tree counting.

Each (network class, labeling) family gets three routes to the same numbers:

* ``solve_bivariate`` -- fixed point of the family's bivariate functional
  equation in (t, u), where u marks galls.  Unlabeled equations carry the
  (t^2, u^2) substitution terms coming from unordered pairs.
* ``fixed_g_series`` -- the explicit one-variable formula for a fixed number
  of galls g, assembled from convolutions of the lower ladder, weighted
  partitions with multinomial coefficients, parity guards, and (unlabeled)
  symmetric-half blocks in t^2.
* ``closed_small_g`` -- the closed rational expressions in the base tree
  series available for g = 1, 2.

``arbitrary_galls_series`` solves the u = 1 equation, counting over all gall
numbers at once.  ``fixed_g_counts`` is the integer fast path for large
truncation orders, used by the asymptotic ratio studies.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from types import SimpleNamespace
from typing import Dict, List, Tuple

from .comb import even_weighted_partitions, partition_multinomial, weighted_partitions
from .counts import Labeling, NetworkClass, TreeClassSpec, labeled_tree_count, wedderburn_sequence
from .series import (
    BivariateSeries,
    TruncatedSeries,
    bivariate_fixed_point,
    egf_geom_inverse,
    egf_mul,
    egf_shift_t,
    fixed_point_solve,
    int_geom_inverse,
    int_mul,
    int_shift_t,
    int_substitute_t_squared,
)

HALF = Fraction(1, 2)

_base_cache: Dict[Tuple[Labeling, int], TruncatedSeries] = {}
_ladder_cache: Dict[Tuple[NetworkClass, Labeling, int], List[TruncatedSeries]] = {}


def base_tree_series(labeling: Labeling, order: int) -> TruncatedSeries:
    """Series of gall-free trees: OGF of unlabeled shapes or EGF of labeled trees."""
    key = (labeling, order)
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


def solve_bivariate(spec: TreeClassSpec, t_order: int, u_order: int) -> BivariateSeries:
    """Fixed point of the family's bivariate equation; the coefficient of
    t^n u^g is the (n, g) count (divided by n! in the labeled case)."""
    if t_order < 1 or u_order < 0:
        raise ValueError("need t_order >= 1 and u_order >= 0")
    t = BivariateSeries.t(t_order, u_order)
    cls = spec.network_class

    if spec.labeling is Labeling.UNLABELED:

        def update(f):
            f2 = f.substitute_squared()
            out = t + (f * f + f2).scale(HALF)
            if cls is NetworkClass.SIMPLEX_TC:
                q = f * f.geom_inverse()
                gall = (q * q + f2 * f2.geom_inverse()).scale(HALF)
                out = out + gall.shift_by_t().shift_by_u()
            else:
                q = f * f.geom_inverse()
                gall = (f * (q * q + f2 * f2.geom_inverse())).scale(HALF)
                out = out + gall.shift_by_u()
                if cls is NetworkClass.GENERAL:
                    out = out + (f * f * f.geom_inverse()).shift_by_u()
            return out

    else:

        def update(f):
            out = t + (f * f).scale(HALF)
            q = f * f.geom_inverse()
            if cls is NetworkClass.SIMPLEX_TC:
                out = out + (q * q).scale(HALF).shift_by_t().shift_by_u()
            else:
                out = out + (f * q * q).scale(HALF).shift_by_u()
                if cls is NetworkClass.GENERAL:
                    out = out + (f * f * f.geom_inverse()).shift_by_u()
            return out

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


def _inverse_powers(base: TruncatedSeries, top: int) -> List[TruncatedSeries]:
    inv = base.geom_inverse()  # 1 / (1 - base)
    pows = [TruncatedSeries.one(base.order), inv]
    for _ in range(top - 1):
        pows.append(pows[-1] * inv)
    return pows


def _wp_product(ladder, wp, squared=False) -> TruncatedSeries:
    order = ladder[0].order
    out = TruncatedSeries.one(order)
    for m, mult in wp.items():
        e = ladder[m].substitute_t_squared() if squared else ladder[m]
        out = out * e.pow(mult)
    return out


def fixed_g_series(spec: TreeClassSpec, g: int, order: int) -> TruncatedSeries:
    """Series counting networks with exactly g galls, from the explicit
    fixed-g formula; the whole ladder 1..g is computed and memoized."""
    if g < 1:
        raise ValueError("fixed_g_series needs g >= 1; g = 0 is the base tree series")
    key = (spec.network_class, spec.labeling, order)
    ladder = _ladder_cache.setdefault(key, [base_tree_series(spec.labeling, order)])
    while len(ladder) <= g:
        ladder.append(_next_rung(spec, ladder, order))
    return ladder[g]


def _next_rung(spec: TreeClassSpec, ladder, order: int) -> TruncatedSeries:
    g = len(ladder)
    base = ladder[0]
    unlabeled = spec.labeling is Labeling.UNLABELED
    simplex = spec.network_class is NetworkClass.SIMPLEX_TC
    general = spec.network_class is NetworkClass.GENERAL
    inv_pows = _inverse_powers(base, g + 2)
    if unlabeled:
        base2 = base.substitute_t_squared()
        inv2_pows = _inverse_powers(base2, g + 1)

    bracket = TruncatedSeries.zero(order)
    for l in range(1, g):
        bracket = bracket + (ladder[l] * ladder[g - l]).scale(HALF)
    if unlabeled and g % 2 == 0:
        bracket = bracket + ladder[g // 2].substitute_t_squared().scale(HALF)

    for wp in weighted_partitions(g - 1):
        ls = sum(wp.values())
        mult = partition_multinomial(wp)
        prod = _wp_product(ladder, wp)
        if simplex:
            kernel = _dxk_pinned_leaf(ls, inv_pows).shift_by_t().scale(HALF)
        else:
            kernel = _dxk_both_paths(ls, base, inv_pows).scale(HALF)
            if general:
                kernel = kernel + _dxk_one_empty(ls, base, inv_pows)
        bracket = bracket + (kernel * prod).scale(mult)

    if unlabeled:
        if simplex:
            if g % 2 == 1:
                acc = TruncatedSeries.zero(order)
                for rp in even_weighted_partitions(g - 1):
                    sr = sum(rp.values())
                    mult = partition_multinomial(rp)
                    prod = _wp_product(ladder, {m // 2: k for m, k in rp.items()}, squared=True)
                    acc = acc + (_dxk_seq(sr, inv2_pows) * prod).scale(mult)
                bracket = bracket + acc.shift_by_t().scale(HALF)
        else:
            for b in range(0, (g - 1) // 2 + 1):
                cof = ladder[g - 2 * b - 1]
                acc = TruncatedSeries.zero(order)
                for rp in even_weighted_partitions(2 * b):
                    sr = sum(rp.values())
                    mult = partition_multinomial(rp)
                    prod = _wp_product(ladder, {m // 2: k for m, k in rp.items()}, squared=True)
                    acc = acc + (_dxk_seq(sr, inv2_pows) * prod).scale(mult)
                bracket = bracket + (cof * acc).scale(HALF)

    return inv_pows[1] * bracket


def closed_small_g(spec: TreeClassSpec, g: int, order: int) -> TruncatedSeries:
    """Closed rational expression in the base tree series, g in {1, 2} only."""
    if g not in (1, 2):
        raise ValueError(f"closed forms exist for g in {{1, 2}}, got {g}")
    if spec.network_class is NetworkClass.TIME_CONSISTENT:
        raise ValueError("no closed small-g form is wired up for the time-consistent class")
    u = base_tree_series(spec.labeling, order)
    inv = u.geom_inverse()
    inv2_ = inv * inv
    inv3 = inv2_ * inv
    inv4 = inv3 * inv
    unlabeled = spec.labeling is Labeling.UNLABELED
    if unlabeled:
        u2 = u.substitute_t_squared()
        invu2 = u2.geom_inverse()

    if spec.network_class is NetworkClass.GENERAL:
        if g == 1:
            out = (u * u * u * inv3).scale(HALF) + u * u * inv2_
            if unlabeled:
                out = out + (u * u2 * inv * invu2).scale(HALF)
            return out
        e1 = closed_small_g(spec, 1, order)
        out = (
            (e1 * e1 * inv).scale(HALF)
            + (u * u * e1 * inv3).scale(HALF)
            + u * u * e1 * inv4
            + u * e1 * inv3
            + u * e1 * inv2_
        )
        if unlabeled:
            out = out + (e1.substitute_t_squared() * inv).scale(HALF)
            out = out + (u2 * e1 * inv * invu2).scale(HALF)
        return out

    # simplex time-consistent
    if g == 1:
        out = (u * u * inv3).scale(HALF).shift_by_t()
        if unlabeled:
            out = out + (u2 * inv * invu2).scale(HALF).shift_by_t()
        return out
    e1 = closed_small_g(spec, 1, order)
    out = (e1 * e1 * inv).scale(HALF) + (e1 * u * inv4).shift_by_t()
    if unlabeled:
        out = out + (e1.substitute_t_squared() * inv).scale(HALF)
    return out


def arbitrary_galls_series(spec: TreeClassSpec, order: int) -> TruncatedSeries:
    """Fixed point of the u = 1 equation: coefficient n is the total count
    over all gall numbers (divided by n! in the labeled case)."""
    if order < 1:
        raise ValueError("need order >= 1")
    t = TruncatedSeries.t(order)
    cls = spec.network_class

    if spec.labeling is Labeling.UNLABELED:

        def update(f):
            f2 = f.substitute_t_squared()
            out = t + (f * f + f2).scale(HALF)
            q = f * f.geom_inverse()
            gall = (q * q + f2 * f2.geom_inverse()).scale(HALF)
            if cls is NetworkClass.SIMPLEX_TC:
                return out + gall.shift_by_t()
            out = out + f * gall
            if cls is NetworkClass.GENERAL:
                out = out + f * f * f.geom_inverse()
            return out

    else:

        def update(f):
            out = t + (f * f).scale(HALF)
            q = f * f.geom_inverse()
            if cls is NetworkClass.SIMPLEX_TC:
                return out + (q * q).scale(HALF).shift_by_t()
            out = out + (f * q * q).scale(HALF)
            if cls is NetworkClass.GENERAL:
                out = out + f * f * f.geom_inverse()
            return out

    return fixed_point_solve(update, order)


# ---------------------------------------------------------------------------
# Large-order integer engines (asymptotic ratio studies).  These evaluate the
# g = 1, 2 closed forms over plain integer arrays: ordinary convolution for
# the unlabeled families, count-form binomial convolution for the labeled
# ones.  Every u^k inv^k in the closed forms is w^k with w = inv - 1 =
# u / (1 - u), and likewise u(t^2) inv(t^2) = w2 = inv(t^2) - 1, so
#   general  e1 = 1/2 w (w^2 + 2w + w2)
#            e2 = 1/2 inv (e1 (e1 + w^2 + w2 + 2w + 2p) + e1(t^2))
#   simplex  e1 = 1/2 t inv (w^2 + w2)
#            e2 = 1/2 inv (e1 (e1 + 2t p) + e1(t^2))
# with p = inv (w^2 + w) = w inv^2; w2 and the e1(t^2) terms drop out for
# the labeled families.  The shared kit (inv, w, w^2, w2, p and the g = 1
# arrays) is built once per (labeling, order), so the four unlabeled arrays
# cost 8 products and 2 geometric inverses in all.  The 1/2 is applied by
# computing twice the series and halving, so everything stays in exact
# integer arithmetic.
# ---------------------------------------------------------------------------


_kit_cache: Dict[Tuple[Labeling, int], SimpleNamespace] = {}


def _ring(labeling: Labeling, order: int):
    """(multiply, multiply by t, 1 / (1 - f)) through t^order on the arrays of
    the labeling: OGF arrays unlabeled, count form labeled."""
    if labeling is Labeling.UNLABELED:
        ops = (int_mul, int_shift_t, int_geom_inverse)
    else:
        ops = (egf_mul, egf_shift_t, egf_geom_inverse)
    return [partial(op, order=order) for op in ops]


def _lin(*terms) -> List[int]:
    """Sum of arrays; a (c, array) term adds c times the array."""
    out = None
    for term in terms:
        c, arr = term if isinstance(term, tuple) else (1, term)
        out = [c * x for x in arr] if out is None else [x + c * y for x, y in zip(out, arr)]
    return out


def _halve(arr: List[int]) -> List[int]:
    assert all(v % 2 == 0 for v in arr)
    return [v // 2 for v in arr]


def _kit(labeling: Labeling, order: int) -> SimpleNamespace:
    kit = _kit_cache.get((labeling, order))
    if kit is None:
        mul, _, inverse = _ring(labeling, order)
        if labeling is Labeling.UNLABELED:
            u = wedderburn_sequence(order)
            w2 = inverse(int_substitute_t_squared(u, order))
            w2[0] -= 1
        else:
            u = [0] + [labeled_tree_count(n) for n in range(1, order + 1)]
            w2 = [0] * (order + 1)
        inv = inverse(u)
        w = list(inv)
        w[0] -= 1
        ww = mul(w, w)
        kit = SimpleNamespace(inv=inv, w=w, ww=ww, w2=w2, p=mul(inv, _lin(ww, w)), e1={})
        _kit_cache[labeling, order] = kit
    return kit


def fixed_g_counts(spec: TreeClassSpec, g: int, order: int) -> List[int]:
    """Exact counts with g galls (g in {1, 2}) through t^order, as integers
    (n! times the coefficient for the labeled families)."""
    if g not in (1, 2):
        raise ValueError(f"integer fast path covers g in {{1, 2}}, got {g}")
    if spec.network_class is NetworkClass.TIME_CONSISTENT:
        raise ValueError("time-consistent large-order counts are not wired up")
    kit = _kit(spec.labeling, order)
    mul, shift, _ = _ring(spec.labeling, order)
    simplex = spec.network_class is NetworkClass.SIMPLEX_TC
    e1 = kit.e1.get(spec.network_class)
    if e1 is None:
        if simplex:
            e1 = _halve(shift(mul(kit.inv, _lin(kit.ww, kit.w2))))
        else:
            e1 = _halve(mul(kit.w, _lin(kit.ww, (2, kit.w), kit.w2)))
        kit.e1[spec.network_class] = e1
    if g == 1:
        return list(e1)
    if simplex:
        inner = mul(e1, _lin(e1, (2, shift(kit.p))))
    else:
        inner = mul(e1, _lin(e1, kit.ww, kit.w2, (2, kit.w), (2, kit.p)))
    if spec.labeling is Labeling.UNLABELED:
        inner = _lin(inner, int_substitute_t_squared(e1, order))
    return _halve(mul(kit.inv, inner))


# ---------------------------------------------------------------------------
# Exact closed-form coefficients for the labeled families.  The labeled base
# series is 1 - sqrt(1 - 2t), so the g = 1, 2 closed forms are Laurent
# polynomials in v = sqrt(1 - 2t); a coefficient at any single n follows from
# n! [t^n] (1 - 2t)^(k/2) = prod_{j=0}^{n-1} (2j - k) without building the
# whole series.
# ---------------------------------------------------------------------------


def _lv_mul(a: Dict[int, Fraction], b: Dict[int, Fraction]) -> Dict[int, Fraction]:
    out: Dict[int, Fraction] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, Fraction(0)) + x * y
    return {k: v for k, v in out.items() if v}


def _lv_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def _lv_scale(a, c):
    c = Fraction(c)
    return {k: v * c for k, v in a.items()}


_LV_U = {0: Fraction(1), 1: Fraction(-1)}  # labeled base series, 1 - v
_LV_T = {0: Fraction(1, 2), 2: Fraction(-1, 2)}  # t = (1 - v^2) / 2


def _labeled_laurent(spec: TreeClassSpec, g: int) -> Dict[int, Fraction]:
    if spec.labeling is not Labeling.LEAF_LABELED or spec.network_class is NetworkClass.TIME_CONSISTENT:
        raise ValueError("laurent closed forms cover labeled general/simplex families")
    if g not in (1, 2):
        raise ValueError(f"need g in {{1, 2}}, got {g}")
    u, t = _LV_U, _LV_T
    uu = _lv_mul(u, u)
    inv = lambda k: {-k: Fraction(1)}  # 1 / (1 - base)^k = v^(-k)
    if spec.network_class is NetworkClass.GENERAL:
        e1 = _lv_add(_lv_scale(_lv_mul(_lv_mul(uu, u), inv(3)), HALF), _lv_mul(uu, inv(2)))
        if g == 1:
            return e1
        out = _lv_scale(_lv_mul(_lv_mul(e1, e1), inv(1)), HALF)
        out = _lv_add(out, _lv_mul(_lv_mul(uu, e1), inv(4)))
        out = _lv_add(out, _lv_scale(_lv_mul(_lv_mul(uu, e1), inv(3)), HALF))
        out = _lv_add(out, _lv_mul(_lv_mul(u, e1), inv(3)))
        return _lv_add(out, _lv_mul(_lv_mul(u, e1), inv(2)))
    e1 = _lv_scale(_lv_mul(t, _lv_mul(uu, inv(3))), HALF)
    if g == 1:
        return e1
    out = _lv_scale(_lv_mul(_lv_mul(e1, e1), inv(1)), HALF)
    return _lv_add(out, _lv_mul(t, _lv_mul(_lv_mul(e1, u), inv(4))))


def _binom_pow_count(k: int, n: int) -> int:
    # n! [t^n] (1 - 2t)^(k/2), exact for any integer k.
    out = 1
    for j in range(n):
        out *= 2 * j - k
    return out


def labeled_fixed_g_count_at(spec: TreeClassSpec, g: int, n: int) -> int:
    """Exact labeled count at a single n via the closed singular expansion."""
    acc = Fraction(0)
    for k, c in _labeled_laurent(spec, g).items():
        acc += c * _binom_pow_count(k, n)
    if acc.denominator != 1:
        raise ValueError(f"non-integer count at n={n}: {acc}")
    return acc.numerator


def clear_caches() -> None:
    _base_cache.clear()
    _ladder_cache.clear()
    _kit_cache.clear()
