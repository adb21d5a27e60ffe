import math
from collections import Counter
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from galledtrees import asym, genfunc, series
from galledtrees.counts import (
    ALL_SPECS,
    GENERAL_LABELED,
    GENERAL_UNLABELED,
    SIMPLEX_LABELED,
    SIMPLEX_UNLABELED,
    TC_LABELED,
    TC_UNLABELED,
    Labeling,
    NetworkClass,
    count,
    labeled_tree_count,
    total,
    wedderburn_sequence,
)
from galledtrees.series import (
    TruncatedSeries,
    int_geom_inverse,
    int_scale,
    int_shift_t,
    int_substitute_t_squared,
)

CLOSED_FORM_SPECS = (GENERAL_UNLABELED, GENERAL_LABELED, SIMPLEX_UNLABELED, SIMPLEX_LABELED,
                     TC_UNLABELED, TC_LABELED)


def test_base_tree_series():
    u = genfunc.base_tree_series(Labeling.UNLABELED, 8)
    assert u.integer_coefficients() == [0, 1, 1, 1, 2, 3, 6, 11, 23]
    ul = genfunc.base_tree_series(Labeling.LEAF_LABELED, 5)
    assert ul.integer_coefficients(scale_factorials=True) == [0, 1, 1, 3, 15, 105]
    # far out, the counts engine's own sequences
    u = genfunc.base_tree_series(Labeling.UNLABELED, 300)
    assert u.integer_coefficients() == wedderburn_sequence(300)
    ul = genfunc.base_tree_series(Labeling.LEAF_LABELED, 300)
    assert ul.coeffs == (0, *(Fraction(labeled_tree_count(n), math.factorial(n))
                              for n in range(1, 301)))


def test_bivariate_spot_values():
    bv = genfunc.solve_bivariate(GENERAL_UNLABELED, 5, 4)
    assert bv.coefficient(4, 2) == 20
    bv = genfunc.solve_bivariate(SIMPLEX_UNLABELED, 6, 3)
    assert bv.coefficient(5, 2) == 1
    bv = genfunc.solve_bivariate(GENERAL_LABELED, 4, 3)
    assert bv.coefficient(3, 1) * math.factorial(3) == 21


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_triple_agreement_small(spec):
    top = 9
    bv = genfunc.solve_bivariate(spec, top, top - 1)
    for n in range(1, top + 1):
        nf = math.factorial(n) if spec.is_labeled else 1
        for g in range(spec.max_galls(n) + 1):
            rec = count(spec, n, g)
            assert bv.coefficient(n, g) * nf == rec
            if g >= 1:
                assert genfunc.fixed_g_series(spec, g, top)[n] * nf == rec


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_bivariate_u_degree_respects_gall_range(spec):
    bv = genfunc.solve_bivariate(spec, 8, 8)
    for n in range(0, 9):
        for m in range(spec.max_galls(max(n, 1)) + 1 if n else 1, 9):
            assert bv.coefficient(n, m) == 0


def test_fixed_g_spot_values():
    assert genfunc.fixed_g_series(GENERAL_UNLABELED, 1, 5)[5] == 49
    assert genfunc.fixed_g_series(SIMPLEX_UNLABELED, 3, 7)[7] == 2
    assert genfunc.fixed_g_series(SIMPLEX_LABELED, 2, 5)[5] * math.factorial(5) == 60


def test_fixed_g_rejects_zero():
    with pytest.raises(ValueError):
        genfunc.fixed_g_series(GENERAL_UNLABELED, 0, 5)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_fixed_g_at_or_past_the_order_builds_no_rung(spec, monkeypatch):
    # at most n - 1 galls on n leaves, so rung g vanishes through t^g
    monkeypatch.setattr(genfunc, "_ladder_cache", {})
    real = genfunc._next_rung

    def refuse(s, ladder):
        raise AssertionError(f"built rung {len(ladder)} at order {ladder[0].order}")

    monkeypatch.setattr(genfunc, "_next_rung", refuse)
    for g, order in [(1, 0), (1, 1), (5, 5), (6, 5), (60, 5), (500, 12)]:
        assert genfunc.fixed_g_series(spec, g, order).coeffs == (0,) * (order + 1), (g, order)
    assert genfunc._ladder_cache == {}
    built = []
    monkeypatch.setattr(genfunc, "_next_rung", lambda s, ladder: (
        built.append(len(ladder)) or real(s, ladder)))
    nf = math.factorial(6) if spec.is_labeled else 1
    assert genfunc.fixed_g_series(spec, 5, 6)[6] * nf == count(spec, 6, 5)
    assert built == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_ladder_matches_recursion_in_every_gall_number_at_order_16(spec):
    # from g = 3 on, the weighted partitions of g - 1 differ in their number
    # of parts, and each part count's sum meets its kernel in one product
    nf = math.factorial if spec.is_labeled else (lambda n: 1)
    for g in range(1, 16):
        column = genfunc.fixed_g_series(spec, g, 16)
        for n in range(1, 17):
            assert column[n] * nf(n) == count(spec, n, g), (n, g)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_one_ladder_builds_each_kernel_once_per_part_count(spec, monkeypatch):
    monkeypatch.setattr(genfunc, "_ladder_cache", {})
    built = Counter()
    for name in ("_dxk_both_paths", "_dxk_one_empty", "_dxk_pinned_leaf"):
        def spy(k, *rest, name=name, real=getattr(genfunc, name)):
            built[name, k] += 1
            return real(k, *rest)
        monkeypatch.setattr(genfunc, name, spy)
    seq_sums = []  # the sr of each _dxk_seq call, one list per symmetric-half sum
    real_sum, real_seq = genfunc._seq_sum, genfunc._dxk_seq
    monkeypatch.setattr(genfunc, "_seq_sum", lambda ladder, weight: (
        seq_sums.append([]) or real_sum(ladder, weight)))
    monkeypatch.setattr(genfunc, "_dxk_seq", lambda k, inv_pows: (
        seq_sums[-1].append(k) or real_seq(k, inv_pows)))
    nf = math.factorial(12) if spec.is_labeled else 1
    assert genfunc.fixed_g_series(spec, 11, 12)[12] * nf == count(spec, 12, 11)
    names = {
        NetworkClass.GENERAL: {"_dxk_both_paths", "_dxk_one_empty"},
        NetworkClass.TIME_CONSISTENT: {"_dxk_both_paths"},
        NetworkClass.SIMPLEX_TC: {"_dxk_pinned_leaf"},
    }[spec.network_class]
    # rung g reads the part counts 0..g - 1, each kernel built on first use
    assert built == Counter({(name, ls): 1 for name in names for ls in range(11)})
    assert all(len(srs) == len(set(srs)) for srs in seq_sums)
    # unlabeled, each symmetric-half sum (even weights 0..10) is built once
    assert sum(1 for srs in seq_sums if srs) == (6 if spec.labeling is Labeling.UNLABELED else 0)


def test_warm_fixed_g_lookups_hash_no_enum(monkeypatch):
    # the base, ladder and Laurent caches are keyed by the members' values, so
    # a warm lookup hashes no Enum member
    labeled = [s for s in ALL_SPECS if s.is_labeled]

    def lookups():
        got = [genfunc.base_tree_series(lab, 10).coeffs for lab in Labeling]
        got += [genfunc.fixed_g_series(spec, 3, 10).coeffs for spec in ALL_SPECS]
        got += [genfunc.fixed_g_count_at(spec, g, 9, 9) for spec in labeled for g in (1, 2)]
        return got

    cold = lookups()
    hashed = []
    real = Enum.__hash__
    monkeypatch.setattr(Enum, "__hash__", lambda self: hashed.append(self) or real(self))
    assert {Labeling.UNLABELED: 1} and hashed == [Labeling.UNLABELED]  # the spy sees them
    hashed.clear()
    assert lookups() == cold
    assert hashed == []


def test_closed_small_g_spot_values():
    assert genfunc.closed_small_g(GENERAL_UNLABELED, 1, 7)[7] == 392
    assert genfunc.closed_small_g(SIMPLEX_UNLABELED, 2, 6)[6] == 9
    assert genfunc.closed_small_g(GENERAL_LABELED, 2, 4)[4] * math.factorial(4) == 360


@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS)
@pytest.mark.parametrize("g", [1, 2])
def test_closed_equals_fixed_g(spec, g):
    a = genfunc.closed_small_g(spec, g, 40)
    b = genfunc.fixed_g_series(spec, g, 40)
    assert a.coeffs == b.truncate(40).coeffs


def test_closed_small_g_guards():
    with pytest.raises(ValueError):
        genfunc.closed_small_g(GENERAL_UNLABELED, 3, 10)
    with pytest.raises(ValueError):
        genfunc.closed_small_g(TC_UNLABELED, 3, 10)


def test_arbitrary_galls_spot_values():
    s = genfunc.arbitrary_galls_series(GENERAL_UNLABELED, 9)
    assert s[9] == 547539
    s = genfunc.arbitrary_galls_series(SIMPLEX_UNLABELED, 10)
    assert s[10] == 7030
    s = genfunc.arbitrary_galls_series(GENERAL_LABELED, 8)
    assert s[8] * math.factorial(8) == 1673573895


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_arbitrary_equals_totals_and_bivariate_rowsums(spec):
    top = 11
    s = genfunc.arbitrary_galls_series(spec, top)
    bv = genfunc.solve_bivariate(spec, top, top - 1)
    for n in range(1, top + 1):
        nf = math.factorial(n) if spec.is_labeled else 1
        assert s[n] * nf == total(spec, n)
        assert sum(bv.u_slice(n)) == s[n]


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_counting_series_are_nonnegative_integers(spec):
    s = genfunc.arbitrary_galls_series(spec, 10)
    vals = s.integer_coefficients(scale_factorials=spec.is_labeled)
    assert all(v >= 0 for v in vals)
    for g in (1, 2, 3):
        vals = genfunc.fixed_g_series(spec, g, 10).integer_coefficients(
            scale_factorials=spec.is_labeled
        )
        assert all(v >= 0 for v in vals)


@pytest.mark.parametrize(
    "gen_spec,tc_spec",
    [(GENERAL_UNLABELED, TC_UNLABELED), (GENERAL_LABELED, TC_LABELED)],
)
def test_general_minus_extra_is_time_consistent(gen_spec, tc_spec):
    # the general fixed-g ladder dominates the time-consistent one cellwise,
    # and their difference is exactly the one-empty-side block
    for g in (1, 2, 3):
        diff = genfunc.fixed_g_series(gen_spec, g, 10) - genfunc.fixed_g_series(
            tc_spec, g, 10
        )
        vals = diff.integer_coefficients(scale_factorials=gen_spec.is_labeled)
        assert all(v >= 0 for v in vals)
        nf = math.factorial
        for n in range(1, 11):
            f = nf(n) if gen_spec.is_labeled else 1
            assert diff[n] * f == count(gen_spec, n, g) - count(tc_spec, n, g)


@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS)
@pytest.mark.parametrize("g", [1, 2])
def test_integer_fast_paths_match_ladder(spec, g):
    fast = genfunc.fixed_g_counts(spec, g, 30)
    slow = genfunc.fixed_g_series(spec, g, 30).integer_coefficients(
        scale_factorials=spec.is_labeled
    )
    assert fast == slow
    assert fast[0] == 0
    for n in range(1, 31):
        assert fast[n] == count(spec, n, g), n


def test_fast_paths_match_closed_forms_in_any_call_order():
    # g = 2 first (it builds the shared kit and the g = 1 array on the way),
    # then g = 1 from the kit; and the same again after the caches are
    # cleared.  The reference is the fixed-g ladder, derived separately.
    want = {
        (spec, g): genfunc.fixed_g_series(spec, g, 60).integer_coefficients(
            scale_factorials=spec.is_labeled
        )
        for spec in CLOSED_FORM_SPECS
        for g in (1, 2)
    }
    for _ in range(2):
        genfunc.clear_caches()
        for spec in CLOSED_FORM_SPECS:
            for g in (2, 1):
                assert genfunc.fixed_g_counts(spec, g, 60) == want[spec, g], (spec, g)


# A copy of the earlier evaluation of the g = 1, 2 closed forms, with 8
# products and 2 geometric inverses per ring: p = inv (w^2 + w), one product
# for each e1, and w2 = 1 / (1 - u(t^2)) - 1 from its own inverse.  A ring
# is a namespace of its operations.  Its products are plain schoolbook
# convolutions, and its sums and Laurent products are its own, so it shares
# no kernel with the code under test.  The labeled ring runs on count-form
# arrays A[n] = n! [t^n] f, with its own schoolbook product, shift and
# inverse: the code under test reads labeled counts off the Laurent form.


def _ref_lin(*terms):
    """Sum of arrays; a (c, array) term adds c times the array."""
    out = None
    for term in terms:
        c, arr = term if isinstance(term, tuple) else (1, term)
        out = [c * x for x in arr] if out is None else [x + c * y for x, y in zip(out, arr)]
    return out


def _ref_lv_mul(a, b):
    out = Counter()
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] += x * y
    return {k: v for k, v in out.items() if v}


def _ref_lv_lin(*terms):
    """`_ref_lin` for Laurent polynomials held as {exponent of v: coefficient}."""
    out = Counter()
    for term in terms:
        c, a = term if isinstance(term, tuple) else (1, term)
        for k, x in a.items():
            out[k] += c * x
    return {k: v for k, v in out.items() if v}


def _school_mul(a, b, order):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(order + 1)]


def _school_egf_mul(a, b, order):
    return [sum(math.comb(k, i) * a[i] * b[k - i] for i in range(k + 1))
            for k in range(order + 1)]


def _school_egf_shift(f, order):
    return [k * f[k - 1] if k else 0 for k in range(order + 1)]


def _school_egf_inverse(f, order):
    out = [1]  # 1 / (1 - f) = 1 + f / (1 - f)
    for k in range(1, order + 1):
        out.append(sum(math.comb(k, i) * f[i] * out[k - i] for i in range(1, k + 1)))
    return out


def _ref_ring(inv, one, w2, **ops):
    ring = SimpleNamespace(inv=inv, w2=w2, **ops)
    ring.w = ring.lin(inv, (-1, one))
    ring.ww = ring.mul(ring.w, ring.w)
    ring.p = ring.mul(inv, ring.lin(ring.ww, ring.w))
    return ring


def _ref_closed_form(ring, cls, g):
    if cls is NetworkClass.SIMPLEX_TC:
        e1 = ring.halve(ring.shift(ring.mul(ring.inv, ring.lin(ring.ww, ring.w2))))
    elif cls is NetworkClass.TIME_CONSISTENT:
        e1 = ring.halve(ring.mul(ring.w, ring.lin(ring.ww, ring.w2)))
    else:
        e1 = ring.halve(ring.mul(ring.w, ring.lin(ring.ww, (2, ring.w), ring.w2)))
    if g == 1:
        return e1
    if cls is NetworkClass.SIMPLEX_TC:
        inner = ring.mul(e1, ring.lin(e1, (2, ring.shift(ring.p))))
    elif cls is NetworkClass.TIME_CONSISTENT:
        www = ring.mul(ring.w, ring.ww)
        inner = ring.mul(e1, ring.lin(e1, (3, ring.ww), (2, www), ring.w2))
    else:
        inner = ring.mul(e1, ring.lin(e1, ring.ww, ring.w2, (2, ring.w), (2, ring.p)))
    if ring.sq is not None:
        inner = ring.lin(inner, ring.sq(e1))
    return ring.halve(ring.mul(ring.inv, inner))


def _ref_array_ring(labeling, order):
    one = [1] + [0] * order
    if labeling is Labeling.UNLABELED:
        mul, shift, inverse = _school_mul, int_shift_t, int_geom_inverse
        sq = partial(int_substitute_t_squared, order=order)
        u = wedderburn_sequence(order)
        w2 = _ref_lin(inverse(sq(u), order), (-1, one))
    else:
        mul, shift, inverse, sq = _school_egf_mul, _school_egf_shift, _school_egf_inverse, None
        u = [0] + [labeled_tree_count(n) for n in range(1, order + 1)]
        w2 = [0] * (order + 1)
    return _ref_ring(
        inverse(u, order), one, w2, mul=partial(mul, order=order), lin=_ref_lin,
        halve=partial(int_scale, num=1, den=2), shift=partial(shift, order=order), sq=sq,
    )


@pytest.mark.parametrize("labeling, order",
                         [(Labeling.UNLABELED, 300), (Labeling.LEAF_LABELED, 40)])
def test_closed_forms_match_the_eight_product_evaluation(labeling, order):
    genfunc.clear_caches()
    ref = _ref_array_ring(labeling, order)
    for spec in CLOSED_FORM_SPECS:
        if spec.labeling is labeling:
            for g in (1, 2):
                want = _ref_closed_form(ref, spec.network_class, g)
                assert genfunc.fixed_g_counts(spec, g, order) == want, (spec, g)


@pytest.mark.parametrize("spec", [GENERAL_LABELED, SIMPLEX_LABELED, TC_LABELED])
@pytest.mark.parametrize("g", [1, 2])
def test_laurent_forms_match_the_eight_product_evaluation(spec, g):
    half = Fraction(1, 2)
    ref = _ref_ring(
        {-1: Fraction(1)}, {0: Fraction(1)}, {}, mul=_ref_lv_mul, lin=_ref_lv_lin,
        halve=lambda a: _ref_lv_lin((half, a)),
        shift=partial(_ref_lv_mul, {0: half, 2: -half}), sq=None,
    )
    assert genfunc._labeled_laurent(spec, g) == _ref_closed_form(ref, spec.network_class, g)


def _newton_steps(order):
    """Newton steps `_base_and_inverse` takes from order 1 up to order."""
    steps = 0
    while order >= 2:
        steps, order = steps + 1, order // 2
    return steps


@pytest.mark.parametrize("labeling, want", [
    # 4 products per Newton step of the base series and its inverse, 3 shared
    # by the ring and 2 for each family's g = 2 array; no geometric inverse
    (Labeling.UNLABELED, {"int_mul": 4 * _newton_steps(30) + 9}),
    (Labeling.LEAF_LABELED, {}),  # read off the Laurent terms: no series product
], ids=lambda v: "-".join(f"{k}-{n}" for k, n in v.items()) or "none" if type(v) is dict else None)
def test_closed_form_arrays_take_seven_products_and_one_inverse(monkeypatch, labeling, want):
    calls = Counter()
    # `TruncatedSeries.__mul__` and `geom_inverse` call the series module's kernels
    for module, name in ((genfunc, "int_mul"), (series, "int_mul"), (series, "int_geom_inverse")):
        kernel = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, _k=kernel, _n=name, **kw: calls.update([_n]) or _k(*a, **kw)
        )
    genfunc.clear_caches()
    try:
        for spec in CLOSED_FORM_SPECS:
            if spec.labeling is labeling:
                for g in (1, 2):
                    genfunc.fixed_g_counts(spec, g, 30)
    finally:
        genfunc.clear_caches()  # the cached ring holds the counting kernels
    assert calls == want


def test_newton_base_series_is_the_counts_recursion():
    # the counts engine derives U by its own recursion; genfunc's Newton
    # iteration, run from t at every order, must reach the same integers, and
    # its inverse those of the geometric-inverse recurrence
    for order in [*range(131), 1000]:
        u, h = genfunc._base_and_inverse(order)
        assert u == wedderburn_sequence(order), order
        assert h == int_geom_inverse(u, order), order


@pytest.mark.parametrize("spec", [GENERAL_UNLABELED, SIMPLEX_UNLABELED, TC_UNLABELED])
def test_unlabeled_ladder_takes_its_inverse_from_the_newton_lift(monkeypatch, spec):
    # the referee is a ladder seeded with U alone, which takes 1/(1 - U) by
    # one geometric-inverse recurrence; fixed_g_series reads it off the lift
    order, top = 200, 4
    calls = []
    kernel = series.int_geom_inverse
    monkeypatch.setattr(series, "int_geom_inverse", lambda *a: calls.append(a) or kernel(*a))
    genfunc.clear_caches()
    try:
        base = genfunc.base_tree_series(Labeling.UNLABELED, order)
        ref = genfunc._Ladder(base, base.geom_inverse())
        while len(ref) <= top:
            ref.append(genfunc._next_rung(spec, ref))
        assert len(calls) == 1  # the spy sees the referee's inverse
        calls.clear()
        genfunc.clear_caches()
        got = [genfunc.fixed_g_series(spec, g, order) for g in range(1, top + 1)]
    finally:
        genfunc.clear_caches()
    assert calls == []
    assert [r.coeffs for r in got] == [r.coeffs for r in ref[1:]]


# small odd and even orders, whose Newton products run schoolbook, and orders
# past twice `series.KRONECKER_MIN`, whose top steps run on the Kronecker kernel
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 6, 7, 399, 400, 401, 801, 1000])
def test_ring_inverse_matches_the_recurrence_on_both_sides_of_the_cutoff(order):
    genfunc.clear_caches()
    try:
        got = genfunc._held_ring(Labeling.UNLABELED, order).inv
    finally:
        genfunc.clear_caches()
    assert got.nums == tuple(int_geom_inverse(wedderburn_sequence(order), order))


def test_an_odd_newton_residual_raises(monkeypatch):
    # 1/2 (U^2 + U(t^2)) is integral for every integer U; a product off by
    # one in its last coefficient must be refused, not floored
    mul = genfunc.int_mul

    def off_by_one(a, b, order):
        c = mul(a, b, order)
        c[-1] += 1
        return c

    monkeypatch.setattr(genfunc, "int_mul", off_by_one)
    with pytest.raises(ValueError, match="non-integer"):
        genfunc._base_and_inverse(100)


@pytest.mark.parametrize("order", [60, 450])
@pytest.mark.parametrize("spec", [GENERAL_UNLABELED, SIMPLEX_UNLABELED, TC_UNLABELED])
@pytest.mark.parametrize("g", [1, 2])
def test_single_n_reads_match_the_arrays(order, spec, g):
    genfunc.clear_caches()
    try:
        want = genfunc.fixed_g_counts(spec, g, order)
        genfunc.clear_caches()  # the reads build their own ring
        got = [asym.exact_fixed_g_count(spec, g, n, order) for n in range(order + 1)]
    finally:
        genfunc.clear_caches()
    assert got == want


def test_an_order_sweep_holds_one_ring_and_lower_orders_read_it(monkeypatch):
    # with order omitted, each n asks for the ring at order n: a ring that
    # does not reach n is replaced by one at max(n, twice its order), so the
    # sweep builds the rings at orders 0, 1, 2, 4, ..., 64, and a read at a
    # lower order reads the held one
    spec, top = GENERAL_UNLABELED, 60
    builds, build = [], genfunc._ring  # `_base_and_inverse` recurses: count the rings
    monkeypatch.setattr(genfunc, "_ring", lambda *a: builds.append(a[0].order) or build(*a))
    genfunc.clear_caches()
    try:
        swept = {g: [asym.exact_fixed_g_count(spec, g, n) for n in range(top + 1)] for g in (1, 2)}
        held = genfunc._base_cache["unlabeled"].ring
        explicit = {g: [asym.exact_fixed_g_count(spec, g, n, n) for n in range(top + 1)]
                    for g in (1, 2)}
        arrays = {g: genfunc.fixed_g_counts(spec, g, top // 2) for g in (1, 2)}
        assert genfunc._base_cache["unlabeled"].ring is held and held.inv.order >= top
        assert builds == [0, 1, 2, 4, 8, 16, 32, 64]
        genfunc.clear_caches()
        fresh = {g: genfunc.fixed_g_counts(spec, g, top) for g in (1, 2)}
    finally:
        genfunc.clear_caches()
    for g in (1, 2):
        assert swept[g] == explicit[g] == fresh[g], g
        assert arrays[g] == fresh[g][: top // 2 + 1], g


def _spy_on_lifts(monkeypatch):
    """The orders of the top-level `_base_and_inverse` calls, one per lift;
    its recursive calls to lower orders are not recorded."""
    lifts, real, depth = [], genfunc._base_and_inverse, [0]

    def spy(order):
        if not depth[0]:
            lifts.append(order)
        depth[0] += 1
        try:
            return real(order)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(genfunc, "_base_and_inverse", spy)
    return lifts


def test_the_ring_and_the_ladder_share_one_lift(monkeypatch):
    lifts = _spy_on_lifts(monkeypatch)
    genfunc.clear_caches()
    try:
        counts = genfunc.fixed_g_counts(GENERAL_UNLABELED, 2, 300)
        ladder = [genfunc.fixed_g_series(GENERAL_UNLABELED, g, 300) for g in (3, 2)]
    finally:
        genfunc.clear_caches()
    assert lifts == [300]
    assert ladder[1].integer_coefficients() == counts
    assert ladder[0][12] == count(GENERAL_UNLABELED, 12, 3)


def test_a_rising_sweep_stops_doubling_at_the_order_cap(monkeypatch):
    # past the cap each lift is at the order asked for, not twice the held one
    monkeypatch.setattr(genfunc, "RATIO_MAX_ORDER", 10)
    lifts = _spy_on_lifts(monkeypatch)
    genfunc.clear_caches()
    try:
        swept = [asym.exact_fixed_g_count(GENERAL_UNLABELED, 1, n) for n in range(21)]
    finally:
        genfunc.clear_caches()
    assert lifts == [0, 1, 2, 4, 8, 10, *range(11, 21)]
    assert swept == genfunc.fixed_g_counts(GENERAL_UNLABELED, 1, 20)


@pytest.mark.parametrize("spec", [GENERAL_LABELED, SIMPLEX_LABELED, TC_LABELED])
def test_labeled_ladder_takes_its_inverse_from_the_laurent_context(monkeypatch, spec):
    # 1/(1 - (1 - v)) = 1/v: its EGF is read off the Laurent term, with no
    # geometric-inverse recurrence
    calls = []
    kernel = series.int_geom_inverse
    monkeypatch.setattr(series, "int_geom_inverse", lambda *a: calls.append(a) or kernel(*a))
    genfunc.clear_caches()
    try:
        column = genfunc.fixed_g_series(spec, 4, 40)
    finally:
        genfunc.clear_caches()
    assert calls == []
    for n in range(1, 17):
        assert column[n] * math.factorial(n) == count(spec, n, 4), n


def test_an_odd_dot_product_raises():
    genfunc.clear_caches()
    try:
        ring = genfunc._held_ring(Labeling.UNLABELED, 30)
        inner = genfunc._inner(ring, "general").nums
        # inv[0] = 1 pairs with entry 5 at n = 5
        ring.inner["general"] = TruncatedSeries(inner[:5] + (inner[5] + 1,) + inner[6:])
        with pytest.raises(ValueError, match="non-integer count at n=5"):
            genfunc.fixed_g_count_at(GENERAL_UNLABELED, 2, 5, 30)
    finally:
        genfunc.clear_caches()


def test_single_n_reads_above_the_cutoff_stay_within_the_product_budget(monkeypatch):
    order = 801
    calls = {"int_mul": [], "int_geom_inverse": []}
    # `TruncatedSeries.__mul__` and `geom_inverse` call the series module's kernels
    for module, name in ((genfunc, "int_mul"), (series, "int_mul"), (series, "int_geom_inverse")):
        kernel, log = getattr(module, name), calls[name]
        monkeypatch.setattr(
            module, name, lambda *a, _k=kernel, _log=log, **kw: _log.append(a) or _k(*a, **kw)
        )
    genfunc.clear_caches()
    try:
        for spec in (GENERAL_UNLABELED, SIMPLEX_UNLABELED, TC_UNLABELED):
            for g in (1, 2):
                asym.exact_fixed_g_count(spec, g, order, order)
        inv = genfunc._held_ring(Labeling.UNLABELED, order).inv.nums
    finally:
        genfunc.clear_caches()
    # no recurrence runs: 4 products per Newton step from t, 3 for the ring
    # and 1 per family's `_inner`; none multiplies by inv
    assert calls["int_geom_inverse"] == []
    assert len(calls["int_mul"]) == 4 * _newton_steps(order) + 3 + 3
    assert not any(x is inv for a in calls["int_mul"] for x in a[:2])


def test_fast_path_guards():
    with pytest.raises(ValueError):
        genfunc.fixed_g_counts(GENERAL_UNLABELED, 3, 10)
    with pytest.raises(ValueError):
        genfunc.fixed_g_counts(TC_LABELED, 3, 10)


@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS)
def test_negative_orders_are_refused_and_order_zero_is_empty(spec):
    refused = (
        lambda order: genfunc.base_tree_series(spec.labeling, order),
        lambda order: genfunc.fixed_g_series(spec, 1, order),
        lambda order: genfunc.closed_small_g(spec, 1, order),
        lambda order: genfunc.fixed_g_counts(spec, 1, order),
        lambda order: genfunc.fixed_g_counts(spec, 2, order),
    )
    for call in refused:
        with pytest.raises(ValueError):
            call(-1)
    assert genfunc.base_tree_series(spec.labeling, 0).coeffs == (0,)
    for g in (1, 2):
        assert genfunc.fixed_g_counts(spec, g, 0) == [0]
        assert genfunc.closed_small_g(spec, g, 0).coeffs == (0,)
        assert genfunc.fixed_g_series(spec, g, 0).coeffs == (0,)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_shared_equation_and_ladder_match_recursion_past_the_golden_rows(spec):
    # the bivariate equation through n = 16 in every gall number, and the
    # fixed-g ladder through n = 30 for g <= 3, time-consistent columns too
    nf = math.factorial if spec.is_labeled else (lambda n: 1)
    bv = genfunc.solve_bivariate(spec, 16, 15)
    for n in range(1, 17):
        for g in range(16):
            assert bv.coefficient(n, g) * nf(n) == count(spec, n, g), (n, g)
    for g in (1, 2, 3):
        column = genfunc.fixed_g_series(spec, g, 30)
        for n in range(1, 31):
            assert column[n] * nf(n) == count(spec, n, g), (n, g)


@lru_cache(maxsize=None)
def _engine_series(spec):
    """Each family's all-gall series, bivariate solution and g <= 3 ladder,
    built once for the property test below."""
    ladder = {g: genfunc.fixed_g_series(spec, g, 30) for g in (1, 2, 3)}
    return genfunc.arbitrary_galls_series(spec, 30), genfunc.solve_bivariate(spec, 16, 15), ladder


@settings(max_examples=200, deadline=None)
@given(spec=st.sampled_from(ALL_SPECS), n=st.integers(1, 30), g=st.integers(0, 29))
def test_engines_agree_with_the_recursion_at_random_points(spec, n, g):
    all_galls, bv, ladder = _engine_series(spec)
    nf = math.factorial(n) if spec.is_labeled else 1
    assert all_galls[n] * nf == total(spec, n)
    if n <= 16:
        assert bv.coefficient(n, g) * nf == count(spec, n, g)
    if g in ladder:
        assert ladder[g][n] * nf == count(spec, n, g)


@pytest.mark.parametrize("spec", [GENERAL_LABELED, SIMPLEX_LABELED, TC_LABELED])
@pytest.mark.parametrize("g", [1, 2])
def test_labeled_singular_expansion_counts(spec, g):
    for n in list(range(13)) + [40]:
        want = (
            count(spec, n, g)
            if n and n <= 12
            else genfunc.fixed_g_series(spec, g, 40)[n] * math.factorial(n)
            if n
            else 0
        )
        assert genfunc.fixed_g_count_at(spec, g, n, n) == want
    # the whole array and the single-n extraction agree far out
    counts = genfunc.fixed_g_counts(spec, g, 700)
    for n in (350, 700):
        assert counts[n] == genfunc.fixed_g_count_at(spec, g, n, 700), n


def test_labeled_expansion_guards():
    # both labelings refuse a g without a closed form and an n outside 0..order
    for spec in (GENERAL_LABELED, GENERAL_UNLABELED):
        for g, n, order in ((3, 5, 5), (1, -1, 5), (2, 6, 5), (1, 0, -1)):
            with pytest.raises(ValueError):
                genfunc.fixed_g_count_at(spec, g, n, order)


def _laurent_count(laurent, n):
    """n! [t^n] of a Laurent polynomial in v = sqrt(1 - 2t)."""
    return sum(c * math.prod(2 * j - k for j in range(n)) for k, c in laurent.items())


@pytest.mark.parametrize("spec", [GENERAL_LABELED, TC_LABELED, SIMPLEX_LABELED])
def test_the_ladder_over_laurent_polynomials_is_exact(spec):
    # from the labeled base 1 - v every rung is a Laurent polynomial in v, so
    # the ladder meets the closed forms as rational identities, and its top
    # term is the fixed-g leading constant of the labeled family
    ladder = genfunc._Ladder(genfunc._LABELED_BASE, genfunc._LABELED_BASE.geom_inverse())
    while len(ladder) <= 8:
        ladder.append(genfunc._next_rung(spec, ladder))
    for g in (1, 2):
        assert ladder[g] == genfunc._labeled_laurent(spec, g), g
    for g in range(1, 9):
        top = asym.beta(g) / 2**g if spec is SIMPLEX_LABELED else asym.beta(g)
        assert min(ladder[g]) == 1 - 4 * g and ladder[g][1 - 4 * g] == top, g
    for g in range(1, 7):
        for n in range(1, 21):
            assert _laurent_count(ladder[g], n) == count(spec, n, g), (n, g)
