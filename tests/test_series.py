import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from galledtrees.counts import Labeling
from galledtrees.genfunc import base_tree_series
from galledtrees.series import (
    BivariateSeries,
    SeriesDivergenceError,
    TruncatedSeries,
    _grading_scale,
    bivariate_fixed_point,
    egf_geom_inverse,
    egf_mul,
    egf_scale,
    egf_shift_t,
    fixed_point_solve,
    int_geom_inverse,
    int_mul,
    int_shift_t,
    int_substitute_t_squared,
)

U8 = TruncatedSeries([0, 1, 1, 1, 2, 3, 6, 11, 23])  # unlabeled tree counts


def test_mul_basics():
    t = TruncatedSeries.t(4)
    assert (t * t).coeffs == TruncatedSeries([0, 0, 1, 0, 0]).coeffs
    # hand convolution of (1, 1, 1, 2): [t^4] U^2 = 2*U1*U3 + U2^2 = 3
    assert (U8 * U8)[4] == 3
    assert t.scale(Fraction(1, 2)).coeffs[1] == Fraction(1, 2)


def test_add_sub_scalar_coercion():
    t = TruncatedSeries.t(3)
    assert (1 + t)[0] == 1
    assert (t - 1)[0] == -1
    assert (2 * t)[1] == 2


def test_geom_inverse_examples():
    t = TruncatedSeries.t(5)
    assert t.geom_inverse().coeffs == TruncatedSeries([1, 1, 1, 1, 1, 1]).coeffs
    zero = TruncatedSeries.zero(5)
    assert zero.geom_inverse().coeffs == TruncatedSeries.one(5).coeffs
    # sequences of unlabeled trees by total leaf count: 1, 1, 2, 4, 9, ...
    seq = U8.truncate(5).geom_inverse()
    assert [int(c) for c in seq.coeffs] == [1, 1, 2, 4, 9, 20]
    with pytest.raises(ValueError):
        TruncatedSeries.one(4).geom_inverse()


@settings(deadline=None, max_examples=50)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=12))
def test_geom_inverse_is_true_inverse(tail):
    f = TruncatedSeries([0] + tail)
    h = f.geom_inverse()
    assert ((1 - f) * h).coeffs == TruncatedSeries.one(f.order).coeffs


def test_substitute_t_squared():
    t = TruncatedSeries.t(4)
    assert t.substitute_t_squared().coeffs == TruncatedSeries([0, 0, 1, 0, 0]).coeffs
    f = TruncatedSeries([1, 1, 3, 0, 0])
    assert f.substitute_t_squared().coeffs == TruncatedSeries([1, 0, 1, 0, 3]).coeffs
    u2 = U8.substitute_t_squared()
    assert [int(c) for c in u2.coeffs] == [0, 0, 1, 0, 1, 0, 1, 0, 2]


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=10))
def test_substitute_commutes_with_squaring(tail):
    a = TruncatedSeries([0] + tail)
    lhs = (a * a).substitute_t_squared()
    rhs = a.substitute_t_squared() * a.substitute_t_squared()
    assert lhs.coeffs == rhs.coeffs


def test_shift_and_pow():
    f = TruncatedSeries([1, 2, 3])
    assert f.shift_by_t().coeffs == TruncatedSeries([0, 1, 2]).coeffs
    assert (U8.pow(3)).coeffs == (U8 * U8 * U8).coeffs
    assert U8.pow(0).coeffs == TruncatedSeries.one(8).coeffs


def test_derivative_and_eval():
    f = TruncatedSeries([5, 1, 4])
    assert f.derivative().coeffs == TruncatedSeries([1, 8, 0]).coeffs
    assert f.evaluate(2.0) == 5 + 2 + 16


def test_integer_coefficients_guard():
    f = TruncatedSeries([0, Fraction(1, 2)])
    with pytest.raises(ValueError):
        f.integer_coefficients()
    g = TruncatedSeries([0, 1, Fraction(1, 2)])
    assert g.integer_coefficients(scale_factorials=True) == [0, 1, 1]


def test_fixed_point_tree_equation():
    order = 8
    u = fixed_point_solve(
        lambda f: (f.substitute_t_squared() + f * f).scale(Fraction(1, 2))
        + TruncatedSeries.t(order),
        order,
    )
    assert u.integer_coefficients() == [0, 1, 1, 1, 2, 3, 6, 11, 23]


def test_fixed_point_labeled_tree_equation():
    order = 5
    u = fixed_point_solve(
        lambda f: (f * f).scale(Fraction(1, 2)) + TruncatedSeries.t(order), order
    )
    assert u.integer_coefficients(scale_factorials=True) == [0, 1, 1, 3, 15, 105]


def test_fixed_point_catalan():
    order = 6
    c = fixed_point_solve(lambda f: f * f + TruncatedSeries.t(order), order)
    assert c.integer_coefficients() == [0, 1, 1, 2, 5, 14, 42]


def test_fixed_point_divergence():
    # coefficient 1 of phi(F) depends on coefficient 1 of F with gain > 1
    with pytest.raises(SeriesDivergenceError):
        fixed_point_solve(lambda f: f.scale(2) + TruncatedSeries.t(4), 4)


def test_fixed_point_passes_grow_with_the_order():
    # pass k sees the solution padded to order k; one full-order pass verifies
    seen = []

    def update(f):
        seen.append(f.order)
        return f * f + TruncatedSeries.t(6)

    c = fixed_point_solve(update, 6)
    assert c.integer_coefficients() == [0, 1, 1, 2, 5, 14, 42]
    assert seen == [0, 1, 2, 3, 4, 5, 6, 6]


def test_bivariate_ops():
    t = BivariateSeries.t(4, 3)
    tu = t.shift_by_u()
    assert tu.coefficient(1, 1) == 1 and tu.coefficient(1, 0) == 0
    sq = (t + tu) * (t + tu)
    assert sq.coefficient(2, 1) == 2
    inv = (t + tu).geom_inverse()
    assert inv.coefficient(0, 0) == 1
    assert inv.coefficient(2, 1) == 2  # two interleavings of t and tu
    with pytest.raises(ValueError):
        BivariateSeries.one(3, 3).geom_inverse()
    s2 = (t + tu).substitute_squared()
    assert s2.coefficient(2, 0) == 1 and s2.coefficient(2, 2) == 1


def test_bivariate_fixed_point_catalan_in_two_marks():
    # F = t + u F^2 marks internal nodes of plane trees with u
    f = bivariate_fixed_point(
        lambda F: BivariateSeries.t(6, 5) + (F * F).shift_by_u(), 6, 5
    )
    assert f.coefficient(4, 3) == 5
    assert f.coefficient(5, 4) == 14
    assert f.coefficient(4, 2) == 0
    # a full-order constant on the left of a product, as the passes below
    # full order hand the update a shorter F: F = t + u t F = t / (1 - u t)
    t = BivariateSeries.t(6, 5)
    f = bivariate_fixed_point(lambda F: t + (t * F).shift_by_u(), 6, 5)
    assert all(f.coefficient(n, n - 1) == 1 for n in range(1, 7))
    assert f.coefficient(4, 2) == 0


def test_bivariate_fixed_point_divergence():
    # the t^1 row of phi(F) depends on the t^1 row of F with gain 2
    with pytest.raises(SeriesDivergenceError):
        bivariate_fixed_point(lambda F: F.scale(2) + BivariateSeries.t(4, 2), 4, 2)


# -- integer fast paths vs the Fraction kernel --------------------------------


def test_int_paths_match_fraction_kernel():
    a = [0, 1, 4, 2, 7, 1]
    b = [3, 0, 2, 5, 1, 1]
    order = 5
    fa, fb = TruncatedSeries(a), TruncatedSeries(b)
    assert int_mul(a, b, order) == [int(c) for c in (fa * fb).coeffs]
    assert int_geom_inverse(a, order) == [int(c) for c in fa.geom_inverse().coeffs]
    assert int_substitute_t_squared(a, order) == [
        int(c) for c in fa.substitute_t_squared().coeffs
    ]
    assert int_shift_t(a, order) == [int(c) for c in fa.shift_by_t().coeffs]


def _padded(arr, order):
    return TruncatedSeries(list(arr[: order + 1]) + [0] * (order + 1 - len(arr)))


sparse_ints = st.lists(st.one_of(st.just(0), st.integers(-50, 50)), min_size=1, max_size=12)


@settings(max_examples=100, deadline=None)
@given(a=sparse_ints, b=sparse_ints, extra=st.integers(0, 6))
def test_int_kernels_match_fraction_kernel_on_random_arrays(a, b, extra):
    # zeros anywhere, unequal lengths, and an order past both lengths
    order = max(len(a), len(b)) + extra
    fa, fb = _padded(a, order), _padded(b, order)
    assert int_mul(a, b, order) == [int(c) for c in (fa * fb).coeffs]
    assert int_mul(b, a, order) == [int(c) for c in (fb * fa).coeffs]
    low = min(len(a), len(b)) - 1  # an order below the longer operand too
    assert int_mul(a, b, low) == [int(c) for c in (fa * fb).coeffs[: low + 1]]
    f = [0] + a
    ff = _padded(f, order)
    assert int_geom_inverse(f, order) == [int(c) for c in ff.geom_inverse().coeffs]


def test_egf_paths_match_fraction_kernel():
    import math

    # count-form arrays F[n] = n! * coefficient
    a = [0, 1, 3, 15, 105, 945]
    b = [0, 2, 1, 7, 3, 4]
    order = 5
    fa = TruncatedSeries([Fraction(v, math.factorial(n)) for n, v in enumerate(a)])
    fb = TruncatedSeries([Fraction(v, math.factorial(n)) for n, v in enumerate(b)])
    want_mul = [(fa * fb)[n] * math.factorial(n) for n in range(order + 1)]
    assert egf_mul(a, b, order) == [int(v) for v in want_mul]
    want_inv = [fa.geom_inverse()[n] * math.factorial(n) for n in range(order + 1)]
    assert egf_geom_inverse(a, order) == [int(v) for v in want_inv]
    want_shift = [fa.shift_by_t()[n] * math.factorial(n) for n in range(order + 1)]
    assert egf_shift_t(a, order) == [int(v) for v in want_shift]
    assert egf_scale([2, 4, 6], 1, 2) == [1, 2, 3]
    with pytest.raises(ValueError):
        egf_scale([1], 1, 2)


# -- common-denominator representation vs a schoolbook Fraction reference -----


def _ref_mul(a, b):
    n = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n)]


def _ref_geom_inverse(f):
    h = [Fraction(1)]
    for m in range(1, len(f)):
        h.append(sum((f[i] * h[m - i] for i in range(1, m + 1)), Fraction(0)))
    return h


def _ref_mul2(a, b):
    N, G = min(len(a), len(b)), len(a[0])
    out = [[Fraction(0)] * G for _ in range(N)]
    for n1 in range(N):
        for m1 in range(G):
            for n2 in range(N - n1):
                for m2 in range(G - m1):
                    out[n1 + n2][m1 + m2] += a[n1][m1] * b[n2][m2]
    return out


def _ref_geom_inverse2(f):
    # h = 1 + f h, filled in graded order of n + m
    N, G = len(f), len(f[0])
    h = [[Fraction(0)] * G for _ in range(N)]
    h[0][0] = Fraction(1)
    for s in range(1, N + G - 1):
        for n in range(max(0, s - G + 1), min(s, N - 1) + 1):
            m = s - n
            h[n][m] = sum(
                (f[i][j] * h[n - i][m - j]
                 for i in range(n + 1) for j in range(m + 1) if (i, j) != (0, 0)),
                Fraction(0),
            )
    return h


def _is_canonical(s):
    nums = s.nums if isinstance(s, TruncatedSeries) else [x for r in s.rows for x in r]
    return s.den > 0 and math.gcd(s.den, *nums) == 1


# denominators like n!, 3 and a prime above every order used below
rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-60, 60),
              st.sampled_from([1, 2, 3, 4, 6, 9, 24, 97, 120, 720, 5040])),
)
factors = rationals.filter(bool)


@settings(max_examples=150, deadline=None)
@given(a=st.lists(rationals, min_size=1, max_size=9),
       b=st.lists(rationals, min_size=1, max_size=9), factor=factors)
def test_series_ops_match_schoolbook_reference(a, b, factor):
    A, B = TruncatedSeries(a), TruncatedSeries(b)
    n = min(len(a), len(b))
    assert list((A * B).coeffs) == _ref_mul(a, b)
    assert list((A + B).coeffs) == [x + y for x, y in zip(a, b)]
    assert list((A - B).coeffs) == [x - y for x, y in zip(a, b)]
    assert list(A.scale(factor).coeffs) == [x * factor for x in a]
    assert list(A.shift_by_t().coeffs) == [0] + a[:-1]
    assert list(A.substitute_t_squared().coeffs) == [
        a[k // 2] if k % 2 == 0 else 0 for k in range(len(a))
    ]
    f = [Fraction(0)] + a[1:]
    assert list(TruncatedSeries(f).geom_inverse().coeffs) == _ref_geom_inverse(f)
    assert list(A.truncate(n - 1).coeffs) == a[:n]
    for s in (A, B, A * B, A + B, A - B, A.scale(factor), A.shift_by_t(),
              TruncatedSeries(f).geom_inverse(), A.truncate(0)):
        assert _is_canonical(s)
        assert all(type(c) is Fraction for c in s.coeffs)


@st.composite
def grid_pairs(draw):
    N, G = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    grid = lambda: [[draw(rationals) for _ in range(G + 1)] for _ in range(N + 1)]
    return grid(), grid()


@settings(max_examples=100, deadline=None)
@given(ab=grid_pairs(), factor=factors)
def test_bivariate_ops_match_schoolbook_reference(ab, factor):
    a, b = ab
    A, B = BivariateSeries(a), BivariateSeries(b)
    N, G = len(a) - 1, len(a[0]) - 1
    zero_row = [Fraction(0)] * (G + 1)
    as_lists = lambda s: [list(r) for r in s.coeffs]
    assert as_lists(A * B) == _ref_mul2(a, b)
    assert as_lists(A + B) == [[x + y for x, y in zip(r, q)] for r, q in zip(a, b)]
    assert as_lists(A - B) == [[x - y for x, y in zip(r, q)] for r, q in zip(a, b)]
    assert as_lists(A.scale(factor)) == [[x * factor for x in r] for r in a]
    assert as_lists(A.shift_by_t()) == [zero_row] + a[:-1]
    assert as_lists(A.shift_by_u()) == [[0] + r[:-1] for r in a]
    assert as_lists(A.substitute_squared()) == [
        [a[n // 2][m // 2] if n % 2 == 0 and m % 2 == 0 else 0 for m in range(G + 1)]
        for n in range(N + 1)
    ]
    f = [list(r) for r in a]
    f[0][0] = Fraction(0)
    F = BivariateSeries(f)
    assert as_lists(F.geom_inverse()) == _ref_geom_inverse2(f)
    for s in (A, A * B, A + B, A - B, A.scale(factor), A.shift_by_u(), F.geom_inverse()):
        assert _is_canonical(s)
        assert all(type(s.coefficient(n, m)) is Fraction
                   for n in range(N + 2) for m in range(G + 2))
        assert all(type(c) is Fraction for n in range(N + 1) for c in s.u_slice(n))


def test_equal_values_built_two_ways_are_equal_series():
    a = TruncatedSeries([Fraction(2, 4), 0, Fraction(6, 3), Fraction(-10, 15)])
    b = TruncatedSeries([Fraction(1, 2), Fraction(0), 2, Fraction(-2, 3)])
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(a.coeffs)
    c = a.scale(Fraction(7, 3)).scale(Fraction(3, 7))
    assert c == a and hash(c) == hash(a)
    d = (a + TruncatedSeries([Fraction(1, 6)] * 4)) - TruncatedSeries([Fraction(1, 6)] * 4)
    assert d == a and hash(d) == hash(a)
    # a difference that cancels to zero is the zero series, over denominator 1
    z = a - b
    assert z == TruncatedSeries.zero(3) and z.den == 1 and hash(z) == hash((Fraction(0),) * 4)
    # truncation and shifts may drop the only coefficient that needed the denominator
    e = TruncatedSeries([1, 0, Fraction(1, 5)])
    assert e.truncate(1) == TruncatedSeries([1, 0]) and e.truncate(1).den == 1
    assert e.shift_by_t() == TruncatedSeries([0, 1, 0]) and e.shift_by_t().den == 1
    assert all(type(x) is Fraction for x in TruncatedSeries([1, 2, 3]).coeffs)
    assert type(TruncatedSeries([1, 2])[5]) is Fraction
    p = BivariateSeries([[Fraction(2, 4), 0], [0, Fraction(9, 3)]])
    q = BivariateSeries([[Fraction(1, 2), 0], [Fraction(0), 3]])
    assert p == q and (p - q) == BivariateSeries.zero(1, 1) and (p - q).den == 1


def test_geom_inverse_keeps_labeled_integers_small():
    # labeled tree EGF coefficients are Catalan(n-1) / 2^(n-1): scaling t by 2
    # (not by the common denominator) already makes the inverse's recursion integral
    u = base_tree_series(Labeling.LEAF_LABELED, 40)
    assert u.den > 2**30
    assert _grading_scale(list(enumerate(u.nums)), u.den, u.order) == 2
    inv = u.geom_inverse()
    assert list(inv.coeffs) == _ref_geom_inverse(list(u.coeffs))
    assert _grading_scale([(1, 1), (2, 1)], 97, 3) == 97  # a prime above top enters whole
    assert _grading_scale([(2, 2), (3, 1)], 8, 3) == 2  # 2^2 * 2/8 and 2^3 * 1/8
    assert _grading_scale([(1, 2), (3, 1)], 8, 3) == 4  # 2/8 at t^1 needs 4
