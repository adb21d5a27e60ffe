from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from galledtrees.series import (
    BivariateSeries,
    SeriesDivergenceError,
    TruncatedSeries,
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
