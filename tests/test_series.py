import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from galledtrees import genfunc, series
from galledtrees.counts import ALL_SPECS, Labeling, wedderburn_sequence
from galledtrees.genfunc import base_tree_series
from galledtrees.series import (
    BivariateSeries,
    SeriesDivergenceError,
    TruncatedSeries,
    _grading_scale,
    bivariate_fixed_point,
    fixed_point_solve,
    int_geom_inverse,
    int_mul,
    int_scale,
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
    # the fixed-g ladder keeps the powers of its rungs, here of rung 0
    ladder = genfunc._Ladder(U8, U8.geom_inverse())
    assert ladder.rung_pow(0, 3) == U8 * U8 * U8
    assert ladder.rung_pow(0, 1) is U8


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


def test_fixed_point_runs_the_update_twice():
    # once on the lazy series, once at full order to verify stationarity
    seen = []

    def update(f):
        seen.append(f)
        return f * f + TruncatedSeries.t(6)

    c = fixed_point_solve(update, 6)
    assert c.integer_coefficients() == [0, 1, 1, 2, 5, 14, 42]
    assert len(seen) == 2
    assert not isinstance(seen[0], TruncatedSeries)
    assert seen[1] == c and seen[1].order == 6

    seen.clear()
    t = BivariateSeries.t(5, 4)
    f = bivariate_fixed_point(lambda F: seen.append(F) or t + (F * F).shift_by_u(), 5, 4)
    assert len(seen) == 2
    assert not isinstance(seen[0], BivariateSeries)
    assert seen[1] == f and (f.t_order, f.u_order) == (5, 4)


def test_fixed_point_with_a_constant_term_rebuilds_the_graph_once():
    # F = 1 + tF: row 0 of Phi(F) refutes F(0) = 0, so update runs on the lazy
    # series, again on it once it holds row 0, and once at full order
    seen = []

    def update(f):
        seen.append(f)
        return 1 + f.shift_by_t()

    c = fixed_point_solve(update, 6)
    assert c.integer_coefficients() == [1] * 7
    assert len(seen) == 3
    assert not any(isinstance(f, TruncatedSeries) for f in seen[:2])
    assert seen[2] == c

    seen.clear()
    t, one = BivariateSeries.t(5, 3), BivariateSeries.one(5, 3)
    f = bivariate_fixed_point(lambda F: seen.append(F) or one + (F * t).shift_by_u(), 5, 3)
    assert len(seen) == 3
    assert [[int(x) for x in f.u_slice(n)] for n in range(4)] == [
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


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


def test_fixed_point_divergence_through_a_product():
    # [t^k] F (1 + F) has the term F_k * 1, so row k of Phi(F) reads row k of F
    with pytest.raises(SeriesDivergenceError):
        fixed_point_solve(lambda f: TruncatedSeries.t(5) + f * (1 + f), 5)


# -- the online solvers vs the order-growing pass solver ----------------------
# Pass k runs the update on the solution so far, padded with a zero row to
# order k, and keeps row k; one full-order pass verifies stationarity.


def _pass_solve(update, order):
    nums, den = (), 1
    for k in range(order + 1):
        f = update(TruncatedSeries._make(nums + (0,), den)).truncate(k)
        nums, den = f.nums, f.den
    assert update(f).truncate(order) == f
    return f


def _pass_solve_bivariate(update, t_order, u_order):
    zero_row = (0,) * (u_order + 1)
    rows, den = (), 1
    for k in range(t_order + 1):
        f = update(BivariateSeries._make(rows + (zero_row,), den))
        rows, den = f.rows[: k + 1], f.den
    assert update(f) == f
    return f


@pytest.mark.parametrize("spec", ALL_SPECS)
@settings(max_examples=3, deadline=None)
@given(t_order=st.integers(1, 16), u_order=st.integers(0, 15), order=st.integers(1, 40))
@example(t_order=16, u_order=15, order=40)
def test_family_equations_match_the_pass_solver(spec, t_order, u_order, order):
    unlabeled = spec.labeling is Labeling.UNLABELED
    t2 = BivariateSeries.t(t_order, u_order)

    def bivariate(f):
        f2 = f.substitute_squared() if unlabeled else None
        return genfunc._equation(spec, f, f2, t2, BivariateSeries.shift_by_u)

    got = genfunc.solve_bivariate(spec, t_order, u_order)
    assert got == _pass_solve_bivariate(bivariate, t_order, u_order)
    t1 = TruncatedSeries.t(order)

    def univariate(f):
        f2 = f.substitute_t_squared() if unlabeled else None
        return genfunc._equation(spec, f, f2, t1, lambda x: x)

    assert genfunc.arbitrary_galls_series(spec, order) == _pass_solve(univariate, order)


_SCALAR_FORMS = ("v+E", "E+v", "v-E", "E-v", "v*E", "E*v")


def _equations(bivariate: bool):
    """Expression trees E over F and the constants c0..c2, with every
    operation of the lazy series; the geometric inverse is taken of t E (or
    u E) so that its constant term is zero."""
    leaves = st.one_of(st.just(("F",)), st.tuples(st.just("c"), st.integers(0, 2)))

    def extend(inner):
        unary = ["shift_t", "sq", "inv_t"] + (["shift_u", "inv_u"] if bivariate else [])
        ops = [
            st.tuples(st.sampled_from(["add", "sub", "mul"]), inner, inner),
            st.tuples(st.just("scale"), inner,
                      st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(3), 0])),
            st.tuples(st.sampled_from(unary), inner),
        ]
        if not bivariate:  # BivariateSeries takes no scalar operands
            ops.append(st.tuples(st.just("scalar"), inner, st.sampled_from([-1, 2, Fraction(1, 3)]),
                                 st.sampled_from(_SCALAR_FORMS)))
        return st.one_of(ops)

    return st.recursive(leaves, extend, max_leaves=7)


def _evaluate(e, f, consts):
    op = e[0]
    if op == "F":
        return f
    if op == "c":
        return consts[e[1]]
    x = _evaluate(e[1], f, consts)
    if op in ("add", "sub", "mul"):
        y = _evaluate(e[2], f, consts)
        return x + y if op == "add" else x - y if op == "sub" else x * y
    if op == "scale":
        return x.scale(e[2])
    if op == "shift_t":
        return x.shift_by_t()
    if op == "shift_u":
        return x.shift_by_u()
    if op == "sq":
        if isinstance(consts[0], TruncatedSeries):
            return x.substitute_t_squared()
        return x.substitute_squared()
    if op == "inv_t":
        return x.shift_by_t().geom_inverse()
    if op == "inv_u":
        return x.shift_by_u().geom_inverse()
    v, form = e[2], e[3]
    return {"v+E": lambda: v + x, "E+v": lambda: x + v, "v-E": lambda: v - x,
            "E-v": lambda: x - v, "v*E": lambda: v * x, "E*v": lambda: x * v}[form]()


def _phi(e, c0, consts, quadratic, c0_left):
    """Phi(F) = c0 + t E(F), plus F F when c0 vanishes at t = 0."""
    def update(f):
        out = _evaluate(e, f, consts).shift_by_t()
        out = c0 + out if c0_left else out + c0
        return out + f * f if quadratic else out
    return update


small = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])


@st.composite
def constant_grids(draw, max_t, max_u):
    """Four constant grids c0..c3 of one shape, (t-order + 1) x (u-order + 1)."""
    t_order, u_order = draw(st.integers(0, max_t)), draw(st.integers(0, max_u))
    row = st.lists(small, min_size=u_order + 1, max_size=u_order + 1)
    return [draw(st.lists(row, min_size=t_order + 1, max_size=t_order + 1)) for _ in range(4)]


@settings(max_examples=60, deadline=None)
@given(e=_equations(False), grids=constant_grids(8, 0), quadratic=st.booleans(),
       c0_left=st.booleans())
def test_random_contractive_equations_match_the_pass_solver(e, grids, quadratic, c0_left):
    c0, *consts = (TruncatedSeries([row[0] for row in grid]) for grid in grids)
    quadratic = quadratic and c0[0] == 0
    update = _phi(e, c0, consts, quadratic, c0_left)
    assert fixed_point_solve(update, c0.order) == _pass_solve(update, c0.order)


@settings(max_examples=60, deadline=None)
@given(e=_equations(True), grids=constant_grids(6, 4), quadratic=st.booleans(),
       c0_left=st.booleans())
# F(0) != 0, and an inverse whose t^0 row is a nonconstant u-series
@example(e=("inv_u", ("F",)), grids=[[[1, 1, 0], [0, 1, 0], [1, 0, 0]]] * 4,
         quadratic=False, c0_left=True)
def test_random_bivariate_equations_match_the_pass_solver(e, grids, quadratic, c0_left):
    c0, *consts = (BivariateSeries(grid) for grid in grids)
    quadratic = quadratic and not any(c0.rows[0])
    update = _phi(e, c0, consts, quadratic, c0_left)
    got = bivariate_fixed_point(update, c0.t_order, c0.u_order)
    assert got == _pass_solve_bivariate(update, c0.t_order, c0.u_order)


# -- integer fast paths vs the schoolbook reference ---------------------------
# The series classes run on these kernels, so the references are the plain
# loops below, not TruncatedSeries.


def _padded(arr, order):
    return list(arr[: order + 1]) + [0] * (order + 1 - len(arr))


def _ref_shift_t(f, order):
    return [0] + _padded(f, order)[:order]


def _ref_substitute_t_squared(f, order):
    padded = _padded(f, order)
    return [0 if k % 2 else padded[k // 2] for k in range(order + 1)]


def test_int_paths_match_fraction_kernel():
    a = [0, 1, 4, 2, 7, 1]
    b = [3, 0, 2, 5, 1, 1]
    order = 5
    assert int_mul(a, b, order) == _ref_mul(a, b)
    assert int_mul(a, b, order) == [0, 3, 12, 8, 34, 28]  # by hand
    assert int_geom_inverse(a, order) == _ref_geom_inverse(a)
    assert int_substitute_t_squared(a, order) == _ref_substitute_t_squared(a, order)
    assert int_substitute_t_squared(a, order) == [0, 0, 1, 0, 4, 0]
    assert int_shift_t(a, order) == _ref_shift_t(a, order)
    assert int_shift_t(a, order) == [0, 0, 1, 4, 2, 7]


sparse_ints = st.lists(st.one_of(st.just(0), st.integers(-50, 50)), min_size=1, max_size=12)


@settings(max_examples=100, deadline=None)
@given(a=sparse_ints, b=sparse_ints, extra=st.integers(0, 6))
def test_int_kernels_match_fraction_kernel_on_random_arrays(a, b, extra):
    # zeros anywhere, unequal lengths, and an order past both lengths
    order = max(len(a), len(b)) + extra
    pa, pb = _padded(a, order), _padded(b, order)
    assert int_mul(a, b, order) == _ref_mul(pa, pb)
    assert int_mul(b, a, order) == _ref_mul(pb, pa)
    low = min(len(a), len(b)) - 1  # an order below the longer operand too
    assert int_mul(a, b, low) == _ref_mul(pa, pb)[: low + 1]
    f = [0] + a
    assert int_geom_inverse(f, order) == _ref_geom_inverse(_padded(f, order))
    assert int_shift_t(a, order) == _ref_shift_t(a, order)
    assert int_shift_t(a, low) == _ref_shift_t(a, low)
    assert int_substitute_t_squared(a, order) == _ref_substitute_t_squared(a, order)
    assert int_substitute_t_squared(a, low) == _ref_substitute_t_squared(a, low)


@st.composite
def zero_runs(draw):
    """An int array: a leading and a trailing run of zeros around a core that
    may itself hold zeros or be empty."""
    core = draw(st.lists(st.one_of(st.just(0), st.integers(-50, 50)), max_size=8))
    arr = [0] * draw(st.integers(0, 8)) + core + [0] * draw(st.integers(0, 8))
    return arr or [0]


@settings(max_examples=200, deadline=None)
@given(a=zero_runs(), b=zero_runs(), order=st.integers(0, 30), as_tuples=st.booleans())
@example(a=[0, 0, 0], b=[1, 2, 3], order=4, as_tuples=False)  # an all-zero operand
@example(a=[0, 0, 0, 5], b=[0, 0, 7], order=4, as_tuples=True)  # valuations 3 + 2 past 4
@example(a=[0, 0, 0, 5], b=[0, 7], order=4, as_tuples=False)  # valuations 3 + 1 reach 4
@example(a=[0, 1, 2, 0, 0, 9], b=[3, 0, 4, 5, 0], order=2, as_tuples=True)  # order below both
def test_int_mul_convolves_only_the_nonzero_spans(a, b, order, as_tuples):
    want = _ref_mul(_padded(a, order), _padded(b, order))
    x, y = (tuple(a), tuple(b)) if as_tuples else (list(a), list(b))
    got = int_mul(x, y, order)
    assert type(got) is list and got == want
    assert list(x) == a and list(y) == b  # operands untouched


@pytest.mark.parametrize("a, b, order", [
    ([0, 0, 3], [0, 5], 6),  # 1 x 1
    ([0, 0, 3], [0, 0, 0, 5], 5),  # 1 x 1 landing on t^order itself
    ([0, 2], [1, 2, 3, 4], 10),  # 1 x k
    ([1, 2, 3, 4], [0, 0, 7], 10),  # k x 1
    ([0, 0, 0, 9], [0, 0, 1, 0, 2, 3], 12),  # valuations 3 + 2, zeros inside the span
    ([0, 4], [1, 2, 3, 4, 5, 6, 7, 8], 4),  # the order cuts the k span: n = 4 < 8
    ([-3], [1, -2, 0, 5], 5),  # negative entries, 1 x k
    ([2, -1, 0, 4], [0, -6], 5),  # negative entries, k x 1
    ([0, 0, 0, 2], [0, 0, 5], 4),  # valuations 3 + 2 pass the order: zero
])
def test_monomial_span_products_are_scalings(a, b, order):
    want = _ref_int_mul(_padded(a, order), _padded(b, order))
    sa, sb = series._nonzero_span(a, order), series._nonzero_span(b, order)
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_kronecker(mp, 1)  # every nonnegative span would qualify
        got = series._span_mul(sa, sb, order)
        assert int_mul(a, b, order) == want
        assert int_mul(b, a, order) == want
    assert calls == []  # the monomial shortcut ran before the Kronecker check
    if got is None:
        assert want == [0] * (order + 1)
    else:
        v, c = got
        assert v == sa[0] + sb[0] and len(c) == min(order - v + 1, len(sa[1]) + len(sb[1]) - 1)
        assert [0] * v + c + [0] * (order + 1 - v - len(c)) == want


def test_int_scale_keeps_counts_integral():
    assert int_scale([2, 4, 6], 1, 2) == [1, 2, 3]
    assert int_scale((0, 3), 4, 6) == [0, 2]
    with pytest.raises(ValueError):
        int_scale([1], 1, 2)


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


@st.composite
def zero_tailed_grids(draw):
    """Two grids whose rows are nonzero only on a band lo <= m <= hi, as in
    the gall-marked rows of `solve_bivariate`; a row may be all zero."""
    N, G = draw(st.integers(1, 4)), draw(st.integers(1, 5))

    def grid():
        rows = []
        for _ in range(N + 1):
            lo, hi = draw(st.integers(0, G)), draw(st.integers(-1, G))
            rows.append([draw(rationals) if lo <= m <= hi else Fraction(0) for m in range(G + 1)])
        return rows

    return grid(), grid()


@settings(max_examples=60, deadline=None)
@given(ab=zero_tailed_grids())
def test_bivariate_product_and_inverse_with_zero_tailed_rows(ab):
    a, b = ab
    as_lists = lambda s: [list(r) for r in s.coeffs]
    assert as_lists(BivariateSeries(a) * BivariateSeries(b)) == _ref_mul2(a, b)
    f = [list(r) for r in a]
    f[0][0] = Fraction(0)
    assert as_lists(BivariateSeries(f).geom_inverse()) == _ref_geom_inverse2(f)


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


# -- Kronecker substitution in int_mul ----------------------------------------


def _ref_int_mul(a, b):
    """`_ref_mul` in plain ints, fast enough for long, wide operands."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(min(len(a), len(b)))]


def _spy_kronecker(mp, cutoff):
    """Lower the Kronecker cutoff to `cutoff` and record, per call of the
    kernel, whether it multiplied (True) or fell back to schoolbook (False)."""
    calls = []
    kernel = series._kronecker_mul

    def spy(a, b, n):
        got = kernel(a, b, n)
        calls.append(got is not None)
        return got

    mp.setattr(series, "KRONECKER_MIN", cutoff)
    mp.setattr(series, "_kronecker_mul", spy)
    return calls


@st.composite
def kronecker_operands(draw):
    """A nonnegative int array: a valuation's leading zeros, then a span that
    may hold zero runs and grow geometrically like a counting series, and at
    times one huge coefficient among small ones."""
    ratio = draw(st.sampled_from([1, 3, 10**5]))
    core = draw(st.lists(st.one_of(st.just(0), st.integers(1, 10**6)), min_size=1, max_size=40))
    core = [x * ratio**k for k, x in enumerate(core)]
    if draw(st.booleans()):
        core[draw(st.integers(0, len(core) - 1))] = draw(st.integers(10**40, 10**80))
    return [0] * draw(st.integers(0, 4)) + core + [0] * draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(a=kronecker_operands(), b=kronecker_operands(), order=st.integers(0, 90),
       cutoff=st.integers(1, 6), signed=st.booleans())
@example(a=[1] * 8, b=[2] * 8, order=14, cutoff=2, signed=False)  # n = 15, odd
@example(a=[1] * 8, b=[2] * 8, order=13, cutoff=2, signed=False)  # n = 14, even
@example(a=[0, 0, 5, 1, 7], b=[3] * 12, order=20, cutoff=2, signed=False)  # a short, b long
@example(a=[9, 0, 0, 0, 0, 0, 4], b=[0, 1, 0, 0, 0, 0, 0, 2], order=9, cutoff=3,
         signed=False)  # zero runs, the order cutting inside both operands
@example(a=[1, 10**80, 1, 1], b=[1, 1, 1, 1], order=6, cutoff=2, signed=False)  # outlier
@example(a=[1] * 8, b=[2] * 8, order=14, cutoff=2, signed=True)
def test_kronecker_mul_matches_schoolbook(a, b, order, cutoff, signed):
    if signed:  # a negative coefficient at the start of b's span
        b = list(b)
        v = next((i for i, x in enumerate(b) if x), 0)
        b[v] = -b[v]
    want = _ref_int_mul(_padded(a, order), _padded(b, order))
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_kronecker(mp, cutoff)
        assert int_mul(a, b, order) == want
        assert int_mul(b, a, order) == want
    if signed:
        assert calls == []  # signed spans stay on schoolbook


def test_kronecker_mul_runs_on_valuations_parities_and_cut_operands():
    rng = random.Random(12)
    cases = [  # (valuation, length) of a and of b, then the order
        ((0, 8), (0, 8), 14),  # n = 15, odd: both operands whole
        ((0, 8), (0, 8), 13),  # n = 14, even: the order cuts off the product's top slot
        ((0, 3), (0, 12), 20),  # a much shorter than b
        ((2, 9), (1, 9), 10),  # valuations; the order cuts inside both spans
        ((0, 40), (5, 3), 60),  # unequal lengths, b a short span at valuation 5
    ]
    for (va, la), (vb, lb), order in cases:
        a = [0] * va + [rng.randrange(1, 10**6) * 7**k for k in range(la)]
        b = [0] * vb + [rng.randrange(1, 10**6) * 5**k for k in range(lb)]
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_kronecker(mp, 2)
            got = int_mul(a, b, order)
        assert calls == [True], (va, la, vb, lb, order)
        assert got == _ref_int_mul(_padded(a, order), _padded(b, order))


class _CountingContext:
    """The exact decimal context, recording the operands of each multiply."""

    def __init__(self, ctx):
        self.ctx, self.operands = ctx, []

    def multiply(self, x, y):
        self.operands.append((x, y))
        return self.ctx.multiply(x, y)

    def __getattr__(self, name):
        return getattr(self.ctx, name)


def test_kronecker_product_is_one_multiply_and_a_square_passes_one_operand():
    rng = random.Random(15)
    a = [rng.randrange(1, 10**6) * 7**k for k in range(30)]
    b = [rng.randrange(1, 10**6) * 5**k for k in range(30)]
    for x, y, square in ((a, b, False), (a, list(a), True)):
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_kronecker(mp, 2)
            ctx = _CountingContext(series._DECIMAL_INTEGERS)
            mp.setattr(series, "_DECIMAL_INTEGERS", ctx)
            got = int_mul(x, y, 29)
        assert calls == [True]
        assert got == _ref_int_mul(x, y)
        assert len(ctx.operands) == 1
        assert (ctx.operands[0][0] is ctx.operands[0][1]) == square


def test_kronecker_mul_drops_slots_past_n_wider_than_d():
    # the slots from n on hold c_k up to a[n-1] b[n-1], far above 10^d: the
    # low n slots stay exact only because their overflow carries upward
    rng = random.Random(16)
    n = 40
    a = [rng.randrange(1, 10**6) * 11**k for k in range(n)]
    b = [rng.randrange(1, 10**6) * 13**k for k in range(n)]
    full = [sum(a[i] * b[k - i] for i in range(max(0, k - n + 1), min(k, n - 1) + 1))
            for k in range(2 * n - 1)]
    d = series._slot_digits(a, b, n)
    assert max(full[:n]) < 10**d
    assert all(x >= 10**d for x in full[n + 2 :])  # the last has d + 37 digits
    assert series._kronecker_mul(a, b, n) == full[:n]


def test_slot_width_is_a_tight_bound_on_a_counting_series():
    # w = u / (1 - u) for the unlabeled tree series u, which the closed forms
    # square at large orders; d may exceed the widest slot by two digits here
    w = int_geom_inverse(wedderburn_sequence(300), 300)[1:]
    d = series._slot_digits(w, w, len(w))
    c = series._kronecker_mul(w, w, len(w))
    assert c == int_mul(w, w, len(w) - 1)
    assert 10 ** (d - 3) <= max(c) < 10**d


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
def test_kronecker_mul_respects_the_int_str_digit_limit():
    # products of 700-digit coefficients need slots of about 1,400 digits,
    # wider than 640, the smallest limit the interpreter accepts
    rng = random.Random(640)
    n = series.KRONECKER_MIN + 2
    a = [rng.randrange(10**699, 10**700) for _ in range(n)]
    b = [rng.randrange(10**699, 10**700) for _ in range(n)]
    want = _ref_int_mul(a, b)
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert series._kronecker_mul(a, b, n) is None
        assert int_mul(a, b, n - 1) == want  # falls back to schoolbook
        sys.set_int_max_str_digits(0)  # no limit
        assert series._kronecker_mul(a, b, n) == want
    finally:
        sys.set_int_max_str_digits(old)
