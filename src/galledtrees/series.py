"""Exact truncated formal power series over the rationals.

`TruncatedSeries` and `BivariateSeries` hold integer numerators over one
positive common denominator, gcd-reduced, so equal series are equal tuples.
All their arithmetic runs on the integer kernels below; `geom_inverse` first
scales t (and u) by a factor that makes its recursion integral.  Coefficients
read back as Fractions, so one kernel serves both ordinary and exponential
generating functions; counting series stay integral and that is asserted, not
assumed.  Functional equations of the shape F = Phi(F) are solved by
`fixed_point_solve` and `bivariate_fixed_point`.  Every equation fed to them
is contractive: its right side carries an extra factor of t, or is quadratic
in an F with zero constant term, so coefficient k of Phi(F) reads only
coefficients below k of F.  The solvers evaluate Phi online (van der Hoeven,
"Relax, but don't be too lazy", J. Symbolic Comput. 34(6), 2002): Phi runs
once on a lazy series, and each t^k row of every intermediate series is
computed once, from rows already known, the first time it is read; row k of
Phi(F) is row k of F.  F starts out vanishing at t = 0; if row 0 of Phi(F)
refutes that, Phi runs once more, on an F that holds that row 0 (none of the
library's equations has a constant term).  Row k of a product sums
x_i y_(k-i) for i from val(x) to k - val(y), val a static lower bound on the
valuation, skipping zero rows, and row k of 1 / (1 - f) is h_0 times the sum
of f_i h_(k-i) over i >= 1.
Reading a row of F that is not known yet means the equation is not
contractive, and raises SeriesDivergenceError.  A solve so costs one
computation of each row plus one full-order run of Phi, which verifies
stationarity.

`int_mul` convolves only the nonzero span of each operand, from its first to
its last nonzero coefficient, and writes the product from t^(va + vb) on, va
and vb being the operands' valuations.  The series these engines multiply are
mostly zero at both ends: the bivariate rows hold gall counts only for g below
the row's leaf count, and rung g of the fixed-g ladder has valuation above g.
A bivariate product finds each row's span once and adds each row product over
its own span only.  A span of one coefficient, as in many of the sparse
bivariate rows and low ladder rungs, multiplies the other as a scaling.

Two spans of at least KRONECKER_MIN coefficients, none negative, are
multiplied by Kronecker substitution: each is packed into one `Decimal` with
a fixed-width slot of d decimal digits per coefficient, one libmpdec multiply
forms the whole product with its number-theoretic transform in an exact
context, and the low slots are read back from the digits.  A square passes
one `Decimal` as both operands, which takes libmpdec's squaring path (one
forward transform).  Only slots below the truncation order must fit, since
overflow carries upward; their bound comes from a line of slope p / q laid
over the operands' bit lengths, and was within three digits of the widest
slot in every product of the order-700 closed forms.  Splitting off the
slots past the order (three half-size products) would halve the transform's
scratch memory, but at order 700 one multiply took 0.55 (square) and 0.7
(two operands) of their time, for 0.4 MB more peak memory.  Short spans stay
on the schoolbook loop, which was as fast or faster below 112 coefficients,
where the packed operands of a counting series fit libmpdec's basecase
multiply (256 words of 19 digits), and so do signed spans (only the fixed-g
ladder forms those), which the slots cannot hold.  A slot wider than the
interpreter's int/str digit limit also falls back to schoolbook.
"""

from __future__ import annotations

import decimal
import itertools
import math
import operator
import sys
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple


# Both nonzero spans at least this long: multiply by Kronecker substitution.
KRONECKER_MIN = 112
# Slots read back per string when unpacking a Kronecker product.
_READ_SLOTS = 64
# Exact integer arithmetic: no product this module forms is ever rounded.
_DECIMAL_INTEGERS = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN
)


class SeriesDivergenceError(ArithmeticError):
    """A fixed-point equation read a coefficient of F not yet known (it is not
    contractive), or its solution failed the full-order check."""


def _over_common_den(values) -> Tuple[List[int], int]:
    """Numerators of the values over the lcm of their denominators; that pair
    is already gcd-reduced."""
    fr = [Fraction(c) for c in values]
    den = math.lcm(*(c.denominator for c in fr))
    return [c.numerator * (den // c.denominator) for c in fr], den


def _rescale(nums: Sequence[int], den: int, new_den: int) -> Sequence[int]:
    """Numerators over den rewritten over new_den, a multiple of den."""
    return nums if new_den == den else [x * (new_den // den) for x in nums]


def _grading_scale(terms: Sequence[Tuple[int, int]], den: int, top: int) -> int:
    """A c with every c^s x / den integral, (s, x) in terms, s >= 1 unless x = 0.
    c = den would do, but it grows the integers like den^s; c takes each prime
    p <= top of den only to the least power that suffices, the rest whole."""
    c, rest = 1, den
    for p in range(2, top + 1):
        if rest == 1:
            break
        if rest % p == 0:
            pe = 1
            while rest % p == 0:
                rest, pe = rest // p, pe * p
            k = 1  # each term's test is monotone in k, so one pass finds the least
            for s, x in terms:
                while x * p ** (k * s) % pe:
                    k += 1
            c *= p**k
    return c * rest


class TruncatedSeries:
    """A power series known exactly through order N (inclusive): coefficient
    k is nums[k] / den."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Sequence) -> None:
        nums, self.den = _over_common_den(coeffs)
        self.nums: Tuple[int, ...] = tuple(nums)

    @classmethod
    def _make(cls, nums: Sequence[int], den: int) -> "TruncatedSeries":
        """The series nums / den, gcd-reduced."""
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [x // g for x in nums], den // g
        out = object.__new__(cls)
        out.nums, out.den = tuple(nums), den
        return out

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls._make([0] * (order + 1), 1)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls._make([1] + [0] * order, 1)

    @classmethod
    def t(cls, order: int) -> "TruncatedSeries":
        return cls.one(order).shift_by_t()

    def __getitem__(self, n: int) -> Fraction:
        return Fraction(self.nums[n], self.den) if 0 <= n <= self.order else Fraction(0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncatedSeries)
                and self.nums == other.nums and self.den == other.den)

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"

    def _coerce(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return other
        return TruncatedSeries([other] + [0] * self.order)

    def _linear(self, other, op) -> "TruncatedSeries":
        """op (add or sub) termwise over the lcm of the denominators."""
        if isinstance(other, _Lazy):
            return NotImplemented
        o = self._coerce(other)
        den = math.lcm(self.den, o.den)
        a, b = _rescale(self.nums, self.den, den), _rescale(o.nums, o.den, den)
        return TruncatedSeries._make(list(map(op, a, b)), den)

    def __add__(self, other) -> "TruncatedSeries":
        return self._linear(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other) -> "TruncatedSeries":
        return self._linear(other, operator.sub)

    def __rsub__(self, other) -> "TruncatedSeries":
        return self._coerce(other) - self

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, _Lazy):
            return NotImplemented
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        n = min(self.order, other.order)
        return TruncatedSeries._make(int_mul(self.nums, other.nums, n), self.den * other.den)

    __rmul__ = __mul__

    def scale(self, factor) -> "TruncatedSeries":
        f = Fraction(factor)
        num = f.numerator
        return TruncatedSeries._make([x * num for x in self.nums], self.den * f.denominator)

    def shift_by_t(self) -> "TruncatedSeries":
        """Multiply by t (the leading coefficient drops off the far end)."""
        return TruncatedSeries._make(int_shift_t(self.nums, self.order), self.den)

    def geom_inverse(self) -> "TruncatedSeries":
        """1 / (1 - f) for f with zero constant term.  With t scaled by c, where
        every c^i f_i is an integer, the recursion is integral:
        H_m = c^m h_m = sum_i (c^i f_i) H_(m-i), one `int_geom_inverse`; h comes
        back over c^N."""
        if self.nums[0] != 0:
            raise ValueError("geom_inverse needs a zero constant term")
        n, d = self.order, self.den
        c = _grading_scale(list(enumerate(self.nums)), d, n)
        h = int_geom_inverse([x * c**i // d for i, x in enumerate(self.nums)], n)
        return TruncatedSeries._make([x * c ** (n - m) for m, x in enumerate(h)], c**n)

    def substitute_t_squared(self) -> "TruncatedSeries":
        """f(t^2), truncated at the same order."""
        return TruncatedSeries._make(int_substitute_t_squared(self.nums, self.order), self.den)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries._make(self.nums[: order + 1], self.den)

    def integer_coefficients(self, scale_factorials: bool = False) -> List[int]:
        """Coefficients as exact ints; with scale_factorials, n! * c_n.

        Raises if any value is not integral -- counting series must be.
        """
        out = []
        for n, x in enumerate(self.nums):
            v = x * math.factorial(n) if scale_factorials else x
            q, r = divmod(v, self.den)
            if r:
                raise ValueError(f"coefficient {n} is not an integer: {Fraction(v, self.den)}")
            out.append(q)
        return out


def _row_products(pairs, order: int) -> List[int]:
    """Sum of the row products through u^order over pairs of row spans (from
    `_nonzero_span`), each product added over its nonzero span only."""
    out = [0] * (order + 1)
    for sa, sb in pairs:
        got = _span_mul(sa, sb, order)
        if got is not None:
            v, c = got
            for i, x in enumerate(c, v):
                out[i] += x
    return out


class BivariateSeries:
    """Exact series in t and u, truncated at t-order N and u-order G: the
    t^n u^m coefficient is rows[n][m] / den."""

    __slots__ = ("rows", "den")

    def __init__(self, coeffs: Sequence[Sequence]) -> None:
        coeffs = [tuple(row) for row in coeffs]
        nums, self.den = _over_common_den(itertools.chain.from_iterable(coeffs))
        it = iter(nums)
        self.rows = tuple(tuple(itertools.islice(it, len(row))) for row in coeffs)

    @classmethod
    def _make(cls, rows: Sequence[Sequence[int]], den: int) -> "BivariateSeries":
        """The series rows / den, gcd-reduced."""
        g = math.gcd(den, *itertools.chain.from_iterable(rows))
        if g != 1:
            rows, den = [[x // g for x in row] for row in rows], den // g
        out = object.__new__(cls)
        out.rows, out.den = tuple(map(tuple, rows)), den
        return out

    @property
    def coeffs(self) -> Tuple[Tuple[Fraction, ...], ...]:
        return tuple(self.u_slice(n) for n in range(len(self.rows)))

    @property
    def t_order(self) -> int:
        return len(self.rows) - 1

    @property
    def u_order(self) -> int:
        return len(self.rows[0]) - 1

    @classmethod
    def zero(cls, t_order: int, u_order: int) -> "BivariateSeries":
        return cls._make([[0] * (u_order + 1)] * (t_order + 1), 1)

    @classmethod
    def one(cls, t_order: int, u_order: int) -> "BivariateSeries":
        return cls._make([[1] + [0] * u_order] + [[0] * (u_order + 1)] * t_order, 1)

    @classmethod
    def t(cls, t_order: int, u_order: int) -> "BivariateSeries":
        return cls.one(t_order, u_order).shift_by_t()

    def coefficient(self, n: int, m: int) -> Fraction:
        if 0 <= n <= self.t_order and 0 <= m <= self.u_order:
            return Fraction(self.rows[n][m], self.den)
        return Fraction(0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BivariateSeries)
                and self.rows == other.rows and self.den == other.den)

    def _linear(self, other, op) -> "BivariateSeries":
        """op (add or sub) termwise over the lcm of the denominators."""
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        den = math.lcm(self.den, other.den)
        rows = [list(map(op, _rescale(a, self.den, den), _rescale(b, other.den, den)))
                for a, b in zip(self.rows, other.rows)]
        return BivariateSeries._make(rows, den)

    def __add__(self, other) -> "BivariateSeries":
        return self._linear(other, operator.add)

    def __sub__(self, other) -> "BivariateSeries":
        return self._linear(other, operator.sub)

    def __mul__(self, other) -> "BivariateSeries":
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        N, G = min(self.t_order, other.t_order), self.u_order
        a = [_nonzero_span(row, G) for row in self.rows[: N + 1]]
        b = [_nonzero_span(row, G) for row in other.rows[: N + 1]]
        out = [_row_products(zip(a[: n + 1], b[n::-1]), G) for n in range(N + 1)]
        return BivariateSeries._make(out, self.den * other.den)

    def scale(self, factor) -> "BivariateSeries":
        f = Fraction(factor)
        num = f.numerator
        rows = [[x * num for x in row] for row in self.rows]
        return BivariateSeries._make(rows, self.den * f.denominator)

    def shift_by_t(self) -> "BivariateSeries":
        return BivariateSeries._make(((0,) * (self.u_order + 1),) + self.rows[:-1], self.den)

    def shift_by_u(self) -> "BivariateSeries":
        return BivariateSeries._make([(0,) + row[:-1] for row in self.rows], self.den)

    def geom_inverse(self) -> "BivariateSeries":
        """1 / (1 - f) for f with zero (t^0 u^0) coefficient.  With t and u both
        scaled by c, where every c^(i+j) f_(i,j) is an integer, the graded
        H_(n,m) = c^(n+m) h_(n,m) are integral too: with S_(i,j) =
        c^(i+j) f_(i,j), by rows H_0 = 1 / (1 - S_0) and H_n = H_0 * sum_(i>=1)
        S_i H_(n-i); h comes back over c^(N+G)."""
        if self.rows[0][0] != 0:
            raise ValueError("geom_inverse needs a zero constant term")
        N, G, d = self.t_order, self.u_order, self.den
        terms = [(i + j, x) for i, row in enumerate(self.rows) for j, x in enumerate(row)]
        c = _grading_scale(terms, d, N + G)
        s = [[x * c ** (i + j) // d for j, x in enumerate(row)] for i, row in enumerate(self.rows)]
        h = [int_geom_inverse(s[0], G)]
        spans_s, spans_h = [_nonzero_span(row, G) for row in s], [_nonzero_span(h[0], G)]
        for n in range(1, N + 1):
            h.append(int_mul(h[0], _row_products(zip(spans_s[1 : n + 1], spans_h[::-1]), G), G))
            spans_h.append(_nonzero_span(h[-1], G))
        top = N + G
        rows = [[x * c ** (top - n - m) for m, x in enumerate(row)] for n, row in enumerate(h)]
        return BivariateSeries._make(rows, c**top)

    def substitute_squared(self) -> "BivariateSeries":
        """f(t^2, u^2), truncated at the same orders."""
        N, G = self.t_order, self.u_order
        out = [[0] * (G + 1) for _ in range(N + 1)]
        for n in range(N // 2 + 1):
            out[2 * n] = int_substitute_t_squared(self.rows[n], G)
        return BivariateSeries._make(out, self.den)

    def u_slice(self, n: int) -> Tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.rows[n])


# ---------------------------------------------------------------------------
# Online fixed points.  A row is the t^k coefficient of a series: its u-array
# (one entry for a one-variable series) as (nums, den, span), integer
# numerators over a positive gcd-reduced denominator and their
# `_nonzero_span`, None for a zero row.
# ---------------------------------------------------------------------------


def _row(nums: Sequence[int], den: int):
    """The row nums / den, gcd-reduced."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [x // g for x in nums], den // g
    nums = tuple(nums)
    return nums, den, _nonzero_span(nums, len(nums) - 1)


def _combine(parts, width: int):
    """The row of width entries summing c / d, placed from u^v on, over the
    parts (v, c, d)."""
    den = math.lcm(*[d for _, _, d in parts])
    out = [0] * width
    for v, c, d in parts:
        m = den // d
        for i, x in enumerate(c, v):
            out[i] += x * m
    return _row(out, den)


def _conv_row(x: "_Lazy", y: "_Lazy", lo: int, k: int):
    """Row k of the sum of x_i y_(k-i) over i = lo..k - val(y), skipping
    zero rows of x."""
    parts = []
    for i in range(lo, k - y.val + 1):
        a = x.row(i)
        if a[2] is not None:
            b = y.row(k - i)
            got = _span_mul(a[2], b[2], len(a[0]) - 1)
            if got is not None:
                parts.append((got[0], got[1], a[1] * b[1]))
    return _combine(parts, len(x.zero[0]))


class _Lazy:
    """A series under construction by an online solver.  Row k is computed
    from its operands' rows the first time it is read, and kept.  kind names
    the operation and args its operands (and factor); val is a lower bound
    on the valuation in t, below which rows are zero and never computed.  A
    'const' node holds a known series, and the 'fix' node holds the rows of
    the fixed point that the solver has found so far."""

    __slots__ = ("kind", "args", "zero", "rows", "val")

    def __init__(self, kind: str, args: tuple, zero, rows=None, val=None) -> None:
        self.kind, self.args, self.zero = kind, args, zero
        self.rows = [] if rows is None else rows
        self.val = self._bound() if val is None else val

    def _bound(self) -> int:
        kind, a = self.kind, self.args
        if kind == "mul":
            return a[0].val + a[1].val
        if kind in ("add", "sub"):
            return min(a[0].val, a[1].val)
        if kind == "shift_t":
            return a[0].val + 1
        if kind == "sq":
            return 2 * a[0].val
        if kind == "inv":
            return 0
        return a[0].val  # scale, shift_u

    def row(self, k: int):
        rows = self.rows
        if k < len(rows):
            return rows[k]
        if self.kind == "const":
            return self.zero
        if self.kind == "fix":
            raise SeriesDivergenceError(
                f"the equation is not contractive: row {k} of Phi(F) reads row {k} of F"
            )
        while len(rows) <= k:
            j = len(rows)
            rows.append(self.zero if j < self.val else self._compute(j))
        return rows[k]

    def _compute(self, k: int):
        kind, a = self.kind, self.args
        if kind == "mul":
            return _conv_row(a[0], a[1], a[0].val, k)
        if kind in ("add", "sub"):
            x, y = a[0].row(k), a[1].row(k)
            if y[2] is None:
                return x
            ny = y[0] if kind == "add" else [-v for v in y[0]]
            return _combine([(0, x[0], x[1]), (0, ny, y[1])], len(x[0]))
        if kind == "shift_t":
            return a[0].row(k - 1)
        if kind == "inv":
            return self._inverse_row(k)
        if kind == "sq" and k % 2:
            return self.zero
        nums, den, span = a[0].row(k // 2 if kind == "sq" else k)
        if span is None:
            return self.zero
        if kind == "scale":
            f = a[1]
            num = f.numerator
            return _row([x * num for x in nums], den * f.denominator)
        if kind == "sq":
            return _row(int_substitute_t_squared(nums, len(nums) - 1), den)
        return _row((0,) + nums[:-1], den)  # shift_u

    def _inverse_row(self, k: int):
        """Row k of 1 / (1 - x): h_0 = 1 / (1 - x_0) in u, and h_k = h_0 times
        the sum of x_i h_(k-i) over i >= 1."""
        x = self.args[0]
        if k == 0:
            nums, den, span = x.row(0)
            if nums[0]:
                raise ValueError("geom_inverse needs a zero constant term")
            if span is None:
                return _row((1,) + self.zero[0][1:], 1)
            h = TruncatedSeries._make(nums, den).geom_inverse()
            return _row(h.nums, h.den)
        s = _conv_row(x, self, max(1, x.val), k)
        h0 = self.rows[0]
        if h0[2] == (0, (1,)) and h0[1] == 1:
            return s
        got = _span_mul(h0[2], s[2], len(s[0]) - 1)
        return self.zero if got is None else _combine([(got[0], got[1], h0[1] * s[1])], len(s[0]))

    def _operand(self, other):
        """other as a node of this node's width, or None if it is not a series
        or a rational."""
        if isinstance(other, _Lazy):
            return other
        if isinstance(other, BivariateSeries):
            rows = [_row(r, other.den) for r in other.rows]
        elif isinstance(other, TruncatedSeries):
            rows = [_row((x,), other.den) for x in other.nums]
        elif isinstance(other, (int, Fraction)):
            c = Fraction(other)
            rows = [_row((c.numerator,) + self.zero[0][1:], c.denominator)]
        else:
            return None
        val = next((k for k, r in enumerate(rows) if r[2] is not None), len(rows))
        return _Lazy("const", (), self.zero, rows, val)

    def _binary(self, kind: str, other, swap: bool = False):
        if kind == "mul" and isinstance(other, (int, Fraction)):
            return self.scale(other)
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _Lazy(kind, (o, self) if swap else (self, o), self.zero)

    def __add__(self, other):
        return self._binary("add", other)

    def __radd__(self, other):
        return self._binary("add", other, swap=True)

    def __sub__(self, other):
        return self._binary("sub", other)

    def __rsub__(self, other):
        return self._binary("sub", other, swap=True)

    def __mul__(self, other):
        return self._binary("mul", other)

    def __rmul__(self, other):
        return self._binary("mul", other, swap=True)

    def scale(self, factor) -> "_Lazy":
        return _Lazy("scale", (self, Fraction(factor)), self.zero)

    def shift_by_t(self) -> "_Lazy":
        return _Lazy("shift_t", (self,), self.zero)

    def shift_by_u(self) -> "_Lazy":
        return _Lazy("shift_u", (self,), self.zero)

    def substitute_squared(self) -> "_Lazy":
        """f(t^2, u^2); for a one-variable series, f(t^2)."""
        return _Lazy("sq", (self,), self.zero)

    substitute_t_squared = substitute_squared

    def geom_inverse(self) -> "_Lazy":
        return _Lazy("inv", (self,), self.zero)


def _online_rows(update: Callable, zero, order: int) -> list:
    """Rows 0..order of the fixed point of F = update(F), rows of width
    len(zero[0]).  update runs on the fixed-point node; row k of its result
    then fixes row k of F, reading only rows below k of F, and raises
    SeriesDivergenceError if it reads more.  F is first taken to vanish at
    t = 0 (valuation 1), which row 0 of Phi(F) either confirms, so update
    runs once, or refutes: then F holds that row 0 and update runs again on
    it, building a graph whose valuation bounds start at 0."""
    f = _Lazy("fix", (), zero, [zero], 1)
    phi = f._operand(update(f))
    first = phi.row(0)
    if first[2] is not None:
        f.rows, f.val = [first], 0
        phi = f._operand(update(f))
    for k in range(1, order + 1):
        f.rows.append(phi.row(k))
    return f.rows


def fixed_point_solve(
    update: Callable[[TruncatedSeries], TruncatedSeries], order: int
) -> TruncatedSeries:
    """Solve F = Phi(F) to the given order for equations contractive in the
    coefficient filtration (coefficient n of Phi(F) uses only coefficients
    < n of F).  update runs once on a lazy series (twice when F(0) != 0),
    whose coefficients are each computed once (`_online_rows`), and once more
    at full order on the result, which must be stationary;
    SeriesDivergenceError otherwise.
    """
    if order < 0:
        raise ValueError(f"need order >= 0, got {order}")
    rows = _online_rows(update, ((0,), 1, None), order)
    den = math.lcm(*[d for _, d, _ in rows])
    f = TruncatedSeries._make([nums[0] * (den // d) for nums, d, _ in rows], den)
    if update(f).truncate(order) != f:
        raise SeriesDivergenceError("fixed-point iteration did not stabilize")
    return f


def bivariate_fixed_point(
    update: Callable[[BivariateSeries], BivariateSeries], t_order: int, u_order: int
) -> BivariateSeries:
    """Fixed point of F = Phi(F) for bivariate equations contractive in the
    t-filtration: update runs once on a lazy series (twice when F(0) != 0),
    whose t^k rows are each computed once (`_online_rows`), and a final full-order run verifies
    stationarity."""
    rows = _online_rows(update, ((0,) * (u_order + 1), 1, None), t_order)
    den = math.lcm(*[d for _, d, _ in rows])
    f = BivariateSeries._make([_rescale(nums, d, den) for nums, d, _ in rows], den)
    if update(f) != f:
        raise SeriesDivergenceError("bivariate fixed point did not stabilize")
    return f


# ---------------------------------------------------------------------------
# Integer fast paths on OGF arrays of plain coefficients.
# ---------------------------------------------------------------------------


def _nonzero_span(a: Sequence[int], order: int):
    """(v, a[v:e + 1]) for the first and last nonzero indices v <= e of
    a[:order + 1], or None when that prefix is all zero."""
    e = min(len(a), order + 1)
    v = 0
    while v < e and not a[v]:
        v += 1
    if v == e:
        return None
    while not a[e - 1]:
        e -= 1
    return v, a[v:e]


def _span_mul(sa, sb, order: int):
    """(v, c) with a * b through t^order zero except c[i] at t^(v + i), or
    None when that product is zero, from the spans sa and sb of a and b."""
    if sa is None or sb is None or sa[0] + sb[0] > order:
        return None
    (va, a), (vb, b) = sa, sb
    la, lb = len(a), len(b)
    n = min(order - va - vb, la + lb - 2) + 1  # coefficients c[0..n - 1]
    if la == 1 or lb == 1:  # a monomial times a span is a scaling
        x, ys = (a[0], b) if la == 1 else (b[0], a)
        return va + vb, [x * y for y in ys[:n]]
    if min(la, lb, n) >= KRONECKER_MIN and min(a) >= 0 and min(b) >= 0:
        c = _kronecker_mul(a[:n], b[:n], n)
        if c is not None:
            return va + vb, c
    rb = b[::-1]  # rb[lb - 1 - j] = b[j]
    c = []
    for k in range(n):
        lo, hi = max(0, k - lb + 1), min(k, la - 1)
        c.append(sum(map(operator.mul, a[lo : hi + 1], rb[lb - 1 - k + lo : lb - k + hi])))
    return va + vb, c


def _slot_digits(a: Sequence[int], b: Sequence[int], n: int) -> int:
    """A d with 10^d above every a[i], b[j] and every c_k, k < n, of c = a * b,
    for nonnegative a and b with a[0] and b[0] nonzero.  Bit lengths grow
    about linearly along these series, so they are bounded by lines of one
    slope p / q, the operands' joint rise in bit length from first to last
    coefficient over their joint run: q bitlen(a_i) <= A + p i with
    A = max(q bitlen(a_i) - p i), likewise B for b, so each of the at most
    min(len a, len b) terms of c_k is below 2^((A + B + p k) / q)."""
    ea, eb = [x.bit_length() for x in a], [x.bit_length() for x in b]
    p = max(0, ea[-1] - ea[0] + eb[-1] - eb[0])
    q = max(1, len(a) + len(b) - 2)
    top = (max(q * e - p * i for i, e in enumerate(ea))
           + max(q * e - p * i for i, e in enumerate(eb)) + p * (n - 1))
    bits = max(min(len(a), len(b)).bit_length() - (-top // q), max(ea), max(eb))
    return bits * 30103 // 100000 + 1  # 0.30103 > log10(2), so 10^d > 2^bits


def _kronecker_mul(a: Sequence[int], b: Sequence[int], n: int):
    """c[0..n - 1] of c = a * b for nonnegative a, b of length at most n with
    a[0], b[0] nonzero, or None when a slot's digits exceed the interpreter's
    int/str conversion limit.  Each operand is packed into one Decimal with a
    d-digit slot per coefficient (its value at t = 10^d), and one libmpdec
    multiply forms the whole product with its number-theoretic transform; a
    square passes one Decimal as both operands, which takes libmpdec's
    one-transform squaring path.  Slots below n are the c_k, which fit in d
    digits, and overflow from the slots past them only carries upward, so the
    product is cut to its low n slots before they are read."""
    d = _slot_digits(a, b, n)
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < d:
        return None
    pa = _pack(a, d)
    x = _DECIMAL_INTEGERS.multiply(pa, pa if a == b else _pack(b, d))
    # keep the low n slots only: each read-back shift then copies half the digits
    x = decimal.Context(prec=n * d, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN).shift(x, 0)
    return _read_slots(x, n, d)


def _pack(xs: Sequence[int], d: int) -> decimal.Decimal:
    """sum_i xs[i] 10^(d i), each xs[i] below 10^d, as a Decimal."""
    return decimal.Decimal((f"%0{d}d" * len(xs)) % tuple(reversed(xs)))


def _read_slots(x: decimal.Decimal, n: int, d: int) -> List[int]:
    """The n lowest d-digit slots of the integer x, lowest first.  The digits
    are read _READ_SLOTS slots at a time: shift in a context of that many
    slots' precision keeps only the lowest digits, and a shift right drops
    them, so no string holds more than one chunk."""
    low = decimal.Context(prec=d * _READ_SLOTS, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    c = [0] * n
    for lo in range(0, n, _READ_SLOTS):
        digits = str(low.shift(x, 0))
        for i, j in zip(range(lo, n), range(len(digits), 0, -d)):
            c[i] = int(digits[max(0, j - d) : j])
        x = _DECIMAL_INTEGERS.shift(x, -d * _READ_SLOTS)
    return c


def int_mul(a: Sequence[int], b: Sequence[int], order: int) -> List[int]:
    """Product of OGF arrays through t^order.  Only the nonzero spans of
    a[:order + 1] and b[:order + 1] are convolved, one dot product per
    coefficient, written from t^(va + vb) on for the operands' valuations
    va and vb; a zero operand, or va + vb past order, gives the zero array."""
    out = [0] * (order + 1)
    got = _span_mul(_nonzero_span(a, order), _nonzero_span(b, order), order)
    if got is not None:
        v, c = got
        out[v : v + len(c)] = c
    return out


def int_geom_inverse(f: Sequence[int], order: int) -> List[int]:
    """1 / (1 - f) through t^order, from out[m] = sum_i f[i] out[m - i]."""
    if f[0] != 0:
        raise ValueError("geom_inverse needs a zero constant term")
    lf = min(len(f), order + 1)
    rf = f[1:lf][::-1]  # f[lf - 1], ..., f[1]
    out = [0] * (order + 1)
    out[0] = 1
    for m in range(1, order + 1):
        k = min(m, lf - 1)
        out[m] = sum(map(operator.mul, rf[lf - 1 - k :], out[m - k : m]))
    return out


def int_substitute_t_squared(f: Sequence[int], order: int) -> List[int]:
    out = [0] * (order + 1)
    for k in range(min(len(f) - 1, order // 2) + 1):
        out[2 * k] = f[k]
    return out


def int_shift_t(f: Sequence[int], order: int) -> List[int]:
    return ([0] + list(f[:order]) + [0] * (order - len(f)))[: order + 1]


def int_scale(f: Sequence[int], num: int, den: int) -> List[int]:
    """num / den times each entry, which must stay an integer."""
    out = []
    for v in f:
        q, r = divmod(v * num, den)
        if r:
            raise ValueError("scaling left a non-integer count")
        out.append(q)
    return out
