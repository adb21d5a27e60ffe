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
coefficients below k of F.  Pass k therefore runs Phi on the solution so far,
padded to order k, and fixes coefficient k.  Products cost about the square of
the order, so the N + 1 passes together cost about as much as N / 3 passes at
full order.  One last full-order pass verifies stationarity.

`egf_mul` and friends work on "count form" arrays A with A[n] = n! * [t^n] f,
so exponential series can be convolved in pure integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple


class SeriesDivergenceError(ArithmeticError):
    """A fixed-point pass changed a coefficient after its stabilization pass."""


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
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        n = min(self.order, other.order)
        return TruncatedSeries._make(int_mul(self.nums, other.nums, n), self.den * other.den)

    __rmul__ = __mul__

    def scale(self, factor) -> "TruncatedSeries":
        f = Fraction(factor)
        return TruncatedSeries._make([x * f.numerator for x in self.nums], self.den * f.denominator)

    def shift_by_t(self) -> "TruncatedSeries":
        """Multiply by t (the leading coefficient drops off the far end)."""
        return TruncatedSeries._make(int_shift_t(self.nums, self.order), self.den)

    def pow(self, k: int) -> "TruncatedSeries":
        if k < 0:
            raise ValueError(f"need k >= 0, got {k}")
        out = TruncatedSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

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

    def derivative(self) -> "TruncatedSeries":
        return TruncatedSeries._make([k * x for k, x in enumerate(self.nums)][1:] + [0], self.den)

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

    def evaluate(self, x: float) -> float:
        """Horner evaluation of the truncated polynomial at a float point."""
        acc = 0.0
        for c in reversed(self.nums):
            acc = acc * x + c / self.den
        return acc


def fixed_point_solve(
    update: Callable[[TruncatedSeries], TruncatedSeries], order: int
) -> TruncatedSeries:
    """Solve F = Phi(F) to the given order for equations contractive in the
    coefficient filtration (coefficient n of Phi(F) uses only coefficients
    < n of F).  Pass k, for k = 0..order, runs Phi on the solution so far
    padded with a zero to order k, which fixes coefficient k.  A final pass
    at full order verifies stationarity and raises SeriesDivergenceError
    otherwise.
    """
    nums, den = (), 1
    for k in range(order + 1):
        f = update(TruncatedSeries._make(nums + (0,), den)).truncate(k)
        nums, den = f.nums, f.den
    if update(f).truncate(order) != f:
        raise SeriesDivergenceError("fixed-point iteration did not stabilize")
    return f


def _row_products(pairs, order: int) -> List[int]:
    """Sum of int_mul(a, b, order) over the pairs of rows, zero rows skipped."""
    out = [0] * (order + 1)
    for a, b in pairs:
        if any(a) and any(b):
            out = list(map(operator.add, out, int_mul(a, b, order)))
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
        den = math.lcm(self.den, other.den)
        rows = [list(map(op, _rescale(a, self.den, den), _rescale(b, other.den, den)))
                for a, b in zip(self.rows, other.rows)]
        return BivariateSeries._make(rows, den)

    def __add__(self, other) -> "BivariateSeries":
        return self._linear(other, operator.add)

    def __sub__(self, other) -> "BivariateSeries":
        return self._linear(other, operator.sub)

    def __mul__(self, other) -> "BivariateSeries":
        N, G = min(self.t_order, other.t_order), self.u_order
        a, b = self.rows, other.rows
        out = [_row_products(zip(a[: n + 1], b[n::-1]), G) for n in range(N + 1)]
        return BivariateSeries._make(out, self.den * other.den)

    def scale(self, factor) -> "BivariateSeries":
        f = Fraction(factor)
        rows = [[x * f.numerator for x in row] for row in self.rows]
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
        for n in range(1, N + 1):
            h.append(int_mul(h[0], _row_products(zip(s[1 : n + 1], h[::-1]), G), G))
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


def bivariate_fixed_point(
    update: Callable[[BivariateSeries], BivariateSeries], t_order: int, u_order: int
) -> BivariateSeries:
    """Fixed point of F = Phi(F) for bivariate equations contractive in the
    t-filtration: pass k runs Phi at t-order k and fixes the t^k row, and a
    final full-order pass verifies stationarity."""
    zero_row = (0,) * (u_order + 1)
    rows, den = (), 1
    for k in range(t_order + 1):
        f = update(BivariateSeries._make(rows + (zero_row,), den))
        rows, den = f.rows[: k + 1], f.den
    if update(f) != f:
        raise SeriesDivergenceError("bivariate fixed point did not stabilize")
    return f


# ---------------------------------------------------------------------------
# Integer fast paths.  OGF arrays hold plain coefficients; EGF "count form"
# arrays hold n! * [t^n] f, multiplied via binomial convolution.
# ---------------------------------------------------------------------------


def int_mul(a: Sequence[int], b: Sequence[int], order: int) -> List[int]:
    """Product of OGF arrays through t^order, one dot product per coefficient."""
    la, lb = min(len(a), order + 1), min(len(b), order + 1)
    out = [0] * (order + 1)
    rb = b[:lb][::-1]  # rb[lb - 1 - j] = b[j]
    for n in range(min(order, la + lb - 2) + 1):
        lo, hi = max(0, n - lb + 1), min(n, la - 1)
        out[n] = sum(map(operator.mul, a[lo : hi + 1], rb[lb - 1 - n + lo : lb - n + hi]))
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


def egf_mul(a: Sequence[int], b: Sequence[int], order: int) -> List[int]:
    """Product of count-form arrays: C[n] = sum_i binom(n, i) A[i] B[n-i]."""
    out = [0] * (order + 1)
    row = [1]
    for n in range(order + 1):
        acc = 0
        for i in range(max(0, n - len(b) + 1), min(n, len(a) - 1) + 1):
            x = a[i]
            if x:
                y = b[n - i]
                if y:
                    acc += row[i] * x * y
        out[n] = acc
        row = [1] + [row[i] + row[i + 1] for i in range(n)] + [1]
    return out


def egf_geom_inverse(f: Sequence[int], order: int) -> List[int]:
    """Count form of 1 / (1 - f) for an EGF f with zero constant term."""
    if f[0] != 0:
        raise ValueError("geom_inverse needs a zero constant term")
    out = [0] * (order + 1)
    out[0] = 1
    row = [1]
    for n in range(1, order + 1):
        row = [1] + [row[i] + row[i + 1] for i in range(n - 1)] + [1]
        out[n] = sum(
            row[i] * f[i] * out[n - i]
            for i in range(1, min(n, len(f) - 1) + 1)
            if f[i]
        )
    return out


def egf_shift_t(f: Sequence[int], order: int) -> List[int]:
    """Count form of t * f: n! [t^n](t f) = n * F[n-1]."""
    out = [0] * (order + 1)
    for n in range(1, order + 1):
        if n - 1 < len(f):
            out[n] = n * f[n - 1]
    return out


def egf_scale(f: Sequence[int], num: int, den: int) -> List[int]:
    out = []
    for v in f:
        q, r = divmod(v * num, den)
        if r:
            raise ValueError("scaling left a non-integer count")
        out.append(q)
    return out
