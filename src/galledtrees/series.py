"""Exact truncated formal power series over the rationals.

`TruncatedSeries` and `BivariateSeries` carry Fraction coefficients so one
kernel serves both ordinary and exponential generating functions; counting
series stay integral and that is asserted, not assumed.  Functional equations
of the shape F = Phi(F) are solved by `fixed_point_solve` and
`bivariate_fixed_point`.  Every equation fed to them is contractive: its right
side carries an extra factor of t, or is quadratic in an F with zero constant
term, so coefficient k of Phi(F) reads only coefficients below k of F.  Pass
k therefore runs Phi on the solution so far, padded to order k, and fixes
coefficient k.  Products cost about the square of the order, so the N + 1
passes together cost about as much as N / 3 passes at full order.  One last
full-order pass verifies stationarity.

The module also provides plain-integer fast paths (`int_mul`,
`int_geom_inverse`, ...) used by the large-order coefficient engines, where
Fraction wrappers would dominate the runtime.  `egf_mul` and friends work on
"count form" arrays A with A[n] = n! * [t^n] f, so exponential series can be
convolved in pure integer arithmetic.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple


class SeriesDivergenceError(ArithmeticError):
    """A fixed-point pass changed a coefficient after its stabilization pass."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class TruncatedSeries:
    """A power series known exactly through order N (inclusive)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence) -> None:
        self.coeffs: Tuple[Fraction, ...] = tuple(_frac(c) for c in coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1] + [0] * order)

    @classmethod
    def t(cls, order: int) -> "TruncatedSeries":
        c = [0] * (order + 1)
        if order >= 1:
            c[1] = 1
        return cls(c)

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n] if 0 <= n <= self.order else Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

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

    def __add__(self, other) -> "TruncatedSeries":
        o = self._coerce(other)
        n = min(self.order, o.order)
        return TruncatedSeries([self.coeffs[i] + o.coeffs[i] for i in range(n + 1)])

    __radd__ = __add__

    def __sub__(self, other) -> "TruncatedSeries":
        o = self._coerce(other)
        n = min(self.order, o.order)
        return TruncatedSeries([self.coeffs[i] - o.coeffs[i] for i in range(n + 1)])

    def __rsub__(self, other) -> "TruncatedSeries":
        return self._coerce(other) - self

    def __mul__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, x in enumerate(self.coeffs[: n + 1]):
            if not x:
                continue
            for j in range(n + 1 - i):
                y = other.coeffs[j]
                if y:
                    out[i + j] += x * y
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def scale(self, factor) -> "TruncatedSeries":
        f = _frac(factor)
        return TruncatedSeries([c * f for c in self.coeffs])

    def shift_by_t(self) -> "TruncatedSeries":
        """Multiply by t (the leading coefficient drops off the far end)."""
        return TruncatedSeries((Fraction(0),) + self.coeffs[:-1])

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
        """1 / (1 - f) for a series f with zero constant term."""
        if self.coeffs[0] != 0:
            raise ValueError("geom_inverse needs a zero constant term")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        out[0] = Fraction(1)
        for m in range(1, n + 1):
            acc = Fraction(0)
            for i in range(1, m + 1):
                if self.coeffs[i]:
                    acc += self.coeffs[i] * out[m - i]
            out[m] = acc
        return TruncatedSeries(out)

    def substitute_t_squared(self) -> "TruncatedSeries":
        """f(t^2), truncated at the same order."""
        out = [Fraction(0)] * (self.order + 1)
        for k in range(self.order // 2 + 1):
            out[2 * k] = self.coeffs[k]
        return TruncatedSeries(out)

    def derivative(self) -> "TruncatedSeries":
        return TruncatedSeries(
            [self.coeffs[k + 1] * (k + 1) for k in range(self.order)] + [Fraction(0)]
        )

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1])

    def integer_coefficients(self, scale_factorials: bool = False) -> List[int]:
        """Coefficients as exact ints; with scale_factorials, n! * c_n.

        Raises if any value is not integral -- counting series must be.
        """
        out = []
        for n, c in enumerate(self.coeffs):
            v = c * math.factorial(n) if scale_factorials else c
            if v.denominator != 1:
                raise ValueError(f"coefficient {n} is not an integer: {v}")
            out.append(v.numerator)
        return out

    def evaluate(self, x: float) -> float:
        """Horner evaluation of the truncated polynomial at a float point."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
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
    coeffs: Tuple[Fraction, ...] = ()
    for k in range(order + 1):
        f = update(TruncatedSeries(coeffs + (Fraction(0),))).truncate(k)
        coeffs = f.coeffs
    if update(f).truncate(order) != f:
        raise SeriesDivergenceError("fixed-point iteration did not stabilize")
    return f


class BivariateSeries:
    """Exact series in t and u, truncated at t-order N and u-order G."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Sequence]) -> None:
        self.coeffs: Tuple[Tuple[Fraction, ...], ...] = tuple(
            tuple(_frac(c) for c in row) for row in coeffs
        )

    @property
    def t_order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def u_order(self) -> int:
        return len(self.coeffs[0]) - 1

    @classmethod
    def zero(cls, t_order: int, u_order: int) -> "BivariateSeries":
        return cls([[0] * (u_order + 1) for _ in range(t_order + 1)])

    @classmethod
    def one(cls, t_order: int, u_order: int) -> "BivariateSeries":
        z = [[0] * (u_order + 1) for _ in range(t_order + 1)]
        z[0][0] = 1
        return cls(z)

    @classmethod
    def t(cls, t_order: int, u_order: int) -> "BivariateSeries":
        z = [[0] * (u_order + 1) for _ in range(t_order + 1)]
        if t_order >= 1:
            z[1][0] = 1
        return cls(z)

    def coefficient(self, n: int, m: int) -> Fraction:
        if 0 <= n <= self.t_order and 0 <= m <= self.u_order:
            return self.coeffs[n][m]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, BivariateSeries) and self.coeffs == other.coeffs

    def __add__(self, other) -> "BivariateSeries":
        return BivariateSeries(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.coeffs, other.coeffs)
            ]
        )

    def __sub__(self, other) -> "BivariateSeries":
        return BivariateSeries(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.coeffs, other.coeffs)
            ]
        )

    def __mul__(self, other) -> "BivariateSeries":
        N, G = min(self.t_order, other.t_order), self.u_order
        out = [[Fraction(0)] * (G + 1) for _ in range(N + 1)]
        for n1, row in enumerate(self.coeffs[: N + 1]):
            for m1, x in enumerate(row):
                if not x:
                    continue
                for n2 in range(N + 1 - n1):
                    orow = other.coeffs[n2]
                    for m2 in range(min(G - m1, len(orow) - 1) + 1):
                        y = orow[m2]
                        if y:
                            out[n1 + n2][m1 + m2] += x * y
        return BivariateSeries(out)

    def scale(self, factor) -> "BivariateSeries":
        f = _frac(factor)
        return BivariateSeries([[c * f for c in row] for row in self.coeffs])

    def shift_by_t(self) -> "BivariateSeries":
        zero_row = (Fraction(0),) * (self.u_order + 1)
        return BivariateSeries((zero_row,) + self.coeffs[:-1])

    def shift_by_u(self) -> "BivariateSeries":
        return BivariateSeries(
            [(Fraction(0),) + row[:-1] for row in self.coeffs]
        )

    def geom_inverse(self) -> "BivariateSeries":
        """1 / (1 - f) for f with zero (t^0 u^0) coefficient."""
        if self.coeffs[0][0] != 0:
            raise ValueError("geom_inverse needs a zero constant term")
        N, G = self.t_order, self.u_order
        out = [[Fraction(0)] * (G + 1) for _ in range(N + 1)]
        out[0][0] = Fraction(1)
        # h = 1 + f*h, filled in graded order of n + m.
        for s in range(1, N + G + 1):
            for n in range(min(s, N) + 1):
                m = s - n
                if m > G:
                    continue
                acc = Fraction(0)
                for i in range(n + 1):
                    frow = self.coeffs[i]
                    for j in range(m + 1):
                        if (i, j) == (0, 0):
                            continue
                        x = frow[j]
                        if x:
                            acc += x * out[n - i][m - j]
                out[n][m] = acc
        return BivariateSeries(out)

    def substitute_squared(self) -> "BivariateSeries":
        """f(t^2, u^2), truncated at the same orders."""
        N, G = self.t_order, self.u_order
        out = [[Fraction(0)] * (G + 1) for _ in range(N + 1)]
        for n in range(N // 2 + 1):
            for m in range(G // 2 + 1):
                out[2 * n][2 * m] = self.coeffs[n][m]
        return BivariateSeries(out)

    def u_slice(self, n: int) -> Tuple[Fraction, ...]:
        return self.coeffs[n]


def bivariate_fixed_point(
    update: Callable[[BivariateSeries], BivariateSeries], t_order: int, u_order: int
) -> BivariateSeries:
    """Fixed point of F = Phi(F) for bivariate equations contractive in the
    t-filtration: pass k runs Phi at t-order k and fixes the t^k row, and a
    final full-order pass verifies stationarity."""
    zero_row = (Fraction(0),) * (u_order + 1)
    rows: Tuple[Tuple[Fraction, ...], ...] = ()
    for k in range(t_order + 1):
        f = update(BivariateSeries(rows + (zero_row,)))
        rows = f.coeffs[: k + 1]
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
