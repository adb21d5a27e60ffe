"""Singularity analysis: dominant singularities, asymptotic constants, and
characteristic systems for the arbitrary-gall counting series.

The base-tree singularity (rho, gamma) comes from the square-root expansion
of the tree equation: rho solves r + 1/2 + U(r^2)/2 = 1 (the vanishing
discriminant), and gamma = sqrt(2 rho (1 + rho U'(rho^2))).  Arguments of the
form r^2 sit well inside the disk of convergence, so modest truncation orders
give full double precision.

Arbitrary-gall families are handled through the smooth implicit-function
schema (Flajolet & Sedgewick, Analytic Combinatorics, Thm VII.3): solve
s = phi(r, s), 1 = phi_w(r, s), and report delta = sqrt(2 r phi_t / phi_ww),
giving counts ~ (delta / (2 sqrt(pi))) n^(-3/2) r^(-n) (times n! in the
labeled cases).  phi is the family's equation from `genfunc._equation`,
evaluated over a float jet (`_Jet`) that carries the w, ww and t derivatives
along, with F(t^2) read from the exact totals series as data.  rho and both
characteristic equations are solved by one bracketed Newton iteration
(`_newton`), each with its slope from the same evaluation.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .comb import partition_multinomial, weighted_partitions
from .counts import (
    GENERAL_LABELED,
    GENERAL_UNLABELED,
    SIMPLEX_LABELED,
    SIMPLEX_UNLABELED,
    TC_LABELED,
    TC_UNLABELED,
    Labeling,
    NetworkClass,
    TreeClassSpec,
    simplex_total_sequence,
    wedderburn_sequence,
)
from . import genfunc

SQRT_PI = math.sqrt(math.pi)


class DerivativeMode(Enum):
    EXACT_SERIES = "exact"
    # Backward difference with step 0.001 on the truncated partial sums,
    # kept for replicating reported constants.
    FINITE_DIFFERENCE = "finite-difference"


def series_value(coeffs: Sequence[int], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def derivative_at(
    coeffs: Sequence[int], x: float, mode: DerivativeMode = DerivativeMode.EXACT_SERIES
) -> float:
    """Derivative of the truncated series at a point in (0, radius)."""
    if mode is DerivativeMode.EXACT_SERIES:
        return series_value([n * c for n, c in enumerate(coeffs)][1:], x)
    step = 0.001
    return (series_value(coeffs, x) - series_value(coeffs, x - step)) / step


def _newton(f: Callable[[float], Tuple[float, float]], lo: float, hi: float) -> float:
    """Root of f on [lo, hi], where f(x) gives (value, slope) and the value
    changes sign on the bracket.  Each step is Newton's when it lands inside
    the bracket that the signs seen so far leave, and a bisection otherwise."""
    flo, fhi = f(lo)[0], f(hi)[0]
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise ArithmeticError(f"no sign change on [{lo}, {hi}]")
    x = 0.5 * (lo + hi)
    for _ in range(100):
        fx, slope = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (flo < 0.0):
            lo = x
        else:
            hi = x
        step = fx / slope if slope else math.inf
        if abs(step) <= 1e-15 * abs(x):
            return x - step
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    return x


class SingularConstants(NamedTuple):
    rho: float
    gamma: float
    truncation_n: int

    def residual(self) -> float:
        """|1 - 2 rho - U(rho^2)| -- the defining condition, equivalently
        U(rho) = 1 through the solved quadratic branch."""
        u = wedderburn_sequence(self.truncation_n)
        return abs(1.0 - 2.0 * self.rho - series_value(u, self.rho * self.rho))


@lru_cache(maxsize=None)
def solve_rho_gamma(order: int = 60) -> SingularConstants:
    """Radius rho and square-root amplitude gamma of the unlabeled tree series."""
    if order < 40:
        raise ValueError("need order >= 40 for a stable rho bracket")
    u = wedderburn_sequence(order)

    def condition(r):  # and its slope, which gamma reads at the root
        return r + 0.5 + 0.5 * series_value(u, r * r) - 1.0, 1.0 + r * derivative_at(u, r * r)

    rho = _newton(condition, 1e-9, 0.5 - 1e-9)
    gamma = math.sqrt(2.0 * rho * condition(rho)[1])
    return SingularConstants(rho=rho, gamma=gamma, truncation_n=order)


@lru_cache(maxsize=None)
def beta(g: int) -> Fraction:
    """Leading-constant sequence of the simplex fixed-gall series, in exact
    rationals: beta_1 = 1/2 and a convolution-plus-partition recurrence."""
    if g < 1:
        raise ValueError(f"need g >= 1, got {g}")
    if g == 1:
        return Fraction(1, 2)
    acc = Fraction(1, 2) * sum(beta(l) * beta(g - l) for l in range(1, g))
    for wp in weighted_partitions(g - 1):
        ls = sum(wp.values())
        prod = Fraction(1)
        for m, k in wp.items():
            prod *= beta(m) ** k
        acc += Fraction(partition_multinomial(wp) * (ls + 1), 2) * prod
    return acc


class AsymptoticEstimate(NamedTuple):
    """Leading-order growth C * n^p * base^n (times n! when includes_factorial),
    held in log space so huge counts never overflow."""

    log_constant: float
    poly_exponent: float
    log_base: float
    includes_factorial: bool

    def log_value(self, n: int) -> float:
        out = self.log_constant + self.poly_exponent * math.log(n) + n * self.log_base
        if self.includes_factorial:
            out += math.lgamma(n + 1)
        return out


def asymptotic_estimate(spec: TreeClassSpec, g: int, order: int = 60) -> AsymptoticEstimate:
    """Leading-order estimate of the fixed-g count for the family; g >= 1.

    The time-consistent estimate is the general one: the general class's
    root gall with one empty path moves only the second term.
    """
    if g < 1:
        raise ValueError(f"fixed-gall estimates need g >= 1, got {g}")
    simplex = spec.network_class is NetworkClass.SIMPLEX_TC
    if spec.labeling is Labeling.UNLABELED:
        sc = solve_rho_gamma(order)
        log_c = (
            (2 * g - 1) * math.log(2.0)
            - math.lgamma(2 * g + 1)
            - (4 * g - 1) * math.log(sc.gamma)
            - math.log(SQRT_PI)
        )
        if simplex:
            log_c += g * math.log(sc.rho)
        return AsymptoticEstimate(log_c, 2 * g - 1.5, -math.log(sc.rho), False)
    log_c = (2 * g - 1) * math.log(2.0) - math.lgamma(2 * g + 1) - math.log(SQRT_PI)
    if simplex:
        log_c -= g * math.log(2.0)
    return AsymptoticEstimate(log_c, 2 * g - 1.5, math.log(2.0), True)


def estimate_log(spec: TreeClassSpec, g: int, n: int, order: int = 60) -> float:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return asymptotic_estimate(spec, g, order).log_value(n)


def second_term_coefficient(spec: TreeClassSpec, g: int) -> float:
    """The a in exact(n) / estimate(n) = 1 + a / sqrt(n) + O(1/n), g in {1, 2}.

    Write s = sqrt(1 - 2t - U(t^2)) for the unlabeled families and
    v = sqrt(1 - 2t) for the labeled ones, so 1 - U = s (or v).  Each g-gall
    closed form is then A s^(-k) + B s^(-k+1) + O(s^(-k+2)) with k = 4g - 1.
    Every term carrying U(t^2) enters at least two half-powers below the top,
    and so does the change of an analytic factor such as t near the
    singularity (t - rho is of order s^2); the factor's value there scales A
    and B alike.  So B / A is the same for both labelings and is read off the
    class's labeled Laurent form; the general and time-consistent ones share A.
    Since s = gamma sqrt(1 - t/rho) (1 + O(1 - t/rho)), transfer of the two
    top terms gives a = (B/A) gamma Gamma(k/2) / Gamma((k-1)/2), with
    gamma = 1 for the labeled families.
    """
    if g not in (1, 2):
        raise ValueError(f"second-term coefficients cover g in {{1, 2}}, got {g}")
    labeled = TreeClassSpec(spec.network_class, Labeling.LEAF_LABELED)
    laurent = genfunc._labeled_laurent(labeled, g)
    k = 4 * g - 1
    b_over_a = float(laurent.get(1 - k, 0) / laurent[-k])
    gamma = 1.0 if spec.is_labeled else solve_rho_gamma().gamma
    return b_over_a * gamma * math.exp(math.lgamma(k / 2) - math.lgamma((k - 1) / 2))


# ---------------------------------------------------------------------------
# Characteristic systems for the arbitrary-gall series.
# ---------------------------------------------------------------------------


class CharFamily(Enum):
    GENERAL_UNLABELED = "general-unlabeled"
    GENERAL_LABELED = "general-labeled"
    SIMPLEX_UNLABELED = "simplex-unlabeled"
    SIMPLEX_LABELED = "simplex-labeled"
    TIME_CONSISTENT_UNLABELED = "time-consistent-unlabeled"
    TIME_CONSISTENT_LABELED = "time-consistent-labeled"


class CharSysSolution(NamedTuple):
    family: CharFamily
    r: float
    s: float
    b: Optional[float]
    phi_t: float
    phi_ww: float
    delta: float
    truncation_n: int
    mode: Optional[DerivativeMode] = None
    replicate_reported: bool = False

    def residuals(self) -> Tuple[float, float]:
        """(|phi(r,s) - s|, |phi_w(r,s) - 1|) recomputed from scratch."""
        j = _family_phi(self.family, self.truncation_n)(self.r, self.s)
        return abs(j.v - self.s), abs(j.w - 1.0)

    def truncation_error(self) -> float:
        """|delta(N) - delta(N // 2)| for truncation order N.

        The residuals are taken against the same truncated data, so they
        cannot see truncation error; halving the order exposes it.  Below
        order 2 there is no lower order to compare with: the error is
        unknown (inf) for the families that read totals data, and 0.0 for
        the labeled ones, whose phi is closed."""
        if self.truncation_n < 2:
            return 0.0 if _FAMILY_SPECS[self.family].is_labeled else math.inf
        half = solve_charsys(
            self.family, self.truncation_n // 2, self.mode, self.replicate_reported
        )
        return abs(self.delta - half.delta)


_FAMILY_SPECS = {
    CharFamily.GENERAL_UNLABELED: GENERAL_UNLABELED,
    CharFamily.GENERAL_LABELED: GENERAL_LABELED,
    CharFamily.SIMPLEX_UNLABELED: SIMPLEX_UNLABELED,
    CharFamily.SIMPLEX_LABELED: SIMPLEX_LABELED,
    CharFamily.TIME_CONSISTENT_UNLABELED: TC_UNLABELED,
    CharFamily.TIME_CONSISTENT_LABELED: TC_LABELED,
}


@lru_cache(maxsize=None)
def _totals_data(family: CharFamily, order: int) -> Optional[List[int]]:
    """The totals series that phi reads at t^2, None for the labeled families."""
    spec = _FAMILY_SPECS[family]
    if spec.is_labeled:
        return None
    if family is CharFamily.SIMPLEX_UNLABELED:
        return simplex_total_sequence(order)
    return genfunc.arbitrary_galls_series(spec, order).integer_coefficients()


class _Jet:
    """A function of (t, w) at one point: its value v and its derivatives
    w = d/dw, ww = d^2/dw^2 and dt = d/dt, carrying the point's t for
    `shift_by_t`.  `genfunc._equation` runs over it unchanged."""

    __slots__ = ("v", "w", "ww", "dt", "t")

    def __init__(self, v: float, w: float, ww: float, dt: float, t: float) -> None:
        self.v, self.w, self.ww, self.dt, self.t = v, w, ww, dt, t

    def __add__(self, o: "_Jet") -> "_Jet":
        return _Jet(self.v + o.v, self.w + o.w, self.ww + o.ww, self.dt + o.dt, self.t)

    def __mul__(self, o: "_Jet") -> "_Jet":
        return _Jet(
            self.v * o.v,
            self.w * o.v + self.v * o.w,
            self.ww * o.v + 2.0 * self.w * o.w + self.v * o.ww,
            self.dt * o.v + self.v * o.dt,
            self.t,
        )

    def scale(self, c) -> "_Jet":
        c = float(c)
        return _Jet(c * self.v, c * self.w, c * self.ww, c * self.dt, self.t)

    def shift_by_t(self) -> "_Jet":
        t = self.t
        return _Jet(t * self.v, t * self.w, t * self.ww, t * self.dt + self.v, t)

    def geom_inverse(self) -> "_Jet":
        h = 1.0 / (1.0 - self.v)
        hh = h * h
        ww = hh * self.ww + 2.0 * hh * h * self.w * self.w
        return _Jet(h, hh * self.w, ww, hh * self.dt, self.t)


def _family_phi(
    family: CharFamily, order: int, mode: DerivativeMode = DerivativeMode.EXACT_SERIES
) -> Callable[[float, float], _Jet]:
    """phi(t, w) as a `_Jet`, for the family's functional equation
    F(t) = phi(t, F(t)) from `genfunc._equation`, with F(t^2) folded in as
    known data where it occurs."""
    spec = _FAMILY_SPECS[family]
    data = _totals_data(family, order)

    # solve_charsys tries many w at one t; keeping the last t's data spares
    # each of them the two series sums.
    @lru_cache(maxsize=1)
    def f2(t):
        if data is None:
            return None
        x = t * t
        return _Jet(series_value(data, x), 0.0, 0.0, 2.0 * t * derivative_at(data, x, mode), t)

    def phi(t, w):
        f = _Jet(w, 1.0, 0.0, 0.0, t)
        return genfunc._equation(spec, f, f2(t), _Jet(t, 0.0, 0.0, 1.0, t), lambda x: x)

    return phi


def solve_charsys(
    family: CharFamily,
    order: int = 25,
    mode: DerivativeMode | None = None,
    replicate_reported: bool = False,
) -> CharSysSolution:
    """Solve the family's characteristic system s = phi(r, s), 1 = phi_w(r, s).

    For each r, s(r) solves 1 = phi_w(r, w) by bracketed Newton on w (slope
    phi_ww); r then solves phi(r, s(r)) = s(r) by bracketed Newton too, whose
    slope is phi_t(r, s(r)) since phi_w = 1 along s(r).  Families that read
    totals data keep r <= 0.30, so r^2 stays inside that series' disk.  For
    simplex-unlabeled the reported phi_t uses the finite-difference
    derivative of the totals series by default, matching how the widely
    quoted constants were produced; pass mode explicitly for the
    exact-series derivative.

    replicate_reported (simplex-unlabeled only) re-evaluates phi_t the way
    the quoted (phi_t, delta) pair of approximately (1.6716, 0.3846) was
    evidently computed: the final term of phi_t picks up a squared
    derivative factor, t^2 A'(t^2)^2 / (1 - A(t^2))^2, instead of the
    t^2 A'(t^2) / (1 - A(t^2))^2 that differentiating the functional
    equation actually yields.  The (r, s, b) location is unaffected; only
    phi_t and delta move (5.5e-3 and 1.1e-3 respectively).
    """
    if mode is None:
        mode = (
            DerivativeMode.FINITE_DIFFERENCE
            if family is CharFamily.SIMPLEX_UNLABELED
            else DerivativeMode.EXACT_SERIES
        )
    if replicate_reported and family is not CharFamily.SIMPLEX_UNLABELED:
        raise ValueError("replicate_reported applies to the simplex-unlabeled family only")
    phi = _family_phi(family, order, mode)
    data = _totals_data(family, order)

    def s_of(r):
        def inner(w):
            j = phi(r, w)
            return j.w - 1.0, j.ww

        return _newton(inner, 1e-9, 1.0 - 1e-9)

    def outer(r):
        s = s_of(r)
        j = phi(r, s)
        return j.v - s, j.dt

    r = _newton(outer, 1e-4, 0.45 if data is None else 0.30)
    s = s_of(r)
    j = phi(r, s)
    b = None if data is None else series_value(data, r * r)
    pt = j.dt
    if replicate_reported:
        aprime = derivative_at(data, r * r, mode)
        correct_last = r * r * aprime / (1.0 - b) ** 2
        pt = pt - correct_last + correct_last * aprime
    delta = math.sqrt(2.0 * r * pt / j.ww)
    return CharSysSolution(
        family=family, r=r, s=s, b=b, phi_t=pt, phi_ww=j.ww, delta=delta, truncation_n=order,
        mode=mode, replicate_reported=replicate_reported,
    )


def simplex_labeled_closed_delta() -> float:
    """The closed-form delta of the labeled simplex family."""
    return (9.0 - math.sqrt(3.0)) * math.sqrt(3.0 * (9.0 + math.sqrt(3.0))) / 117.0


# ---------------------------------------------------------------------------
# Exact-versus-estimate ratio studies (the large-n convergence checks).
# ---------------------------------------------------------------------------

def exact_fixed_g_count(spec: TreeClassSpec, g: int, n: int, order: Optional[int] = None) -> int:
    """Exact count at one n through the large-order engines (g in {1, 2}),
    order >= n >= 0: off the labeled Laurent form term by term, or off the
    unlabeled closed forms' shared ring at that order."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    order = n if order is None else order
    if order < n:
        raise ValueError("truncation order below requested n")
    if spec.labeling is Labeling.LEAF_LABELED:
        return genfunc.labeled_fixed_g_count_at(spec, g, n)
    return genfunc.unlabeled_fixed_g_count_at(spec, g, n, order)


def ratio_exact_to_estimate(
    spec: TreeClassSpec, g: int, n: int, order: Optional[int] = None
) -> float:
    """exact(n) / estimate(n), computed in log space; exactly 0.0 when no
    network with g galls has n leaves."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    exact = exact_fixed_g_count(spec, g, n, order)
    if exact == 0:
        return 0.0
    return math.exp(math.log(exact) - estimate_log(spec, g, n))


def simplex_to_general_ratio(g: int, n: int, order: Optional[int] = None) -> float:
    """Exact simplex/general unlabeled count ratio at one n (compares to rho^g).
    Raises ValueError when there is no general network to divide by."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    spec_s = TreeClassSpec(NetworkClass.SIMPLEX_TC, Labeling.UNLABELED)
    spec_g = TreeClassSpec(NetworkClass.GENERAL, Labeling.UNLABELED)
    b = exact_fixed_g_count(spec_g, g, n, order)
    if b == 0:
        raise ValueError(f"no general unlabeled network has g = {g} galls and n = {n} leaves")
    a = exact_fixed_g_count(spec_s, g, n, order)
    return math.exp(math.log(a) - math.log(b)) if a else 0.0
