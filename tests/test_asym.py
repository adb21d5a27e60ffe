import math
from fractions import Fraction

import pytest

from galledtrees import asym, genfunc
from galledtrees.asym import CharFamily, DerivativeMode
from galledtrees.comb import catalan, double_factorial_odd
from galledtrees.counts import (
    GENERAL_LABELED,
    GENERAL_UNLABELED,
    SIMPLEX_LABELED,
    SIMPLEX_UNLABELED,
    TC_LABELED,
    TC_UNLABELED,
    simplex_total_sequence,
)

# Written out apart from asym's own map, so that a wrong entry there shows.
FAMILY_SPECS = {
    CharFamily.GENERAL_UNLABELED: GENERAL_UNLABELED,
    CharFamily.GENERAL_LABELED: GENERAL_LABELED,
    CharFamily.SIMPLEX_UNLABELED: SIMPLEX_UNLABELED,
    CharFamily.SIMPLEX_LABELED: SIMPLEX_LABELED,
    CharFamily.TIME_CONSISTENT_UNLABELED: TC_UNLABELED,
    CharFamily.TIME_CONSISTENT_LABELED: TC_LABELED,
}


def test_rho_gamma():
    sc = asym.solve_rho_gamma(60)
    assert abs(sc.rho - 0.40270) <= 5e-6
    assert abs(sc.gamma - 1.13003) <= 5e-6
    assert sc.residual() <= 1e-9


def test_rho_gamma_truncation_guard():
    with pytest.raises(ValueError):
        asym.solve_rho_gamma(10)


def test_beta_values():
    assert asym.beta(1) == Fraction(1, 2)
    assert asym.beta(2) == Fraction(5, 8)
    assert asym.beta(3) == Fraction(21, 16)  # from 2^5 beta_3 = catalan(5) = 42
    with pytest.raises(ValueError):
        asym.beta(0)


def test_beta_catalan_identity():
    for g in range(1, 21):
        assert 2 ** (2 * g - 1) * asym.beta(g) == catalan(2 * g - 1)


def test_beta_double_factorial_identity():
    # (4g-3)!! is the odd double factorial with top factor 2(2g-1) - 1
    for g in range(1, 21):
        assert (
            asym.beta(g) * math.factorial(2 * g) / double_factorial_odd(2 * g - 1) == 1
        )


def test_estimate_guards_and_log_form():
    with pytest.raises(ValueError):
        asym.estimate_log(GENERAL_UNLABELED, 0, 100)
    with pytest.raises(ValueError):
        asym.estimate_log(GENERAL_UNLABELED, 1, 1)
    # labeled one-gall constant is 1/sqrt(pi): check the full log value at one n
    est = asym.asymptotic_estimate(GENERAL_LABELED, 1)
    n = 50
    want = (
        math.log(1 / math.sqrt(math.pi))
        + 0.5 * math.log(n)
        + n * math.log(2)
        + math.lgamma(n + 1)
    )
    assert abs(est.log_value(n) - want) < 1e-12


def test_time_consistent_estimate_is_the_general_one():
    # the general class's root gall with one empty path moves only the
    # second term, so the leading estimates agree at every g
    for tc, general in ((TC_UNLABELED, GENERAL_UNLABELED), (TC_LABELED, GENERAL_LABELED)):
        for g in (1, 2, 3):
            assert asym.asymptotic_estimate(tc, g) == asym.asymptotic_estimate(general, g)
        assert asym.estimate_log(tc, 2, 100) == asym.estimate_log(general, 2, 100)


def test_simplex_estimate_carries_rho_and_half_powers():
    sc = asym.solve_rho_gamma(60)
    n, g = 40, 2
    unl = asym.estimate_log(SIMPLEX_UNLABELED, g, n) - asym.estimate_log(
        GENERAL_UNLABELED, g, n
    )
    assert abs(unl - g * math.log(sc.rho)) < 1e-12
    lab = asym.estimate_log(SIMPLEX_LABELED, g, n) - asym.estimate_log(
        GENERAL_LABELED, g, n
    )
    assert abs(lab + g * math.log(2)) < 1e-12


def test_charsys_simplex_unlabeled():
    sol = asym.solve_charsys(CharFamily.SIMPLEX_UNLABELED, 25)
    assert abs(sol.r - 0.2344) <= 5e-4
    assert abs(sol.s - 0.4349) <= 5e-4
    assert abs(sol.b - 0.0584) <= 5e-4
    assert abs(sol.phi_ww - 5.2993) <= 5e-4
    res = sol.residuals()
    assert res[0] < 1e-8 and res[1] < 1e-8
    # the reported (phi_t, delta) pair needs the replication mode; the faithful
    # evaluation of phi_t at the same point sits 9.2e-3 lower
    rep = asym.solve_charsys(CharFamily.SIMPLEX_UNLABELED, 25, replicate_reported=True)
    assert abs(rep.phi_t - 1.6716) <= 5e-4
    assert abs(rep.delta - 0.3846) <= 5e-4
    assert abs(sol.phi_t - 1.6624) <= 5e-4
    assert abs(sol.delta - 0.38353) <= 5e-4


def test_charsys_simplex_unlabeled_details():
    data = simplex_total_sequence(25)
    sol = asym.solve_charsys(CharFamily.SIMPLEX_UNLABELED, 25)
    # the finite-difference derivative of the totals series, as used for phi_t
    fd = asym.derivative_at(data, sol.r**2, DerivativeMode.FINITE_DIFFERENCE)
    assert abs(fd - 1.1308) <= 2e-3
    exact = asym.derivative_at(data, sol.r**2, DerivativeMode.EXACT_SERIES)
    assert abs(exact - fd) < 1e-2
    # b self-consistency at a deeper truncation
    deeper = asym.series_value(simplex_total_sequence(35), sol.r**2)
    assert abs(sol.b - deeper) < 1e-6


def test_charsys_truncation_insensitive():
    a = asym.solve_charsys(CharFamily.SIMPLEX_UNLABELED, 25)
    b = asym.solve_charsys(CharFamily.SIMPLEX_UNLABELED, 40)
    assert abs(a.r - b.r) < 1e-5
    c = asym.solve_charsys(CharFamily.GENERAL_UNLABELED, 25)
    d = asym.solve_charsys(CharFamily.GENERAL_UNLABELED, 40)
    assert abs(c.r - d.r) < 1e-5


def test_charsys_simplex_labeled_closed_forms():
    sol = asym.solve_charsys(CharFamily.SIMPLEX_LABELED)
    assert abs(sol.r - (3 + math.sqrt(3)) / 18) < 1e-12
    assert abs(sol.s - (3 - math.sqrt(3)) / 3) < 1e-12
    assert abs(sol.delta - 0.3525) <= 5e-4
    assert abs(sol.delta - asym.simplex_labeled_closed_delta()) < 1e-12
    res = sol.residuals()
    assert res[0] < 1e-12 and res[1] < 1e-12


def test_charsys_general_unlabeled():
    sol = asym.solve_charsys(CharFamily.GENERAL_UNLABELED, 25)
    assert abs(sol.r - 0.11647) <= 1e-4
    assert abs(sol.delta - 0.19659) <= 1e-4
    res = sol.residuals()
    assert res[0] < 1e-8 and res[1] < 1e-8


def test_charsys_general_labeled():
    sol = asym.solve_charsys(CharFamily.GENERAL_LABELED)
    assert abs(sol.r - 0.125) <= 1e-6
    assert abs(sol.delta - 0.1894) <= 1e-4
    # the closed form of delta for this family
    assert abs(sol.delta - (17 - math.sqrt(17)) / 68) < 1e-9


def test_charsys_time_consistent_soft_targets():
    sol = asym.solve_charsys(CharFamily.TIME_CONSISTENT_UNLABELED, 25)
    assert abs(sol.r - 0.2073) <= 1e-3
    assert abs(sol.delta - 0.2762) <= 1e-3
    sol = asym.solve_charsys(CharFamily.TIME_CONSISTENT_LABELED)
    assert abs(sol.r - 0.2383) <= 1e-3
    assert abs(sol.delta - 0.2548) <= 1e-3


def test_charsys_truncation_error():
    fam = CharFamily.GENERAL_UNLABELED
    sol = asym.solve_charsys(fam, 3)
    err = sol.truncation_error()
    assert err == abs(sol.delta - asym.solve_charsys(fam, 1).delta)
    # it bounds the true error here, which the residuals cannot see
    true_error = abs(sol.delta - asym.solve_charsys(fam, 50).delta)
    assert err >= true_error > max(sol.residuals())
    # order 1 has no lower order to compare with: unknown for the families
    # that read totals data, none for the labeled ones, whose phi is closed
    assert asym.solve_charsys(fam, 1).truncation_error() == math.inf
    assert asym.solve_charsys(CharFamily.SIMPLEX_UNLABELED, 1).truncation_error() == math.inf
    assert asym.solve_charsys(CharFamily.GENERAL_LABELED, 1).truncation_error() == 0.0
    # the half-order solve keeps the derivative mode and the replication
    fam = CharFamily.SIMPLEX_UNLABELED
    rep = asym.solve_charsys(fam, 25, replicate_reported=True)
    half = asym.solve_charsys(fam, 12, replicate_reported=True)
    assert rep.truncation_error() == abs(rep.delta - half.delta)
    exact = asym.solve_charsys(fam, 25, DerivativeMode.EXACT_SERIES)
    half = asym.solve_charsys(fam, 12, DerivativeMode.EXACT_SERIES)
    assert exact.truncation_error() == abs(exact.delta - half.delta)
    # closed forms carry no truncation
    assert asym.solve_charsys(CharFamily.SIMPLEX_LABELED).truncation_error() == 0.0


@pytest.mark.parametrize("family", list(CharFamily), ids=lambda f: f.value)
def test_charsys_constants_match_exact_totals(family):
    # The exact total over (delta / (2 sqrt(pi))) n^(-3/2) r^(-n) is 1 + c/n + O(n^-2),
    # with c between 0.15 and 0.43; one Richardson step over n = 100, 200 removes c/n.
    # For the labeled families the coefficient is the EGF one, so n! drops out.
    series = genfunc.arbitrary_galls_series(FAMILY_SPECS[family], 200)
    sol = asym.solve_charsys(family, 25, DerivativeMode.EXACT_SERIES)

    def ratio(n):
        c = Fraction(series[n])
        log_estimate = (
            math.log(sol.delta / (2 * math.sqrt(math.pi))) - 1.5 * math.log(n) - n * math.log(sol.r)
        )
        return math.exp(math.log(c.numerator) - math.log(c.denominator) - log_estimate)

    assert abs(2 * ratio(200) - ratio(100) - 1) <= 5e-5


@pytest.mark.parametrize("family", list(CharFamily), ids=lambda f: f.value)
def test_jet_derivatives_match_central_differences(family):
    phi = asym._family_phi(family, 25)
    h = 1e-5
    for t in (0.05, 0.1, 0.2):
        for w in (0.1, 0.3, 0.5):
            j = phi(t, w)
            up, down = phi(t, w + h), phi(t, w - h)
            dw = (up.v - down.v) / (2 * h)
            dww = (up.w - down.w) / (2 * h)
            dt = (phi(t + h, w).v - phi(t - h, w).v) / (2 * h)
            for part, got, want in (("w", j.w, dw), ("ww", j.ww, dww), ("dt", j.dt, dt)):
                assert abs(got - want) <= 1e-6 * abs(want), (t, w, part, got, want)


def test_charsys_replicate_guard():
    with pytest.raises(ValueError):
        asym.solve_charsys(CharFamily.GENERAL_LABELED, replicate_reported=True)


def test_derivative_modes():
    coeffs = [0, 0, 1]  # t^2
    assert asym.derivative_at(coeffs, 0.5, DerivativeMode.EXACT_SERIES) == 1.0
    fd = asym.derivative_at(coeffs, 0.5, DerivativeMode.FINITE_DIFFERENCE)
    assert abs(fd - (0.25 - 0.499**2) / 0.001) < 1e-12


def test_ratio_engine_small_n_agrees_with_counts():
    from galledtrees.counts import count

    for spec in (GENERAL_UNLABELED, SIMPLEX_UNLABELED, GENERAL_LABELED, SIMPLEX_LABELED):
        for g in (1, 2):
            got = asym.exact_fixed_g_count(spec, g, 10, order=12)
            assert got == count(spec, g=g, n=10)


def test_exact_count_refuses_an_order_below_n():
    for spec in (GENERAL_UNLABELED, SIMPLEX_UNLABELED, GENERAL_LABELED, SIMPLEX_LABELED):
        with pytest.raises(ValueError, match="truncation order below requested n"):
            asym.exact_fixed_g_count(spec, 1, 50, order=10)
        with pytest.raises(ValueError, match="truncation order below requested n"):
            asym.ratio_exact_to_estimate(spec, 1, 50, order=49)


@pytest.mark.parametrize("spec", [GENERAL_UNLABELED, SIMPLEX_UNLABELED, GENERAL_LABELED, SIMPLEX_LABELED])
def test_a_negative_n_is_refused(spec):
    # a negative index must not read the array from its end
    for n in (-1, -3):
        with pytest.raises(ValueError, match="need n >= 0"):
            asym.exact_fixed_g_count(spec, 1, n, order=10)


def test_ratios_refuse_n_below_two_before_reading_a_count(monkeypatch):
    def read(*args, **kwargs):
        raise AssertionError("a count was read")

    monkeypatch.setattr(asym, "exact_fixed_g_count", read)
    for n in (-1, 0, 1):
        for spec in (GENERAL_UNLABELED, SIMPLEX_UNLABELED, GENERAL_LABELED, SIMPLEX_LABELED):
            with pytest.raises(ValueError, match="need n >= 2"):
                asym.ratio_exact_to_estimate(spec, 1, n, order=10)
        with pytest.raises(ValueError, match="need n >= 2"):
            asym.simplex_to_general_ratio(1, n, order=10)


def test_ratio_moves_toward_one():
    r60 = asym.ratio_exact_to_estimate(GENERAL_UNLABELED, 1, 60, order=120)
    r120 = asym.ratio_exact_to_estimate(GENERAL_UNLABELED, 1, 120, order=120)
    assert abs(r120 - 1) < abs(r60 - 1) < 1


def test_cross_family_ratio_small():
    sc = asym.solve_rho_gamma(60)
    r = asym.simplex_to_general_ratio(1, 120, order=120)
    assert abs(r / sc.rho - 1) < 0.15


def test_ratio_of_a_zero_count_is_zero():
    # two galls need at least three leaves (general) or four (simplex)
    assert asym.exact_fixed_g_count(GENERAL_UNLABELED, 2, 2) == 0
    assert asym.ratio_exact_to_estimate(GENERAL_UNLABELED, 2, 2) == 0.0
    assert asym.exact_fixed_g_count(SIMPLEX_UNLABELED, 2, 3) == 0
    assert asym.ratio_exact_to_estimate(SIMPLEX_UNLABELED, 2, 3) == 0.0
    assert asym.ratio_exact_to_estimate(GENERAL_UNLABELED, 2, 3) > 0
    # a zero simplex count over a nonzero general one is a ratio of 0
    assert asym.simplex_to_general_ratio(2, 3) == 0.0


def test_cross_family_ratio_refuses_a_zero_general_count():
    with pytest.raises(ValueError, match=r"g = 2 galls and n = 2 leaves"):
        asym.simplex_to_general_ratio(2, 2)


def test_second_term_coefficient_shrinks_the_residual():
    # exact/estimate = 1 + a/sqrt(n) + O(1/n): once the a/sqrt(n) term is
    # divided out, the residual must fall like 1/n, so doubling n should about
    # halve it (a wrong a leaves an n^(-1/2) remainder, a factor near 0.71).
    for spec in (GENERAL_UNLABELED, GENERAL_LABELED, SIMPLEX_UNLABELED, SIMPLEX_LABELED,
                 TC_UNLABELED, TC_LABELED):
        for g in (1, 2):
            a = asym.second_term_coefficient(spec, g)
            res = []
            for n in (120, 240):
                r = asym.ratio_exact_to_estimate(spec, g, n, order=240)
                res.append(abs(r / (1 + a / math.sqrt(n)) - 1))
            assert res[1] <= 0.6 * res[0], (spec, g, a, res)
    # the labeled one-gall general value in closed form: (B/A) Gamma(3/2) / Gamma(1)
    a11 = asym.second_term_coefficient(GENERAL_LABELED, 1)
    assert abs(a11 + math.sqrt(math.pi) / 2) < 1e-12


def test_second_term_coefficient_guards():
    from galledtrees.counts import Labeling, NetworkClass, TreeClassSpec

    for labeling in Labeling:
        spec = TreeClassSpec(NetworkClass.TIME_CONSISTENT, labeling)
        # B/A of the time-consistent Laurent form is three times the general one
        general = TreeClassSpec(NetworkClass.GENERAL, labeling)
        for g in (1, 2):
            a = asym.second_term_coefficient(spec, g)
            assert a == pytest.approx(3 * asym.second_term_coefficient(general, g), rel=1e-14)
        for g in (0, 3):
            with pytest.raises(ValueError):
                asym.second_term_coefficient(spec, g)
    for g in (0, 3):
        with pytest.raises(ValueError):
            asym.second_term_coefficient(GENERAL_UNLABELED, g)
