import math
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from galledtrees import genfunc
from galledtrees.counts import (
    ALL_SPECS,
    GENERAL_LABELED,
    GENERAL_UNLABELED,
    SIMPLEX_LABELED,
    SIMPLEX_UNLABELED,
    TC_LABELED,
    TC_UNLABELED,
    Labeling,
    count,
    total,
)

CLOSED_FORM_SPECS = (GENERAL_UNLABELED, GENERAL_LABELED, SIMPLEX_UNLABELED, SIMPLEX_LABELED)


def test_base_tree_series():
    u = genfunc.base_tree_series(Labeling.UNLABELED, 8)
    assert u.integer_coefficients() == [0, 1, 1, 1, 2, 3, 6, 11, 23]
    ul = genfunc.base_tree_series(Labeling.LEAF_LABELED, 5)
    assert ul.integer_coefficients(scale_factorials=True) == [0, 1, 1, 3, 15, 105]


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
        genfunc.closed_small_g(TC_UNLABELED, 1, 10)


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
    fast = genfunc.fixed_g_counts(spec, g, 24)
    slow = genfunc.fixed_g_series(spec, g, 24).integer_coefficients(
        scale_factorials=spec.is_labeled
    )
    assert fast == slow


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


def test_fast_path_guards():
    with pytest.raises(ValueError):
        genfunc.fixed_g_counts(GENERAL_UNLABELED, 3, 10)
    with pytest.raises(ValueError):
        genfunc.fixed_g_counts(TC_UNLABELED, 1, 10)


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


@pytest.mark.parametrize("spec", [GENERAL_LABELED, SIMPLEX_LABELED])
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
        assert genfunc.labeled_fixed_g_count_at(spec, g, n) == want


def test_labeled_expansion_guards():
    with pytest.raises(ValueError):
        genfunc.labeled_fixed_g_count_at(GENERAL_UNLABELED, 1, 5)
    with pytest.raises(ValueError):
        genfunc.labeled_fixed_g_count_at(GENERAL_LABELED, 3, 5)
