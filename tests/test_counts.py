import math
from enum import Enum

import pytest

from galledtrees import comb, counts, genfunc
from galledtrees.counts import (
    ALL_SPECS,
    EXACT_ENGINE_LIMIT,
    GENERAL_LABELED,
    GENERAL_UNLABELED,
    Labeling,
    NetworkClass,
    SIMPLEX_LABELED,
    SIMPLEX_UNLABELED,
    TC_LABELED,
    TC_UNLABELED,
    TreeClassSpec,
    build_table,
    count,
    labeled_tree_count,
    simplex_total_direct,
    simplex_total_sequence,
    total,
    wedderburn,
    wedderburn_sequence,
)

# spot values from the four published tables
TABLE_SPOTS = [
    (GENERAL_UNLABELED, 5, 2, 113),
    (GENERAL_UNLABELED, 7, 4, 3198),
    (GENERAL_UNLABELED, 12, 11, 58786),
    (GENERAL_LABELED, 5, 2, 8550),
    (GENERAL_LABELED, 3, 1, 21),
    (GENERAL_LABELED, 8, 7, 17297280),
    (SIMPLEX_UNLABELED, 9, 4, 3),
    (SIMPLEX_UNLABELED, 15, 7, 23),
    (SIMPLEX_UNLABELED, 10, 2, 3657),
    (SIMPLEX_LABELED, 7, 3, 3150),
    (SIMPLEX_LABELED, 9, 4, 317520),
    (SIMPLEX_LABELED, 5, 2, 60),
]


@pytest.mark.parametrize("spec,n,g,want", TABLE_SPOTS)
def test_table_spot_values(spec, n, g, want):
    assert count(spec, n, g) == want


def test_out_of_range_gall_counts_are_zero():
    assert count(SIMPLEX_UNLABELED, 4, 2) == 0
    assert count(GENERAL_UNLABELED, 4, 4) == 0
    assert count(TC_UNLABELED, 2, 1) == 0


def test_input_errors_are_distinct_from_zero_counts():
    with pytest.raises(ValueError):
        count(GENERAL_UNLABELED, 0, 0)
    with pytest.raises(ValueError):
        count(GENERAL_UNLABELED, 3, -1)
    with pytest.raises(ValueError):
        total(GENERAL_UNLABELED, -2)


def test_wedderburn():
    assert [wedderburn(n) for n in range(1, 9)] == [1, 1, 1, 2, 3, 6, 11, 23]
    assert wedderburn(6) == 6
    assert wedderburn(8) == 23
    for n in range(1, 13):
        assert wedderburn(n) == count(GENERAL_UNLABELED, n, 0)


def test_wedderburn_sequence_matches_base_tree_fixed_point():
    # U = t + (U^2 + U(t^2)) / 2 solved as a series: an independent fixed point
    want = genfunc.base_tree_series(Labeling.UNLABELED, 80).integer_coefficients()
    assert wedderburn_sequence(80) == want
    assert wedderburn_sequence(0) == [0] and wedderburn_sequence(1) == [0, 1]


def test_labeled_tree_count():
    assert labeled_tree_count(1) == 1
    assert labeled_tree_count(4) == 15
    assert labeled_tree_count(10) == 34459425
    for n in range(1, 10):
        assert labeled_tree_count(n) == count(GENERAL_LABELED, n, 0)


def test_totals():
    assert total(GENERAL_UNLABELED, 6) == 1637
    assert total(GENERAL_UNLABELED, 9) == 547539
    assert total(SIMPLEX_UNLABELED, 15) == 5344385
    assert total(SIMPLEX_LABELED, 5) == 870
    assert total(GENERAL_LABELED, 7) == 32171580


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_row_sum_identity(spec):
    top = 12 if spec is GENERAL_LABELED else 15
    top = min(top, EXACT_ENGINE_LIMIT)
    for n in range(1, top + 1):
        assert total(spec, n) == sum(
            count(spec, n, g) for g in range(spec.max_galls(n) + 1)
        )


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_rows_match_series_engine_to_exact_limit(spec):
    # The recursion and the generating functions are derived independently;
    # every row the exact engine serves must agree with them.
    top = EXACT_ENGINE_LIMIT
    totals = genfunc.arbitrary_galls_series(spec, top).integer_coefficients(
        scale_factorials=spec.is_labeled
    )
    assert [total(spec, n) for n in range(1, top + 1)] == totals[1:top + 1]
    if spec.network_class is NetworkClass.TIME_CONSISTENT:
        return  # no closed small-g form for this class
    for g in (1, 2):
        column = genfunc.closed_small_g(spec, g, top).integer_coefficients(
            scale_factorials=spec.is_labeled
        )
        assert [count(spec, n, g) for n in range(1, top + 1)] == column[1:top + 1]


def test_simplex_total_direct_matches_rowsums():
    for n in range(1, 16):
        assert simplex_total_direct(n) == total(SIMPLEX_UNLABELED, n)


def test_simplex_total_direct_large_values():
    assert simplex_total_direct(7) == 158
    assert simplex_total_direct(16) == 20665633
    seq = simplex_total_sequence(25)
    assert seq[17] == 80394281
    assert seq[20] == 4875984643
    assert seq[25] == 4911122651176


def test_maximal_gall_identities():
    for n in range(2, 13):
        assert count(GENERAL_UNLABELED, n, n - 1) == comb.catalan(n - 1)
        assert count(GENERAL_LABELED, n, n - 1) == comb.catalan(n - 1) * math.factorial(n)
    for n in range(3, 16, 2):
        m = (n + 1) // 2
        assert count(SIMPLEX_UNLABELED, n, (n - 1) // 2) == wedderburn(m)
        assert count(SIMPLEX_LABELED, n, (n - 1) // 2) == (
            labeled_tree_count(m) * math.factorial(n) // math.factorial(m)
        )


def test_dominance_chain():
    for n in range(1, 11):
        for g in range(n):
            gen_u = count(GENERAL_UNLABELED, n, g)
            tc_u = count(TC_UNLABELED, n, g)
            sim_u = count(SIMPLEX_UNLABELED, n, g)
            assert sim_u <= tc_u <= gen_u
            gen_l = count(GENERAL_LABELED, n, g)
            tc_l = count(TC_LABELED, n, g)
            sim_l = count(SIMPLEX_LABELED, n, g)
            assert sim_l <= tc_l <= gen_l


def test_labeled_at_least_unlabeled():
    for n in range(1, 11):
        for g in range(n):
            assert count(GENERAL_LABELED, n, g) >= count(GENERAL_UNLABELED, n, g)
            assert count(SIMPLEX_LABELED, n, g) >= count(SIMPLEX_UNLABELED, n, g)


def test_build_table():
    t = build_table(GENERAL_UNLABELED, 6)
    assert t.row(6) == (6, 140, 526, 634, 289, 42)
    assert t.row_totals[6] == 1637
    assert t.row(1) == (1,)
    single = build_table(GENERAL_UNLABELED, 1)
    assert single.entries == {(1, 0): 1}
    with pytest.raises(ValueError):
        build_table(GENERAL_UNLABELED, 0)


def test_full_row_values_against_published_rows():
    assert build_table(GENERAL_UNLABELED, 8).row(8) == (
        23, 1072, 8076, 21604, 26024, 15217, 4189, 429,
    )
    assert build_table(GENERAL_LABELED, 6).row(6) == (
        945, 39330, 196560, 297360, 166320, 30240,
    )
    assert build_table(SIMPLEX_UNLABELED, 13).row(13) == (
        983, 40364, 153943, 135839, 32331, 1803, 11,
    )
    assert build_table(SIMPLEX_LABELED, 8).row(8) == (
        135135, 3487680, 3916080, 352800,
    )


def test_max_galls_rule():
    assert GENERAL_UNLABELED.max_galls(7) == 6
    assert TC_UNLABELED.max_galls(7) == 3
    assert SIMPLEX_LABELED.max_galls(8) == 3
    with pytest.raises(ValueError):
        GENERAL_UNLABELED.max_galls(0)


def test_build_table_keeps_one_cache_entry_per_row(monkeypatch):
    monkeypatch.setattr(counts, "_row_cache", {})
    total(GENERAL_UNLABELED, 5)
    counts.clear_cache()
    assert counts._row_cache == {}
    n = 12
    for spec in ALL_SPECS:
        table = build_table(spec, n)
        family = {key[2]: entry for key, entry in counts._row_cache.items()
                  if key[:2] == (spec.network_class.value, spec.labeling.value)}
        assert sorted(family) == list(range(1, n + 1))
        # each entry is the row and the composition sums A and B of its n
        assert all(len(entry) == 3 and entry[0] == table.row(m) for m, entry in family.items())
    assert len(counts._row_cache) == n * len(ALL_SPECS)


def test_warm_counts_hash_no_enum(monkeypatch):
    for spec in ALL_SPECS:
        total(spec, 12)
    hashed = []
    real = Enum.__hash__
    monkeypatch.setattr(Enum, "__hash__", lambda self: hashed.append(self) or real(self))
    assert {NetworkClass.GENERAL: 1} and hashed == [NetworkClass.GENERAL]  # the spy sees them
    hashed.clear()
    for spec in ALL_SPECS:
        for n in range(1, 13):
            assert total(spec, n) == sum(count(spec, n, g) for g in range(spec.max_galls(n) + 1))
    assert hashed == []
    # the cache keys leave the spec itself as it was: equal, hashed and shown by value
    spec = TreeClassSpec(NetworkClass.GENERAL, Labeling.UNLABELED)
    assert spec == GENERAL_UNLABELED and hash(spec) == hash(GENERAL_UNLABELED)
    assert {spec: 1}[GENERAL_UNLABELED] == 1
    assert repr(spec) == ("TreeClassSpec(network_class=<NetworkClass.GENERAL: 'general'>, "
                          "labeling=<Labeling.UNLABELED: 'unlabeled'>)")


# -- reference: the per-part-count recursion --------------------------------
#
# The row recursion as it was before the running composition sums: every
# convolution power P_k(v) (the sum over compositions of v into k parts of the
# convolved rows, labeled compositions weighted by the multinomial) is built
# separately for each k.  A table to n costs O(n^5) products here.


def _reference_rows(spec, max_n):
    labeled = spec.is_labeled
    general = spec.network_class is NetworkClass.GENERAL
    simplex = spec.network_class is NetworkClass.SIMPLEX_TC
    rows = [None, (1,)]
    powers = {}  # (k, v) -> P_k(v) for k >= 2

    def conv(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def stretch2(row):
        out = [0] * (2 * len(row) - 1)
        out[::2] = row
        return out

    def add_root_gall(acc, vec, weight=1):
        for h, v in enumerate(vec):
            acc[h + 1] += weight * v

    def power(k, v):
        if k == 1:
            return rows[v]
        if (k, v) not in powers:
            acc = [0] * (v - k + 1)
            for f in range(1, v - k + 2):
                w = math.comb(v, f) if labeled else 1
                for h, x in enumerate(conv(rows[f], power(k - 1, v - f))):
                    acc[h] += w * x
            powers[(k, v)] = acc
        return powers[(k, v)]

    for n in range(2, max_n + 1):
        sym, extra = [0] * (2 * n), [0] * (2 * n)
        for a in range(1, n):
            for h, x in enumerate(conv(rows[a], rows[n - a])):
                sym[h] += (math.comb(n, a) if labeled else 1) * x
        if not labeled and n % 2 == 0:
            for h, v in enumerate(rows[n // 2]):
                sym[2 * h] += v
        for k in range(3, n + 1):
            if simplex:
                add_root_gall(sym, power(k - 1, n - 1), (k - 2) * (n if labeled else 1))
            else:
                add_root_gall(sym, power(k, n), k - 2)
        if not labeled:
            if simplex:
                if n % 2 == 1:
                    half = (n - 1) // 2
                    for a in range(1, half + 1):
                        add_root_gall(sym, stretch2(power(a, half)))
            else:
                for a in range(1, (n - 1) // 2 + 1):
                    for s in range(a, (n - 1) // 2 + 1):
                        add_root_gall(sym, conv(stretch2(power(a, s)), rows[n - 2 * s]))
        if general:
            for k in range(2, n + 1):
                add_root_gall(extra, power(k, n))
        assert all(v % 2 == 0 for v in sym)
        rows.append(tuple(sym[g] // 2 + extra[g] for g in range(spec.max_galls(n) + 1)))
        assert not any(sym[spec.max_galls(n) + 1:]) and not any(extra[spec.max_galls(n) + 1:])
    return rows


def _reference_simplex_totals(max_n):
    # the prefix sequence's convolution powers, one memo entry per (j, v)
    a = [0] * (max_n + 1)
    a[1] = 1
    memo = {}

    def comp_power(j, v):
        if j == 1:
            return a[v] if v >= 1 else 0
        if (j, v) not in memo:
            memo[(j, v)] = sum(comp_power(j - 1, v - i) * a[i] for i in range(1, v - j + 2))
        return memo[(j, v)]

    for n in range(2, max_n + 1):
        s = sum(a[m] * a[n - m] for m in range(1, n))
        if n % 2 == 0:
            s += a[n // 2]
        s += sum((k - 2) * comp_power(k - 1, n - 1) for k in range(3, n + 1))
        if n % 2 == 1:
            half = (n - 1) // 2
            s += sum(comp_power(q, half) for q in range(1, half + 1))
        assert s % 2 == 0
        a[n] = s // 2
    return a


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_rows_match_per_part_count_reference(spec):
    ref = _reference_rows(spec, 20)
    for n in range(1, 21):
        assert tuple(count(spec, n, g) for g in range(spec.max_galls(n) + 1)) == ref[n], n


def test_simplex_total_sequence_matches_per_part_count_reference():
    assert simplex_total_sequence(60) == _reference_simplex_totals(60)
