import math

import pytest

from galledtrees.counts import (
    Labeling,
    NetworkClass,
    TreeClassSpec,
    count,
    labeled_tree_count,
)
from galledtrees.oracle import (
    GallTop,
    _build_dag,
    Internal,
    LEAF,
    aut_order,
    canonical_key,
    canonicalize,
    count_by_galls,
    count_labelings_explicit,
    dump_text,
    galls,
    generate_all,
    labeled_count,
    leaves,
    parse_text,
    validate,
)


def test_generate_counts():
    assert len(generate_all(NetworkClass.GENERAL, 1)) == 1
    assert len(generate_all(NetworkClass.GENERAL, 3)) == 8
    assert len(generate_all(NetworkClass.SIMPLEX_TC, 4)) == 5


def test_count_by_galls_published_rows():
    assert count_by_galls(NetworkClass.GENERAL, 6) == {
        0: 6, 1: 140, 2: 526, 3: 634, 4: 289, 5: 42,
    }
    assert count_by_galls(NetworkClass.SIMPLEX_TC, 7) == {0: 11, 1: 96, 2: 49, 3: 2}
    assert count_by_galls(NetworkClass.GENERAL, 2) == {0: 1, 1: 1}


@pytest.mark.parametrize("ncls", list(NetworkClass))
def test_oracle_matches_recursion_unlabeled(ncls):
    spec = TreeClassSpec(ncls, Labeling.UNLABELED)
    for n in range(1, 8):
        hist = count_by_galls(ncls, n)
        for g in range(spec.max_galls(n) + 1):
            assert hist.get(g, 0) == count(spec, n, g), (ncls, n, g)
        assert all(g <= spec.max_galls(n) for g in hist)


@pytest.mark.parametrize("ncls", list(NetworkClass))
def test_oracle_matches_recursion_labeled(ncls):
    spec = TreeClassSpec(ncls, Labeling.LEAF_LABELED)
    for n in range(1, 6):
        hist = labeled_count(ncls, n)
        for g in range(spec.max_galls(n) + 1):
            assert hist.get(g, 0) == count(spec, n, g), (ncls, n, g)


def test_labeled_count_published_rows():
    assert labeled_count(NetworkClass.GENERAL, 3) == {0: 3, 1: 21, 2: 12}
    assert labeled_count(NetworkClass.SIMPLEX_TC, 5) == {0: 105, 1: 705, 2: 60}
    assert labeled_count(NetworkClass.GENERAL, 1) == {0: 1}


@pytest.mark.parametrize("ncls", list(NetworkClass))
def test_every_generated_structure_validates(ncls):
    for n in range(1, 8):
        for s in generate_all(ncls, n):
            rep = validate(s, ncls)
            assert rep.ok, (dump_text(s), rep.violations)
            assert rep.n_leaves == n


def test_subclass_structures_validate_upward():
    for n in range(1, 7):
        for s in generate_all(NetworkClass.SIMPLEX_TC, n):
            assert validate(s, NetworkClass.TIME_CONSISTENT).ok
            assert validate(s, NetworkClass.GENERAL).ok
        for s in generate_all(NetworkClass.TIME_CONSISTENT, n):
            assert validate(s, NetworkClass.GENERAL).ok


def test_validate_class_boundaries():
    # top node adjacent to the reticulation: general yes, time-consistent no
    g1 = GallTop((LEAF,), (), LEAF)
    assert validate(g1, NetworkClass.GENERAL).ok
    assert not validate(g1, NetworkClass.TIME_CONSISTENT).ok
    # reticulation subtree bigger than a leaf: time-consistent yes, simplex no
    g2 = GallTop((LEAF,), (LEAF,), Internal(LEAF, LEAF))
    assert validate(g2, NetworkClass.TIME_CONSISTENT).ok
    assert not validate(g2, NetworkClass.SIMPLEX_TC).ok
    # plain tree is fine in all three classes
    t = Internal(LEAF, LEAF)
    for ncls in NetworkClass:
        rep = validate(t, ncls)
        assert rep.ok and rep.n_galls == 0


def test_validate_flags_parallel_edges():
    rep = validate(GallTop((), (), LEAF), NetworkClass.GENERAL)
    assert not rep.ok
    assert any("parallel" in v for v in rep.violations)


def test_generation_guard():
    with pytest.raises(ValueError):
        generate_all(NetworkClass.GENERAL, 99)
    with pytest.raises(ValueError):
        generate_all(NetworkClass.GENERAL, 0)


def test_canonicalization_idempotent_and_key_stable():
    for n in range(1, 7):
        for s in generate_all(NetworkClass.GENERAL, n):
            c = canonicalize(parse_text(dump_text(s)))
            assert canonical_key(c) == canonical_key(s)
            assert canonical_key(canonicalize(c)) == canonical_key(s)


def test_gall_orientation_is_single_canonical_form():
    a = GallTop((LEAF,), (Internal(LEAF, LEAF),), LEAF)
    b = GallTop((Internal(LEAF, LEAF),), (LEAF,), LEAF)
    assert canonical_key(a) == canonical_key(b)
    # but order within one path matters
    c = GallTop((LEAF, Internal(LEAF, LEAF)), (), LEAF)
    d = GallTop((Internal(LEAF, LEAF), LEAF), (), LEAF)
    assert canonical_key(c) != canonical_key(d)


def test_text_round_trip():
    for ncls in NetworkClass:
        for n in range(1, 6):
            for s in generate_all(ncls, n):
                text = dump_text(s)
                back = parse_text(text)
                assert canonical_key(back) == canonical_key(s)
                assert dump_text(canonicalize(back)) == dump_text(canonicalize(s))
    with pytest.raises(ValueError):
        parse_text("(x,x")
    with pytest.raises(ValueError):
        parse_text("x,x")


def test_automorphism_sanity():
    # sum over gall-free shapes of n!/|Aut| is the labeled tree count
    for n in range(1, 7):
        tot = sum(
            math.factorial(n) // aut_order(s)
            for s in generate_all(NetworkClass.GENERAL, n)
            if galls(s) == 0
        )
        assert tot == labeled_tree_count(n)


@pytest.mark.parametrize("ncls", list(NetworkClass))
def test_explicit_labeling_cross_check(ncls):
    for n in range(1, 5):
        for s in generate_all(ncls, n):
            assert count_labelings_explicit(s, n) == math.factorial(n) // aut_order(s)


def test_leaves_and_galls_tally():
    s = GallTop((Internal(LEAF, LEAF),), (LEAF,), GallTop((LEAF,), (), LEAF))
    assert leaves(s) == 5
    assert galls(s) == 2


@pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
def test_canonical_key_merges_every_isomorphism_class():
    # networkx as an outside referee: no two structures that canonical_key
    # keeps apart may be isomorphic as directed graphs.  Weisfeiler-Lehman
    # hashes are isomorphism invariants, so only structures sharing a hash
    # need the full isomorphism test.
    nx = pytest.importorskip("networkx")
    for cls in NetworkClass:
        for n in range(1, 7):
            buckets = {}
            for s in generate_all(cls, n):
                _, n_nodes, edges = _build_dag(s)
                g = nx.DiGraph(edges)
                g.add_nodes_from(range(1, n_nodes + 1))
                buckets.setdefault(nx.weisfeiler_lehman_graph_hash(g), []).append(g)
            for graphs in buckets.values():
                for i, g in enumerate(graphs):
                    assert not any(nx.is_isomorphic(g, h) for h in graphs[i + 1 :]), (cls, n)
