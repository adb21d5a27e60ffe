import math
from dataclasses import fields

import pytest

from galledtrees.bijections import (
    all_plane_trees,
    all_tree_shapes,
    plane_to_saturated_general,
    tree_to_saturated_simplex,
)
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
    Leaf,
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


def test_validate_decides_class_membership_exactly():
    # every structure of every class, validated against every class, is
    # accepted exactly when the class's own generator produces its key
    for n in range(1, 7):
        members = {c: {s.key for s in generate_all(c, n)} for c in NetworkClass}
        for source in NetworkClass:
            for s in generate_all(source, n):
                for c in NetworkClass:
                    assert validate(s, c).ok == (s.key in members[c]), (dump_text(s), c)


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
                _, children = _build_dag(s)
                g = nx.DiGraph((a, b) for a, cs in enumerate(children) for b in cs)
                g.add_nodes_from(range(1, len(children)))
                buckets.setdefault(nx.weisfeiler_lehman_graph_hash(g), []).append(g)
            for graphs in buckets.values():
                for i, g in enumerate(graphs):
                    assert not any(nx.is_isomorphic(g, h) for h in graphs[i + 1 :]), (cls, n)


# -- stored keys and tallies against an independent reference ----------------


def _reference_key(s) -> bytes:
    # the recursive encoder: every subtree's key rebuilt at each call
    if isinstance(s, Leaf):
        return b"L"
    if isinstance(s, Internal):
        a, b = sorted((_reference_key(s.left), _reference_key(s.right)))
        return b"I" + _ref_blob(a) + _ref_blob(b)
    ls = tuple(_reference_key(x) for x in s.left_seq)
    rs = tuple(_reference_key(x) for x in s.right_seq)
    if (rs, ls) < (ls, rs):
        ls, rs = rs, ls
    body = _ref_blob(bytes([len(ls)]) + b"".join(_ref_blob(k) for k in ls))
    body += _ref_blob(bytes([len(rs)]) + b"".join(_ref_blob(k) for k in rs))
    body += _ref_blob(_reference_key(s.ret_child))
    return b"G" + body


def _ref_blob(b: bytes) -> bytes:
    return len(b).to_bytes(4, "big") + b


def _dag_tallies(s):
    """(leaves, reticulations) counted on the explicit DAG."""
    parents, children = _build_dag(s)
    nodes = range(1, len(children))
    return sum(not children[v] for v in nodes), sum(len(parents[v]) == 2 for v in nodes)


def _mirror_text(s) -> str:
    """dump_text of the mirror image: split children and gall paths swapped."""
    if isinstance(s, Leaf):
        return "x"
    if isinstance(s, Internal):
        return f"({_mirror_text(s.right)},{_mirror_text(s.left)})"
    ls = ",".join(_mirror_text(x) for x in s.right_seq)
    rs = ",".join(_mirror_text(x) for x in s.left_seq)
    return f"[{ls}|{rs};{_mirror_text(s.ret_child)}]"


def _generated():
    for cls in NetworkClass:
        for n in range(1, 7):
            yield from generate_all(cls, n)


def _parsed():
    for s in _generated():
        yield parse_text(dump_text(s))
        yield parse_text(_mirror_text(s))


def _canonicalized():
    for s in _parsed():
        yield canonicalize(s)


def _plane_images():
    for n in range(1, 7):
        for t in all_plane_trees(n):
            yield plane_to_saturated_general(t)


def _shape_images():
    for m in range(1, 7):
        for shape in all_tree_shapes(m):
            yield tree_to_saturated_simplex(shape)


@pytest.mark.parametrize(
    "source", [_generated, _parsed, _canonicalized, _plane_images, _shape_images],
    ids=lambda f: f.__name__.strip("_"),
)
def test_stored_key_and_tallies_match_reference(source):
    checked = 0
    for s in source():
        assert canonical_key(s) == _reference_key(s), dump_text(s)
        assert (leaves(s), galls(s)) == _dag_tallies(s), dump_text(s)
        checked += 1
    assert checked > 0
    assert (canonical_key(LEAF), leaves(LEAF), galls(LEAF)) == (b"L", 1, 0)


def test_stored_fields_stay_out_of_eq_hash_and_repr():
    for cls in (Internal, GallTop):
        stored = [f.name for f in fields(cls) if not f.compare or not f.repr]
        assert stored == ["key", "n_leaves", "n_galls"]
    cherry = Internal(LEAF, LEAF)
    assert repr(cherry) == "Internal(left=Leaf(), right=Leaf())"
    assert not hasattr(cherry, "__dict__")
    # equal trees built separately: equal, with equal hashes over the structure alone
    a = parse_text("[(x,x)|x;[x|;x]]")
    b = GallTop((Internal(LEAF, LEAF),), (LEAF,), GallTop((LEAF,), (), LEAF))
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(b) == hash((b.left_seq, b.right_seq, b.ret_child))
    assert hash(cherry) == hash((LEAF, LEAF))
    assert repr(b) == (
        "GallTop(left_seq=(Internal(left=Leaf(), right=Leaf()),), right_seq=(Leaf(),), "
        "ret_child=GallTop(left_seq=(Leaf(),), right_seq=(), ret_child=Leaf()))"
    )
    # the mirror image shares the key but is a different plane structure
    m = parse_text(_mirror_text(b))
    assert canonical_key(m) == canonical_key(b) and m != b
