import copy
import itertools
import math
import pickle
from enum import Enum

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
    _expansion,
    _report,
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
def test_oracle_matches_recursion_unlabeled(ncls, monkeypatch):
    # n = 8 is the default brute-force guard
    monkeypatch.delenv("GALLED_MAX_N", raising=False)
    spec = TreeClassSpec(ncls, Labeling.UNLABELED)
    for n in range(1, 9):
        hist = count_by_galls(ncls, n)
        for g in range(spec.max_galls(n) + 1):
            assert hist.get(g, 0) == count(spec, n, g), (ncls, n, g)
            # generation is canonical: a bucket is a sorted list, not merged by key
            keys = [s.key for s in generate_all(ncls, n, g)]
            assert len(set(keys)) == len(keys), (ncls, n, g)
        assert all(g <= spec.max_galls(n) for g in hist)


@pytest.mark.parametrize("ncls", list(NetworkClass))
def test_oracle_matches_recursion_labeled(ncls, monkeypatch):
    monkeypatch.delenv("GALLED_MAX_N", raising=False)
    spec = TreeClassSpec(ncls, Labeling.LEAF_LABELED)
    for n in range(1, 9):
        hist = labeled_count(ncls, n)
        for g in range(spec.max_galls(n) + 1):
            assert hist.get(g, 0) == count(spec, n, g), (ncls, n, g)


def test_labeled_count_refuses_an_automorphism_order_not_dividing_n_factorial(monkeypatch):
    # an explicit error, not an assert that python -O would strip
    import galledtrees.oracle as oracle_module

    monkeypatch.setattr(oracle_module, "aut_order", lambda s: 4)
    with pytest.raises(ArithmeticError, match="does not divide 3!"):
        labeled_count(NetworkClass.GENERAL, 3)


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


@pytest.mark.parametrize("raw", ["x", "2.5", "", "0", "-3"])
def test_generation_guard_refuses_a_malformed_cap(monkeypatch, raw):
    monkeypatch.setenv("GALLED_MAX_N", raw)
    with pytest.raises(ValueError, match="GALLED_MAX_N must be a positive integer"):
        generate_all(NetworkClass.GENERAL, 3)


def test_canonicalization_idempotent_and_key_stable():
    for n in range(1, 7):
        for s in generate_all(NetworkClass.GENERAL, n):
            c = canonicalize(parse_text(dump_text(s)))
            assert canonical_key(c) == canonical_key(s)
            assert canonical_key(canonicalize(c)) == canonical_key(s)
            # the mirror image, split children and gall paths swapped,
            # reorders to the same structure
            assert canonicalize(parse_text(_mirror_text(s))) == c, dump_text(s)


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


def _reference_aut(s) -> int:
    # the recursive automorphism order: every subtree's order and key rebuilt
    if isinstance(s, Leaf):
        return 1
    if isinstance(s, Internal):
        out = _reference_aut(s.left) * _reference_aut(s.right)
        if _reference_key(s.left) == _reference_key(s.right):
            out *= 2
        return out
    out = _reference_aut(s.ret_child)
    for x in s.left_seq + s.right_seq:
        out *= _reference_aut(x)
    if [_reference_key(x) for x in s.left_seq] == [_reference_key(x) for x in s.right_seq]:
        out *= 2
    return out


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
        assert aut_order(s) == _reference_aut(s), dump_text(s)
        checked += 1
    assert checked > 0
    assert (canonical_key(LEAF), leaves(LEAF), galls(LEAF), aut_order(LEAF)) == (b"L", 1, 0, 1)


def test_stored_fields_stay_out_of_eq_hash_and_repr():
    # the slots are the structural fields, then the stored ones
    for cls, structural in ((Internal, ("left", "right")),
                            (GallTop, ("left_seq", "right_seq", "ret_child"))):
        assert cls.__slots__ == structural + ("key", "n_leaves", "n_galls", "aut", "size",
                                              "scan")
    cherry = Internal(LEAF, LEAF)
    assert repr(cherry) == "Internal(left=Leaf(), right=Leaf())"
    assert not hasattr(cherry, "__dict__")
    # equal trees built separately: equal, with equal hashes, read off the
    # canonical key so that no depth is out of hash's reach
    a = parse_text("[(x,x)|x;[x|;x]]")
    b = GallTop((Internal(LEAF, LEAF),), (LEAF,), GallTop((LEAF,), (), LEAF))
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(b) == hash(canonical_key(b))
    assert hash(cherry) == hash(canonical_key(cherry))
    assert repr(b) == (
        "GallTop(left_seq=(Internal(left=Leaf(), right=Leaf()),), right_seq=(Leaf(),), "
        "ret_child=GallTop(left_seq=(Leaf(),), right_seq=(), ret_child=Leaf()))"
    )
    # the mirror image shares the key but is a different plane structure
    m = parse_text(_mirror_text(b))
    assert canonical_key(m) == canonical_key(b) and m != b
    # the scan, stored when the node is built, changes none of that
    assert b.scan is a.scan and "scan" not in repr(b)
    # the nodes are frozen: no field can be assigned or deleted
    for node in (cherry, b):
        for name in type(node).__slots__:
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)
    assert cherry.left is LEAF
    # copying and pickling rebuild a node from its structural fields, down to
    # the one LEAF, and with them its interned scan
    import galledtrees.oracle as oracle_module

    assert oracle_module._SCANS[b.scan] is b.scan
    for c in (copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
        assert c is not b and c == b and canonical_key(c) == canonical_key(b)
        assert c.scan is b.scan and c.ret_child.ret_child is LEAF


# -- the flat expansion against the recursive one -----------------------------


def _reference_build_dag(s):
    # the recursive expansion: every subtree rebuilt node by node
    parents, children = [[]], [[]]

    def new_node():
        parents.append([])
        children.append([])
        return len(parents) - 1

    def edge(a, b):
        children[a].append(b)
        parents[b].append(a)

    def build(sub):
        v = new_node()
        if isinstance(sub, Leaf):
            return v
        if isinstance(sub, Internal):
            edge(v, build(sub.left))
            edge(v, build(sub.right))
            return v
        ret = new_node()
        for seq in (sub.left_seq, sub.right_seq):
            prev = v
            for piece in seq:
                w = new_node()
                edge(prev, w)
                edge(w, build(piece))
                prev = w
            edge(prev, ret)
        edge(ret, build(sub.ret_child))
        return v

    build(s)
    return parents, children


def _reference_validate(s, network_class):
    # the adjacency-list validator over the recursive expansion
    parents, children = _reference_build_dag(s)
    n_nodes = len(parents) - 1
    violations = []
    bad = violations.append

    if any(len(c) > 1 and len(set(c)) < len(c) for c in children):
        bad("parallel edges (not a simple graph)")

    leaf_nodes, ret_nodes = [], []
    if n_nodes > 1:
        for v in range(1, n_nodes + 1):
            deg = (len(parents[v]), len(children[v]))
            if v == 1:
                if deg != (0, 2):
                    bad(f"root degree {deg}")
            elif deg == (1, 0):
                leaf_nodes.append(v)
            elif deg == (1, 2):
                pass
            elif deg == (2, 1):
                ret_nodes.append(v)
            else:
                bad(f"node {v} has illegal degree {deg}")

    expected_leaves = 1 if n_nodes == 1 else len(leaf_nodes)
    if expected_leaves != leaves(s):
        bad(f"leaf tally {expected_leaves} != structural {leaves(s)}")
    if len(ret_nodes) != galls(s):
        bad(f"reticulation tally {len(ret_nodes)} != structural {galls(s)}")

    def up_chain(v):
        chain = [v]
        while len(parents[chain[-1]]) == 1:
            chain.append(parents[chain[-1]][0])
        return chain

    cycles, path_lengths = [], []
    for r in ret_nodes:
        chain_a = up_chain(parents[r][0])
        chain_b = up_chain(parents[r][1])
        pos_b = {v: i for i, v in enumerate(chain_b)}
        top_idx = next(((ia, pos_b[v]) for ia, v in enumerate(chain_a) if v in pos_b), None)
        if top_idx is None:
            bad(f"reticulation {r}: parent paths never meet")
            continue
        ia, ib = top_idx
        cycles.append({r} | set(chain_a[: ia + 1]) | set(chain_b[: ib + 1]))
        path_lengths.append((ia + 1, ib + 1))

    seen = {}
    for i, cyc in enumerate(cycles):
        for v in cyc:
            if v in seen:
                bad(f"node {v} lies in two reticulation cycles")
            seen[v] = i

    if network_class is not NetworkClass.GENERAL:
        for (la, lb), r in zip(path_lengths, ret_nodes):
            if min(la, lb) < 2:
                bad(f"reticulation {r}: a gall path has fewer than 2 edges")
    if network_class is NetworkClass.SIMPLEX_TC:
        for r in ret_nodes:
            if children[children[r][0]]:
                bad(f"reticulation {r}: subtree below it is not a single leaf")
    return leaves(s), galls(s), violations


def test_single_parents_come_first_in_preorder():
    # the merge walk in validate relies on it: every node with exactly one
    # parent comes after that parent, so parent chains strictly decrease
    checked = 0
    for cls in NetworkClass:
        for n in range(1, 8):
            for s in generate_all(cls, n):
                for x in (s, parse_text(_mirror_text(s))):
                    recs = _expansion(x)
                    assert all(p[0] > 0 for p, _ in recs if len(p) == 1), dump_text(x)
                    checked += 1
    assert checked == 2 * 13553


def _assert_matches_reference(s):
    assert _build_dag(s) == _reference_build_dag(s), dump_text(s)
    for c in NetworkClass:
        rep = validate(s, c)
        assert (rep.n_leaves, rep.n_galls, rep.violations) == _reference_validate(s, c), (
            dump_text(s), c)


def test_flat_expansion_matches_the_recursive_one():
    # every n <= 6 structure and its mirror image, against every class: the
    # mirror shares each subtree's canonical key but not its node numbering
    checked = 0
    for s in _generated():
        for x in (s, parse_text(_mirror_text(s))):
            _assert_matches_reference(x)
            checked += len(NetworkClass)
    assert checked == 12714


def test_flat_expansion_matches_the_recursive_one_at_seven_leaves():
    # the benchmark's n: every time-consistent and simplex-tc structure and
    # its mirror image, against every class
    checked = 0
    for cls in (NetworkClass.TIME_CONSISTENT, NetworkClass.SIMPLEX_TC):
        for s in generate_all(cls, 7):
            for x in (s, parse_text(_mirror_text(s))):
                _assert_matches_reference(x)
                checked += len(NetworkClass)
    assert checked == 430 * 2 * 3


def test_sizes_count_the_records_and_a_kept_child_keeps_none():
    # a node's stored size is its DAG's record count, and validating it as a
    # child leaves its DAG laid out the same
    import galledtrees.oracle as oracle_module

    oracle_module.clear_cache()
    try:
        checked = 0
        for cls in NetworkClass:
            for n in range(1, 8):
                for s in generate_all(cls, n):
                    dag = _build_dag(s)
                    assert s.size == len(dag[0]) - 1 == len(_expansion(s)), dump_text(s)
                    assert dag == _reference_build_dag(s), dump_text(s)
                    validate(Internal(s, LEAF), NetworkClass.GENERAL)
                    assert s.scan is not None and _build_dag(s) == dag, dump_text(s)
                    checked += 1
        assert checked == 13553
    finally:
        oracle_module.clear_cache()


def test_flat_expansion_reports_invalid_structures_like_the_recursive_one():
    cases = {
        # both gall paths empty: a doubled top-reticulation edge
        GallTop((), (), LEAF): {
            NetworkClass.GENERAL: ["parallel edges (not a simple graph)"],
        },
        # one-edge gall paths, on either side and nested below a path node
        GallTop((LEAF,), (), LEAF): {
            NetworkClass.TIME_CONSISTENT: ["reticulation 2: a gall path has fewer than 2 edges"],
        },
        GallTop((), (Internal(LEAF, LEAF),), LEAF): {
            NetworkClass.TIME_CONSISTENT: ["reticulation 2: a gall path has fewer than 2 edges"],
        },
        GallTop((LEAF,), (LEAF,), GallTop((), (LEAF, LEAF), LEAF)): {
            NetworkClass.GENERAL: [],
            NetworkClass.TIME_CONSISTENT: ["reticulation 8: a gall path has fewer than 2 edges"],
        },
        # a non-leaf below a simplex reticulation
        GallTop((LEAF,), (LEAF,), Internal(LEAF, LEAF)): {
            NetworkClass.TIME_CONSISTENT: [],
            NetworkClass.SIMPLEX_TC: ["reticulation 2: subtree below it is not a single leaf"],
        },
    }
    for s, want in cases.items():
        _assert_matches_reference(s)
        _assert_matches_reference(parse_text(_mirror_text(s)))
        for c, violations in want.items():
            assert validate(s, c).violations == violations, (dump_text(s), c)


# -- validation from stored scans ----------------------------------------------


def test_validate_matches_the_full_pass():
    # every n <= 6 structure and its mirror image, and invalid shapes alone,
    # below a split and on a gall path, against every class: the verdict read
    # off the own records and the children's scans is the full pass's report
    broken = GallTop((), (), LEAF)
    invalid = [broken, Internal(broken, LEAF), GallTop((broken,), (LEAF,), LEAF),
               GallTop((LEAF,), (LEAF,), GallTop((LEAF,), (), Internal(LEAF, LEAF)))]
    checked = 0
    for s in itertools.chain(_generated(), invalid):
        for x in (s, parse_text(_mirror_text(s))):
            for c in NetworkClass:
                assert validate(x, c) == _report(x, c, _expansion(x)), (dump_text(x), c)
                checked += 1
    assert checked == 12714 + 6 * len(invalid)


def _reference_scan(e):
    """The scan of a node from a survey of all its records, e: (clean, leaf
    tally, reticulation tally, short, below).  clean: every record has a
    legal degree and no repeated parent, every merge walk meets within the
    records and no two cycles share a node; short: some gall path has fewer
    than 2 edges; below: some reticulation's child is not a leaf."""
    import galledtrees.oracle as oracle_module

    recs = dict(enumerate(e))
    n_leaf_nodes, ret_nodes, faults, parallel, _, unmet, shared, short = oracle_module._survey(
        recs, recs)
    clean = not (faults or parallel or unmet or shared)
    below = False
    for r in ret_nodes:
        rec = recs.get(r - 1 + recs[r - 1][1][0])
        if rec is None:
            clean = False
        elif rec[1]:
            below = True
    return clean, n_leaf_nodes, len(ret_nodes), bool(short), below


def test_kept_scans_match_a_survey_of_the_kept_records():
    # a node's scan is summed, when it is built, from its own check and its
    # children's scans, and a survey of all its records must find the same; a
    # node that is not clean keeps the one unclean scan, which sends it and
    # its parent to the full pass
    import galledtrees.oracle as oracle_module

    oracle_module.clear_cache()
    try:
        for s in _generated():
            if s is LEAF:
                continue
            assert s.scan == _reference_scan(_expansion(s)), dump_text(s)
            assert oracle_module._SCANS[s.scan] is s.scan
        broken = GallTop((), (), LEAF)  # its doubled top-reticulation edge fails the own checks
        parent = GallTop((broken,), (LEAF,), LEAF)
        for x in (broken, parent):
            for c in NetworkClass:
                report = validate(x, c)
                assert report == _report(x, c, _expansion(x)) and not report.ok, c
            assert x.scan == oracle_module._UNCLEAN and not x.scan[0], dump_text(x)
            assert not _reference_scan(_expansion(x))[0], dump_text(x)
    finally:
        oracle_module.clear_cache()


def test_a_walk_must_stay_within_the_records_given():
    # node 3 is a reticulation whose chains meet at node 1, which is not among
    # the records surveyed: its walk does not meet within them
    import galledtrees.oracle as oracle_module

    recs = {1: ((1,), (1, 5)), 2: ((1, 2), (1,))}
    _, ret_nodes, faults, _, cycles, unmet, _, _ = oracle_module._survey(recs, recs)
    assert (ret_nodes, faults, cycles, unmet) == ([3], [], [], [3])
    recs[0] = ((), (1, 2))
    assert oracle_module._survey(recs, recs)[4] == [(3, [2, 1], [1])]


def test_each_own_check_is_surveyed_once_per_shape(monkeypatch):
    # building every n <= 6 structure surveys the records a structure's own
    # node makes once per miss of the own-check cache, which is keyed by
    # topology; validating a structure that passes then reads its stored scan
    # alone: it surveys nothing, asks for no own check and interns no scan
    import galledtrees.oracle as oracle_module

    surveyed, checked = [], []
    survey, own_check = oracle_module._survey, oracle_module._own_check

    def counted_survey(recs, indices):
        surveyed.append(recs)
        return survey(recs, indices)

    def counted_check(shape):
        checked.append(shape)
        return own_check(shape)

    monkeypatch.setattr(oracle_module, "_survey", counted_survey)
    oracle_module.clear_cache()
    try:
        pairs = [(s, cls) for cls in NetworkClass for n in range(2, 7)
                 for s in generate_all(cls, n)]
        info = own_check.cache_info()
        assert len(surveyed) == info.misses == info.currsize < len(pairs)
        surveyed.clear()
        scans = len(oracle_module._SCANS)
        monkeypatch.setattr(oracle_module, "_own_check", counted_check)
        assert all(validate(s, cls).ok for s, cls in pairs)
        assert surveyed == [] == checked and len(oracle_module._SCANS) == scans
        assert own_check.cache_info() == info
    finally:
        monkeypatch.undo()
        oracle_module.clear_cache()


def test_galls_of_one_shape_share_an_own_check_but_not_a_verdict(monkeypatch):
    # [x|x;x] and [x|x;(x,x)] are galls of one topology, so the second is
    # built from the first's own check; the subtree below the reticulation
    # still decides the simplex verdict
    import galledtrees.oracle as oracle_module

    checked = []
    own_check = oracle_module._own_check

    def counted(shape):
        checked.append(shape)
        return own_check(shape)

    oracle_module.clear_cache()
    monkeypatch.setattr(oracle_module, "_own_check", counted)
    try:
        a, b = parse_text("[x|x;x]"), parse_text("[x|x;(x,x)]")
        assert validate(a, NetworkClass.SIMPLEX_TC).ok
        assert validate(b, NetworkClass.SIMPLEX_TC).violations == [
            "reticulation 2: subtree below it is not a single leaf"]
        assert validate(b, NetworkClass.TIME_CONSISTENT).ok
        assert checked == [(1, 1), (), (1, 1)]  # asked for while parsing, not validating
        info = own_check.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
    finally:
        monkeypatch.undo()
        oracle_module.clear_cache()


def test_deep_structures_validate():
    # each node's scan is stored when it is built, so validation does not
    # recurse: 600-deep splits and galls validate, and text nested past the
    # parser's recursion is refused with its depth
    import galledtrees.oracle as oracle_module

    try:
        for text, want in (("(x," * 600 + "x" + ")" * 600, (601, 0, [])),
                           ("[x|x;" * 600 + "x" + "]" * 600, (1201, 600, []))):
            s = parse_text(text)
            for c in (NetworkClass.GENERAL, NetworkClass.TIME_CONSISTENT):
                assert validate(s, c) == want
        with pytest.raises(ValueError, match="3000 levels deep"):
            parse_text("(x," * 3000 + "x" + ")" * 3000)
        with pytest.raises(ValueError, match="3000 levels deep"):
            parse_text("[x|x;" * 3000 + "x" + "]" * 3000)
    finally:
        oracle_module.clear_cache()


def _chains(depth):
    split, gall = LEAF, LEAF
    for _ in range(depth):
        split, gall = Internal(split, LEAF), GallTop((LEAF,), (LEAF,), gall)
    return split, gall


def test_validating_deep_chains_keeps_memory_linear_in_the_depth():
    # a node holds its scan and no records, so validating a 1500-deep split or
    # gall chain stays under a 2 MiB peak; the own checks are keyed by
    # topology, so building the two chains fills 2 of them, however deep
    import tracemalloc

    import galledtrees.oracle as oracle_module

    oracle_module.clear_cache()
    try:
        split, gall = _chains(1500)
        assert oracle_module._own_check.cache_info().currsize == 2
        for s, want in ((split, (1501, 0, [])), (gall, (3001, 1500, []))):
            tracemalloc.start()
            try:
                assert validate(s, NetworkClass.GENERAL) == want
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20, (dump_text(s)[:20], peak)
        assert oracle_module._own_check.cache_info().currsize == 2
    finally:
        oracle_module.clear_cache()


def test_deep_structures_print_canonicalize_and_hash():
    # dump_text, canonicalize, hash and == keep no recursion of their own, so
    # 1500-deep split and gall chains, past the interpreter's recursion limit,
    # go through them; parse_text still refuses the text with its depth
    split, gall = _chains(1500)
    split2, gall2 = _chains(1500)
    assert split2 is not split and split2 == split and gall2 == gall and split != gall
    mirror = LEAF  # the split chain with each split's children swapped
    for _ in range(1500):
        mirror = Internal(LEAF, mirror)
    assert canonical_key(mirror) == canonical_key(split) and mirror != split
    for s, text in ((split, "(" * 1500 + "x" + ",x)" * 1500),
                    (gall, "[x|x;" * 1500 + "x" + "]" * 1500)):
        assert dump_text(s) == text
        c = canonicalize(s)
        assert canonical_key(c) == canonical_key(s) and dump_text(c) == text
        assert hash(c) == hash(s) == hash(canonical_key(s))
        with pytest.raises(ValueError, match="1500 levels deep"):
            parse_text(text)


def test_explicit_labeling_refuses_a_wrong_or_unguarded_n(monkeypatch):
    cherry = Internal(LEAF, LEAF)
    for n in (1, 3):
        with pytest.raises(ValueError, match="leaf count"):
            count_labelings_explicit(cherry, n)
    assert count_labelings_explicit(cherry, 2) == 1
    monkeypatch.setenv("GALLED_MAX_N", "3")
    with pytest.raises(ValueError, match="brute-force guard"):
        count_labelings_explicit(parse_text("((x,x),(x,x))"), 4)


# -- generation by (n, g) ------------------------------------------------------
# The reference builds each n in one piece, without gall buckets: every root
# split of two smaller structures, and every root gall over every pair of
# path sequences and every reticulation subtree.


class _WholeGeneration:
    def __init__(self, cls):
        self.cls, self.memo, self.seqs = cls, {}, {}

    def generate(self, n):
        if n not in self.memo:
            out = {LEAF.key: LEAF} if n == 1 else {}
            for a in range(1, n // 2 + 1):
                for sa in self.generate(a):
                    for sb in self.generate(n - a):
                        if a == n - a and sb.key < sa.key:
                            continue
                        s = Internal(sa, sb)
                        out[s.key] = s
            for s in self._root_galls(n) if n > 1 else ():
                out[s.key] = s
            self.memo[n] = tuple(out[k] for k in sorted(out))
        return self.memo[n]

    def _root_galls(self, n):
        simplex = self.cls is NetworkClass.SIMPLEX_TC
        min_side = 0 if self.cls is NetworkClass.GENERAL else 1
        for ret_leaves in (1,) if simplex else range(1, n):
            rest = n - ret_leaves
            for left in range(min_side, rest - min_side + 1):
                for ls in self.sequences(left):
                    for rs in self.sequences(rest - left):
                        if [x.key for x in rs] < [x.key for x in ls]:
                            continue
                        for rc in (LEAF,) if simplex else self.generate(ret_leaves):
                            yield GallTop(ls, rs, rc)

    def sequences(self, total):
        if total not in self.seqs:
            self.seqs[total] = [()] if total == 0 else [
                (first,) + rest
                for k in range(1, total + 1)
                for first in self.generate(k)
                for rest in self.sequences(total - k)
            ]
        return self.seqs[total]


@pytest.mark.parametrize("cls", list(NetworkClass))
def test_gall_buckets_partition_each_generation(cls):
    spec = TreeClassSpec(cls, Labeling.UNLABELED)
    whole = _WholeGeneration(cls)
    for n in range(1, 8):
        everything = generate_all(cls, n)
        buckets = [generate_all(cls, n, g) for g in range(n)]
        for g, bucket in enumerate(buckets):
            assert all(galls(s) == g for s in bucket)
            assert [s.key for s in bucket] == sorted(s.key for s in bucket)
            assert len(bucket) == count(spec, n, g), (n, g)
        merged = sorted((s for bucket in buckets for s in bucket), key=canonical_key)
        assert [s.key for s in everything] == [s.key for s in merged]
        assert len({s.key for s in everything}) == len(everything)
        want = whole.generate(n)
        assert [(s.key, dump_text(s)) for s in everything] == [(s.key, dump_text(s)) for s in want]
        assert generate_all(cls, n, -1) == () == generate_all(cls, n, n)


def test_oracle_at_eight_leaves_matches_the_recursion(monkeypatch):
    # at n = 8, the default guard, the general row reaches g = 7 and every
    # time-consistent and simplex structure validates
    import galledtrees.oracle as oracle_module

    monkeypatch.delenv("GALLED_MAX_N", raising=False)
    try:
        assert max(count_by_galls(NetworkClass.GENERAL, 8)) == 7
        for cls, size in ((NetworkClass.TIME_CONSISTENT, 1064), (NetworkClass.SIMPLEX_TC, 545)):
            structures = generate_all(cls, 8)
            assert len(structures) == size
            assert all(validate(s, cls).ok for s in structures)
    finally:
        oracle_module.clear_cache()


def test_generation_hashes_no_enum(monkeypatch):
    # the bucket, merge and path-sequence caches are keyed by the class's value,
    # so neither a cold build nor a warm lookup hashes a NetworkClass member
    import galledtrees.oracle as oracle_module

    oracle_module.clear_cache()
    hashed = []
    real = Enum.__hash__
    monkeypatch.setattr(Enum, "__hash__", lambda self: hashed.append(self) or real(self))
    assert {NetworkClass.GENERAL: 1} and hashed == [NetworkClass.GENERAL]  # the spy sees them
    hashed.clear()
    for cls in NetworkClass:
        for n in range(1, 7):
            generate_all(cls, n)
    assert hashed == [] and oracle_module._seq_cache
    for cls in NetworkClass:
        for n in range(1, 7):
            assert len(generate_all(cls, n)) == sum(
                len(generate_all(cls, n, g)) for g in range(n))
            assert sum(count_by_galls(cls, n).values()) == len(generate_all(cls, n))
    assert hashed == []
