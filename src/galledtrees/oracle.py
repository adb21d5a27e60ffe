"""Brute-force ground truth: materialize every galled-tree structure for
small n, validate against the graph-theoretic definitions, and count.

Structures are built from a three-case grammar -- a leaf, an unordered root
split, or a root gall carrying two node sequences and a reticulation subtree
-- with canonical forms deduplicating isomorphic shapes.  Generation is
indexed by (n, g): each bucket holds the structures with n leaves and g
galls, a split dividing g between its two subtrees and a root gall spending
one gall and dividing the rest between its reticulation subtree and its two
paths.  A caller that asks for one gall count builds only the buckets that
count reaches, and `generate_all(cls, n)` merges the buckets of one n.  Each
node carries its canonical key, its leaf and gall tallies and its
automorphism order, computed once when it is built from its children's
stored fields.
Validation is deliberately independent of that algebra: a structure is
expanded to an explicit node/edge DAG and checked against the degree and
reticulation-cycle conditions directly, so the halving factors and
palindromic corrections of the counting recursions are exercised against
something that knows nothing about them.

The DAG is a flat list of per-node records in preorder, each the node's
parent and child offsets relative to itself.  Relative offsets make a
subtree's records the same wherever it sits, so each node used as a child
keeps its expansion and a parent's expansion is its own records joined with
its children's.  Expansions belong to node objects, which fix the plane
orientation, and are never shared by canonical key: a mirror image has the
same key but other node numbers.

Preorder numbering gives every node with exactly one parent a parent with a
smaller number; only a reticulation's parents (the ends of its two paths)
can come after it.  Parent chains therefore strictly decrease, and
validation finds a gall's top node by a merge walk: it climbs both of a
reticulation's parent chains at once, always stepping the one at the higher
node number, until they meet.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from functools import lru_cache
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .counts import NetworkClass

DEFAULT_MAX_LEAVES = 8


class Leaf:
    __slots__ = ()
    key = b"L"
    n_leaves = 1
    n_galls = 0
    aut = 1
    expansion = (((), ()),)

    def __repr__(self):
        return "Leaf()"

    def __reduce__(self):  # copies and unpickles to the one LEAF, which == compares by identity
        return "LEAF"


LEAF = Leaf()


# Internal and GallTop are frozen: their fields are set once, in __init__,
# through object.__setattr__.  The stored key, tallies, automorphism order and
# DAG expansion stay out of ==, hash and repr, which compare and show the
# structure alone.  The expansion is filled lazily, the first time the node is
# expanded as a child.

_set = object.__setattr__


class _Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Internal(_Frozen):
    __slots__ = ("left", "right", "key", "n_leaves", "n_galls", "aut", "expansion")

    def __init__(self, left, right):
        a, b = sorted((left.key, right.key))
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "key", b"I" + _blob(a) + _blob(b))
        _set(self, "n_leaves", left.n_leaves + right.n_leaves)
        _set(self, "n_galls", left.n_galls + right.n_galls)
        _set(self, "aut", left.aut * right.aut * (2 if a == b else 1))
        _set(self, "expansion", None)

    def __eq__(self, other):
        if other.__class__ is not Internal:
            return NotImplemented
        return (self.left, self.right) == (other.left, other.right)

    def __hash__(self):
        return hash((self.left, self.right))

    def __repr__(self):
        return f"Internal(left={self.left!r}, right={self.right!r})"

    def __reduce__(self):
        return Internal, (self.left, self.right)


class GallTop(_Frozen):
    __slots__ = ("left_seq", "right_seq", "ret_child", "key", "n_leaves", "n_galls", "aut",
                 "expansion")

    def __init__(self, left_seq, right_seq, ret_child, paths: Optional[_Paths] = None):
        """paths is the two paths' encoding, from _encode_paths; generation
        passes it in once for every reticulation subtree that shares the pair."""
        if paths is None:
            paths = _encode_paths(left_seq, right_seq)
        body, n_leaves, n_galls, aut = paths
        _set(self, "left_seq", left_seq)
        _set(self, "right_seq", right_seq)
        _set(self, "ret_child", ret_child)
        _set(self, "key", b"G" + body + _blob(ret_child.key))
        _set(self, "n_leaves", n_leaves + ret_child.n_leaves)
        _set(self, "n_galls", 1 + n_galls + ret_child.n_galls)
        _set(self, "aut", aut * ret_child.aut)
        _set(self, "expansion", None)

    def __eq__(self, other):
        if other.__class__ is not GallTop:
            return NotImplemented
        return ((self.left_seq, self.right_seq, self.ret_child)
                == (other.left_seq, other.right_seq, other.ret_child))

    def __hash__(self):
        return hash((self.left_seq, self.right_seq, self.ret_child))

    def __repr__(self):
        return (f"GallTop(left_seq={self.left_seq!r}, right_seq={self.right_seq!r}, "
                f"ret_child={self.ret_child!r})")

    def __reduce__(self):
        return GallTop, (self.left_seq, self.right_seq, self.ret_child)


_Paths = Tuple[bytes, int, int, int]


def _encode_paths(left_seq, right_seq, kls=None, krs=None) -> _Paths:
    """A gall's share of its key and tallies that comes from its two paths:
    the two key sequences in the lexicographically smaller orientation, each
    length-prefixed, and the paths' leaf, gall and automorphism tallies, the
    last doubled when swapping the paths is an automorphism.  kls and krs are
    the paths' key tuples, when the caller has them."""
    if kls is None:
        kls, krs = _keys(left_seq), _keys(right_seq)
    aut = 2 if kls == krs else 1
    if krs < kls:
        kls, krs = krs, kls
    body = _blob(bytes([len(kls)]) + b"".join(map(_blob, kls)))
    body += _blob(bytes([len(krs)]) + b"".join(map(_blob, krs)))
    n_leaves = n_galls = 0
    for x in left_seq + right_seq:
        n_leaves += x.n_leaves
        n_galls += x.n_galls
        aut *= x.aut
    return body, n_leaves, n_galls, aut


def leaves(s) -> int:
    return s.n_leaves


def galls(s) -> int:
    return s.n_galls


def canonical_key(s) -> bytes:
    """Length-prefixed preorder encoding; equal keys iff isomorphic as
    non-plane networks.  Internal children are sorted; a gall takes the
    lexicographically smaller orientation of its two sequences (each
    sequence keeps its own top-to-bottom order).  Built once per node, at
    construction."""
    return s.key


def _blob(b: bytes) -> bytes:
    return len(b).to_bytes(4, "big") + b


def _keys(seq) -> Tuple[bytes, ...]:
    return tuple(x.key for x in seq)


def canonicalize(s):
    """Structurally reorder children into the canonical orientation."""
    if isinstance(s, Leaf):
        return LEAF
    if isinstance(s, Internal):
        a, b = canonicalize(s.left), canonicalize(s.right)
        if b.key < a.key:
            a, b = b, a
        return Internal(a, b)
    ls = tuple(canonicalize(x) for x in s.left_seq)
    rs = tuple(canonicalize(x) for x in s.right_seq)
    kls, krs = _keys(ls), _keys(rs)
    if krs < kls:
        ls, rs, kls, krs = rs, ls, krs, kls
    return GallTop(ls, rs, canonicalize(s.ret_child), _encode_paths(ls, rs, kls, krs))


# -- generation ---------------------------------------------------------------

# _gen_cache holds the (class, n, g) buckets, _all_cache their merges by n.
_gen_cache: Dict[Tuple[NetworkClass, int, int], Tuple] = {}
_all_cache: Dict[Tuple[NetworkClass, int], Tuple] = {}


def _max_leaves_guard() -> int:
    """The brute-force leaf cap: GALLED_MAX_N, else DEFAULT_MAX_LEAVES."""
    raw = os.environ.get("GALLED_MAX_N")
    if raw is None:
        return DEFAULT_MAX_LEAVES
    try:
        cap = int(raw)
        if cap >= 1:
            return cap
    except ValueError:
        pass
    raise ValueError(f"GALLED_MAX_N must be a positive integer, got {raw!r}")


def generate_all(network_class: NetworkClass, n: int, g: Optional[int] = None) -> Tuple:
    """Every isomorphism class of the given network class with n leaves (and
    exactly g galls, if g is given), canonical, ordered by canonical key."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    cap = _max_leaves_guard()
    if n > cap:
        raise ValueError(
            f"n = {n} exceeds the brute-force guard ({cap}); set GALLED_MAX_N to override"
        )
    if g is not None:
        return _generate(network_class, n, g) if 0 <= g < n else ()
    key = (network_class, n)
    got = _all_cache.get(key)
    if got is None:
        merged = itertools.chain(*(_generate(network_class, n, g) for g in range(n)))
        got = _all_cache[key] = tuple(sorted(merged, key=operator.attrgetter("key")))
    return got


def _generate(cls: NetworkClass, n: int, g: int) -> Tuple:
    """The structures with n leaves and g galls, 0 <= g < n, sorted by key."""
    key = (cls, n, g)
    got = _gen_cache.get(key)
    if got is not None:
        return got
    out = {}
    if n == 1:
        out[LEAF.key] = LEAF
    else:
        # unordered root split, its galls divided ga + gb
        for a in range(1, n // 2 + 1):
            b = n - a
            for ga in range(max(0, g - b + 1), min(a - 1, g) + 1):
                for sa in _generate(cls, a, ga):
                    for sb in _generate(cls, b, g - ga):
                        if a == b and sb.key < sa.key:
                            continue
                        s = Internal(sa, sb)
                        out[s.key] = s
        if g:
            for s in _root_galls(cls, n, g):
                out[s.key] = s
    result = tuple(out[k] for k in sorted(out))
    _gen_cache[key] = result
    return result


def _root_galls(cls, n, g) -> Iterable[GallTop]:
    """Root galls with n leaves and g galls: the root gall is one, and the
    other g - 1 are divided between the reticulation subtree and the paths."""
    simplex = cls is NetworkClass.SIMPLEX_TC
    min_side = 1 if cls is not NetworkClass.GENERAL else 0
    for ret_leaves in (1,) if simplex else range(1, n):
        rest = n - ret_leaves
        for ret_galls in range(min(ret_leaves - 1, g - 1) + 1):
            ret_opts = (LEAF,) if simplex else _generate(cls, ret_leaves, ret_galls)
            if not ret_opts:
                continue
            path_galls = g - 1 - ret_galls
            for left_total in range(min_side, rest - min_side + 1):
                right_total = rest - left_total
                if left_total == 0 and right_total == 0:
                    continue  # both paths empty would double the top-ret edge
                for left_galls in range(path_galls + 1):
                    rights = _sequences_index(cls, right_total, path_galls - left_galls)
                    for ls, kls in _sequences_index(cls, left_total, left_galls):
                        for rs, krs in rights:
                            if krs < kls:
                                continue  # keep one orientation of the two paths
                            paths = _encode_paths(ls, rs, kls, krs)
                            for rc in ret_opts:
                                yield GallTop(ls, rs, rc, paths)


@lru_cache(maxsize=None)
def _sequences_index(cls: NetworkClass, total: int, g: int) -> Tuple[Tuple[Tuple, Tuple], ...]:
    """Every path sequence with `total` leaves and g galls, paired with its
    key tuple; a piece with l leaves has at most l - 1 galls."""
    if total == 0:
        return (((), ()),) if g == 0 else ()
    out = []
    for first_leaves in range(1, total + 1):
        for first_galls in range(min(first_leaves - 1, g) + 1):
            rests = _sequences_index(cls, total - first_leaves, g - first_galls)
            for first in _generate(cls, first_leaves, first_galls) if rests else ():
                for rest, krest in rests:
                    out.append(((first,) + rest, (first.key,) + krest))
    return tuple(out)


# -- DAG expansion and validation ---------------------------------------------
#
# A structure's DAG is a list of node records in preorder: the root is node 1,
# a gall's reticulation is numbered right after its top node, each path node
# comes before its piece, and the reticulation's child comes last.  Node v's
# record is the pair (parent offsets, child offsets), each offset relative to
# v: its parents are v - o and its children v + o, in the order the edges are
# made.  Relative offsets make a subtree's records the same wherever it sits,
# so a node's expansion is its own records joined with its children's, each
# child's root record gaining its one parent offset.  A node used as a child
# keeps its expansion in its `expansion` slot, as a tuple; a top-level
# structure's expansion is built for the call and dropped.  The records, and
# with them their offset tuples, are interned: few distinct ones occur (307
# records over 83 offset tuples for every structure with n <= 7).

_Record = Tuple[Tuple[int, ...], Tuple[int, ...]]
_RECORDS: Dict[_Record, _Record] = {}


class ValidationReport(NamedTuple):
    n_leaves: int
    n_galls: int
    violations: List[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def _expansion(s) -> Sequence[_Record]:
    """The DAG records of s: its kept expansion, or a fresh one left unkept."""
    e = s.expansion
    return _expand(s) if e is None else e


def _child_expansion(s) -> Tuple[_Record, ...]:
    """The expansion of a node used as a child, built once and kept on it."""
    e = s.expansion
    if e is None:
        e = tuple(_expand(s))
        object.__setattr__(s, "expansion", e)
    return e


def _record(parents: Tuple[int, ...], children: Tuple[int, ...]) -> _Record:
    rec = (parents, children)
    return _RECORDS.setdefault(rec, rec)


def _join(out: List[_Record], child: Tuple[_Record, ...], offset: int) -> None:
    """Append a child's records, its root gaining the parent offset."""
    out.append(_record((offset,), child[0][1]))
    out += child[1:]


def _expand(s) -> List[_Record]:
    if isinstance(s, Internal):
        a, b = _child_expansion(s.left), _child_expansion(s.right)
        out = [_record((), (1, 1 + len(a)))]
        _join(out, a, 1)
        _join(out, b, 1 + len(a))
        return out
    # The top node is record 0 and its reticulation record 1, both filled in
    # once the paths are laid out; each path node's piece hangs one below it.
    out: List = [None, None]
    heads, tails = [], []
    for seq in (s.left_seq, s.right_seq):
        heads.append(len(out) if seq else 1)
        prev = 0
        for i, piece in enumerate(seq):
            w = len(out)
            e = _child_expansion(piece)
            nxt = w + 1 + len(e) if i + 1 < len(seq) else 1
            out.append(_record((w - prev,), (1, nxt - w)))
            _join(out, e, 1)
            prev = w
        tails.append(prev)
    k = len(out) - 1
    out[0] = _record((), tuple(heads))
    out[1] = _record((1 - tails[0], 1 - tails[1]), (k,))
    _join(out, _child_expansion(s.ret_child), k)
    return out


def _build_dag(s) -> Tuple[List[List[int]], List[List[int]]]:
    """The expansion as adjacency lists (parents, children), index 0 an unused
    empty entry.  Each list holds the other ends of a node's edges in the order
    the edges are made."""
    recs = _expansion(s)
    parents = [[]] + [[v - o for o in p] for v, (p, _) in enumerate(recs, 1)]
    children = [[]] + [[v + o for o in c] for v, (_, c) in enumerate(recs, 1)]
    return parents, children


def validate(s, network_class: NetworkClass) -> ValidationReport:
    """Expand to a DAG and check the definition of the class directly.

    Node v (root 1, preorder) is record v - 1 of the expansion: its parents
    are v - o for o in the record's parent offsets and its children v + o for
    o in its child offsets, so degrees are the lengths of the two tuples.
    In preorder every node with exactly one parent has a positive parent
    offset, so parent chains strictly decrease, and a gall's top is found by
    a merge walk up the reticulation's two chains that steps the one at the
    higher node number until they meet; no chain is climbed past the top.
    Violation texts quote node numbers, and these follow the structure's own
    orientation: a mirror image has the same canonical key but numbers its
    nodes differently, which is why expansions are kept per node object and
    never per key."""
    recs = _expansion(s)
    n_nodes = len(recs)
    report = ValidationReport(leaves(s), galls(s), [])
    bad = report.violations.append

    # A repeated edge repeats a parent of its head, so only nodes with two or
    # more parents -- reticulations and illegal nodes -- can carry one.
    parallel = False
    degree_faults: List[str] = []
    n_leaf_nodes, ret_nodes = 0, []
    if n_nodes > 1:  # else the trivial one-leaf network
        p, c = recs[0]
        if p or len(c) != 2:
            degree_faults.append(f"root degree {(len(p), len(c))}")
            parallel = len(set(p)) < len(p)
        for v in range(2, n_nodes + 1):
            p, c = recs[v - 1]
            if len(p) == 1:
                if not c:
                    n_leaf_nodes += 1
                    continue
                if len(c) == 2:
                    continue  # tree node
            elif len(p) == 2 and len(c) == 1:
                ret_nodes.append(v)
                if p[0] == p[1]:
                    parallel = True
                continue
            degree_faults.append(f"node {v} has illegal degree {(len(p), len(c))}")
            if len(set(p)) < len(p):
                parallel = True
    if parallel:
        bad("parallel edges (not a simple graph)")
    report.violations.extend(degree_faults)

    expected_leaves = 1 if n_nodes == 1 else n_leaf_nodes
    if expected_leaves != report.n_leaves:
        bad(f"leaf tally {expected_leaves} != structural {report.n_leaves}")
    if len(ret_nodes) != report.n_galls:
        bad(f"reticulation tally {len(ret_nodes)} != structural {report.n_galls}")

    # The merge walk up each reticulation's two parent chains.  A chain climbs
    # while its node has exactly one parent; once the chain at the higher
    # node cannot step, the two never meet.  The reticulation cycle is the
    # reticulation and both chains up to the top they meet at.
    cycles: List[Tuple[int, List[int], List[int]]] = []
    cycle_nodes: List[int] = []
    path_lengths: List[Tuple[int, int]] = []
    for r in ret_nodes:
        pa, pb = recs[r - 1][0]
        a, b = r - pa, r - pb
        chain_a, chain_b = [a], [b]
        while a != b:
            if a > b:
                if len(p := recs[a - 1][0]) != 1:
                    break
                a -= p[0]
                chain_a.append(a)
            else:
                if len(p := recs[b - 1][0]) != 1:
                    break
                b -= p[0]
                chain_b.append(b)
        if a != b:
            bad(f"reticulation {r}: parent paths never meet")
            continue
        cycles.append((r, chain_a, chain_b))
        cycle_nodes.append(r)
        cycle_nodes += chain_a
        cycle_nodes += chain_b[:-1]  # the top, already in chain_a
        path_lengths.append((len(chain_a), len(chain_b)))

    # Only a node in two cycles repeats in cycle_nodes; the per-cycle sets,
    # whose order the messages follow, are built only then.
    if len(set(cycle_nodes)) < len(cycle_nodes):
        seen: Dict[int, int] = {}
        for i, (r, chain_a, chain_b) in enumerate(cycles):
            for v in {r} | set(chain_a) | set(chain_b):
                if v in seen:
                    bad(f"node {v} lies in two reticulation cycles")
                seen[v] = i

    if network_class is not NetworkClass.GENERAL:
        for (la, lb), r in zip(path_lengths, ret_nodes):
            if min(la, lb) < 2:
                bad(f"reticulation {r}: a gall path has fewer than 2 edges")
    if network_class is NetworkClass.SIMPLEX_TC:
        for r in ret_nodes:
            below = r + recs[r - 1][1][0]
            if recs[below - 1][1]:
                bad(f"reticulation {r}: subtree below it is not a single leaf")
    return report


# -- counting -----------------------------------------------------------------


def count_by_galls(network_class: NetworkClass, n: int) -> Dict[int, int]:
    """Histogram of gall counts over all canonical structures with n leaves."""
    buckets = {g: generate_all(network_class, n, g) for g in range(n)}
    return {g: len(b) for g, b in buckets.items() if b}


def aut_order(s) -> int:
    """Order of the automorphism group of a structure, stored per node at
    construction: the product of the children's orders, doubled where two
    split children, or a gall's two paths, have equal keys."""
    return s.aut


def labeled_count(network_class: NetworkClass, n: int) -> Dict[int, int]:
    """Distinct leaf-labelings per gall count, via n! / |Aut| per structure."""
    nf = math.factorial(n)
    hist: Dict[int, int] = {}
    for g in range(n):
        for s in generate_all(network_class, n, g):
            a = aut_order(s)
            if nf % a:
                raise ArithmeticError(f"automorphism order {a} does not divide {n}!")
            hist[g] = hist.get(g, 0) + nf // a
    return hist


def count_labelings_explicit(s, n: int) -> int:
    """Independent labeling count: try all n! leaf-label assignments and count
    distinct labeled canonical forms.  Exponential; cross-check for tiny n."""

    def labeled_key(sub, labels, pos) -> Tuple[bytes, int]:
        if isinstance(sub, Leaf):
            return b"L%d" % labels[pos], pos + 1
        if isinstance(sub, Internal):
            ka, pos = labeled_key(sub.left, labels, pos)
            kb, pos = labeled_key(sub.right, labels, pos)
            a, b = sorted((ka, kb))
            return b"I" + _blob(a) + _blob(b), pos
        kls = []
        for x in sub.left_seq:
            k, pos = labeled_key(x, labels, pos)
            kls.append(k)
        krs = []
        for x in sub.right_seq:
            k, pos = labeled_key(x, labels, pos)
            krs.append(k)
        kr, pos = labeled_key(sub.ret_child, labels, pos)
        ls, rs = tuple(kls), tuple(krs)
        if (rs, ls) < (ls, rs):
            ls, rs = rs, ls
        body = _blob(bytes([len(ls)]) + b"".join(_blob(k) for k in ls))
        body += _blob(bytes([len(rs)]) + b"".join(_blob(k) for k in rs))
        body += _blob(kr)
        return b"G" + body, pos

    seen = set()
    for perm in itertools.permutations(range(1, n + 1)):
        seen.add(labeled_key(s, perm, 0)[0])
    return len(seen)


# -- text round-trip ----------------------------------------------------------


def dump_text(s) -> str:
    """Parenthesized form: leaf 'x', split '(A,B)', gall '[A,...|B,...;R]'."""
    if isinstance(s, Leaf):
        return "x"
    if isinstance(s, Internal):
        return f"({dump_text(s.left)},{dump_text(s.right)})"
    ls = ",".join(dump_text(x) for x in s.left_seq)
    rs = ",".join(dump_text(x) for x in s.right_seq)
    return f"[{ls}|{rs};{dump_text(s.ret_child)}]"


def parse_text(text: str):
    s, pos = _parse(text, 0)
    if pos != len(text):
        raise ValueError(f"trailing input at {pos}: {text[pos:]!r}")
    return s


def _peek(text, pos):
    if pos >= len(text):
        raise ValueError("unexpected end of input")
    return text[pos]


def _parse(text, pos):
    c = _peek(text, pos)
    if c == "x":
        return LEAF, pos + 1
    if c == "(":
        left, pos = _parse(text, pos + 1)
        if _peek(text, pos) != ",":
            raise ValueError(f"expected ',' at {pos}")
        right, pos = _parse(text, pos + 1)
        if _peek(text, pos) != ")":
            raise ValueError(f"expected ')' at {pos}")
        return Internal(left, right), pos + 1
    if c == "[":
        ls, pos = _parse_seq(text, pos + 1, "|")
        rs, pos = _parse_seq(text, pos, ";")
        ret, pos = _parse(text, pos)
        if _peek(text, pos) != "]":
            raise ValueError(f"expected ']' at {pos}")
        return GallTop(tuple(ls), tuple(rs), ret), pos + 1
    raise ValueError(f"unexpected {c!r} at {pos}")


def _parse_seq(text, pos, terminator):
    out = []
    if _peek(text, pos) == terminator:
        return out, pos + 1
    while True:
        s, pos = _parse(text, pos)
        out.append(s)
        if _peek(text, pos) == terminator:
            return out, pos + 1
        if text[pos] != ",":
            raise ValueError(f"expected ',' or {terminator!r} at {pos}")
        pos += 1


def clear_cache() -> None:
    _gen_cache.clear()
    _all_cache.clear()
    _RECORDS.clear()
    _sequences_index.cache_clear()
