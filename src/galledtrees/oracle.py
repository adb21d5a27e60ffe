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
node carries its canonical key, its leaf and gall tallies, its automorphism
order, its DAG's record count and its scan, computed once when it is built
from its children's stored fields.
Validation is deliberately independent of that algebra: a structure is
expanded to an explicit node/edge DAG and checked against the degree and
reticulation-cycle conditions directly, so the halving factors and
palindromic corrections of the counting recursions are exercised against
something that knows nothing about them.

The DAG is a flat list of per-node records in preorder, each the node's
parent and child offsets relative to itself.  Relative offsets make a
subtree's records the same wherever it sits.  The records a structure's own
node makes depend only on its kind and its children's record counts, and
those counts only renumber them, keeping their order.  So the checks over
them run once per topology -- a split, or a gall with so many pieces on
each path -- over the node of that topology whose children are all leaves,
and a cache keeps what they found.  A node keeps no records, only its scan,
what the checks find in its records: whether they are clean, its leaf and
reticulation tallies, and whether a gall path is short or a reticulation's
child is not a leaf.  The scan is summed when the node is built, from its
topology's own check and its children's scans, and validation reads it
alone.  The full pass lays out the whole DAG, and drops it after the call,
only to word a report that does not pass.  Its node numbers follow the plane
orientation of the node objects: a mirror image has the same key but other
node numbers.

Preorder numbering gives every node with exactly one parent a parent with a
smaller number; only a reticulation's parents (the ends of its two paths)
can come after it.  Parent chains therefore strictly decrease, and
validation finds a gall's top node by a merge walk: it climbs both of a
reticulation's parent chains at once, always stepping the one at the higher
node number, until they meet.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .counts import NetworkClass

DEFAULT_MAX_LEAVES = 8


class Leaf:
    __slots__ = ()
    key = b"L"
    n_leaves = 1
    n_galls = 0
    aut = 1
    size = 1
    scan = (True, 1, 0, False, False)

    def __repr__(self):
        return "Leaf()"

    def __reduce__(self):  # copies and unpickles to the one LEAF, which == compares by identity
        return "LEAF"


LEAF = Leaf()


# Internal and GallTop are frozen: their fields are set once, in __init__,
# through the slot descriptors' own __set__ methods, bound once below each
# class.  The stored tallies, automorphism order, record count and scan stay
# out of ==, hash and repr, which compare and show the structure alone.  hash
# reads the stored key, which equal structures share (a mirror image shares
# it too, and only collides); == compares the key, then `dump_text`, which
# keeps each orientation, so a mirror image stays unequal.  Neither recurses,
# so no depth is out of their reach.


class _Frozen:
    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.key == other.key and dump_text(self) == dump_text(other)

    def __hash__(self):
        return hash(self.key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _slot_setters(cls):
    """The __set__ of each of cls's slot descriptors, in slot order."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class Internal(_Frozen):
    __slots__ = ("left", "right", "key", "n_leaves", "n_galls", "aut", "size", "scan")

    def __init__(self, left, right):
        a, b = left.key, right.key
        if b < a:
            a, b = b, a
        _i_left(self, left)
        _i_right(self, right)
        _i_key(self, b"I" + len(a).to_bytes(4, "big") + a + len(b).to_bytes(4, "big") + b)
        _i_leaves(self, left.n_leaves + right.n_leaves)
        _i_galls(self, left.n_galls + right.n_galls)
        _i_aut(self, left.aut * right.aut * (2 if a == b else 1))
        _i_size(self, 1 + left.size + right.size)
        _i_scan(self, _scan(_own_check(()), (left, right)))

    def __repr__(self):
        return f"Internal(left={self.left!r}, right={self.right!r})"

    def __reduce__(self):
        return Internal, (self.left, self.right)


(_i_left, _i_right, _i_key, _i_leaves, _i_galls, _i_aut, _i_size,
 _i_scan) = _slot_setters(Internal)


class GallTop(_Frozen):
    __slots__ = ("left_seq", "right_seq", "ret_child", "key", "n_leaves", "n_galls", "aut",
                 "size", "scan")

    def __init__(self, left_seq, right_seq, ret_child, paths: Optional[_Paths] = None):
        """paths is the two paths' encoding, from _encode_paths; generation
        passes it in once for every reticulation subtree that shares the pair."""
        if paths is None:
            paths = _encode_paths(left_seq, right_seq)
        body, n_leaves, n_galls, aut, size = paths
        rk = ret_child.key
        _g_left_seq(self, left_seq)
        _g_right_seq(self, right_seq)
        _g_ret_child(self, ret_child)
        _g_key(self, b"G" + body + len(rk).to_bytes(4, "big") + rk)
        _g_leaves(self, n_leaves + ret_child.n_leaves)
        _g_galls(self, 1 + n_galls + ret_child.n_galls)
        _g_aut(self, aut * ret_child.aut)
        _g_size(self, size + ret_child.size)
        _g_scan(self, _scan(_own_check((len(left_seq), len(right_seq))),
                            left_seq + right_seq + (ret_child,)))

    def __repr__(self):
        return (f"GallTop(left_seq={self.left_seq!r}, right_seq={self.right_seq!r}, "
                f"ret_child={self.ret_child!r})")

    def __reduce__(self):
        return GallTop, (self.left_seq, self.right_seq, self.ret_child)


(_g_left_seq, _g_right_seq, _g_ret_child, _g_key, _g_leaves, _g_galls, _g_aut,
 _g_size, _g_scan) = _slot_setters(GallTop)


_Paths = Tuple[bytes, int, int, int, int]


def _encode_paths(left_seq, right_seq, kls=None, krs=None) -> _Paths:
    """A gall's share of its key and tallies that comes from its two paths:
    the two key sequences in the lexicographically smaller orientation, each
    length-prefixed, the paths' leaf, gall and automorphism tallies, the
    last doubled when swapping the paths is an automorphism, and the record
    count of the gall without its reticulation's subtree.  kls and krs are
    the paths' key tuples, when the caller has them."""
    if kls is None:
        kls, krs = _keys(left_seq), _keys(right_seq)
    aut = 2 if kls == krs else 1
    if krs < kls:
        kls, krs = krs, kls
    body = _blob(bytes([len(kls)]) + b"".join(map(_blob, kls)))
    body += _blob(bytes([len(krs)]) + b"".join(map(_blob, krs)))
    n_leaves = n_galls = 0
    size = 2  # the top and the reticulation; each piece brings its path node
    for x in left_seq + right_seq:
        n_leaves += x.n_leaves
        n_galls += x.n_galls
        aut *= x.aut
        size += 1 + x.size
    return body, n_leaves, n_galls, aut, size


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
    """Structurally reorder children into the canonical orientation.  The
    walk keeps its own stack, so no depth is out of its reach."""
    done = []  # the canonical forms of the nodes finished so far, in order
    stack = [(s, False)]
    while stack:
        x, ready = stack.pop()
        if isinstance(x, Leaf):
            done.append(LEAF)
        elif not ready:  # its children first; they finish in preorder
            stack.append((x, True))
            stack.extend((c, False) for c in reversed(_children(x)))
        elif isinstance(x, Internal):
            b, a = done.pop(), done.pop()
            if b.key < a.key:
                a, b = b, a
            done.append(Internal(a, b))
        else:
            k = len(x.left_seq) + len(x.right_seq) + 1
            *pieces, rc = done[-k:]
            del done[-k:]
            ls, rs = tuple(pieces[:len(x.left_seq)]), tuple(pieces[len(x.left_seq):])
            kls, krs = _keys(ls), _keys(rs)
            if krs < kls:
                ls, rs, kls, krs = rs, ls, krs, kls
            done.append(GallTop(ls, rs, rc, _encode_paths(ls, rs, kls, krs)))
    return done[0]


# -- generation ---------------------------------------------------------------

# _gen_cache holds the (class, n, g) buckets, _all_cache their merges by n and
# _seq_cache the path sequences of (class, total, g).  Each key names the
# class by its string value: a str hashes in C and caches its hash, where an
# Enum member runs the Python-level Enum.__hash__ on every lookup.
_gen_cache: Dict[Tuple[str, int, int], Tuple] = {}
_all_cache: Dict[Tuple[str, int], Tuple] = {}
_seq_cache: Dict[Tuple[str, int, int], Tuple[Tuple[Tuple, Tuple], ...]] = {}
_by_key = operator.attrgetter("key")


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
    key = (network_class._value_, n)
    got = _all_cache.get(key)
    if got is None:
        merged = itertools.chain(*(_generate(network_class, n, g) for g in range(n)))
        got = _all_cache[key] = tuple(sorted(merged, key=_by_key))
    return got


def _generate(cls: NetworkClass, n: int, g: int) -> Tuple:
    """The structures with n leaves and g galls, 0 <= g < n, sorted by key.
    Each is built once, in its canonical orientation, so no two share a key."""
    key = (cls._value_, n, g)
    got = _gen_cache.get(key)
    if got is not None:
        return got
    out = []
    if n == 1:
        out.append(LEAF)
    else:
        # unordered root split, its galls divided ga + gb
        for a in range(1, n // 2 + 1):
            b = n - a
            for ga in range(max(0, g - b + 1), min(a - 1, g) + 1):
                for sa in _generate(cls, a, ga):
                    for sb in _generate(cls, b, g - ga):
                        if a == b and sb.key < sa.key:
                            continue
                        out.append(Internal(sa, sb))
        if g:
            out += _root_galls(cls, n, g)
    got = _gen_cache[key] = tuple(sorted(out, key=_by_key))
    return got


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


def _sequences_index(cls: NetworkClass, total: int, g: int) -> Tuple[Tuple[Tuple, Tuple], ...]:
    """Every path sequence with `total` leaves and g galls, paired with its
    key tuple; a piece with l leaves has at most l - 1 galls."""
    if total == 0:
        return (((), ()),) if g == 0 else ()
    key = (cls._value_, total, g)
    got = _seq_cache.get(key)
    if got is not None:
        return got
    out = []
    for first_leaves in range(1, total + 1):
        for first_galls in range(min(first_leaves - 1, g) + 1):
            rests = _sequences_index(cls, total - first_leaves, g - first_galls)
            for first in _generate(cls, first_leaves, first_galls) if rests else ():
                for rest, krest in rests:
                    out.append(((first,) + rest, (first.key,) + krest))
    got = _seq_cache[key] = tuple(out)
    return got


# -- DAG expansion and validation ---------------------------------------------
#
# A structure's DAG is a list of node records in preorder: the root is node 1,
# a gall's reticulation is numbered right after its top node, each path node
# comes before its piece, and the reticulation's child comes last.  Node v's
# record is the pair (parent offsets, child offsets), each offset relative to
# v: its parents are v - o and its children v + o, in the order the edges are
# made.  Relative offsets make a subtree's records the same wherever it sits,
# so the records a structure's own node makes (a split's root; a gall's top,
# reticulation and path nodes), laid out by `_layout`, follow from its kind
# and its children's sizes alone: a split's root is ((), (1, 1 + left.size)),
# and a gall's top, reticulation and path nodes follow from its left path's
# piece count and its pieces' sizes, in order, a node's size being its
# record count, stored when it is built.  `_expansion` lays out a whole DAG,
# node by node, each child's root gaining its one parent offset.
#
# No records are kept.  Each node keeps its `scan`: what the checks find in
# its records.  It is summed when the node is built (`_scan`) from the
# node's own check and its children's scans, and interned: building every
# structure with n <= 7 of every class makes 64 distinct scans.  The own
# check is what the checks find in the records the node itself makes, and it
# depends only on the node's topology: a split, or a gall with so many pieces
# on each path.  The children's sizes only renumber the own records, keeping
# their order, and the checks read degrees, repeated parents, which of two
# nodes has the higher number (the merge walk steps that one) and which
# child's root lies below a reticulation, all of which an order-keeping
# renumbering leaves alone.  The own records are read as a root's: a root
# and a child's root have two children either way, zero parents or one are
# both legal, and no merge walk steps from the top.  So `_own_check`, cached
# by topology, surveys the records of the node of that topology whose
# children are all leaves; building every structure with n <= 7 surveys 20
# of them.  A node whose own check fails, or with a child that is not clean,
# is not clean and keeps `_UNCLEAN`, whose other fields no one reads: it
# fails its parent's sum in turn.  `validate` passes a structure on its scan
# alone; only one whose scan is not clean or does not suit the class gets
# the full pass over its whole expansion (`_report`), laid out for the call
# and dropped after it.

_Record = Tuple[Tuple[int, ...], Tuple[int, ...]]
_Scan = Tuple[bool, int, int, bool, bool]  # clean, leaves, reticulations, short, below
_SCANS: Dict[_Scan, _Scan] = {}
_OwnCheck = Tuple[int, int, bool, Tuple[int, ...]]  # leaves, reticulations, short, below at
_UNCLEAN: _Scan = (False, 0, 0, False, False)  # the scan of every node that is not clean
_GENERAL, _SIMPLEX = NetworkClass.GENERAL, NetworkClass.SIMPLEX_TC


class ValidationReport(NamedTuple):
    n_leaves: int
    n_galls: int
    violations: List[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def _expansion(s) -> List[_Record]:
    """The DAG records of s, laid out whole from an explicit stack: `_layout`
    once for each split or gall node, a leaf child's record written in
    place."""
    if s.__class__ is Leaf:
        return [((), ())]
    out: List = [None] * s.size
    stack = [(0, (), s)]
    while stack:
        i, up, x = stack.pop()
        own, placed = _layout(x)
        for j, rec in own.items():
            out[i + j] = rec
        out[i] = (up, own[0][1])
        for j, parent, c in placed:
            if c.__class__ is Leaf:
                out[i + j] = ((j - parent,), ())
            else:
                stack.append((i + j, (j - parent,), c))
    return out


def _children(s) -> Tuple:
    """The children of a split or gall node, in preorder."""
    if s.__class__ is Internal:
        return s.left, s.right
    return s.left_seq + s.right_seq + (s.ret_child,)


def _layout(s) -> Tuple[Dict[int, _Record], List[Tuple[int, int, object]]]:
    """The records s's own node makes, keyed by record index, and where its
    children go, in preorder: (index of the child's root record, index of its
    parent's record, child)."""
    if s.__class__ is Internal:
        j = 1 + s.left.size
        return {0: ((), (1, j))}, [(1, 0, s.left), (j, 0, s.right)]
    # The top node is record 0 and its reticulation record 1, both filled in
    # once the paths are laid out; each path node's piece hangs one below it.
    own: Dict[int, _Record] = {}
    placed = []
    heads, tails = [], []
    n = 2  # the next free record index
    for seq in (s.left_seq, s.right_seq):
        heads.append(n if seq else 1)
        prev = 0
        last = len(seq) - 1
        for i, piece in enumerate(seq):
            w = n
            n += 1 + piece.size
            own[w] = ((w - prev,), (1, (n if i < last else 1) - w))
            placed.append((w + 1, w, piece))
            prev = w
        tails.append(prev)
    own[0] = ((), tuple(heads))
    own[1] = ((1 - tails[0], 1 - tails[1]), (n - 1,))
    placed.append((n, 1, s.ret_child))
    return own, placed


def _build_dag(s) -> Tuple[List[List[int]], List[List[int]]]:
    """The expansion as adjacency lists (parents, children), index 0 an unused
    empty entry.  Each list holds the other ends of a node's edges in the order
    the edges are made."""
    recs = _expansion(s)
    parents = [[]] + [[v - o for o in p] for v, (p, _) in enumerate(recs, 1)]
    children = [[]] + [[v + o for o in c] for v, (_, c) in enumerate(recs, 1)]
    return parents, children


def _survey(recs, indices: Iterable[int]):
    """The degree pass and the merge walks, over all or some of a DAG's records.

    Node v's record is recs[v - 1], recs being a whole expansion or a dict
    of some records keyed by index, which no walk may leave; indices are the
    records to check.  Node 1 is the network's root, of degree (0, 2).
    Returns (leaf count, reticulations, faults, parallel, cycles, unmet,
    shared, short): faults are the (node, degree) pairs of illegal nodes;
    parallel whether a node repeats a parent; cycles the (reticulation,
    chain_a, chain_b) of each walk that meets; unmet the reticulations whose
    walk does not meet within recs; shared whether a node lies in two cycles;
    short the reticulations with a gall path of fewer than 2 edges."""
    # A repeated edge repeats a parent of its head, so only nodes with two or
    # more parents -- reticulations and illegal nodes -- can carry one.
    parallel = False
    faults = []
    n_leaf_nodes, ret_nodes = 0, []
    for i in indices:
        p, c = recs[i]
        if not i:
            if not p and len(c) == 2:
                continue  # the root
        elif len(p) == 1:
            if not c:
                n_leaf_nodes += 1
                continue
            if len(c) == 2:
                continue  # tree node
        elif len(p) == 2 and len(c) == 1:
            ret_nodes.append(i + 1)
            if p[0] == p[1]:
                parallel = True
            continue
        faults.append((i + 1, (len(p), len(c))))
        if len(set(p)) < len(p):
            parallel = True

    # The merge walk up each reticulation's two parent chains.  A chain climbs
    # while its node has exactly one parent: the step unpacks that one parent
    # offset, and a ValueError, raised once the chain at the higher node
    # cannot step, means the two never meet.  So does a KeyError, raised when
    # a walk steps from, or meets at, a node outside a dict of records.  The
    # reticulation cycle is the reticulation and both chains up to their top.
    cycles, unmet, short, cycle_nodes = [], [], [], []
    for r in ret_nodes:
        pa, pb = recs[r - 1][0]
        a, b = r - pa, r - pb
        chain_a, chain_b = [a], [b]
        try:
            while a != b:
                if a > b:
                    (o,) = recs[a - 1][0]
                    a -= o
                    chain_a.append(a)
                else:
                    (o,) = recs[b - 1][0]
                    b -= o
                    chain_b.append(b)
            recs[a - 1]  # the top, too, lies within recs
        except (ValueError, KeyError):
            unmet.append(r)
            continue
        cycles.append((r, chain_a, chain_b))
        cycle_nodes.append(r)
        cycle_nodes += chain_a
        cycle_nodes += chain_b[:-1]  # the top, already in chain_a
        if len(chain_a) < 2 or len(chain_b) < 2:
            short.append(r)
    # Only a node in two cycles repeats in cycle_nodes.
    shared = len(set(cycle_nodes)) < len(cycle_nodes)
    return n_leaf_nodes, ret_nodes, faults, parallel, cycles, unmet, shared, short


@functools.lru_cache(maxsize=None)
def _own_check(shape: Tuple[int, ...]) -> Optional[_OwnCheck]:
    """What the checks find in the records a node of this topology makes,
    shape being () for a split and (left path length, right path length)
    for a gall.  The records are laid out by `_layout` for the node of that
    topology whose children are all leaves, given its structural fields
    alone: its __init__ would ask for this very check.  (leaf tally,
    reticulation tally, short, the positions among the node's children of
    those whose roots are an own reticulation's child), or None unless the
    own records pass the checks, each own reticulation's walk stays on them
    and its child is a child's root: the node is then not clean."""
    s = object.__new__(GallTop if shape else Internal)
    fields = ((LEAF,) * shape[0], (LEAF,) * shape[1], LEAF) if shape else (LEAF, LEAF)
    for set_field, value in zip(_slot_setters(s.__class__), fields):
        set_field(s, value)
    own, placed = _layout(s)
    n_leaf_nodes, ret_nodes, faults, parallel, _, unmet, shared, short = _survey(own, own)
    if faults or parallel or unmet or shared:
        return None
    roots = [i for i, _, _ in placed]
    below = []
    for r in ret_nodes:
        i = r - 1 + own[r - 1][1][0]
        if i not in roots:
            return None
        below.append(roots.index(i))
    return n_leaf_nodes, len(ret_nodes), bool(short), tuple(below)


def _scan(check: Optional[_OwnCheck], cs: Tuple) -> _Scan:
    """The interned scan of a node whose own check is check and whose
    children are cs: the own check's tallies and flags added to the
    children's, or `_UNCLEAN` when the own check fails or a child is not
    clean."""
    if check is None:
        return _UNCLEAN
    n_leaf_nodes, n_ret_nodes, short, below_at = check
    below = False
    for c in cs:
        clean, c_leaves, c_rets, c_short, c_below = c.scan
        if not clean:
            return _UNCLEAN
        n_leaf_nodes += c_leaves
        n_ret_nodes += c_rets
        short = short or c_short
        below = below or c_below
    below = below or any(cs[k].__class__ is not Leaf for k in below_at)
    scan = (True, n_leaf_nodes, n_ret_nodes, short, below)
    return _SCANS.setdefault(scan, scan)


def validate(s, network_class: NetworkClass) -> ValidationReport:
    """Expand to a DAG and check the definition of the class directly.

    Node v (root 1, preorder) is record v - 1 of the expansion: its parents
    are v - o for o in the record's parent offsets and its children v + o for
    o in its child offsets, so degrees are the lengths of the two tuples.
    In preorder every node with exactly one parent has a positive parent
    offset, so parent chains strictly decrease, and a gall's top is found by
    a merge walk up the reticulation's two chains that steps the one at the
    higher node number until they meet; no chain is climbed past the top.
    s passes on its stored scan, summed when it was built, when that is
    clean, its tallies are s's and its flags suit the class: general
    ignores short paths and non-leaves below a reticulation,
    time-consistent rejects the first, simplex both.  Otherwise the full
    pass lays out the whole expansion and words the report.  Violation
    texts quote node numbers, and these follow the structure's own
    orientation: a mirror image has the same canonical key but numbers its
    nodes differently."""
    clean, n_leaf_nodes, n_ret_nodes, short, below = s.scan
    if (clean and n_leaf_nodes == s.n_leaves and n_ret_nodes == s.n_galls
            and (network_class is _GENERAL or not short)
            and (network_class is not _SIMPLEX or not below)):
        return ValidationReport(s.n_leaves, s.n_galls, [])
    return _report(s, network_class, _expansion(s))


def _report(s, network_class: NetworkClass, recs: Sequence[_Record]) -> ValidationReport:
    """The full pass: the checks over recs, s's whole expansion, each
    violation worded, in the order validate reports them."""
    n_nodes = len(recs)
    report = ValidationReport(s.n_leaves, s.n_galls, [])
    bad = report.violations.append
    n_leaf_nodes, ret_nodes, faults, parallel, cycles, unmet, shared, short = _survey(
        recs, range(n_nodes) if n_nodes > 1 else ())  # else the trivial one-leaf network
    if parallel:
        bad("parallel edges (not a simple graph)")
    for v, degree in faults:
        bad(f"node {v} has illegal degree {degree}" if v > 1 else f"root degree {degree}")
    expected_leaves = 1 if n_nodes == 1 else n_leaf_nodes
    if expected_leaves != report.n_leaves:
        bad(f"leaf tally {expected_leaves} != structural {report.n_leaves}")
    if len(ret_nodes) != report.n_galls:
        bad(f"reticulation tally {len(ret_nodes)} != structural {report.n_galls}")
    for r in unmet:
        bad(f"reticulation {r}: parent paths never meet")

    # The per-cycle sets, whose order the messages follow, are built only
    # when some node lies in two cycles.
    if shared:
        seen: Dict[int, int] = {}
        for i, (r, chain_a, chain_b) in enumerate(cycles):
            for v in {r} | set(chain_a) | set(chain_b):
                if v in seen:
                    bad(f"node {v} lies in two reticulation cycles")
                seen[v] = i

    if network_class is not NetworkClass.GENERAL:
        for r in short:
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
    distinct labeled canonical forms.  Exponential; cross-check for tiny n.
    n must be the structure's leaf count, within the brute-force guard."""
    if n != s.n_leaves:
        raise ValueError(f"n = {n} is not the structure's leaf count, {s.n_leaves}")
    cap = _max_leaves_guard()
    if n > cap:
        raise ValueError(
            f"n = {n} exceeds the brute-force guard ({cap}); set GALLED_MAX_N to override"
        )

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
    """Parenthesized form: leaf 'x', split '(A,B)', gall '[A,...|B,...;R]'.
    The walk keeps its own stack, so no depth is out of its reach."""
    out = []
    stack = [s]
    while stack:
        x = stack.pop()
        if x.__class__ is str:
            out.append(x)
        elif isinstance(x, Leaf):
            out.append("x")
        elif isinstance(x, Internal):
            out.append("(")
            stack += ")", x.right, ",", x.left
        else:
            out.append("[")
            stack += "]", x.ret_child, ";", *_commas(x.right_seq), "|", *_commas(x.left_seq)
    return "".join(out)


def _commas(seq) -> List:
    """seq's items with commas between them, reversed for a stack."""
    return [t for x in reversed(seq) for t in (x, ",")][:-1]


def parse_text(text: str):
    """The structure written by dump_text.  The parser recurses once per
    nesting level, so input nested past the interpreter's recursion limit is
    refused with a ValueError naming its depth."""
    try:
        s, pos = _parse(text, 0)
    except RecursionError:
        depth = max(itertools.accumulate((c in "([") - (c in ")]") for c in text))
        raise ValueError(f"input nests {depth} levels deep, past the parser's reach") from None
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
    _SCANS.clear()
    _own_check.cache_clear()
    _seq_cache.clear()
