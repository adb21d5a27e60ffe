"""Brute-force ground truth: materialize every galled-tree structure for
small n, validate against the graph-theoretic definitions, and count.

Structures are built from a three-case grammar -- a leaf, an unordered root
split, or a root gall carrying two node sequences and a reticulation subtree
-- with canonical forms deduplicating isomorphic shapes.  Each node carries
its canonical key and its leaf and gall tallies, computed once when it is
built from its children's stored fields.  Validation is deliberately
independent of that algebra: a structure is expanded to an explicit
node/edge DAG and checked against the degree and reticulation-cycle
conditions directly, so the halving factors and palindromic corrections of
the counting recursions are exercised against something that knows nothing
about them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Tuple

from .counts import NetworkClass

DEFAULT_MAX_LEAVES = 8


class Leaf:
    __slots__ = ()
    key = b"L"
    n_leaves = 1
    n_galls = 0

    def __repr__(self):
        return "Leaf()"


LEAF = Leaf()


# The stored key and tallies stay out of ==, hash and repr, which compare and
# show the structure alone.


@dataclass(frozen=True, slots=True)
class Internal:
    left: object
    right: object
    key: bytes = field(init=False, repr=False, compare=False)
    n_leaves: int = field(init=False, repr=False, compare=False)
    n_galls: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b = sorted((self.left.key, self.right.key))
        object.__setattr__(self, "key", b"I" + _blob(a) + _blob(b))
        object.__setattr__(self, "n_leaves", self.left.n_leaves + self.right.n_leaves)
        object.__setattr__(self, "n_galls", self.left.n_galls + self.right.n_galls)


@dataclass(frozen=True, slots=True)
class GallTop:
    left_seq: Tuple[object, ...]
    right_seq: Tuple[object, ...]
    ret_child: object
    key: bytes = field(init=False, repr=False, compare=False)
    n_leaves: int = field(init=False, repr=False, compare=False)
    n_galls: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ls, rs = _keys(self.left_seq), _keys(self.right_seq)
        if rs < ls:
            ls, rs = rs, ls
        body = _blob(bytes([len(ls)]) + b"".join(map(_blob, ls)))
        body += _blob(bytes([len(rs)]) + b"".join(map(_blob, rs)))
        body += _blob(self.ret_child.key)
        pieces = (*self.left_seq, *self.right_seq, self.ret_child)
        object.__setattr__(self, "key", b"G" + body)
        object.__setattr__(self, "n_leaves", sum(x.n_leaves for x in pieces))
        object.__setattr__(self, "n_galls", 1 + sum(x.n_galls for x in pieces))


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
    if _keys(rs) < _keys(ls):
        ls, rs = rs, ls
    return GallTop(ls, rs, canonicalize(s.ret_child))


# -- generation ---------------------------------------------------------------

_gen_cache: Dict[Tuple[NetworkClass, int], Tuple] = {}


def _max_leaves_guard() -> int:
    return int(os.environ.get("GALLED_MAX_N", DEFAULT_MAX_LEAVES))


def generate_all(network_class: NetworkClass, n: int) -> Tuple:
    """Every isomorphism class of the given network class with n leaves,
    canonical, deterministically ordered."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > _max_leaves_guard():
        raise ValueError(
            f"n = {n} exceeds the brute-force guard ({_max_leaves_guard()}); "
            "set GALLED_MAX_N to override"
        )
    return _generate(network_class, n)


def _generate(cls: NetworkClass, n: int) -> Tuple:
    key = (cls, n)
    got = _gen_cache.get(key)
    if got is not None:
        return got
    out = {}
    if n == 1:
        out[LEAF.key] = LEAF
    else:
        # unordered root split
        for a in range(1, n // 2 + 1):
            b = n - a
            for sa in _generate(cls, a):
                for sb in _generate(cls, b):
                    if a == b and sb.key < sa.key:
                        continue
                    s = Internal(sa, sb)
                    out[s.key] = s
        # root gall
        simplex = cls is NetworkClass.SIMPLEX_TC
        tc = cls is not NetworkClass.GENERAL
        for s in _root_galls(cls, n, simplex, tc):
            out[s.key] = s
    result = tuple(v for _, v in sorted(out.items()))
    _gen_cache[key] = result
    return result


def _root_galls(cls, n, simplex, tc) -> Iterable[GallTop]:
    min_side = 1 if tc else 0
    for ret_leaves in (1,) if simplex else range(1, n):
        rest = n - ret_leaves
        ret_opts = (LEAF,) if simplex else _generate(cls, ret_leaves)
        for left_total in range(min_side, rest - min_side + 1):
            right_total = rest - left_total
            if left_total == 0 and right_total == 0:
                continue  # both paths empty would double the top-ret edge
            rights = [(rs, _keys(rs)) for rs in _sequences_index(cls, right_total)]
            for ls in _sequences_index(cls, left_total):
                kls = _keys(ls)
                for rs, krs in rights:
                    if krs < kls:
                        continue  # keep one orientation of the two paths
                    for rc in ret_opts:
                        yield GallTop(ls, rs, rc)


@lru_cache(maxsize=None)
def _sequences_index(cls: NetworkClass, total: int) -> Tuple[Tuple, ...]:
    if total == 0:
        return ((),)
    out = []
    for first_leaves in range(1, total + 1):
        for first in _generate(cls, first_leaves):
            for rest in _sequences_index(cls, total - first_leaves):
                out.append((first,) + rest)
    return tuple(out)


# -- DAG expansion and validation ---------------------------------------------


@dataclass
class ValidationReport:
    n_leaves: int
    n_galls: int
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _build_dag(s) -> Tuple[List[List[int]], List[List[int]]]:
    """Explicit DAG expansion as adjacency lists (parents, children).  Nodes
    are numbered 1, 2, ... in preorder, the root being node 1; index 0 is an
    unused empty entry.  Each list holds the other ends of a node's edges in
    the order the edges are made."""
    parents: List[List[int]] = [[]]
    children: List[List[int]] = [[]]

    def new_node() -> int:
        parents.append([])
        children.append([])
        return len(parents) - 1

    def edge(a: int, b: int) -> None:
        children[a].append(b)
        parents[b].append(a)

    def build(sub) -> int:
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


def validate(s, network_class: NetworkClass) -> ValidationReport:
    """Expand to a DAG and check the definition of the class directly."""
    parents, children = _build_dag(s)
    n_nodes = len(parents) - 1
    report = ValidationReport(n_leaves=leaves(s), n_galls=galls(s))
    bad = report.violations.append

    if any(len(c) > 1 and len(set(c)) < len(c) for c in children):
        bad("parallel edges (not a simple graph)")

    leaf_nodes, ret_nodes = [], []
    if n_nodes == 1:
        pass  # the trivial one-leaf network
    else:
        for v in range(1, n_nodes + 1):
            deg = (len(parents[v]), len(children[v]))
            if v == 1:
                if deg != (0, 2):
                    bad(f"root degree {deg}")
            elif deg == (1, 0):
                leaf_nodes.append(v)
            elif deg == (1, 2):
                pass  # tree node
            elif deg == (2, 1):
                ret_nodes.append(v)
            else:
                bad(f"node {v} has illegal degree {deg}")

    expected_leaves = 1 if n_nodes == 1 else len(leaf_nodes)
    if expected_leaves != report.n_leaves:
        bad(f"leaf tally {expected_leaves} != structural {report.n_leaves}")
    if len(ret_nodes) != report.n_galls:
        bad(f"reticulation tally {len(ret_nodes)} != structural {report.n_galls}")

    # Each reticulation's two parent paths, walked up only to the first node
    # the two chains share (the gall's top node); the reticulation cycle is
    # everything at or below that meeting point.
    def up_chain(v):
        chain = [v]
        while len(parents[chain[-1]]) == 1:
            chain.append(parents[chain[-1]][0])
        return chain

    cycles: List[set] = []
    path_lengths: List[Tuple[int, int]] = []
    for r in ret_nodes:
        if len(parents[r]) != 2:
            continue
        chain_a = up_chain(parents[r][0])
        chain_b = up_chain(parents[r][1])
        pos_b = {v: i for i, v in enumerate(chain_b)}
        top_idx = next(
            ((ia, pos_b[v]) for ia, v in enumerate(chain_a) if v in pos_b), None
        )
        if top_idx is None:
            bad(f"reticulation {r}: parent paths never meet")
            continue
        ia, ib = top_idx
        cycles.append({r} | set(chain_a[: ia + 1]) | set(chain_b[: ib + 1]))
        path_lengths.append((ia + 1, ib + 1))

    seen: Dict[int, int] = {}
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
    return report


# -- counting -----------------------------------------------------------------


def count_by_galls(network_class: NetworkClass, n: int) -> Dict[int, int]:
    """Histogram of gall counts over all canonical structures with n leaves."""
    hist: Dict[int, int] = {}
    for s in generate_all(network_class, n):
        g = galls(s)
        hist[g] = hist.get(g, 0) + 1
    return dict(sorted(hist.items()))


def aut_order(s) -> int:
    """Order of the automorphism group of a canonical structure."""
    if isinstance(s, Leaf):
        return 1
    if isinstance(s, Internal):
        out = aut_order(s.left) * aut_order(s.right)
        if s.left.key == s.right.key:
            out *= 2
        return out
    out = aut_order(s.ret_child)
    for x in s.left_seq:
        out *= aut_order(x)
    for x in s.right_seq:
        out *= aut_order(x)
    if _keys(s.left_seq) == _keys(s.right_seq):
        out *= 2
    return out


def labeled_count(network_class: NetworkClass, n: int) -> Dict[int, int]:
    """Distinct leaf-labelings per gall count, via n! / |Aut| per structure."""
    nf = math.factorial(n)
    hist: Dict[int, int] = {}
    for s in generate_all(network_class, n):
        a = aut_order(s)
        assert nf % a == 0
        hist[galls(s)] = hist.get(galls(s), 0) + nf // a
    return dict(sorted(hist.items()))


def count_labelings_explicit(s, n: int) -> int:
    """Independent labeling count: try all n! leaf-label assignments and count
    distinct labeled canonical forms.  Exponential; cross-check for tiny n."""
    import itertools

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
    _sequences_index.cache_clear()
