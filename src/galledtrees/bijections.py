"""Constructive bijections onto the maximal-gall slices.

A galled tree saturated with galls decomposes completely: in the general
class every internal branching is a three-node gall (counted by plane binary
trees, hence Catalan numbers); in the simplex time-consistent class every
branching is a four-node gall with a pendant leaf under the reticulation
(counted by unordered binary tree shapes).  Both maps are implemented
explicitly so the counting identities can be checked against actual
structures, not just numbers.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Dict, List, NamedTuple, Tuple

from .comb import catalan
from .counts import (
    Labeling,
    NetworkClass,
    TreeClassSpec,
    count,
    labeled_tree_count,
    wedderburn,
)
from .oracle import GallTop, Internal, LEAF, canonical_key


# Plane (ordered) binary trees: ('L',) or ('N', left, right).
PLANE_LEAF = ("L",)


def plane_node(left, right):
    return ("N", left, right)


@lru_cache(maxsize=None)
def all_plane_trees(n: int) -> Tuple:
    """All plane rooted binary trees with n leaves (Catalan-many)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return (PLANE_LEAF,)
    out = []
    for a in range(1, n):
        for left in all_plane_trees(a):
            for right in all_plane_trees(n - a):
                out.append(plane_node(left, right))
    return tuple(out)


@lru_cache(maxsize=None)
def all_tree_shapes(m: int) -> Tuple:
    """All unordered binary tree shapes with m leaves (Wedderburn-many),
    as canonical Leaf/Internal structures."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if m == 1:
        return (LEAF,)
    seen = {}
    for a in range(1, m // 2 + 1):
        for left in all_tree_shapes(a):
            for right in all_tree_shapes(m - a):
                s = Internal(left, right)
                seen[canonical_key(s)] = s
    return tuple(v for _, v in sorted(seen.items()))


def plane_to_saturated_general(tree) -> object:
    """Replace each plane internal node with a three-node gall whose
    reticulation hangs directly under the top node, taking the node's left
    child; the right child hangs off the single path node.  Distinct plane
    trees give distinct saturated general galled trees."""
    if tree == PLANE_LEAF:
        return LEAF
    _, left, right = tree
    return GallTop(
        (),
        (plane_to_saturated_general(right),),
        plane_to_saturated_general(left),
    )


def tree_to_saturated_simplex(shape) -> object:
    """Replace each branching of an unordered shape with a four-node gall:
    one hybridizing node on each path carrying one child subtree, and a
    pendant leaf under the reticulation.  A shape with m leaves maps to a
    structure with 2m - 1 leaves and m - 1 galls."""
    if isinstance(shape, Internal):
        return GallTop(
            (tree_to_saturated_simplex(shape.left),),
            (tree_to_saturated_simplex(shape.right),),
            LEAF,
        )
    return LEAF


def saturated_general_slice(n: int) -> Dict[bytes, object]:
    """Image of the plane-tree map at n leaves, keyed by canonical form."""
    out = {}
    for t in all_plane_trees(n):
        s = plane_to_saturated_general(t)
        key = canonical_key(s)
        if key in out:
            raise AssertionError("plane-tree map collided; it must be injective")
        out[key] = s
    return out


def saturated_simplex_slice(m: int) -> Dict[bytes, object]:
    """Image of the shape map at m shape-leaves (2m - 1 network leaves)."""
    out = {}
    for shape in all_tree_shapes(m):
        s = tree_to_saturated_simplex(shape)
        key = canonical_key(s)
        if key in out:
            raise AssertionError("shape map collided; it must be injective")
        out[key] = s
    return out


class CorollaryReport(NamedTuple):
    max_n: int
    failures: List[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_labeled_corollaries(max_n: int) -> CorollaryReport:
    """Closed forms for the labeled maximal-gall counts:
    general n, n-1 galls: catalan(n-1) * n!; simplex odd n, (n-1)/2 galls:
    labeled_tree_count((n+1)/2) * n! / ((n+1)/2)!."""
    if max_n < 2:
        raise ValueError(f"need max_n >= 2, got {max_n}")
    failures: List[str] = []
    gen = TreeClassSpec(NetworkClass.GENERAL, Labeling.LEAF_LABELED)
    sim = TreeClassSpec(NetworkClass.SIMPLEX_TC, Labeling.LEAF_LABELED)
    for n in range(2, max_n + 1):
        want = catalan(n - 1) * factorial(n)
        got = count(gen, n, n - 1)
        if got != want:
            failures.append(f"general n={n}: {got} != {want}")
        if n % 2 == 1:
            m = (n + 1) // 2
            want = labeled_tree_count(m) * factorial(n) // factorial(m)
            got = count(sim, n, (n - 1) // 2)
            if got != want:
                failures.append(f"simplex n={n}: {got} != {want}")
    return CorollaryReport(max_n, failures)


def check_unlabeled_identities(max_n: int) -> CorollaryReport:
    """Unlabeled maximal-gall identities: general slice is Catalan, simplex
    slice (odd n) is Wedderburn."""
    failures: List[str] = []
    gen = TreeClassSpec(NetworkClass.GENERAL, Labeling.UNLABELED)
    sim = TreeClassSpec(NetworkClass.SIMPLEX_TC, Labeling.UNLABELED)
    for n in range(2, max_n + 1):
        if count(gen, n, n - 1) != catalan(n - 1):
            failures.append(f"general n={n}")
        if n % 2 == 1 and count(sim, n, (n - 1) // 2) != wedderburn((n + 1) // 2):
            failures.append(f"simplex n={n}")
    return CorollaryReport(max_n, failures)
