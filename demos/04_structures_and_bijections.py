"""Structures, validation, and the maximal-gall bijections.

Materializes every small structure, shows the text form, validates against
the DAG-level definitions, and walks the two constructive bijections.
"""

from galledtrees import (
    count_by_galls,
    dump_text,
    generate_all,
    labeled_count,
    plane_to_saturated_general,
    tree_to_saturated_simplex,
    validate,
)
from galledtrees.bijections import all_plane_trees, all_tree_shapes
from galledtrees.counts import NetworkClass
from galledtrees.oracle import aut_order, galls


def main():
    print("All general galled trees with 3 leaves "
          "(leaf 'x', split '(A,B)', gall '[A,..|B,..;R]'):")
    for s in generate_all(NetworkClass.GENERAL, 3):
        rep = validate(s, NetworkClass.GENERAL)
        tc = validate(s, NetworkClass.TIME_CONSISTENT).ok
        print(f"  {dump_text(s):<16} galls={galls(s)} valid={rep.ok} "
              f"time-consistent={tc} |Aut|={aut_order(s)}")

    print("\nHistograms match the recursion tables:")
    print(f"  general n=6:  {count_by_galls(NetworkClass.GENERAL, 6)}")
    print(f"  simplex n=7:  {count_by_galls(NetworkClass.SIMPLEX_TC, 7)}")
    print(f"  labeled general n=3: {labeled_count(NetworkClass.GENERAL, 3)}")

    print("\nSaturated general galled trees are plane binary trees in disguise:")
    for t in all_plane_trees(3):
        s = plane_to_saturated_general(t)
        print(f"  plane {t} -> {dump_text(s)}")
    n = 5
    img = {dump_text(plane_to_saturated_general(t)) for t in all_plane_trees(n)}
    slice_ = generate_all(NetworkClass.GENERAL, n, n - 1)
    print(f"  n={n}: {len(img)} plane trees map onto all {len(slice_)} "
          f"structures with {n - 1} galls")

    print("\nSaturated simplex trees are unordered binary shapes in disguise:")
    for shape in all_tree_shapes(3):
        s = tree_to_saturated_simplex(shape)
        print(f"  shape {dump_text(shape)} -> {dump_text(s)} "
              f"({galls(s)} galls, {2 * 3 - 1} leaves)")


if __name__ == "__main__":
    main()
