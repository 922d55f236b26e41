#!/usr/bin/env python3
"""Regenerate the two-layer critical-point count table and a merge tree.

The table grows fast along both axes; the merge tree shows how the count
drops whenever two layers are merged while keeping the parameter count.
"""

import argparse

from lcn.cli import _at_least
from lcn.eddegree import fully_connected_count, merge_tree, tree_lines, two_layer_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-k1", type=_at_least(2), default=9)
    parser.add_argument("--max-k2", type=_at_least(2), default=9)
    parser.add_argument("--tree", default="2,3,4,5", help="filter sizes for the merge tree")
    args = parser.parse_args()
    try:
        sizes = tuple(int(v) for v in args.tree.split(","))
        tree = merge_tree(sizes)
    except ValueError as exc:
        parser.error(f"argument --tree: {exc}")

    print(f"generic critical-point counts, k1 x k2 up to {args.max_k1} x {args.max_k2}:")
    rows = two_layer_table(args.max_k1, args.max_k2)
    width = len(str(rows[-1][-1])) + 1
    header = "      " + "".join(str(k2).rjust(width) for k2 in range(2, args.max_k2 + 1))
    print(header)
    for k1, row in zip(range(2, args.max_k1 + 1), rows):
        print(f"k1={k1:<2}" + "".join(str(v).rjust(width) for v in row))

    print(f"\nmerge tree of {sizes}:")
    print("\n".join(tree_lines(tree)))

    print(
        f"\nfully connected comparison: a rank-1 {sizes[0]}x{sizes[-1]} map "
        f"has {fully_connected_count(sizes[0], sizes[-1], 1)} critical points, "
        f"independent of depth."
    )


if __name__ == "__main__":
    main()
