"""Reference code for the merge-tree tests.

``merge_tree`` is the plain recursion that builds a fresh node and calls
``generic_ed_degree`` once for every node of the layer-merge tree, with no
sharing between equal size tuples or equal multisets;
``lcn.eddegree.merge_tree`` must build an equal tree.
"""

from typing import Sequence

from lcn.eddegree import MergeNode, _check_sizes, generic_ed_degree


def merge_tree(filter_sizes: Sequence[int]) -> MergeNode:
    """Tree of counts under dimension-preserving pairwise layer merges.

    Merging sizes ``k_i, k_j -> k_i + k_j - 1`` keeps ``kbar`` fixed.
    Children enumerate the distinct merged multisets (the merged size takes
    the first slot of the pair); recursion stops at two layers.
    """
    sizes = _check_sizes(filter_sizes)
    if len(sizes) < 2:
        raise ValueError("merge tree needs at least two layers")
    children = []
    if len(sizes) > 2:
        seen = set()
        for i in range(len(sizes)):
            for j in range(i + 1, len(sizes)):
                merged = (
                    sizes[:i]
                    + (sizes[i] + sizes[j] - 1,)
                    + sizes[i + 1 : j]
                    + sizes[j + 1 :]
                )
                key = tuple(sorted(merged))
                if key in seen:
                    continue
                seen.add(key)
                children.append(merge_tree(merged))
    return MergeNode(sizes, generic_ed_degree(sizes), tuple(children))
