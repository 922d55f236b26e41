"""Reference code for the count and merge-tree tests.

``term_by_term_count`` evaluates the closed form one ``t``-term at a time,
each with its own factorial and an exact division by ``prod n_j!``;
``lcn.eddegree.generic_ed_degree`` (a Horner sum divided once) must agree.
``merge_tree`` is the plain recursion that builds a fresh node and calls
``generic_ed_degree`` once for every node of the layer-merge tree, with no
sharing between equal size tuples or equal multisets;
``lcn.eddegree.merge_tree`` must build an equal tree.
"""

from math import comb, factorial, perm, prod
from typing import Sequence

from lcn.arch import _convolve
from lcn.eddegree import MergeNode, _check_sizes, generic_ed_degree


def term_by_term_count(filter_sizes: Sequence[int]) -> int:
    """The closed form summed term by term; each term must be an integer."""
    dims = [k - 1 for k in _check_sizes(filter_sizes)]
    kbar = sum(dims)
    # coeffs[t] = prod_j n_j! * (inner sum at t)
    coeffs = [1]
    for n in dims:
        coeffs = _convolve(coeffs, [comb(n + 1, i) * perm(n, i) for i in range(n + 1)])
    scale = prod(factorial(n) for n in dims)
    total = 0
    for t, c in enumerate(coeffs):
        term, rest = divmod(c * factorial(kbar - t), scale)
        assert rest == 0, "each t-term must clear its denominators"
        total += (-1) ** t * (2 ** (kbar + 1 - t) - 1) * term
    return total


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
