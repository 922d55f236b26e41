"""Reference code for the count and merge-tree tests.

``term_by_term_count`` evaluates the closed form one ``t``-term at a time,
each with its own factorial and an exact division by ``prod n_j!``;
``lcn.eddegree.generic_ed_degree`` (one packed product of the rows and
one dot product, divided once) must agree.
``merge_tree`` is the plain recursion that builds a fresh node and calls
``generic_ed_degree`` once for every node of the layer-merge tree, with no
sharing between equal size tuples or equal multisets;
``lcn.eddegree.merge_tree`` must build an equal tree.
``chern_ed_degree`` derives the count from the Chern classes of the Segre
variety instead of the paper's sum.  ``fully_connected_count`` is the count
of a fully connected network, which the paper's third claim compares with.
"""

from itertools import product
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


def chern_ed_degree(filter_sizes: Sequence[int], shift: int = 1) -> int:
    """Generic ED degree of the Segre variety ``P^(n_1) x ... x P^(n_L)``.

    Draisma-Horobet-Ottaviani-Sturmfels-Thomas (Found. Comput. Math. 16,
    2016, §5): for a smooth ``m``-dimensional variety in general position
    with respect to the isotropic quadric,

        EDdegree = sum_i (-1)^(m+i) (2^(i+1) - 1) int c_(m-i)(T_X) h^i,

    with ``c(T_X) = prod_j (1 + h_j)^(n_j + shift)`` (``shift = 1`` is the
    tangent bundle; any other value is a negative control) in the Chow ring
    ``Z[h] / (h_j^(n_j + 1))``, ``h = sum_j h_j`` the hyperplane class, and
    ``int`` the coefficient of the point class ``prod_j h_j^(n_j)``.
    """
    dims = [k - 1 for k in _check_sizes(filter_sizes)]
    m = sum(dims)
    total = 0
    # one term per monomial prod_j h_j^(a_j) of the Chow ring
    for a in product(*(range(n + 1) for n in dims)):
        i = m - sum(a)
        chern = prod(comb(n + shift, x) for n, x in zip(dims, a))
        # int prod_j h_j^(a_j) h^i: the multinomial coefficient of
        # prod_j h_j^(n_j - a_j) in (sum_j h_j)^i
        integral = factorial(i) // prod(factorial(n - x) for n, x in zip(dims, a))
        total += (-1) ** (m + i) * ((1 << i + 1) - 1) * chern * integral
    return total


def fully_connected_count(m: int, n: int, r: int) -> int:
    """Critical points when training a fully connected linear network.

    The bounded-rank matrix variety has exactly ``binom(min(m, n), r)``
    critical points for the (possibly weighted) Frobenius distance.
    """
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank {r} out of range for a {m}x{n} matrix")
    return comb(min(m, n), r)
