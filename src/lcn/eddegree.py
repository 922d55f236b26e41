"""Generic Euclidean distance degree of rank-one tensor varieties.

For filter sizes ``k_1, ..., k_L`` (all at least 1) the count of complex
critical points of a generically weighted squared distance on the variety of
rank-one ``k_1 x ... x k_L`` tensors is

    C_k = sum_{t=0}^{kbar} (-1)^t (2^{kbar+1-t} - 1) (kbar - t)!
          sum_{i_1+...+i_L = t, i_j <= n_j}
              prod_j  binom(n_j + 1, i_j) / (n_j - i_j)!

with ``n_j = k_j - 1`` and ``kbar = sum n_j`` (the dimension of the
projectivized variety).  The count depends only on the multiset of filter
sizes, and a size-1 filter adds nothing (its row of the product below is
``[1]``); strides play no role.  The same number governs the training loss of
the matching convolutional network, which ``lcn critpoints`` checks
numerically; the tests check it against the Chern-class formula for the ED
degree of the Segre variety (Draisma et al., 2016, §5).

The inner sum is the ``z^t`` coefficient of
``prod_j sum_i binom(n_j + 1, i) z^i / (n_j - i)!``, each row scaled by
``n_j!`` to keep integer coefficients; a size's row is a pure function of
``n_j``, memoised for up to 256 sizes per process.  The product of the rows
is one big-integer product (Kronecker substitution): each row is packed into
one integer with ``w`` bits per coefficient, the packed integers are
multiplied, and the ``kbar + 1`` coefficients are read back by shift and
mask.  The outer sum over ``t`` is one dot product of those coefficients with
the weights ``(-1)^t (2^{kbar+1-t} - 1) (kbar - t)!``, memoised per ``kbar``
like the rows, and is divided once by ``prod n_j!``.  Everything here is
exact big-integer arithmetic; the division is exact because each ``t``-term
is an integer (``(kbar - t)! / prod (n_j - i_j)!`` is a multinomial
coefficient).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, perm, prod
from operator import mul
from typing import NamedTuple, Sequence

from .arch import Architecture, _integers, reduce_arch


def _check_sizes(filter_sizes: Sequence[int]) -> tuple:
    sizes = _integers(filter_sizes, "filter sizes")
    if not sizes:
        raise ValueError("need at least one filter size")
    if any(v < 1 for v in sizes):
        raise ValueError(f"filter sizes must be at least 1, got {sizes}")
    return sizes


@lru_cache(maxsize=256)
def _row(n: int) -> tuple:
    """``n! * binom(n + 1, i) / (n - i)!`` for ``i = 0..n``: one size's factor."""
    return tuple(comb(n + 1, i) * perm(n, i) for i in range(n + 1))


@lru_cache(maxsize=256)
def _weights(kbar: int) -> tuple:
    """``(-1)^t (2^{kbar+1-t} - 1) (kbar - t)!`` for ``t = 0..kbar``: the outer sum's factors."""
    return tuple(
        (-1) ** t * ((1 << (kbar + 1 - t)) - 1) * factorial(kbar - t)
        for t in range(kbar + 1)
    )


def _row_product(dims: Sequence[int]) -> list:
    """Coefficients of ``prod_j _row(n_j)`` as polynomials in ``z``, lowest first."""
    rows = [_row(n) for n in dims]
    width = prod(map(sum, rows)).bit_length()
    packed = 1
    for row in rows:
        word = 0
        for c in reversed(row):
            word = (word << width) | c
        packed *= word
    mask = (1 << width) - 1
    return [(packed >> (t * width)) & mask for t in range(sum(dims) + 1)]


def generic_ed_degree(filter_sizes: Sequence[int]) -> int:
    """Exact critical-point count for the given multiset of filter sizes.

    ``_row_product`` packs the rows into integers with slots of
    ``w = bit_length(prod_j sum(_row(n_j)))`` bits and multiplies them.  All
    row entries are positive, so every coefficient of the product is at most
    that product of row sums, which is below ``2^w``: no slot carries into
    the next.
    """
    dims = [k - 1 for k in _check_sizes(filter_sizes)]
    # coefficient t = prod_j n_j! * (inner sum at t)
    total = sum(map(mul, _weights(sum(dims)), _row_product(dims)))
    total, rest = divmod(total, prod(factorial(n) for n in dims))
    assert rest == 0, "the sum must clear its denominators"
    return total


def arch_ed_degree(arch: Architecture) -> int:
    """Critical-point count of an architecture (strides are irrelevant)."""
    reduced = reduce_arch(arch)
    return generic_ed_degree(reduced.filter_sizes)


class MergeNode(NamedTuple):
    """One node of the layer-merge tree, with children for each merge."""

    filter_sizes: tuple
    value: int
    children: tuple


def _count(counts: dict, sizes: tuple) -> int:
    """``generic_ed_degree(sizes)``, computed once per multiset in ``counts``."""
    key = tuple(sorted(sizes))
    if key not in counts:
        counts[key] = generic_ed_degree(key)
    return counts[key]


def merge_tree(filter_sizes: Sequence[int]) -> MergeNode:
    """Tree of counts under dimension-preserving pairwise layer merges.

    Merging sizes ``k_i, k_j -> k_i + k_j - 1`` keeps ``kbar`` fixed.
    Children enumerate the distinct merged multisets (the merged size takes
    the first slot of the pair); recursion stops at two layers.  Within one
    call, equal size tuples share one (frozen) node, and each multiset is
    counted once; nodes and counts are not kept between calls.  Only the
    per-size rows of ``generic_ed_degree`` outlive a call, as a memo of a
    pure function.
    """
    sizes = _check_sizes(filter_sizes)
    if len(sizes) < 2:
        raise ValueError("merge tree needs at least two layers")
    nodes, counts = {}, {}

    def build(sizes: tuple) -> MergeNode:
        if sizes in nodes:
            return nodes[sizes]
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
                    children.append(build(merged))
        nodes[sizes] = MergeNode(sizes, _count(counts, sizes), tuple(children))
        return nodes[sizes]

    return build(sizes)


def tree_lines(node: MergeNode) -> list:
    """``C[sizes] = value`` per node in preorder, two spaces of indent per level.

    Within one call each distinct node's text is formatted once; a shared
    node seen again only gets its new indent.
    """
    texts, lines = {}, []

    def walk(node: MergeNode, pad: str) -> None:
        text = texts.get(id(node))
        if text is None:
            label = ",".join(map(str, node.filter_sizes))
            text = texts[id(node)] = f"C[{label}] = {node.value}"
        lines.append(pad + text)
        pad += "  "
        for child in node.children:
            walk(child, pad)

    walk(node, "")
    return lines


def two_layer_table(max_k1: int, max_k2: int) -> list:
    """Rows ``k1 = 2..max_k1`` of two-layer counts; each pair ``{k1, k2}`` counted once."""
    if max_k1 < 2 or max_k2 < 2:
        raise ValueError(f"table bounds must be at least 2, got {max_k1} and {max_k2}")
    counts = {}
    return [
        [_count(counts, (k1, k2)) for k2 in range(2, max_k2 + 1)]
        for k1 in range(2, max_k1 + 1)
    ]
