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
the matching convolutional network, which is what the rest of the package
checks numerically.

The inner sum is the ``z^t`` coefficient of
``prod_j sum_i binom(n_j + 1, i) z^i / (n_j - i)!``, so it is evaluated as
one product of polynomials, each row scaled by ``n_j!`` to keep integer
coefficients; a size's row is a pure function of ``n_j``, memoised for up to
256 sizes per process.  The outer sum over ``t`` is taken by Horner's rule,
``total = total * (kbar + 1 - t) +/- (2^{kbar+1-t} - 1) c_t``, so no
factorial is formed per term, and is divided once by ``prod n_j!``.
Everything here is exact big-integer arithmetic; the division is exact
because each ``t``-term is an integer (``(kbar - t)! / prod (n_j - i_j)!`` is
a multinomial coefficient).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, perm, prod
from typing import Sequence

from .arch import Architecture, _convolve, _integers, reduce_arch


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


def generic_ed_degree(filter_sizes: Sequence[int]) -> int:
    """Exact critical-point count for the given multiset of filter sizes."""
    dims = [k - 1 for k in _check_sizes(filter_sizes)]
    kbar = sum(dims)
    # coeffs[t] = prod_j n_j! * (inner sum at t)
    coeffs = _row(dims[0])
    for n in dims[1:]:
        coeffs = _convolve(coeffs, _row(n))
    # Horner: term t picks up the factors kbar - t, ..., 1 of later steps
    total = 0
    for t, c in enumerate(coeffs):
        m = kbar + 1 - t
        term = ((1 << m) - 1) * c
        total = total * m + (-term if t & 1 else term)
    total, rest = divmod(total, prod(factorial(n) for n in dims))
    assert rest == 0, "the sum must clear its denominators"
    return total


def arch_ed_degree(arch: Architecture) -> int:
    """Critical-point count of an architecture (strides are irrelevant)."""
    reduced = reduce_arch(arch)
    return generic_ed_degree(reduced.filter_sizes)


def fully_connected_count(m: int, n: int, r: int) -> int:
    """Critical points when training a fully connected linear network.

    The bounded-rank matrix variety has exactly ``binom(min(m, n), r)``
    critical points for the (possibly weighted) Frobenius distance, far
    fewer than the convolutional count with the same parameter budget.
    """
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank {r} out of range for a {m}x{n} matrix")
    return comb(min(m, n), r)


@dataclass(frozen=True)
class MergeNode:
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


def two_layer_table(max_k1: int = 9, max_k2: int = 9) -> list:
    """Rows ``k1 = 2..max_k1`` of two-layer counts; each pair ``{k1, k2}`` counted once."""
    counts = {}
    return [
        [_count(counts, (k1, k2)) for k2 in range(2, max_k2 + 1)]
        for k1 in range(2, max_k1 + 1)
    ]
