"""Membership in a filter variety by exact rank, without the symbolic minors.

Every generator of ``lcn.idealgen.vanishing_generators`` is a minor of one
of the resultant matrices of a merge level.  All minors of a size vanish
at a point exactly when the matrix evaluated there has rank below that
size, so :func:`on_variety` decides "every generator is zero at ``w``" from
the same rows, built at the numeric filter, that the symbolic build
expands.
"""

from fractions import Fraction
from typing import Sequence

from lcn.arch import Architecture, reduce_arch
from lcn.idealgen import merge_levels
from lcn.resultant import two_layer_resultants


def exact_rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals by Gaussian elimination on ``Fraction`` entries."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        for r in range(row + 1, n_rows):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n_cols):
                    m[r][c] -= factor * m[row][c]
        row += 1
        rank += 1
        if row == n_rows:
            break
    return rank


def on_variety(arch: Architecture, w: Sequence) -> bool:
    """Whether the rational filter ``w`` satisfies every generator of ``arch``.

    At each merge level of the reduced architecture, each resultant matrix
    built at ``w`` must have rank below its minor size.
    """
    return all(
        exact_rank(rows) < size
        for _, k1, k2, s1 in merge_levels(reduce_arch(arch))
        for _, _, size, rows in two_layer_resultants(k1, k2, s1, w)
    )
