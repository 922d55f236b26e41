"""Reference code for the filter tests.

``pi_s`` and ``conv_matrix`` give the two textbook views of a strided
convolution, a bivariate polynomial and a dense matrix, against which
``lcn.arch.compose_filters`` is checked; ``s_recompose`` inverts
``lcn.decomp.s_decompose`` entry by entry.
"""

from typing import Sequence

from lcn.decomp import profile
from lcn.polyring import MultiPoly


def pi_s(w: Sequence, stride: int) -> MultiPoly:
    """Homogeneous bivariate polynomial of a filter at a given stride.

    ``w`` of size k maps to ``sum_j w[j] x^{s(k-1-j)} y^{s j}``; the map is
    linear and injective for fixed (k, s).
    """
    if stride < 1:
        raise ValueError("stride must be positive")
    k = len(w)
    return MultiPoly(
        ("x", "y"),
        {(stride * (k - 1 - j), stride * j): w[j] for j in range(k)},
    )


def conv_matrix(w: Sequence, stride: int, d_out: int) -> tuple:
    """Dense matrix of a strided convolution, as a tuple of row tuples.

    Entry (i, j) is ``w[j - i*s]`` when that index lands inside the filter,
    else 0; each row has length ``d_in = k + (d_out - 1) * s``.
    """
    if d_out < 1:
        raise ValueError("d_out must be positive")
    if stride < 1:
        raise ValueError("stride must be positive")
    k = len(w)
    d_in = k + (d_out - 1) * stride
    rows = []
    for i in range(d_out):
        row = [0] * d_in
        for j in range(k):
            row[i * stride + j] = w[j]
        rows.append(tuple(row))
    return tuple(rows)


def s_recompose(slots: Sequence[Sequence], s: int, k: int) -> tuple:
    """Inverse of :func:`s_decompose`; slot lengths must match the profile."""
    prof = profile(k, s)
    if len(slots) != s:
        raise ValueError(f"expected {s} slots, got {len(slots)}")
    out = [0] * k
    for i, slot in enumerate(slots):
        d = prof.degrees[i]
        if len(slot) != d + 1:
            raise ValueError(f"slot {i + 1} has {len(slot)} entries, expected {d + 1}")
        for t, c in enumerate(slot):
            e = (d - t) * s + i
            out[k - 1 - e] = c
    return tuple(out)
