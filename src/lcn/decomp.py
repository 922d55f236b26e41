"""Splitting a homogeneous bivariate form into slots by x-exponent residue.

For a stride ``s``, a form of degree ``k - 1`` decomposes uniquely into ``s``
forms in ``x^s, y^s``: slot ``i`` (1-based) collects the coefficients whose
x-exponent is congruent to ``i - 1`` mod ``s``.  All functions here work in
the change-of-variables convention ``x^s -> x``, ``y^s -> y``, so slot ``i``
is simply the coefficient list of a form of degree ``floor((k - i) / s)``.

Slots are returned as tuples ordered by decreasing x-exponent.  The stride
must satisfy ``1 <= s <= k``, so every slot has at least one coefficient; a
reduced two-layer architecture always has ``k = k1 + s1 (k2 - 1) > s1``.
The public API is 0-based: ``slots[0]`` is slot 1 of the decomposition.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence


class DecompProfile(NamedTuple):
    """Degree bookkeeping of one decomposition.

    ``degrees[i]`` is the degree of slot ``i+1``; the degrees are
    non-increasing and span at most two consecutive values.  ``n_max`` and
    ``n_min`` are the first and last degree, and ``r`` counts the leading
    slots attaining ``n_max``.
    """

    degrees: tuple
    n_max: int
    n_min: int
    r: int


def profile(k: int, s: int) -> DecompProfile:
    """Slot degrees for a form of degree ``k - 1`` split at stride ``s``."""
    if not 1 <= s <= k:
        raise ValueError(f"stride {s} must lie in 1..k, here 1..{k}")
    degrees = tuple((k - i) // s for i in range(1, s + 1))
    return DecompProfile(degrees, degrees[0], degrees[-1], degrees.count(degrees[0]))


def s_decompose(coeffs: Sequence, s: int) -> list:
    """Split length-k coefficients into ``s`` slot coefficient tuples.

    Works uniformly for symbolic and rational entries.  Coefficient ``c_j``
    (the ``x^{k-1-j} y^j`` term) lands in slot ``(k-1-j) mod s``, positioned
    by decreasing x-exponent.  Raises ``ValueError`` unless ``1 <= s <= k``.
    """
    k = len(coeffs)
    profile(k, s)
    return [tuple(coeffs[(k - 1 - i) % s : k - i : s]) for i in range(s)]
