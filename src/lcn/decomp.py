"""Splitting a homogeneous bivariate form into slots by x-exponent residue.

For a stride ``s``, a form of degree ``k - 1`` decomposes uniquely into ``s``
forms in ``x^s, y^s``: slot ``i`` (1-based) collects the coefficients whose
x-exponent is congruent to ``i - 1`` mod ``s``.  All functions here work in
the change-of-variables convention ``x^s -> x``, ``y^s -> y``, so slot ``i``
is simply the coefficient list of a form of degree ``floor((k - i) / s)``.

Slots are returned as tuples ordered by decreasing x-exponent; an
identically-zero slot (possible only when ``s > k``) is the empty tuple.
The public API is 0-based: ``slots[0]`` is slot 1 of the decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class DecompProfile:
    """Degree bookkeeping of one decomposition.

    ``degrees[i]`` is the degree of slot ``i+1`` (None for the zero slot),
    ``n_max``/``n_min`` are the extreme degrees over nonzero slots, and ``r``
    counts the leading slots attaining ``n_max``.  Over nonzero slots the
    degrees are non-increasing and span at most two consecutive values.
    """

    degrees: tuple
    n_max: int
    n_min: int
    r: int

    @property
    def nonzero_slots(self) -> int:
        return sum(1 for d in self.degrees if d is not None)


def profile(k: int, s: int) -> DecompProfile:
    """Slot degrees for a form of degree ``k - 1`` split at stride ``s``."""
    if k < 1 or s < 1:
        raise ValueError("k and s must be positive")
    degrees = tuple((k - i) // s if k - i >= 0 else None for i in range(1, s + 1))
    present = [d for d in degrees if d is not None]
    n_max = present[0]
    n_min = min(present)
    r = sum(1 for d in present if d == n_max)
    return DecompProfile(degrees, n_max, n_min, r)


def s_decompose(coeffs: Sequence, s: int) -> list:
    """Split length-k coefficients into ``s`` slot coefficient tuples.

    Works uniformly for symbolic and rational entries.  Coefficient ``c_j``
    (the ``x^{k-1-j} y^j`` term) lands in slot ``(k-1-j) mod s``, positioned
    by decreasing x-exponent.
    """
    k = len(coeffs)
    prof = profile(k, s)
    slots = [[0] * (d + 1) if d is not None else [] for d in prof.degrees]
    for j, c in enumerate(coeffs):
        e = k - 1 - j
        i = e % s
        slots[i][prof.degrees[i] - e // s] = c
    return [tuple(slot) for slot in slots]


def s_recompose(slots: Sequence[Sequence], s: int, k: int) -> tuple:
    """Inverse of :func:`s_decompose`; slot lengths must match the profile."""
    prof = profile(k, s)
    if len(slots) != s:
        raise ValueError(f"expected {s} slots, got {len(slots)}")
    out = [0] * k
    for i, slot in enumerate(slots):
        d = prof.degrees[i]
        expected = 0 if d is None else d + 1
        if len(slot) != expected:
            raise ValueError(
                f"slot {i + 1} has {len(slot)} entries, expected {expected}"
            )
        if d is None:
            continue
        for t, c in enumerate(slot):
            e = (d - t) * s + i
            out[k - 1 - e] = c
    return tuple(out)
