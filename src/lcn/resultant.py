"""Resultant matrices certifying common factors, and two-layer ideals.

Several nonzero binary forms ``q_1, ..., q_s`` of degrees ``n_1, ..., n_s``
share a factor of degree at least ``m`` exactly when the coefficient matrix
``R_l`` with ``l = n_max + n_min - m`` drops below rank
``n_min + n_max - 2m + 2``.  ``R_l`` has ``l + 1`` columns and, for each
``q_i``, the ``max(0, l - n_i + 1)`` shifted copies of its coefficient row.

For a reduced two-layer architecture the end-to-end filters are exactly the
forms whose stride decomposition slots share a factor of degree
``k_2 - 1``, so the minors of the matching resultant matrices cut out the
architecture's filter variety.  Two matrices are needed in general: one for
all slots, and (when only some slots attain the top degree) one for the top
ones alone, which handles the points where the lower-degree slots vanish.
:func:`two_layer_resultants` is the one rule for which matrices to build;
it takes symbolic or numeric filter entries alike, so the same rows give
the symbolic minors of :func:`two_layer_ideal` and, at a numeric filter,
a membership test by rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .decomp import profile, s_decompose
from .polyring import coefficient_symbols, dedup_generators, minor_expansion


def resultant_rows(polys: Sequence[Sequence], l: int) -> list:
    """Rows of R_l, shared by symbolic and numeric callers.

    ``polys`` are nonempty coefficient sequences.  Each row is padded with
    ``0 * entry``, a zero of the entries' own ring.
    """
    if l < 0:
        raise ValueError("shift cap l must be nonnegative")
    if any(len(q) == 0 for q in polys):
        raise ValueError("every polynomial needs at least one coefficient")
    rows = []
    for q in polys:
        n, zero = len(q) - 1, 0 * q[0]
        for shift in range(l - n + 1):
            row = [zero] * (l + 1)
            row[shift : shift + n + 1] = list(q)
            rows.append(row)
    return rows


def two_layer_resultants(k1: int, k2: int, s1: int, coeffs: Sequence) -> list:
    """The resultant matrices cutting out the filter variety of ``(k1, k2)``
    with stride ``s1``, with rows built from the filter entries ``coeffs``.

    Each entry is ``(name, shift cap, minor size, rows)``.  ``I1`` uses all
    slots of ``s_decompose(coeffs, s1)`` with the shift cap of the top and
    bottom slot degrees; ``I2`` uses the ``r`` top-degree slots and is
    present exactly when ``1 < r < s1``.  A filter lies on the variety
    exactly when every matrix has rank below its minor size.  For
    ``k1 = 1``, ``I1`` is ``R_{k2-2}`` with one row per lower slot and
    minors of size 1: the entries ``c_j`` with ``j`` off the multiples of
    ``s1``.
    """
    if k1 < 1 or k2 < 2 or s1 < 2:
        raise ValueError(
            f"({k1},{k2}) with stride {s1} is not a two-layer architecture "
            "that reduce_arch returns: it needs k2 >= 2 and a stride >= 2"
        )
    k = k1 + s1 * (k2 - 1)
    if len(coeffs) != k:
        raise ValueError(f"{len(coeffs)} filter entries for a filter of size {k}")
    prof = profile(k, s1)
    slots = s_decompose(coeffs, s1)
    m = k2 - 1
    l1 = prof.n_min + prof.n_max - m
    out = [("I1", l1, l1 - m + 2, resultant_rows(slots, l1))]
    if 1 < prof.r < s1:
        l2 = 2 * prof.n_max - m
        out.append(("I2", l2, l2 - m + 2, resultant_rows(slots[: prof.r], l2)))
    return out


@dataclass(frozen=True)
class IdealGenerators:
    """Deduplicated generator list with per-generator provenance.

    ``raw_counts`` records, per construction step, how many minors were
    enumerated before dropping zero determinants and duplicates; the
    emitted ``generators`` are sign-normalized and pairwise distinct up to
    sign and integer content.
    """

    variables: tuple
    generators: tuple
    provenance: tuple
    raw_counts: tuple


def two_layer_ideal(k1: int, k2: int, s1: int) -> IdealGenerators:
    """Generators whose zero locus is the two-layer filter variety.

    The minors of :func:`two_layer_resultants` at generic symbols
    ``c0..c{k-1}``; the returned list is sign-normalized and deduplicated,
    while ``raw_counts`` keeps the pre-pruning minor counts.
    """
    syms = coefficient_symbols(k1 + s1 * (k2 - 1))
    label = f"two_layer({k1},{k2};{s1})"
    candidates = []
    raw = []
    for name, _, size, rows in two_layer_resultants(k1, k2, s1, syms):
        dets = [
            (f"{label}:{name}[r={ri};c={ci}]", det)
            for ri, ci, det in minor_expansion(rows, size)
        ]
        candidates += dets
        raw.append((f"{label}:{name}", len(dets)))
    provs, gens = dedup_generators(candidates)
    return IdealGenerators(syms[0].vars, gens, provs, tuple(raw))
