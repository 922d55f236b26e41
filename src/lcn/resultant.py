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
the symbolic minors of :func:`level_minors`, one level at a time, and, at
a numeric filter, a membership test by rank; :func:`two_layer_factors`
shows why the minors vanish on the variety.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    return [row for q in polys for row in _shifts(q, l, 0 * q[0])]


def _shifts(q: Sequence, l: int, zero) -> list:
    """The rows ``x^shift * q`` of ``l + 1`` columns padded with ``zero``, one
    per shift that fits; ``l + 2`` zero rows for an empty ``q`` (degree -1)."""
    rows = []
    for shift in range(l - len(q) + 2):
        row = [zero] * (l + 1)
        row[shift : shift + len(q)] = q
        rows.append(row)
    return rows


def _layout(k1: int, k2: int, s1: int) -> list:
    """``(name, shift cap, minor size, slot count)`` of each matrix of
    :func:`two_layer_resultants`, which holds the rows of the first slots."""
    if k1 < 1 or k2 < 2 or s1 < 2:
        raise ValueError(
            f"({k1},{k2}) with stride {s1} is not a two-layer architecture "
            "that reduce_arch returns: it needs k2 >= 2 and a stride >= 2"
        )
    prof = profile(k1 + s1 * (k2 - 1), s1)
    m = k2 - 1
    l1 = prof.n_min + prof.n_max - m
    out = [("I1", l1, l1 - m + 2, s1)]
    if 1 < prof.r < s1:
        l2 = 2 * prof.n_max - m
        out.append(("I2", l2, l2 - m + 2, prof.r))
    return out


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
    layout = _layout(k1, k2, s1)
    k = k1 + s1 * (k2 - 1)
    if len(coeffs) != k:
        raise ValueError(f"{len(coeffs)} filter entries for a filter of size {k}")
    slots = s_decompose(coeffs, s1)
    return [(name, l, size, resultant_rows(slots[:n], l)) for name, l, size, n in layout]


def two_layer_factors(k1: int, k2: int, s1: int, a: Sequence, b: Sequence) -> list:
    """``(M, H)`` per matrix of :func:`two_layer_resultants` at the filter
    ``w(x) = a(x) * b(x^s1)`` (``k1`` entries in ``a``, ``k2`` in ``b``),
    whose rows are then ``M H``.

    Slot ``r`` of ``w`` is slot ``r`` of ``a`` (its ``a_i`` with
    ``i = k1 - 1 - r`` mod ``s1``; empty, and giving zero rows, when
    ``k1 < s1``) times ``b``.  So each row of ``R_l`` is the row of that
    shift of the slot of ``a`` in ``M`` times ``H = resultant_rows([b], l)``,
    whose ``l - k2 + 2`` rows are one fewer than the minor size: every
    minor of ``R_l`` vanishes, by Cauchy–Binet."""
    m = k2 - 1
    zero = 0 * b[0]
    slots = [a[(k1 - 1 - r) % s1 : k1 - r : s1] for r in range(s1)]
    return [
        ([row for q in slots[:n] for row in _shifts(q, l - m, zero)], resultant_rows([b], l))
        for _, l, _, n in _layout(k1, k2, s1)
    ]


class IdealGenerators(NamedTuple):
    """The generators that :func:`level_ideal` keeps, sign-normalized, with
    a provenance label each, and per level matrix its count of minors before
    zeros and duplicates were dropped (``raw_counts``)."""

    variables: tuple
    generators: tuple
    provenance: tuple
    raw_counts: tuple


def level_minors(levels: Iterable, raw_counts: list) -> Iterator:
    """``((label, matrix, rows, columns), minor)`` for every minor of
    :func:`two_layer_resultants` at generic symbols, zeros and repeats
    included, at each ``(label head, k1, k2, s1)`` of ``levels`` in turn,
    labelled ``head(k1,k2;s1)``.  A level is built only when reached, and
    ``raw_counts`` gets ``(f"{label}:{matrix}", minor count)`` per matrix."""
    for head, k1, k2, s1 in levels:
        label = f"{head}({k1},{k2};{s1})"
        for name, l, size, rows in two_layer_resultants(k1, k2, s1, coefficient_symbols(k1 + s1 * (k2 - 1))):
            raw_counts.append((f"{label}:{name}", comb(len(rows), size) * comb(l + 1, size)))
            yield from (((label, name, ri, ci), det) for ri, ci, det in minor_expansion(rows, size))


def provenance(tag: tuple) -> str:
    """The label of a tag of :func:`level_minors`: ``label:matrix[r=rows;c=columns]``."""
    return "{}:{}[r={};c={}]".format(*tag)


def level_ideal(k: int, levels: Iterable) -> IdealGenerators:
    """The minors of :func:`level_minors` (filter size ``k``) that one
    :func:`~lcn.polyring.dedup_generators` pass keeps."""
    raw = []
    tags, gens = tuple(zip(*dedup_generators(level_minors(levels, raw)))) or ((), ())
    return IdealGenerators(coefficient_symbols(k)[0].vars, gens, tuple(map(provenance, tags)), tuple(raw))


def two_layer_ideal(k1: int, k2: int, s1: int) -> IdealGenerators:
    """Generators whose zero locus is the two-layer filter variety, labelled
    ``two_layer(k1,k2;s1)``."""
    return level_ideal(k1 + s1 * (k2 - 1), [("two_layer", k1, k2, s1)])
