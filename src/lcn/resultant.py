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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .decomp import DecompProfile, profile, s_decompose
from .polyring import (
    MultiPoly,
    PolyMatrix,
    coefficient_symbols,
    dedup_generators,
    minor_expansion,
)


def resultant_rows(polys: Sequence[Sequence], l: int, zero=0) -> list:
    """Rows of R_l, shared by symbolic and numeric callers.

    ``polys`` are coefficient sequences (empty = zero polynomial, excluded).
    """
    if l < 0:
        raise ValueError("shift cap l must be nonnegative")
    if all(len(q) == 0 for q in polys):
        raise ValueError("all input polynomials are zero")
    rows = []
    for q in polys:
        if not len(q):
            continue
        n = len(q) - 1
        for shift in range(l - n + 1):
            row = [zero] * (l + 1)
            row[shift : shift + n + 1] = list(q)
            rows.append(row)
    return rows


def build_resultant(polys: Sequence[Sequence[MultiPoly]], l: int) -> PolyMatrix:
    """Symbolic R_l from coefficient sequences of MultiPoly entries."""
    vars_ = next((c.vars for q in polys for c in q), None)
    if vars_ is None:
        raise ValueError("all input polynomials are zero")
    rows = resultant_rows(polys, l, zero=MultiPoly.zero(vars_))
    return PolyMatrix(len(rows), l + 1, tuple(e for row in rows for e in row))


@dataclass(frozen=True)
class TwoLayerIdealRecipe:
    """Matrix/minor sizes cutting out a reduced two-layer filter variety.

    The first matrix uses all nonzero slots with the shift cap and minor
    size given by the actual top/bottom slot degrees.  The second matrix
    (top-degree slots only) is needed exactly when the top degree is
    attained by more than one but not all nonzero slots.
    """

    out_size: int
    profile: DecompProfile
    l1: int
    size1: int
    l2: "int | None"
    size2: "int | None"
    i2_active: bool


def plan_two_layer(k1: int, k2: int, s1: int) -> TwoLayerIdealRecipe:
    if min(k1, k2) < 2 or s1 < 2:
        raise ValueError(
            f"({k1},{k2}) with stride {s1} is not a reduced two-layer "
            "architecture; apply reduce_arch first"
        )
    k = k1 + s1 * (k2 - 1)
    prof = profile(k, s1)
    m = k2 - 1
    l1 = prof.n_min + prof.n_max - m
    size1 = prof.n_min + prof.n_max - 2 * m + 2
    i2_active = 1 < prof.r < prof.nonzero_slots
    l2 = 2 * prof.n_max - m if i2_active else None
    size2 = 2 * prof.n_max - 2 * m + 2 if i2_active else None
    return TwoLayerIdealRecipe(k, prof, l1, size1, l2, size2, i2_active)


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

    @property
    def total_raw_count(self) -> int:
        return sum(n for _, n in self.raw_counts)

    def texts(self) -> list:
        return [g.text() for g in self.generators]


def two_layer_ideal(k1: int, k2: int, s1: int) -> IdealGenerators:
    """Generators whose zero locus is the two-layer filter variety.

    The minors of the matrices from :func:`two_layer_matrices`; the returned
    list is sign-normalized and deduplicated, while ``raw_counts`` keeps the
    pre-pruning minor counts.
    """
    matrices = two_layer_matrices(k1, k2, s1)
    label = f"two_layer({k1},{k2};{s1})"
    candidates = []
    raw = []
    for name, _, size, matrix in matrices:
        dets = [
            (f"{label}:{name}[r={ri};c={ci}]", det)
            for ri, ci, det in minor_expansion(matrix, size)
        ]
        candidates += dets
        raw.append((f"{label}:{name}", len(dets)))
    provs, gens = dedup_generators(candidates)
    return IdealGenerators(matrices[0][3].variables, gens, provs, tuple(raw))


def two_layer_matrices(k1: int, k2: int, s1: int) -> list:
    """The resultant matrices behind :func:`two_layer_ideal`.

    Each entry is ``(name, shift cap, minor size, matrix)``.  Slots are the
    stride decomposition of generic symbols ``c0..c{k-1}``; zero slots
    contribute no rows.  Shift caps and minor sizes come from
    :func:`plan_two_layer`.
    """
    recipe = plan_two_layer(k1, k2, s1)
    syms = coefficient_symbols(recipe.out_size)
    slots = s_decompose(syms, s1)
    nonzero = [q for q in slots if q]
    out = [("I1", recipe.l1, recipe.size1, build_resultant(nonzero, recipe.l1))]
    if recipe.i2_active:
        top = slots[: recipe.profile.r]
        out.append(("I2", recipe.l2, recipe.size2, build_resultant(top, recipe.l2)))
    return out
