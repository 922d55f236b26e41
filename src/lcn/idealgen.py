"""Recursive generation of equations cutting out a network's filter variety.

A depth-L architecture splits into a depth-(L-1) architecture obtained by
merging its first two layers, plus the two-layer base architecture
``(k_1, (k - k_1) / s_1 + 1)`` with stride ``s_1``.  The filter variety is
the intersection of the two:

    V(k_1, ..., k_L) = V(k_1 + s_1 (k_2 - 1), k_3, ..., k_L) & V(base),

so the union of the generator sets has the filter variety as its common
zero locus (over the complex numbers).  No radicals are taken: the contract
is set-theoretic, certified by exact sampling.

The recurrence is unrolled into one loop over the merge levels: level ``j``
contributes its base, labelled ``"merge(1,2)->" * j + "base(...)"``, and the
last level its two-layer minors.  One keep-first dedup over all parts,
deepest level first, gives the same list as deduplicating level by level.
Every merge preserves the end-to-end filter size, so every generator lives
in the same ambient variables ``c0 .. c{k-1}``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .arch import Architecture, reduce_arch
from .polyring import dedup_generators
from .resultant import IdealGenerators, two_layer_ideal


def vanishing_generators(arch: Architecture) -> IdealGenerators:
    """Polynomials vanishing exactly on the architecture's filter variety.

    The architecture is reduced first (the variety only grows under the
    size-1 merges, and is unchanged under the stride-1 merges, so the
    generated equations hold on every composable filter of the input).
    Depth 1 yields no equations; otherwise each merge level contributes
    its two-layer base, and the last level its two-layer minors.
    """
    arch = reduce_arch(arch)
    k = arch.out_size
    if arch.depth == 1:
        return IdealGenerators(tuple(f"c{i}" for i in range(k)), (), (), ())
    ks, ss = list(arch.filter_sizes), list(arch.strides)
    # (label head, k1, k2, s1) per merge level, outermost first; the head
    # replaces the "two_layer" that starts every label of two_layer_ideal
    levels = []
    while len(ks) > 2:
        k1, s1 = ks[0], ss[0]
        assert (k - k1) % s1 == 0, "merged filter size must stay divisible by the stride"
        levels.append(("merge(1,2)->" * len(levels) + "base", k1, (k - k1) // s1 + 1, s1))
        ks[:2] = [k1 + s1 * (ks[1] - 1)]
        ss[:2] = [s1 * ss[1]]
    assert ks[0] + ss[0] * (ks[1] - 1) == k, "layer merging must preserve the filter size"
    levels.append(("merge(1,2)->" * len(levels) + "two_layer", ks[0], ks[1], ss[0]))
    # deepest level first: its generators win the dedup
    parts = [(head, two_layer_ideal(*sizes)) for head, *sizes in reversed(levels)]

    cut = len("two_layer")
    provs, gens = dedup_generators(
        (head + prov[cut:], g)
        for head, part in parts
        for prov, g in zip(part.provenance, part.generators)
    )
    raw = tuple((head + lbl[cut:], n) for head, part in parts for lbl, n in part.raw_counts)
    return IdealGenerators(parts[0][1].variables, gens, provs, raw)


def check_membership_sample(gens: IdealGenerators, point: Sequence) -> bool:
    """True iff every generator evaluates to exactly zero at the point."""
    if len(point) != len(gens.variables):
        raise ValueError(
            f"point of length {len(point)} in a space of dimension {len(gens.variables)}"
        )
    values = dict(zip(gens.variables, (Fraction(v) for v in point)))
    return all(g.evaluate(values) == 0 for g in gens.generators)
