"""Recursive generation of equations cutting out a network's filter variety.

A depth-L architecture splits into a depth-(L-1) architecture obtained by
merging its first two layers, plus the two-layer base architecture
``(k_1, (k - k_1) / s_1 + 1)`` with stride ``s_1``.  The filter variety is
the intersection of the two:

    V(k_1, ..., k_L) = V(k_1 + s_1 (k_2 - 1), k_3, ..., k_L) & V(base),

so the union of the generator sets has the filter variety as its common
zero locus (over the complex numbers).  No radicals are taken: the contract
is set-theoretic, certified by exact sampling.

:func:`merge_levels` unrolls the recurrence into a list of two-layer
architectures: level ``j`` contributes its base, labelled
``"merge(1,2)->" * j + "base(...)"``, and the last level its two-layer
minors.  One keep-first dedup over all parts, deepest level first, gives
the same list as deduplicating level by level.  Every merge preserves the
end-to-end filter size, so every level lives in the same ambient variables
``c0 .. c{k-1}``, and a filter lies on the variety exactly when it lies on
every level's two-layer variety.
"""

from __future__ import annotations

from .arch import Architecture, reduce_arch
from .polyring import dedup_generators
from .resultant import IdealGenerators, two_layer_ideal


def merge_levels(arch: Architecture) -> list:
    """``(label head, k1, k2, s1)`` per merge level of a reduced
    architecture, outermost first; empty for a single layer.

    The head replaces the ``"two_layer"`` that starts every label of
    :func:`two_layer_ideal`.
    """
    k = arch.out_size
    levels = []
    while arch.depth > 2:
        k1, s1 = arch.filter_sizes[0], arch.strides[0]
        assert (k - k1) % s1 == 0, "merged filter size must stay divisible by the stride"
        levels.append(("merge(1,2)->" * len(levels) + "base", k1, (k - k1) // s1 + 1, s1))
        arch = arch.merged(0)
    if arch.depth == 2:
        (k1, k2), s1 = arch.filter_sizes, arch.strides[0]
        levels.append(("merge(1,2)->" * len(levels) + "two_layer", k1, k2, s1))
    return levels


def vanishing_generators(arch: Architecture) -> IdealGenerators:
    """Polynomials vanishing exactly on the architecture's filter variety.

    The architecture is reduced first (the variety only grows under the
    size-1 merges, and is unchanged under the stride-1 merges, so the
    generated equations hold on every composable filter of the input).
    Depth 1 yields no equations; otherwise each merge level contributes
    its two-layer base, and the last level its two-layer minors.
    """
    arch = reduce_arch(arch)
    levels = merge_levels(arch)
    if not levels:
        return IdealGenerators(tuple(f"c{i}" for i in range(arch.out_size)), (), (), ())
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
