"""Equations cutting out a network's filter variety, one loop over merge levels.

A depth-L architecture splits into a depth-(L-1) architecture obtained by
merging its first two layers, plus the two-layer base architecture
``(k_1, (k - k_1) / s_1 + 1)`` with stride ``s_1``.  The filter variety is
the intersection of the two:

    V(k_1, ..., k_L) = V(k_1 + s_1 (k_2 - 1), k_3, ..., k_L) & V(base),

so the union of the generator sets has the filter variety as its common
zero locus (over the complex numbers).  No radicals are taken: the contract
is set-theoretic.  :mod:`lcn.verify` proves that the generators vanish on
the neuromanifold by one exact factorization per level matrix; only the
reverse inclusion is checked by sampling.

:func:`merge_levels` unrolls the recurrence into one two-layer architecture
per merge: level ``j`` is the base of the depth-(L-j) architecture, labelled
``"merge(1,2)->" * j + "base(...)"``, or ``"...two_layer(...)"`` once two
layers remain; one layer has none.  Every merge preserves the end-to-end
filter size, so every level lives in the same ambient variables
``c0 .. c{k-1}``, and a filter lies on the variety exactly when it lies on
every level's two-layer variety.  The levels are built deepest first
(:func:`deepest_first`), one at a time, and one lazy
:func:`~lcn.polyring.dedup_generators` pass keeps the first of each minor:
:func:`vanishing_generators` collects the survivors, and ``lcn ideal``
prints each as it is kept.
"""

from __future__ import annotations

from .arch import Architecture, reduce_arch
from .resultant import IdealGenerators, level_ideal


def merge_levels(arch: Architecture) -> list:
    """``(label head, k1, k2, s1)`` per merge level of a reduced
    architecture, outermost first; empty for a single layer.

    The head replaces the ``"two_layer"`` that starts every label of
    :func:`two_layer_ideal`, by ``"base"`` above depth 2.
    """
    k = arch.out_size
    levels = []
    while arch.depth > 1:
        k1, s1 = arch.filter_sizes[0], arch.strides[0]
        assert (k - k1) % s1 == 0, "merged filter size must stay divisible by the stride"
        tail = "base" if arch.depth > 2 else "two_layer"
        levels.append(("merge(1,2)->" * len(levels) + tail, k1, (k - k1) // s1 + 1, s1))
        arch = arch.merged(0)
    return levels


def deepest_first(arch: Architecture) -> list:
    """The reduced architecture's merge levels, deepest first: the order of generation and dedup."""
    return merge_levels(reduce_arch(arch))[::-1]


def vanishing_generators(arch: Architecture) -> IdealGenerators:
    """Polynomials vanishing exactly on the architecture's filter variety.

    The architecture is reduced first, which keeps its variety.  Each merge
    level contributes its two-layer minors, so depth 1 yields none.  A
    size-1 first layer at a stride above 1 makes the outermost base
    contribute the linear generators ``c_j`` with ``j`` off the multiples
    of that stride.
    """
    return level_ideal(arch.out_size, deepest_first(arch))
