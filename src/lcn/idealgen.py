"""Recursive generation of equations cutting out a network's filter variety.

A depth-L architecture splits into a depth-(L-1) architecture obtained by
merging its first two layers, plus the two-layer architecture carrying the
first layer's stride pattern.  The filter variety is the intersection of the
two, so the union of the generator sets generated recursively has the filter
variety as its common zero locus (over the complex numbers).  No radicals
are taken: the contract is set-theoretic, certified by exact sampling.

Both recursion branches preserve the end-to-end filter size, so every
generator lives in the same ambient variables ``c0 .. c{k-1}``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .arch import Architecture, reduce_arch
from .polyring import dedup_generators
from .resultant import IdealGenerators, two_layer_ideal


def _relabel(gens: IdealGenerators, old: str, new: str) -> IdealGenerators:
    return IdealGenerators(
        gens.variables,
        gens.generators,
        tuple(p.replace(old, new, 1) for p in gens.provenance),
        tuple((lbl.replace(old, new, 1), n) for lbl, n in gens.raw_counts),
    )


def _prefix(gens: IdealGenerators, prefix: str) -> IdealGenerators:
    return IdealGenerators(
        gens.variables,
        gens.generators,
        tuple(prefix + p for p in gens.provenance),
        tuple((prefix + lbl, n) for lbl, n in gens.raw_counts),
    )


def vanishing_generators(arch: Architecture) -> IdealGenerators:
    """Polynomials vanishing exactly on the architecture's filter variety.

    The architecture is reduced first (the variety only grows under the
    size-1 merges, and is unchanged under the stride-1 merges, so the
    generated equations hold on every composable filter of the input).
    Depth 1 yields no equations; depth 2 defers to the resultant minors;
    deeper networks recurse on the merged architecture plus a two-layer
    base case.
    """
    arch = reduce_arch(arch)
    k = arch.out_size
    if arch.depth == 1:
        return IdealGenerators(tuple(f"c{i}" for i in range(k)), (), (), ())
    ks, ss = arch.filter_sizes, arch.strides
    if arch.depth == 2:
        return two_layer_ideal(ks[0], ks[1], ss[0])

    merged = Architecture(
        (ks[0] + ss[0] * (ks[1] - 1),) + ks[2:],
        (ss[0] * ss[1],) + ss[2:],
    )
    assert merged.out_size == k
    branch_a = _prefix(vanishing_generators(merged), "merge(1,2)->")

    rem = k - ks[0]
    assert rem % ss[0] == 0, "merged filter size must stay divisible by the stride"
    k2b = rem // ss[0] + 1
    base = two_layer_ideal(ks[0], k2b, ss[0])
    branch_b = _relabel(base, f"two_layer({ks[0]},{k2b};{ss[0]})", f"base({ks[0]},{k2b};{ss[0]})")

    # dedup across branches, first occurrence wins
    provs, gens = dedup_generators(
        pair for part in (branch_a, branch_b) for pair in zip(part.provenance, part.generators)
    )
    return IdealGenerators(
        branch_a.variables, gens, provs, branch_a.raw_counts + branch_b.raw_counts
    )


def check_membership_sample(gens: IdealGenerators, point: Sequence) -> bool:
    """True iff every generator evaluates to exactly zero at the point."""
    if len(point) != len(gens.variables):
        raise ValueError(
            f"point of length {len(point)} in a space of dimension {len(gens.variables)}"
        )
    values = dict(zip(gens.variables, (Fraction(v) for v in point)))
    return all(g.evaluate(values) == 0 for g in gens.generators)
