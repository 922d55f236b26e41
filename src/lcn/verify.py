"""Cross-cutting checks: exact membership proof, dimension, nonmembership.

That the generators vanish on the whole neuromanifold is proved, not
sampled: every layer entry becomes a fresh symbol, the composed filter
``phi(theta)`` is a vector of polynomials in them, and each generator
composed with ``phi`` must be the zero polynomial
(:func:`lcn.polyring.nonzero_compositions`, one Horner step per generator,
so only the parents of its monomials are composed with ``phi``).  This
proves image ⊆ V(gens), and so closure ⊆ V(gens).

The image must have the dimension ``sum k_i - (L - 1)`` of the reduced
architecture's variety, which the generators cut out.  The dimension is
proved by the exact rank of the parametrization Jacobian at one rational
sample, by fraction-free elimination in integers (:func:`exact_rank`).  The
parametrization is unchanged by rescaling between layers, so no point has a
larger rank, and the rank at any one point bounds the generic rank from
below.  For a multilinear map the Jacobian is assembled column by column
from unit-vector substitutions.

The reverse inclusion, V(gens) ⊆ closure, is certified only by the test
suite, by Gröbner bases on a fixed list of small architectures
(``tests/test_closure_groebner.py``).  Here it is still sampled: random
ambient points must each violate a generator, a smoke test that evaluates
the generator set at all its points with one call of
:func:`lcn.polyring.evaluate_many`, each point up to its first nonzero value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Sequence

from .arch import Architecture, compose_filters, expected_dimension, reduce_arch, sample_neuromanifold
from .idealgen import vanishing_generators
from .polyring import MultiPoly, evaluate_many, nonzero_compositions, symbols
from .resultant import IdealGenerators


@dataclass(frozen=True)
class VerificationReport:
    architecture: Architecture
    samples_tested: int  # random ambient points of the nonmembership test
    generators_tested: int
    failures: tuple  # indices of the generators that do not vanish on the image
    jacobian_rank: int
    expected_dim: int
    nonmember_violations: "int | None"  # None when there are no generators

    @property
    def ok(self) -> bool:
        return (
            not self.failures
            and self.jacobian_rank == self.expected_dim
            and self.nonmember_violations in (None, self.samples_tested)
        )


def symbolic_filter(arch: Architecture) -> list:
    """The composed filter ``phi(theta)`` as polynomials in one fresh symbol
    ``t0, t1, ...`` per layer entry, layer by layer."""
    atoms = symbols(f"t{i}" for i in range(sum(arch.filter_sizes)))
    ends = list(accumulate(arch.filter_sizes, initial=0))
    layers = [atoms[a:b] for a, b in zip(ends, ends[1:])]
    zero = MultiPoly.constant(atoms[0].vars, 0)
    # entries between the taps of a strided layer stay the int 0
    return [zero + c for c in compose_filters(arch, layers)]


def parametrization_jacobian(arch: Architecture, layer_filters: Sequence) -> tuple:
    """Exact Jacobian of (layer filters) -> end-to-end filter at the given
    point, one row per filter entry and one column per layer entry.

    The composition is linear in each layer, so column (l, t) is the
    composed filter with layer l replaced by the t-th unit vector.
    """
    cols = []
    for l, k_l in enumerate(arch.filter_sizes):
        for t in range(k_l):
            subst = list(layer_filters)
            subst[l] = tuple(1 if i == t else 0 for i in range(k_l))
            cols.append(compose_filters(arch, subst))
    return tuple(zip(*cols))


def exact_rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals, by fraction-free elimination in integers.

    Each row is scaled by the lcm of its denominators, and each step is a
    Bareiss step: ``row := (pivot * row - row[col] * top) / previous pivot``,
    a division that is exact because every entry is then a minor of the
    cleared matrix.  So no entry grows past the size of a minor and no gcd
    is taken.
    """
    pending = []
    for row in rows:
        row = [Fraction(v) for v in row]
        scale = lcm(*[v.denominator for v in row])
        pending.append([v.numerator * (scale // v.denominator) for v in row])
    rank = 0
    previous = 1
    while pending:
        top = pending.pop()
        col = next((j for j, v in enumerate(top) if v), None)
        if col is None:
            continue
        rank += 1
        pivot = top[col]
        for row in pending:
            factor = row[col]
            row[:] = [(pivot * v - factor * t) // previous for v, t in zip(row, top)]
        previous = pivot
    return rank


def verify_ideal(arch: Architecture, n_samples: int = 100, seed: int = 0) -> VerificationReport:
    """Exact membership of the whole image, exact dimension and
    nonmembership of ``n_samples`` random ambient points, all on one
    generator set.

    Failures are collected, not raised: ``failures`` holds the indices of
    the generators whose composition with ``phi`` is not zero.  The Jacobian
    is taken at a random sample; a sample of rank below the expected
    dimension is retried once at a fresh one and the better rank is
    reported.
    """
    gens = vanishing_generators(arch)
    failures = nonzero_compositions(gens.generators, symbolic_filter(arch))
    expected = expected_dimension(reduce_arch(arch))
    rng = random.Random(seed)
    rank = -1
    for _ in range(2):
        layers, _ = sample_neuromanifold(arch, rng.randrange(2**62))
        rank = max(rank, exact_rank(parametrization_jacobian(arch, layers)))
        if rank == expected:
            break
    nonmember = smoke_nonmembership(gens, n_samples, seed) if gens.generators else None
    return VerificationReport(
        arch, n_samples, len(gens.generators), failures, rank, expected, nonmember
    )


def smoke_nonmembership(gens: IdealGenerators, n_trials: int, seed: int = 0) -> int:
    """How many random ambient points violate at least one generator.

    Random points miss a lower-dimensional variety, so for the generators of
    a reduced architecture with at least two layers the expected return
    value is ``n_trials``.  Coordinates are nonzero rationals drawn from a
    large space, keeping accidental exact hits of the variety negligible
    (small denominators with many zero entries do land on it occasionally).
    """
    if not gens.generators:
        raise ValueError("the architecture has no generators to violate")
    k = len(gens.variables)
    rng = random.Random(seed)
    points = (
        [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9999), rng.randint(1, 99)) for _ in range(k)]
        for _ in range(n_trials)
    )
    return sum(map(any, evaluate_many(gens.generators, points)))
