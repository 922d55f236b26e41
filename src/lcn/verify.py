"""Cross-cutting checks: exact membership proof, dimension, nonmembership.

That the generators vanish on the whole neuromanifold is proved, not
sampled, once per resultant matrix: every layer entry becomes a fresh
symbol, and at each merge level the reduced architecture's composed filter
``phi(theta)`` factors as ``A(x) * B(x^s1)``.  So each level matrix at
``phi`` must equal, as exact polynomials, the product ``M H`` of
:func:`lcn.resultant.two_layer_factors` (:func:`nonfactoring_matrices`,
each entry of ``M H`` summed in one term dict by
:func:`lcn.polyring.matrix_product`), and then all its minors of the
generators' size vanish identically.  This proves image ⊆ V(gens), and so
closure ⊆ V(gens), also for the typed architecture, whose image lies in its
reduction's.  The tests keep the per-generator composition with ``phi`` as
an oracle.

The image must have the dimension ``sum k_i - (L - 1)`` of the reduced
architecture's variety, which the generators cut out.  The dimension is
proved by the exact rank of the parametrization Jacobian at one rational
sample, by fraction-free elimination in integers (:func:`exact_rank`).  The
parametrization is unchanged by rescaling between layers, so no point has a
larger rank, and the rank at any one point bounds the generic rank from
below.  The map is multilinear: the Jacobian is assembled column by column
from unit-vector substitutions, and scaling one layer by a nonzero constant
scales the columns of every other layer by it.  So each sampled layer is
first multiplied by the lcm of its denominators, which keeps the rank and
gives a Jacobian of ints.

The reverse inclusion, V(gens) ⊆ closure, is certified only by the test
suite, by Gröbner bases on a fixed list of small architectures
(``tests/test_closure_groebner.py``).  Here it is still sampled: random
ambient points must each violate a generator, a smoke test that evaluates
the generator set at all its points with one call of
:func:`lcn.polyring.evaluate_many`, each point up to its first nonzero value.
The points are integer vectors.  Every generator is a minor of a matrix with
linear entries, so it is homogeneous, and a rational point violates exactly
the generators its cleared integer vector violates.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import NamedTuple, Sequence

from .arch import Architecture, _count, compose_filters, expected_dimension, reduce_arch, sample_neuromanifold
from .idealgen import merge_levels, vanishing_generators
from .polyring import MultiPoly, evaluate_many, matrix_product, symbols
from .resultant import IdealGenerators, two_layer_factors, two_layer_resultants

# Nonmembership coordinates are nonzero ints in [-_BOUND, _BOUND]; see smoke_nonmembership.
_BITS = 20
_BOUND = 1 << _BITS


class VerificationReport(NamedTuple):
    architecture: Architecture
    samples_tested: int  # random ambient points of the nonmembership test
    generators_tested: int
    failures: tuple  # labels of the level matrices that do not factor on the image
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


def _symbolic_layers(arch: Architecture) -> list:
    """One fresh symbol ``t0, t1, ...`` per layer entry, layer by layer."""
    atoms = symbols(f"t{i}" for i in range(sum(arch.filter_sizes)))
    ends = list(accumulate(arch.filter_sizes, initial=0))
    return [atoms[a:b] for a, b in zip(ends, ends[1:])]


def symbolic_filter(arch: Architecture) -> list:
    """The composed filter ``phi(theta)`` as polynomials in one fresh symbol
    ``t0, t1, ...`` per layer entry, layer by layer."""
    layers = _symbolic_layers(arch)
    zero = MultiPoly.constant(layers[0][0].vars, 0)
    # entries between the taps of a strided layer stay the int 0
    return [zero + c for c in compose_filters(arch, layers)]


def nonfactoring_matrices(arch: Architecture, phi: Sequence) -> tuple:
    """Labels (as in ``IdealGenerators.raw_counts``, deepest level first)
    of the level matrices of the reduced ``arch`` whose rows at the filter
    ``phi`` are not ``M H`` of :func:`lcn.resultant.two_layer_factors`.

    At level ``j``, ``symbolic_filter(arch)`` is ``A(x) * B(x^s1)``, with
    ``A`` the composition of layers ``1 .. j+1`` and ``B`` that of the
    rest, so at that ``phi`` none is returned."""
    ks, ss = arch.filter_sizes, arch.strides
    layers = _symbolic_layers(arch)
    vars_ = layers[0][0].vars
    failures = []
    for j, (head, k1, k2, s1) in reversed(list(enumerate(merge_levels(arch)))):
        a = compose_filters(Architecture(ks[: j + 1], ss[: j + 1]), layers[: j + 1])
        b = compose_filters(Architecture(ks[j + 1 :], ss[j + 1 :]), layers[j + 1 :])
        matrices = two_layer_resultants(k1, k2, s1, phi)
        for (name, l, _, rows), (M, H) in zip(matrices, two_layer_factors(k1, k2, s1, a, b)):
            cols = [[h[c] for h in H] for c in range(l + 1)]
            if rows != matrix_product(M, cols, vars_):
                failures.append(f"{head}({k1},{k2};{s1}):{name}")
    return tuple(failures)


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


def _cleared(values: Sequence) -> list:
    """``values`` times the lcm of their denominators, as ints; a row of
    ints as it is."""
    if all(type(v) is int for v in values):
        return list(values)
    values = [Fraction(v) for v in values]
    scale = lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values]


def exact_rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals, by fraction-free elimination in integers.

    A row of ints is taken as it is; any other row is scaled by the lcm of
    its denominators.  Each step is a Bareiss step:
    ``row := (pivot * row - row[col] * top) / previous pivot``, a division
    that is exact because every entry is then a minor of the cleared
    matrix.  So no entry grows past the size of a minor and no gcd is taken.
    """
    pending = list(map(_cleared, rows))
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

    Failures are collected, not raised: ``failures`` holds the labels of
    the level matrices that do not factor (:func:`nonfactoring_matrices`),
    as ``IdealGenerators.raw_counts`` names them.  The Jacobian
    is taken at a random sample of :func:`lcn.arch.sample_neuromanifold`,
    each layer multiplied by the lcm of its denominators (the rank is the
    same, as the parametrization is multilinear, and the Jacobian is of
    ints); a sample of rank below the expected dimension is retried once at
    a fresh one and the better rank is reported.  Raises ``ValueError``
    unless ``n_samples`` is an integer of at least 1.
    """
    n_samples = _count(n_samples, "samples")
    gens = vanishing_generators(arch)
    reduced = reduce_arch(arch)
    failures = nonfactoring_matrices(reduced, symbolic_filter(reduced))
    expected = expected_dimension(reduced)
    rng = random.Random(seed)
    rank = -1
    for _ in range(2):
        layers, _ = sample_neuromanifold(arch, rng.randrange(2**62))
        layers = list(map(_cleared, layers))
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
    value is ``n_trials``.  Each coordinate is a nonzero int, uniform in
    ``±[1, 2^20]``, from one ``getrandbits(21)``: its low 20 bits plus 1
    give the size and its top bit the sign, so a seed always draws the
    same points.  Integer points lose nothing, as the generators are
    homogeneous and a rational point violates those its cleared vector
    does; and by Schwartz–Zippel a nonzero generator of degree ``D`` vanishes at such a
    point with probability at most ``D / 2^21``.  Raises ``ValueError``
    unless ``n_trials`` is an integer of at least 1.
    """
    n_trials = _count(n_trials, "trials")
    if not gens.generators:
        raise ValueError("the architecture has no generators to violate")
    k = len(gens.variables)
    rng = random.Random(seed)
    draws, low = [_BITS + 1] * k, _BOUND - 1
    points = (
        [(1 + (r & low)) * (1 - 2 * (r >> _BITS)) for r in map(rng.getrandbits, draws)]
        for _ in range(n_trials)
    )
    return sum(map(any, evaluate_many(gens.generators, points)))
