"""Cross-cutting checks: exact sampling against generators, dimension, rank.

The generated equations are certified set-theoretically: every composable
filter (sampled with exact rational layer entries) must satisfy every
generator with value exactly zero, while random ambient points must violate
at least one.  Both checks evaluate the whole generator set at a point with
one call of :func:`lcn.polyring.evaluate_many`, which fills one table of
the monomials' values at the point (one multiplication per monomial of the
ring) and yields the exact values lazily, so a nonmember stops at its first
nonzero generator and fills the table only as far as it got.  The
dimension claim ``sum k_i - (L - 1)`` is checked through the rank of the
parametrization Jacobian, which for a multilinear map is assembled
column-by-column from unit-vector substitutions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .arch import Architecture, compose_filters, expected_dimension, sample_neuromanifold
from .idealgen import vanishing_generators
from .polyring import evaluate_many
from .resultant import IdealGenerators


# Random ambient points per nonmembership check of :func:`verify_ideal`.
NONMEMBER_TRIALS = 20


@dataclass(frozen=True)
class VerificationReport:
    architecture: Architecture
    samples_tested: int
    generators_tested: int
    failures: tuple
    jacobian_rank: int
    expected_dim: int
    nonmember_violations: "int | None"  # None when there are no generators

    @property
    def ok(self) -> bool:
        return (
            not self.failures
            and self.jacobian_rank == self.expected_dim
            and self.nonmember_violations in (None, NONMEMBER_TRIALS)
        )


def parametrization_jacobian(arch: Architecture, layer_filters: Sequence) -> np.ndarray:
    """Jacobian of (layer filters) -> end-to-end filter at the given point.

    The composition is linear in each layer, so column (l, t) is the
    composed filter with layer l replaced by the t-th unit vector.
    """
    cols = []
    for l, k_l in enumerate(arch.filter_sizes):
        for t in range(k_l):
            unit = tuple(1 if i == t else 0 for i in range(k_l))
            subst = list(layer_filters)
            subst[l] = unit
            cols.append([float(v) for v in compose_filters(arch, subst)])
    return np.array(cols, dtype=float).T


def numeric_rank(matrix: np.ndarray, rel_tol: float = 1e-8) -> int:
    """Rank with singular values below rel_tol * sigma_max treated as zero."""
    sv = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    if len(sv) == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


def verify_ideal(arch: Architecture, n_samples: int = 100, seed: int = 0) -> VerificationReport:
    """Exact membership of sampled filters, nonmembership of random points
    and a numeric dimension check, all on one generator set.

    Failures are collected, not raised: entry (i, j) means sample i violated
    generator j.  The Jacobian is evaluated at a random sample; a sample
    flagged singular (rank below expected) is retried once at a fresh point
    and the better rank is reported.
    """
    gens = vanishing_generators(arch)
    rng = random.Random(seed)
    failures = []
    for i in range(n_samples):
        _, w = sample_neuromanifold(arch, rng.randrange(2**62))
        failures.extend((i, j) for j, v in enumerate(evaluate_many(gens.generators, w)) if v)

    expected = expected_dimension(arch)
    rank = -1
    for _ in range(2):
        layers, _ = sample_neuromanifold(arch, rng.randrange(2**62))
        J = parametrization_jacobian(arch, layers)
        rank = max(rank, numeric_rank(J))
        if rank == expected:
            break
    nonmember = smoke_nonmembership(gens, NONMEMBER_TRIALS, seed) if gens.generators else None
    return VerificationReport(
        arch, n_samples, len(gens.generators), tuple(failures), rank, expected, nonmember
    )


def smoke_nonmembership(gens: IdealGenerators, n_trials: int = NONMEMBER_TRIALS, seed: int = 0) -> int:
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
    return sum(any(evaluate_many(gens.generators, pt)) for pt in points)
