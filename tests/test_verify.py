from fractions import Fraction

import numpy as np
import pytest

from lcn.arch import Architecture, reduce_arch, sample_neuromanifold
from lcn.idealgen import vanishing_generators
from lcn.verify import (
    NONMEMBER_TRIALS,
    exact_rank,
    numeric_rank,
    parametrization_jacobian,
    smoke_nonmembership,
    verify_ideal,
)


class TestExactRank:
    def test_known_ranks(self):
        assert exact_rank([[1, 0], [0, 1]]) == 2
        assert exact_rank([[1, 2], [2, 4]]) == 1
        assert exact_rank([[0, 0], [0, 0]]) == 0
        assert exact_rank([]) == 0

    def test_rational_entries(self):
        rows = [
            [Fraction(1, 2), Fraction(1, 3)],
            [Fraction(3, 2), Fraction(1, 1)],
            [Fraction(1, 4), Fraction(1, 6)],
        ]
        assert exact_rank(rows) == 1

    def test_wide_matrix(self):
        assert exact_rank([[1, 2, 3, 4], [2, 4, 6, 9]]) == 2


class TestNumericRank:
    def test_cutoff(self):
        m = np.diag([1.0, 1e-3, 1e-12])
        assert numeric_rank(m) == 2
        assert numeric_rank(np.zeros((3, 3))) == 0


class TestJacobian:
    def test_rank_matches_dimension(self):
        arch = Architecture((5, 2), (3, 1))
        layers, _ = sample_neuromanifold(arch, 5)
        J = parametrization_jacobian(arch, layers)
        assert J.shape == (8, 7)
        assert numeric_rank(J) == 6

    def test_single_layer_identity(self):
        arch = Architecture((4,), (1,))
        layers, _ = sample_neuromanifold(arch, 1)
        J = parametrization_jacobian(arch, layers)
        assert np.array_equal(J, np.eye(4))


class TestVerifyIdeal:
    def test_5_2(self):
        report = verify_ideal(Architecture((5, 2), (3, 1)), n_samples=100, seed=0)
        assert report.failures == ()
        assert report.jacobian_rank == 6
        assert report.expected_dim == 6
        assert report.generators_tested == 5
        assert report.nonmember_violations == NONMEMBER_TRIALS
        assert report.ok

    def test_2_2(self):
        report = verify_ideal(Architecture((2, 2), (2, 1)), n_samples=100, seed=0)
        assert report.failures == ()
        assert report.jacobian_rank == 3
        assert report.ok

    def test_single_layer(self):
        report = verify_ideal(Architecture((6,), (1,)), n_samples=10, seed=0)
        assert report.generators_tested == 0
        assert report.failures == ()
        assert report.jacobian_rank == 6
        assert report.nonmember_violations is None
        assert report.ok

    def test_reduction_agreement(self):
        raw = Architecture((2, 2, 2), (1, 2, 1))
        red = reduce_arch(raw)
        r1 = verify_ideal(raw, n_samples=40, seed=3)
        r2 = verify_ideal(red, n_samples=40, seed=3)
        assert r1.failures == r2.failures == ()
        # 2+2+2-2 = 3+2-1: the merge preserves the variety dimension
        assert r1.expected_dim == r2.expected_dim == 4
        assert r1.jacobian_rank == r2.jacobian_rank == 4
        assert r1.nonmember_violations == r2.nonmember_violations == NONMEMBER_TRIALS


class TestSmoke:
    def test_two_layer(self):
        gens = vanishing_generators(Architecture((2, 2), (2, 1)))
        assert smoke_nonmembership(gens, 20, seed=0) == 20

    def test_three_layer(self):
        gens = vanishing_generators(Architecture((3, 2, 2), (2, 2, 1)))
        assert smoke_nonmembership(gens, 20, seed=0) == 20

    def test_single_layer_has_nothing_to_violate(self):
        with pytest.raises(ValueError):
            smoke_nonmembership(vanishing_generators(Architecture((4,), (1,))), 5, seed=0)
