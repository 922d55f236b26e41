import random
from fractions import Fraction

import pytest

from lcn.arch import Architecture, sample_neuromanifold, _convolve
from lcn.polyring import coefficient_symbols
from lcn.resultant import (
    build_resultant,
    plan_two_layer,
    resultant_rows,
    two_layer_ideal,
)
from lcn.verify import exact_rank


def matrix_texts(m):
    return [[m.entry(i, j).text() for j in range(m.cols)] for i in range(m.rows)]


class TestBuildResultant:
    def test_display_two_polys(self):
        A, B, C, D, E = coefficient_symbols(5)
        m = build_resultant([(A, C, E), (B, D)], 2)
        assert matrix_texts(m) == [
            ["A", "C", "E"],
            ["B", "D", "0"],
            ["0", "B", "D"],
        ]

    def test_display_four_polys(self):
        A, B, C, D, E, F, G, H, I = coefficient_symbols(9)
        m = build_resultant([(A, E, I), (B, F), (C, G), (D, H)], 2)
        assert matrix_texts(m) == [
            ["A", "E", "I"],
            ["B", "F", "0"],
            ["0", "B", "F"],
            ["C", "G", "0"],
            ["0", "C", "G"],
            ["D", "H", "0"],
            ["0", "D", "H"],
        ]

    def test_display_shift_four(self):
        A, B, C, D, E, F, G, H, I = coefficient_symbols(9)
        m = build_resultant([(A, C, E, G, I), (B, D, F, H)], 4)
        assert matrix_texts(m) == [
            ["A", "C", "E", "G", "I"],
            ["B", "D", "F", "H", "0"],
            ["0", "B", "D", "F", "H"],
        ]

    def test_zero_polynomials_skipped(self):
        A, B = coefficient_symbols(2)
        m = build_resultant([(), (A, B)], 1)
        assert matrix_texts(m) == [["A", "B"]]

    def test_all_zero_errors(self):
        with pytest.raises(ValueError):
            build_resultant([(), ()], 2)

    def test_degree_zero_rows(self):
        A, B, C = coefficient_symbols(3)
        m = build_resultant([(A, B), (C,)], 1)
        assert matrix_texts(m) == [["A", "B"], ["C", "0"], ["0", "C"]]


class TestPlan:
    def test_5_2_3(self):
        recipe = plan_two_layer(5, 2, 3)
        assert (recipe.l1, recipe.size1) == (2, 3)
        assert recipe.i2_active
        assert (recipe.l2, recipe.size2) == (3, 4)
        assert recipe.out_size == 8

    def test_2_2_2_no_second_matrix(self):
        recipe = plan_two_layer(2, 2, 2)
        assert (recipe.l1, recipe.size1) == (1, 2)
        assert not recipe.i2_active

    def test_3_2_2_r_one(self):
        recipe = plan_two_layer(3, 2, 2)
        assert not recipe.i2_active
        assert (recipe.l1, recipe.size1) == (2, 3)

    def test_non_reduced_rejected(self):
        with pytest.raises(ValueError, match="reduce_arch"):
            plan_two_layer(1, 2, 2)
        with pytest.raises(ValueError, match="reduce_arch"):
            plan_two_layer(3, 2, 1)


class TestTwoLayerIdeal:
    def test_2_2_2(self):
        gens = two_layer_ideal(2, 2, 2)
        assert gens.texts() == ["A*D - B*C"]

    def test_3_2_2(self):
        gens = two_layer_ideal(3, 2, 2)
        assert gens.texts() == ["A*D^2 + B^2*E - B*C*D"]

    def test_5_2_3_counts_and_degrees(self):
        gens = two_layer_ideal(5, 2, 3)
        by_part = {}
        for g, prov in zip(gens.generators, gens.provenance):
            part = "I1" if ":I1[" in prov else "I2"
            by_part.setdefault(part, []).append(g)
        assert len(by_part["I1"]) == 4
        assert len(by_part["I2"]) == 1
        assert all(g.total_degree() == 3 for g in by_part["I1"])
        assert by_part["I2"][0].total_degree() == 4

    def test_homogeneous_degree_equals_minor_size(self):
        for args in [(2, 2, 2), (3, 2, 2), (5, 2, 3), (4, 3, 2), (2, 4, 3)]:
            recipe = plan_two_layer(*args)
            gens = two_layer_ideal(*args)
            for g, prov in zip(gens.generators, gens.provenance):
                assert g.is_homogeneous()
                size = recipe.size1 if ":I1[" in prov else recipe.size2
                assert g.total_degree() == size

    def test_raw_counts(self):
        gens = two_layer_ideal(5, 2, 4)
        assert gens.raw_counts == (("two_layer(5,2;4):I1", 35),)
        assert len(gens.generators) == 33  # two minors vanish identically
        gens = two_layer_ideal(3, 4, 2)
        assert gens.raw_counts == (("two_layer(3,4;2):I1", 10),)
        assert len(gens.generators) == 10


def planted_instance(rng, degrees, m):
    """Random rational forms sharing a planted degree-m factor."""
    shared = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m + 1)]
    shared[0] += 10  # keep the leading coefficient nonzero
    polys = []
    for n in degrees:
        rest = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n - m + 1)]
        rest[0] += 10
        polys.append(_convolve(shared, rest))
    return polys


class TestRankCriterion:
    def test_planted_common_factor_drops_rank(self):
        rng = random.Random(100)
        for trial in range(25):
            degrees = sorted(
                (rng.randint(1, 4) for _ in range(rng.randint(2, 4))), reverse=True
            )
            m = rng.randint(1, min(degrees))
            polys = planted_instance(rng, degrees, m)
            n_hi, n_lo = max(degrees), min(degrees)
            l = n_hi + n_lo - m
            rows = resultant_rows(polys, l)
            assert exact_rank(rows) < n_lo + n_hi - 2 * m + 2, (degrees, m, trial)

    def test_generic_instance_keeps_full_rank(self):
        rng = random.Random(101)
        for _ in range(25):
            degrees = [rng.randint(2, 4), rng.randint(1, 3)]
            m = 1
            polys = [
                [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n + 1)]
                for n in degrees
            ]
            n_hi, n_lo = max(degrees), min(degrees)
            l = n_hi + n_lo - m
            rows = resultant_rows(polys, l)
            # coprime generic forms: the rank bound of the criterion is met
            assert exact_rank(rows) >= n_lo + n_hi - 2 * m + 2

    def test_generators_nonvanishing_at_generic_points(self):
        rng = random.Random(102)
        for k1, k2, s1 in [(2, 2, 2), (3, 2, 2), (5, 2, 3), (3, 3, 2)]:
            gens = two_layer_ideal(k1, k2, s1)
            k = k1 + s1 * (k2 - 1)
            for _ in range(20):
                pt = [Fraction(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(k)]
                values = dict(zip(gens.variables, pt))
                for g in gens.generators:
                    assert g.evaluate(values) != 0


class TestSoundnessOnSamples:
    @pytest.mark.parametrize("k1,k2,s1", [(2, 2, 2), (3, 2, 2), (5, 2, 3)])
    def test_samples_vanish(self, k1, k2, s1):
        gens = two_layer_ideal(k1, k2, s1)
        arch = Architecture((k1, k2), (s1, 1))
        for seed in range(100):
            _, w = sample_neuromanifold(arch, seed)
            values = dict(zip(gens.variables, w))
            for g in gens.generators:
                assert g.evaluate(values) == 0
