import random
from fractions import Fraction
from itertools import product

import pytest

from lcn.arch import Architecture, reduce_arch, sample_neuromanifold, _convolve
from lcn.decomp import profile, s_decompose
from lcn.polyring import coefficient_symbols, evaluate_many
from lcn.resultant import resultant_rows, two_layer_ideal, two_layer_resultants

from variety_oracle import exact_rank


def matrix_texts(rows):
    return [[e.text() for e in row] for row in rows]


def plan(k1, k2, s1):
    """``{name: (shift cap, minor size)}`` of the matrices at generic symbols."""
    syms = coefficient_symbols(k1 + s1 * (k2 - 1))
    return {name: (l, size) for name, l, size, _ in two_layer_resultants(k1, k2, s1, syms)}


class TestBuildResultant:
    def test_display_two_polys(self):
        A, B, C, D, E = coefficient_symbols(5)
        rows = resultant_rows([(A, C, E), (B, D)], 2)
        assert matrix_texts(rows) == [
            ["A", "C", "E"],
            ["B", "D", "0"],
            ["0", "B", "D"],
        ]

    def test_display_four_polys(self):
        A, B, C, D, E, F, G, H, I = coefficient_symbols(9)
        rows = resultant_rows([(A, E, I), (B, F), (C, G), (D, H)], 2)
        assert matrix_texts(rows) == [
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
        rows = resultant_rows([(A, C, E, G, I), (B, D, F, H)], 4)
        assert matrix_texts(rows) == [
            ["A", "C", "E", "G", "I"],
            ["B", "D", "F", "H", "0"],
            ["0", "B", "D", "F", "H"],
        ]

    def test_empty_polynomial_rejected(self):
        A, B = coefficient_symbols(2)
        with pytest.raises(ValueError, match="at least one coefficient"):
            resultant_rows([(), (A, B)], 1)

    def test_all_zero_errors(self):
        with pytest.raises(ValueError, match="at least one coefficient"):
            resultant_rows([(), ()], 2)

    def test_degree_zero_rows(self):
        A, B, C = coefficient_symbols(3)
        rows = resultant_rows([(A, B), (C,)], 1)
        assert matrix_texts(rows) == [["A", "B"], ["C", "0"], ["0", "C"]]

    def test_numeric_padding_stays_numeric(self):
        rows = resultant_rows([(Fraction(1, 2), 3), (5,)], 1)
        assert rows == [[Fraction(1, 2), 3], [5, 0], [0, 5]]


class TestPlan:
    def test_5_2_3(self):
        assert plan(5, 2, 3) == {"I1": (2, 3), "I2": (3, 4)}
        A, B, C, D, E, F, G, H = syms = coefficient_symbols(8)
        (_, _, _, rows1), (_, _, _, rows2) = two_layer_resultants(5, 2, 3, syms)
        assert matrix_texts(rows1) == [
            ["B", "E", "H"],
            ["A", "D", "G"],
            ["C", "F", "0"],
            ["0", "C", "F"],
        ]
        assert matrix_texts(rows2) == [
            ["B", "E", "H", "0"],
            ["0", "B", "E", "H"],
            ["A", "D", "G", "0"],
            ["0", "A", "D", "G"],
        ]

    def test_2_2_2_no_second_matrix(self):
        assert plan(2, 2, 2) == {"I1": (1, 2)}

    def test_3_2_2_r_one(self):
        assert plan(3, 2, 2) == {"I1": (2, 3)}

    def test_non_reduced_rejected(self):
        with pytest.raises(ValueError, match="reduce_arch"):
            two_layer_resultants(3, 1, 2, coefficient_symbols(3))
        with pytest.raises(ValueError, match="reduce_arch"):
            two_layer_resultants(3, 2, 1, coefficient_symbols(4))

    def test_size_one_first_layer(self):
        # (1,3) at stride 2: one row per lower slot, and its 1x1 minors are
        # the entries off the multiples of the stride
        assert plan(1, 3, 2) == {"I1": (1, 1)}
        ((_, _, _, rows),) = two_layer_resultants(1, 3, 2, coefficient_symbols(5))
        assert matrix_texts(rows) == [["B", "D"]]
        ((_, _, _, rows),) = two_layer_resultants(1, 2, 3, coefficient_symbols(4))
        assert matrix_texts(rows) == [["C"], ["B"]]

    @pytest.mark.parametrize("k", [7, 9])
    def test_wrong_filter_length_rejected(self, k):
        with pytest.raises(ValueError, match="filter of size 8"):
            two_layer_resultants(5, 2, 3, coefficient_symbols(k))

    def test_every_slot_nonempty_on_reduced_two_layer_architectures(self):
        # k = k1 + s1 (k2 - 1) > s1, so all s1 slots carry coefficients
        for k1, k2, s1 in product(range(1, 7), range(2, 7), range(2, 7)):
            k = k1 + s1 * (k2 - 1)
            arch = Architecture((k1, k2), (s1, 1))
            assert reduce_arch(arch) == arch
            slots = s_decompose(range(k), s1)
            assert len(slots) == s1 and all(slots)
            assert [len(q) - 1 for q in slots] == list(profile(k, s1).degrees)
            r = sum(len(q) == len(slots[0]) for q in slots)
            names = [m[0] for m in two_layer_resultants(k1, k2, s1, range(k))]
            assert names == (["I1", "I2"] if 1 < r < s1 else ["I1"]), (k1, k2, s1)

    def test_numeric_rows_are_the_symbolic_rows_evaluated(self):
        w = tuple(Fraction(i * i - 3, i + 1) for i in range(8))
        symbolic = two_layer_resultants(5, 2, 3, coefficient_symbols(8))
        numeric = two_layer_resultants(5, 2, 3, w)
        assert [m[:3] for m in numeric] == [m[:3] for m in symbolic]
        for (_, _, _, num), (_, _, _, sym) in zip(numeric, symbolic):
            assert num == [list(evaluate_many(row, w)) for row in sym]


class TestTwoLayerIdeal:
    def test_2_2_2(self):
        gens = two_layer_ideal(2, 2, 2)
        assert [g.text() for g in gens.generators] == ["A*D - B*C"]

    def test_3_2_2(self):
        gens = two_layer_ideal(3, 2, 2)
        assert [g.text() for g in gens.generators] == ["A*D^2 + B^2*E - B*C*D"]

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
            sizes = plan(*args)
            gens = two_layer_ideal(*args)
            for g, prov in zip(gens.generators, gens.provenance):
                assert len({sum(e) for e in g.terms}) == 1  # homogeneous
                _, size = sizes["I1" if ":I1[" in prov else "I2"]
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
                assert all(evaluate_many(gens.generators, pt))


class TestSoundnessOnSamples:
    @pytest.mark.parametrize("k1,k2,s1", [(2, 2, 2), (3, 2, 2), (5, 2, 3)])
    def test_samples_vanish(self, k1, k2, s1):
        gens = two_layer_ideal(k1, k2, s1)
        arch = Architecture((k1, k2), (s1, 1))
        for seed in range(100):
            _, w = sample_neuromanifold(arch, seed)
            assert not any(evaluate_many(gens.generators, w))
