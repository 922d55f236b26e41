import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lcn.arch import _convolve, _spaced
from lcn.decomp import profile, s_decompose
from lcn.polyring import coefficient_symbols

from filter_oracle import s_recompose


class TestDecompose:
    def test_stride_two(self):
        A, B, C, D, E = "ABCDE"
        assert s_decompose((A, B, C, D, E), 2) == [(A, C, E), (B, D)]

    def test_stride_three_k8(self):
        A, B, C, D, E, F, G, H = "ABCDEFGH"
        slots = s_decompose((A, B, C, D, E, F, G, H), 3)
        assert slots == [(B, E, H), (A, D, G), (C, F)]

    def test_stride_one_identity(self):
        coeffs = tuple(range(7))
        assert s_decompose(coeffs, 1) == [coeffs]

    def test_stride_four_k9(self):
        slots = s_decompose(tuple("ABCDEFGHI"), 4)
        assert slots == [("A", "E", "I"), ("D", "H"), ("C", "G"), ("B", "F")]

    def test_zero_slots_when_stride_exceeds_length(self):
        slots = s_decompose((1, 2, 3), 5)
        assert slots == [(3,), (2,), (1,), (), ()]

    def test_symbolic_input(self):
        syms = coefficient_symbols(5)
        slots = s_decompose(syms, 2)
        assert [s.text() for s in slots[0]] == ["A", "C", "E"]
        assert [s.text() for s in slots[1]] == ["B", "D"]


class TestRecompose:
    def test_round_trip_k9_s4(self):
        coeffs = tuple("ABCDEFGHI")
        assert s_recompose(s_decompose(coeffs, 4), 4, 9) == coeffs

    @given(st.lists(st.fractions(), min_size=12, max_size=12))
    def test_round_trip_random(self, values):
        coeffs = tuple(values)
        assert s_recompose(s_decompose(coeffs, 5), 5, 12) == coeffs

    def test_unit_slots(self):
        recomposed = s_recompose([(1, 0), (0,)], 2, 3)
        assert recomposed == (1, 0, 0)

    def test_inconsistent_slot_lengths(self):
        with pytest.raises(ValueError):
            s_recompose([(1, 2, 3), (4,)], 2, 5)
        with pytest.raises(ValueError):
            s_recompose([(1,)], 2, 3)


class TestProfile:
    def test_k8_s3(self):
        prof = profile(8, 3)
        assert prof.degrees == (2, 2, 1)
        assert (prof.n_max, prof.n_min, prof.r) == (2, 1, 2)

    def test_k5_s2(self):
        prof = profile(5, 2)
        assert prof.degrees == (2, 1)
        assert (prof.n_max, prof.n_min, prof.r) == (2, 1, 1)

    def test_k9_s4(self):
        prof = profile(9, 4)
        assert prof.degrees == (2, 1, 1, 1)
        assert (prof.n_max, prof.r) == (2, 1)

    def test_zero_slot_marking(self):
        prof = profile(3, 5)
        assert prof.degrees == (0, 0, 0, None, None)
        assert prof.nonzero_slots == 3

    def test_degree_bookkeeping_exhaustive(self):
        # slot degrees must follow floor((k - i) / s) and sum back to k
        for k in range(1, 31):
            for s in range(1, k + 1):
                prof = profile(k, s)
                assert len(prof.degrees) == s
                for i, d in enumerate(prof.degrees, start=1):
                    expected = (k - i) // s
                    assert d == (expected if expected >= 0 else None)
                assert sum(d + 1 for d in prof.degrees if d is not None) == k
                assert prof.n_max - prof.n_min in (0, 1)
                assert prof.degrees[: prof.r] == (prof.n_max,) * prof.r


class TestLinearity:
    @given(
        st.lists(st.integers(-9, 9), min_size=10, max_size=10),
        st.lists(st.integers(-9, 9), min_size=10, max_size=10),
        st.integers(-5, 5),
        st.integers(-5, 5),
    )
    def test_linear(self, p, q, a, b):
        combo = [a * x + b * y for x, y in zip(p, q)]
        lhs = s_decompose(combo, 3)
        rhs = [
            tuple(a * x + b * y for x, y in zip(sp, sq))
            for sp, sq in zip(s_decompose(p, 3), s_decompose(q, 3))
        ]
        assert lhs == rhs


class TestMultiplicativity:
    def test_factor_in_stride_subring(self):
        # multiplying by a form in x^s, y^s acts slot-by-slot after the
        # change of variables
        rng = random.Random(21)
        for _ in range(25):
            s = rng.randint(2, 4)
            k2 = rng.randint(2, 4)
            k = rng.randint(s, 12)
            q = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k)]
            w2 = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k2)]
            product = _convolve(_spaced(w2, s), q)
            lhs = s_decompose(product, s)
            rhs = [
                tuple(_convolve(w2, list(slot))) if slot else ()
                for slot in s_decompose(q, s)
            ]
            assert lhs == rhs
