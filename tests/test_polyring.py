import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lcn.polyring import (
    MultiPoly,
    PolyMatrix,
    coefficient_symbols,
    dedup_generators,
    determinant,
    minor_expansion,
    minors,
    symbols,
)

VARS3 = ("u", "v", "w")


def poly3(terms):
    return MultiPoly(VARS3, terms)


@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 3)) for _ in VARS3)
        terms[exps] = terms.get(exps, 0) + draw(st.integers(-9, 9))
    return poly3(terms)


points3 = st.tuples(
    st.integers(-7, 7), st.integers(-7, 7), st.integers(-7, 7)
)


def int_det(rows):
    """Plain rational Gaussian-elimination determinant (test oracle)."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


class TestMul:
    def test_annihilator(self):
        x, y, _ = symbols(("x", "y", "z"))
        assert ((x + y) * MultiPoly.zero(x.vars)).is_zero()

    def test_two_layer_expansion(self):
        # (c x^2 + d y^2)(a x + b y) term by term
        a, b, c, d, x, y = symbols("abcdxy")
        lhs = (c * x**2 + d * y**2) * (a * x + b * y)
        rhs = a * c * x**3 + b * c * x**2 * y + a * d * x * y**2 + b * d * y**3
        assert lhs == rhs

    def test_difference_of_squares(self):
        x, y = symbols(("x", "y"))
        assert (x - y) * (x + y) == x**2 - y**2

    def test_mismatched_variables(self):
        x, = symbols(("x",))
        y, = symbols(("y",))
        with pytest.raises(ValueError):
            x * y

    def test_degree_additivity(self):
        u, v, w = symbols(VARS3)
        p = u**2 * v + w
        q = v**3 - 2
        assert (p * q).total_degree() == p.total_degree() + q.total_degree()


class TestEval:
    def test_rank_one_point(self):
        A, B, C, D = coefficient_symbols(4)
        p = A * D - B * C
        assert p.evaluate({"c0": 1, "c1": 2, "c2": 3, "c3": 6}) == 0

    def test_identity_point(self):
        A, B, C, D = coefficient_symbols(4)
        p = A * D - B * C
        assert p.evaluate({"c0": 1, "c1": 0, "c2": 0, "c3": 1}) == 1

    def test_composed_filter_point(self):
        # coefficients of (x^2 + y^2)(x^2 + x y + y^2), expanded by hand
        A, B, C, D, E = coefficient_symbols(5)
        p = A * D**2 + B**2 * E - B * C * D
        point = dict(zip(p.vars, (1, 1, 2, 1, 1)))
        assert p.evaluate(point) == 0

    def test_missing_assignment(self):
        A, B, C, D = coefficient_symbols(4)
        with pytest.raises(ValueError):
            (A * D).evaluate({"c0": 1})

    def test_rational_values(self):
        x, y = symbols(("x", "y"))
        p = Fraction(1, 2) * x + y
        assert p.evaluate({"x": Fraction(1, 3), "y": 1}) == Fraction(7, 6)

    @given(small_polys(), small_polys(), points3)
    def test_multiplicative(self, p, q, pt):
        values = dict(zip(VARS3, pt))
        assert (p * q).evaluate(values) == p.evaluate(values) * q.evaluate(values)


class TestRingAxioms:
    @given(small_polys(), small_polys(), small_polys())
    def test_associativity(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert (p + q) + r == p + (q + r)

    @given(small_polys(), small_polys())
    def test_commutativity(self, p, q):
        assert p * q == q * p
        assert p + q == q + p

    @given(small_polys(), small_polys(), small_polys())
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(small_polys())
    def test_additive_inverse(self, p):
        assert (p - p).is_zero()


class TestDeterminant:
    def test_three_by_three(self):
        A, B, C, D, E = coefficient_symbols(5)
        zero = MultiPoly.zero(A.vars)
        m = PolyMatrix(3, 3, (A, C, E, B, D, zero, zero, B, D))
        assert determinant(m).text() == "A*D^2 + B^2*E - B*C*D"

    def test_identity(self):
        one = MultiPoly.constant(("t",), 1)
        zero = MultiPoly.zero(("t",))
        m = PolyMatrix(3, 3, (one, zero, zero, zero, one, zero, zero, zero, one))
        assert determinant(m) == 1

    def test_two_by_two_row_order(self):
        # cofactor expansion of [[B, D], [A, C]]
        A, B, C, D = coefficient_symbols(4)
        m = PolyMatrix(2, 2, (B, D, A, C))
        assert determinant(m) == B * C - A * D

    def test_non_square(self):
        A, B = coefficient_symbols(2)
        with pytest.raises(ValueError):
            determinant(PolyMatrix(1, 2, (A, B)))

    @given(st.lists(st.integers(-9, 9), min_size=16, max_size=16))
    def test_against_numeric_oracle(self, values):
        # symbolic 4x4 with distinct symbols, evaluated at integers
        syms = symbols([f"m{i}" for i in range(16)])
        m = PolyMatrix(4, 4, syms)
        sym_det = determinant(m)
        point = dict(zip(sym_det.vars, values))
        rows = [values[4 * i : 4 * i + 4] for i in range(4)]
        assert sym_det.evaluate(point) == int_det(rows)


class TestMinors:
    def test_generic_counts(self):
        syms = symbols([f"m{i}" for i in range(21)])
        m = PolyMatrix(7, 3, syms)
        assert len(minors(m, 3)) == 35
        m2 = PolyMatrix(3, 5, symbols([f"n{i}" for i in range(15)]))
        assert len(minors(m2, 3)) == 10

    def test_size_exceeding_dimension(self):
        syms = symbols([f"m{i}" for i in range(4)])
        assert minors(PolyMatrix(2, 2, syms), 3) == []

    def test_zero_minors_dropped_and_sign_dedup(self):
        A, B = coefficient_symbols(2)
        zero = MultiPoly.zero(A.vars)
        # rows (A, B), (-A, -B), (0, 0): all 1x1 minors are A, B up to sign
        m = PolyMatrix(3, 2, (A, B, -A, -B, zero, zero))
        assert minors(m, 1) == [A, B]

    @given(small_polys(), st.integers(2, 5))
    def test_dedup_generators_keeps_first_tag(self, f, c):
        zero = MultiPoly.zero(VARS3)
        tags, polys = dedup_generators(
            [("zero", zero), ("f", f), ("-f", -f), (f"{c}f", c * f), ("zero again", zero)]
        )
        if f.terms:
            assert tags == ("f",)
            assert polys == (f.sign_normalized(),)
        else:
            assert tags == polys == ()

    @given(st.lists(st.integers(-5, 5), min_size=12, max_size=12), st.integers(1, 3))
    def test_numeric_consistency(self, values, size):
        syms = symbols([f"m{i}" for i in range(12)])
        m = PolyMatrix(3, 4, syms)
        point = dict(zip(syms[0].vars, values))
        rows = [values[4 * i : 4 * i + 4] for i in range(3)]
        for ri, ci, det in minor_expansion(m, size):
            sub = [[rows[i][j] for j in ci] for i in ri]
            assert det.evaluate(point) == int_det(sub)


class TestNormalization:
    def test_sign_flip(self):
        A, B, C, D = coefficient_symbols(4)
        p = B * C - A * D
        assert p.sign_normalized() == A * D - B * C
        assert (A * D - B * C).sign_normalized() == A * D - B * C

    def test_content(self):
        A, B = coefficient_symbols(2)
        p = 6 * A - 4 * B
        assert p.content() == 2
        assert p.primitive_part() == 3 * A - 2 * B


class TestSerialization:
    def test_text_golden(self):
        A, B, C, D, E = coefficient_symbols(5)
        p = A * D**2 + B**2 * E - B * C * D
        assert p.text() == "A*D^2 + B^2*E - B*C*D"
        assert str(MultiPoly.zero(A.vars)) == "0"

    def test_text_plain_names_beyond_letters(self):
        syms = coefficient_symbols(27)
        assert (syms[0] * syms[26]).text() == "c0*c26"

    def test_json_round_trip(self):
        A, B, C, D = coefficient_symbols(4)
        p = 12 * A * D - B * C**3
        data = json.loads(json.dumps(p.to_json()))
        assert MultiPoly.from_json(data) == p
        assert data["vars"] == ["c0", "c1", "c2", "c3"]
        assert all(isinstance(t["coeff"], str) for t in data["terms"])

    def test_json_big_coefficients(self):
        a, = symbols(("a",))
        p = (10**40) * a
        assert MultiPoly.from_json(p.to_json()) == p
