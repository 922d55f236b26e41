import gc
import json
from fractions import Fraction
from itertools import combinations, product

import pytest
from expansion_oracle import product_then_add_minors
from hypothesis import example, given, strategies as st

from lcn.polyring import (
    MultiPoly,
    PolyMatrix,
    coefficient_symbols,
    dedup_generators,
    determinant,
    evaluate_many,
    minor_expansion,
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


@st.composite
def rational_polys(draw):
    """Int and Fraction coefficients, mixed degrees, possibly zero."""
    coeffs = st.one_of(
        st.integers(-50, 50),
        st.fractions(min_value=-50, max_value=50, max_denominator=12),
    )
    terms = draw(
        st.dictionaries(st.tuples(*[st.integers(0, 4)] * len(VARS3)), coeffs, max_size=6)
    )
    return poly3(terms)


# zeros, negatives and mixed denominators
rational_points3 = st.tuples(
    *[st.fractions(min_value=-20, max_value=20, max_denominator=15)] * len(VARS3)
)


def fraction_loop_evaluate(p, point):
    """Term-by-term ``Fraction`` evaluation (oracle for ``evaluate_many``)."""
    values = [Fraction(v) for v in point]
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        term = Fraction(coeff)
        for val, e in zip(values, exps):
            if e:
                term *= val**e
        total += term
    return total


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
        assert not (x + y) * MultiPoly.zero(x.vars)

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
        assert p.evaluate((1, 2, 3, 6)) == 0

    def test_identity_point(self):
        A, B, C, D = coefficient_symbols(4)
        p = A * D - B * C
        assert p.evaluate([1, 0, 0, 1]) == 1

    def test_composed_filter_point(self):
        # coefficients of (x^2 + y^2)(x^2 + x y + y^2), expanded by hand
        A, B, C, D, E = coefficient_symbols(5)
        p = A * D**2 + B**2 * E - B * C * D
        assert p.evaluate((1, 1, 2, 1, 1)) == 0

    def test_missing_assignment(self):
        A, B, C, D = coefficient_symbols(4)
        with pytest.raises(ValueError):
            (A * D).evaluate([1])
        with pytest.raises(ValueError):
            (A * D).evaluate([1, 2, 3, 4, 5])

    def test_rational_values(self):
        x, y = symbols(("x", "y"))
        p = Fraction(1, 2) * x + y
        assert p.evaluate((Fraction(1, 3), 1)) == Fraction(7, 6)

    def test_zero_polynomial_and_empty_ring(self):
        assert MultiPoly.zero(VARS3).evaluate((Fraction(1, 2), 3, -1)) == 0
        assert MultiPoly.constant((), Fraction(5, 3)).evaluate(()) == Fraction(5, 3)

    @given(small_polys(), small_polys(), points3)
    def test_multiplicative(self, p, q, pt):
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)

    @given(rational_polys(), rational_points3)
    @example(poly3({}), (0, Fraction(-3, 4), Fraction(5, 6)))
    @example(
        poly3({(2, 0, 1): Fraction(-7, 3), (0, 1, 0): 4, (0, 0, 0): Fraction(1, 2)}),
        (Fraction(-2, 9), 0, Fraction(7, 4)),
    )
    def test_matches_fraction_loop(self, p, pt):
        value = p.evaluate(pt)
        assert isinstance(value, Fraction)
        assert value == fraction_loop_evaluate(p, pt)


class TestEvaluateMany:
    @given(st.lists(rational_polys(), max_size=6), rational_points3)
    @example([poly3({}), MultiPoly.constant(VARS3, Fraction(-2, 7)), poly3({(4, 0, 1): 3})], (0, Fraction(1, 6), 5))
    def test_matches_fraction_loop(self, ps, pt):
        values = list(evaluate_many(ps, pt))
        assert all(isinstance(v, Fraction) for v in values)
        assert values == [fraction_loop_evaluate(p, pt) for p in ps]

    def test_empty_set_yields_nothing(self):
        assert list(evaluate_many([], (1, 2, 3))) == []

    def test_mixed_rings_rejected(self):
        u, _, _ = symbols(VARS3)
        x, _, _ = symbols(("x", "y", "z"))
        with pytest.raises(ValueError, match="mixed variable lists"):
            list(evaluate_many([u, x], (1, 2, 3)))

    def test_point_length_checked(self):
        with pytest.raises(ValueError, match="point of length 2"):
            list(evaluate_many(symbols(VARS3), (1, 2)))

    def test_stops_at_first_nonzero(self):
        u, v, w = symbols(VARS3)
        pulled = []

        def counting():
            for p in (u * v - w, u, v, w):
                pulled.append(p)
                yield p

        assert any(evaluate_many(counting(), (1, 2, 3)))
        assert pulled == [u * v - w]


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
        assert not p - p


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
        rows = [values[4 * i : 4 * i + 4] for i in range(4)]
        assert sym_det.evaluate(values) == int_det(rows)
        assert list(minor_expansion(m, 4)) == [((0, 1, 2, 3), (0, 1, 2, 3), sym_det)]


class TestMinors:
    def test_generic_counts(self):
        syms = symbols([f"m{i}" for i in range(21)])
        m = PolyMatrix(7, 3, syms)
        assert len(list(minor_expansion(m, 3))) == 35
        m2 = PolyMatrix(3, 5, symbols([f"n{i}" for i in range(15)]))
        assert len(list(minor_expansion(m2, 3))) == 10

    def test_size_exceeding_dimension(self):
        syms = symbols([f"m{i}" for i in range(4)])
        assert list(minor_expansion(PolyMatrix(2, 2, syms), 3)) == []

    def test_zero_minors_dropped_and_sign_dedup(self):
        A, B = coefficient_symbols(2)
        zero = MultiPoly.zero(A.vars)
        # rows (A, B), (-A, -B), (0, 0): all 1x1 minors are A, B up to sign
        m = PolyMatrix(3, 2, (A, B, -A, -B, zero, zero))
        _, polys = dedup_generators((ci, det) for _, ci, det in minor_expansion(m, 1))
        assert polys == (A, B)

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

    @given(
        st.lists(st.integers(-5, 5), min_size=20, max_size=20),
        st.lists(st.booleans(), min_size=20, max_size=20),
        st.integers(1, 4),
    )
    def test_numeric_consistency(self, values, zeros, size):
        # 5x4 matrix of distinct symbols with a drawn pattern of zero entries,
        # whose cofactors the expansion skips
        syms = symbols([f"m{i}" for i in range(20)])
        zero = MultiPoly.zero(syms[0].vars)
        m = PolyMatrix(5, 4, tuple(zero if z else x for x, z in zip(syms, zeros)))
        rows = [[0 if zeros[4 * i + j] else values[4 * i + j] for j in range(4)] for i in range(5)]
        triples = list(minor_expansion(m, size))
        assert [(ri, ci) for ri, ci, _ in triples] == list(
            product(combinations(range(5), size), combinations(range(4), size))
        )
        for ri, ci, det in triples:
            sub = [[rows[i][j] for j in ci] for i in ri]
            assert det.evaluate(values) == int_det(sub)


    def test_sub_minors_of_past_row_prefixes_are_released(self):
        # 12x3 integer matrix, 220 row sets of size 3: the expansion keeps
        # one table per row-prefix length, at most C(3, 1) + C(3, 2) sub-minors
        # plus the constant 1, not the sub-minors of every prefix seen so far
        t = ("t",)
        m = PolyMatrix(12, 3, tuple(MultiPoly.constant(t, 7 * i % 11 - 5) for i in range(36)))

        def live():
            return sum(type(o) is MultiPoly for o in gc.get_objects())

        before = live()
        peak = 0
        for n, (_, _, det) in enumerate(minor_expansion(m, 3)):
            if n % 20 == 0:
                peak = max(peak, live() - before)
        assert n == 219
        assert peak <= 3 + 3 + 1 + 1  # tables, the constant 1, the yielded minor


@st.composite
def cancelling_matrices(draw):
    """``(matrix, minor size)`` over ``u, v, w`` with at most 4 rows and
    columns.  Entries repeat a few symbols and sums of them next to integer
    and ``Fraction`` constants and zeros, so coefficients cancel."""
    u, v, w = symbols(VARS3)
    pool = [u, v, w, u + v, 2 * u - w, u * v - Fraction(1, 3) * w]
    constants = st.one_of(
        st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
    ).map(lambda c: MultiPoly.constant(VARS3, c))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = draw(
        st.lists(
            st.one_of(st.sampled_from(pool), constants),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return PolyMatrix(rows, cols, tuple(entries)), draw(st.integers(1, min(rows, cols)))


def _all_u(rows, cols):
    u = symbols(VARS3)[0]
    return PolyMatrix(rows, cols, (u,) * (rows * cols))


class TestFusedExpansion:
    """The one-dict expansion against product-then-add, term for term."""

    @given(cancelling_matrices())
    @example((_all_u(2, 2), 2))  # u^2 - u^2: the determinant cancels
    @example((_all_u(2, 3), 2))  # every 2x2 minor cancels
    def test_matches_product_then_add(self, drawn):
        m, size = drawn
        triples = list(minor_expansion(m, size))
        assert triples == product_then_add_minors(m, size)
        for _, _, det in triples:
            assert 0 not in det.terms.values()
        if m.rows == m.cols:
            det = determinant(m)
            assert det == product_then_add_minors(m, m.rows)[0][2]
            assert 0 not in det.terms.values()


def _rebuilt(p):
    """``p`` passed through the validating constructor."""
    return MultiPoly(p.vars, dict(p.terms))


any_polys = st.one_of(small_polys(), rational_polys())


class TestFastPaths:
    """Operators that set ``terms`` directly give valid polynomials."""

    @given(any_polys, any_polys)
    def test_neg_and_sub_equal_validated(self, p, q):
        diff = dict(p.terms)
        for e, c in q.terms.items():
            diff[e] = diff.get(e, 0) - c
        assert -p == MultiPoly(VARS3, {e: -c for e, c in p.terms.items()})
        assert p - q == MultiPoly(VARS3, diff)
        for r in (-p, p - q, p - p, q - p):
            assert r == _rebuilt(r)
            assert 0 not in r.terms.values()

    @given(small_polys(), st.integers(1, 6))
    def test_primitive_part_equals_validated(self, p, c):
        q = c * p
        g = q.content()
        prim = q.primitive_part()
        assert prim == MultiPoly(VARS3, {e: a // g for e, a in q.terms.items()})
        assert prim == _rebuilt(prim)
        assert 0 not in prim.terms.values()
        assert g * prim == q

    @given(small_polys())
    def test_int_content_matches_fraction_path(self, p):
        as_fractions = MultiPoly(VARS3, {e: Fraction(c) for e, c in p.terms.items()})
        assert all(type(c) is Fraction for c in as_fractions.terms.values())
        assert p.content() == as_fractions.content()

    def test_constructor_still_checks_exponents(self):
        with pytest.raises(ValueError):
            MultiPoly(VARS3, {(1, 2): 1})
        with pytest.raises(ValueError):
            MultiPoly(VARS3, {(1, -1, 0): 1})


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
        assert (Fraction(6) * A - 4 * B).content() == 2
        q = Fraction(3, 2) * A - 6 * B
        assert q.content() == 1
        assert q.primitive_part() is q


def from_json(data):
    """Read back the ``MultiPoly.to_json`` form."""
    return MultiPoly(data["vars"], {tuple(t["exps"]): int(t["coeff"]) for t in data["terms"]})


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
        assert from_json(data) == p
        assert data["vars"] == ["c0", "c1", "c2", "c3"]
        assert all(isinstance(t["coeff"], str) for t in data["terms"])

    def test_json_big_coefficients(self):
        a, = symbols(("a",))
        p = (10**40) * a
        assert from_json(p.to_json()) == p
