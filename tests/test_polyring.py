import gc
import json
import operator
import random
import sys
import threading
import weakref
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from expansion_oracle import product_then_add_minors
from hypothesis import example, given, strategies as st
from text_oracle import zip_text

import lcn.polyring
from lcn.arch import Architecture, sample_neuromanifold
from lcn.idealgen import vanishing_generators
from lcn.polyring import (
    MultiPoly,
    _MonomialProgram,
    coefficient_symbols,
    dedup_generators,
    determinant,
    evaluate_many,
    matrix_product,
    minor_expansion,
    symbols,
)
from lcn.resultant import resultant_rows

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


def grid(cols, entries):
    """The rows of a matrix with ``cols`` columns, filled row by row."""
    return [list(entries[i : i + cols]) for i in range(0, len(entries), cols)]


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
        assert not (x + y) * MultiPoly(x.vars)

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
        assert MultiPoly(VARS3).evaluate((Fraction(1, 2), 3, -1)) == 0
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
    @given(st.lists(rational_polys(), max_size=6), st.lists(rational_points3, max_size=3))
    @example([poly3({}), MultiPoly.constant(VARS3, Fraction(-2, 7)), poly3({(4, 0, 1): 3})], [(0, Fraction(1, 6), 5)])
    def test_matches_fraction_loop(self, ps, pts):
        values = [list(vs) for vs in evaluate_many(ps, pts)]
        assert all(isinstance(v, Fraction) for vs in values for v in vs)
        assert values == [[fraction_loop_evaluate(p, pt) for p in ps] for pt in pts]

    def test_empty_set_yields_nothing(self):
        assert [list(vs) for vs in evaluate_many([], [(1, 2, 3), ()])] == [[], []]

    def test_mixed_rings_rejected(self):
        # up front, before any point
        u, _, _ = symbols(VARS3)
        x, _, _ = symbols(("x", "y", "z"))
        with pytest.raises(ValueError, match="mixed variable lists"):
            evaluate_many([u, x], [])

    def test_point_length_checked(self):
        with pytest.raises(ValueError, match="point of length 2"):
            next(evaluate_many(symbols(VARS3), [(1, 2)]))

    def test_points_pulled_lazily(self):
        pulled = []

        def points():
            for pt in ((1, 2, 3), (4, 5, 6), (1, 2)):
                pulled.append(pt)
                yield pt

        values = evaluate_many(symbols(VARS3), points())
        assert pulled == []
        assert list(next(values)) == [1, 2, 3]
        assert pulled == [(1, 2, 3)]
        assert list(next(values)) == [4, 5, 6]
        # the short point raises only once it is reached
        with pytest.raises(ValueError, match="point of length 2"):
            next(values)
        assert len(pulled) == 3

    def test_stops_at_first_nonzero(self, monkeypatch):
        u, v, w = symbols(VARS3)
        ps = (u * v - w, u**2 - v, v**3, w**4)
        pulled = []

        def counting():
            for p in ps:
                pulled.append(p)
                yield p

        programs = recorded_programs(monkeypatch)
        # u*v - w is nonzero at the first point, zero at the second, where
        # u^2 - v is not
        flags = map(any, evaluate_many(counting(), [(1, 2, 3), (2, 3, 6)]))
        assert pulled == list(ps)  # read up front
        (program,) = programs
        assert next(flags)
        assert program.parents == loaded_program(ps[:1]).parents
        assert next(flags)
        assert program.parents == loaded_program(ps[:2]).parents
        assert next(flags, None) is None


def recorded_programs(monkeypatch) -> list:
    """Every monomial program made from now on, in order of construction."""
    made = []

    class Recorded(_MonomialProgram):
        def __init__(self, n):
            super().__init__(n)
            made.append(self)

    monkeypatch.setattr(lcn.polyring, "_MonomialProgram", Recorded)
    return made


def composed(p, values):
    """``p`` with each variable replaced by its polynomial in ``values``,
    by ring arithmetic (oracle for the membership proof of ``verify``)."""
    total = MultiPoly.constant(values[0].vars, 0)
    for exps, coeff in p.terms.items():
        term = MultiPoly.constant(values[0].vars, coeff)
        for value, e in zip(values, exps):
            term = term * value**e
        total = total + term
    return total


def loaded_program(polys):
    """A fresh monomial program given the monomials of ``polys`` in order."""
    program = _MonomialProgram(len(polys[0].vars))
    for p in polys:
        for key in p._terms:
            program[key]
    return program


def ladder3():
    """Polynomials of rising degree over VARS3, so that every pull adds
    monomials to the ring's program; the last two are inhomogeneous."""
    u, v, w = symbols(VARS3)
    homogeneous = [u**d * v - Fraction(3, d) * w**(d + 1) + u * v**d for d in range(1, 6)]
    return homogeneous + [u**4 * w**3 - 2 * v + 7, Fraction(1, 3) * v**6 - u + w**2]


class TestMonomialProgram:
    """The program of one call and the value tables of its points give the
    values of the term-by-term oracle, whatever the order in which the
    points' iterators are read and the types of the points."""

    P = (Fraction(-2, 3), 5, Fraction(7, 4))
    Q = (3, Fraction(1, 6), -2)

    def test_long_parent_chain(self):
        # 5 * 255 links from the top monomial down to the constant
        xs = symbols(f"x{i}" for i in range(5))
        p = MultiPoly.constant(xs[0].vars, 1)
        for x in xs:
            p = p * x
        p = p**255 + 1
        pt = (Fraction(1, 2),) * 5
        assert p.evaluate(pt) == fraction_loop_evaluate(p, pt)

    def test_interleaved_iterators_on_one_ring(self):
        ps = ladder3()
        pairs = list(zip(*evaluate_many(ps, [self.P, self.Q])))
        assert pairs == [(fraction_loop_evaluate(p, self.P), fraction_loop_evaluate(p, self.Q)) for p in ps]

    def test_interleaved_iterators_on_two_rings(self):
        ps = ladder3()
        x, y = symbols(("x", "y"))
        qs = [x**d - Fraction(1, d) * y**d + x * y for d in range(1, 8)]
        pt = (Fraction(5, 7), -3)
        pairs = list(zip(next(evaluate_many(ps, [self.P])), next(evaluate_many(qs, [pt]))))
        assert pairs == [
            (fraction_loop_evaluate(p, self.P), fraction_loop_evaluate(q, pt)) for p, q in zip(ps, qs)
        ]

    def test_list_point_mutated_between_calls(self):
        ps = ladder3()
        pt = list(self.P)
        values = evaluate_many(ps, [pt, pt])
        assert list(next(values)) == [fraction_loop_evaluate(p, self.P) for p in ps]
        pt[1] = Fraction(-1, 9)
        assert list(next(values)) == [fraction_loop_evaluate(p, pt) for p in ps]

    def test_equal_points_of_different_types(self):
        ps = ladder3()
        expected = [fraction_loop_evaluate(p, (1, -2, Fraction(1, 2))) for p in ps]
        for pt in [(1, -2, Fraction(1, 2)), (Fraction(1), Fraction(-2), Fraction(1, 2)), (1.0, -2.0, 0.5)]:
            values = [p.evaluate(pt) for p in ps]
            assert values == expected
            assert all(isinstance(v, Fraction) for v in values)

    def test_failed_conversion_leaves_the_table_intact(self):
        ps = ladder3()
        values = evaluate_many(ps, [self.P, (self.P[0], self.P[1], None)])
        first = next(values)
        head = [next(first) for _ in range(3)]
        with pytest.raises(TypeError):
            next(values)
        assert head + list(first) == [fraction_loop_evaluate(p, self.P) for p in ps]

    def test_homogeneous_and_inhomogeneous_in_one_set(self):
        u, v, w = symbols(VARS3)
        ps = [
            u * v - w**2,
            u**2 + 1,
            Fraction(1, 3) * v**3 - u + 2,
            MultiPoly.constant(VARS3, Fraction(-5, 2)),
            MultiPoly(VARS3),
            u**3 * v - 4 * w**4,
            w - Fraction(2, 5),
        ]
        pts = (self.P, self.Q, (0, Fraction(1, 4), 0))
        for pt, values in zip(pts, evaluate_many(ps, pts)):
            assert list(values) == [fraction_loop_evaluate(p, pt) for p in ps]


class TestEvaluateAtScale:
    """The 56 generators of (5,5)/(2,1): 13 variables, 1,852 terms."""

    @pytest.fixture(scope="class")
    def gens(self):
        gens = vanishing_generators(Architecture((5, 5), (2, 1))).generators
        assert len(gens) == 56
        assert sum(len(g.terms) for g in gens) == 1852
        return gens

    def points(self):
        arch = Architecture((5, 5), (2, 1))
        rng = random.Random(5)
        samples = [sample_neuromanifold(arch, rng.randrange(2**62))[1] for _ in range(2)]
        ambient = [
            tuple(Fraction(rng.randint(-999, 999), rng.randint(1, 99)) for _ in range(13))
            for _ in range(2)
        ]
        return samples, ambient

    def test_matches_fraction_loop(self, gens):
        samples, ambient = self.points()
        for pt, values in zip(samples + ambient, evaluate_many(gens, samples + ambient)):
            assert list(values) == [fraction_loop_evaluate(g, pt) for g in gens]
        assert list(map(any, evaluate_many(gens, samples + ambient))) == [False, False, True, True]

    def test_equal_point_reuses_program(self, gens, monkeypatch):
        _, (pt, _) = self.points()
        programs = recorded_programs(monkeypatch)
        values = evaluate_many(gens, [pt, tuple(Fraction(x.numerator, x.denominator) for x in pt)])
        first = list(next(values))
        (program,) = programs
        steps = len(program.parents)
        assert steps == len(program) == len(loaded_program(gens).parents)
        assert list(next(values)) == first
        assert len(program.parents) == steps

    def test_point_does_not_outlive_the_call(self, gens):
        class Coordinate(Fraction):
            pass

        _, (pt, _) = self.points()
        pt = [Coordinate(x) for x in pt]
        ref = weakref.ref(pt[0])
        assert list(next(evaluate_many(gens, [pt]))) == [fraction_loop_evaluate(g, pt) for g in gens]
        del pt
        gc.collect()
        assert ref() is None

    def test_threads_growing_one_program(self, gens):
        # concurrent calls, each growing a program of its own
        samples, ambient = self.points()
        points = samples + ambient + samples[:1]
        expected = [[fraction_loop_evaluate(g, pt) for g in gens] for pt in points]
        results = {}

        def work(i, barrier):
            barrier.wait()
            if i % 2:
                results[i] = [g.evaluate(points[i]) for g in gens]
            else:
                results[i] = list(next(evaluate_many(gens, [points[i]])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                results.clear()
                barrier = threading.Barrier(len(points))
                threads = [threading.Thread(target=work, args=(i, barrier)) for i in range(len(points))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert [results[i] for i in range(len(points))] == expected
        finally:
            sys.setswitchinterval(interval)


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
        zero = MultiPoly(A.vars)
        m = [[A, C, E], [B, D, zero], [zero, B, D]]
        assert determinant(m).text() == "A*D^2 + B^2*E - B*C*D"

    def test_identity(self):
        one = MultiPoly.constant(("t",), 1)
        zero = MultiPoly(("t",))
        m = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
        assert determinant(m) == 1

    def test_two_by_two_row_order(self):
        # cofactor expansion of [[B, D], [A, C]]
        A, B, C, D = coefficient_symbols(4)
        m = [[B, D], [A, C]]
        assert determinant(m) == B * C - A * D

    def test_non_square(self):
        A, B = coefficient_symbols(2)
        with pytest.raises(ValueError):
            determinant([[A, B]])

    @given(st.lists(st.integers(-9, 9), min_size=16, max_size=16))
    def test_against_numeric_oracle(self, values):
        # symbolic 4x4 with distinct symbols, evaluated at integers
        syms = symbols([f"m{i}" for i in range(16)])
        m = grid(4, syms)
        sym_det = determinant(m)
        rows = [values[4 * i : 4 * i + 4] for i in range(4)]
        assert sym_det.evaluate(values) == int_det(rows)
        assert list(minor_expansion(m, 4)) == [((0, 1, 2, 3), (0, 1, 2, 3), sym_det)]


class TestMinors:
    def test_generic_counts(self):
        syms = symbols([f"m{i}" for i in range(21)])
        m = grid(3, syms)
        assert len(list(minor_expansion(m, 3))) == 35
        m2 = grid(5, symbols([f"n{i}" for i in range(15)]))
        assert len(list(minor_expansion(m2, 3))) == 10

    def test_ragged_rows_rejected(self):
        A, B, C = coefficient_symbols(3)
        with pytest.raises(ValueError, match="different lengths"):
            list(minor_expansion([[A, B], [C]], 1))
        with pytest.raises(ValueError, match="different lengths"):
            list(minor_expansion([[A], [B, C]], 2))
        with pytest.raises(ValueError, match="non-square"):
            determinant([[A, B], [C]])

    def test_entries_from_two_rings_rejected(self):
        A, B = coefficient_symbols(2)
        u, v, _ = symbols(VARS3)
        with pytest.raises(ValueError, match="different rings"):
            list(minor_expansion([[A, B], [u, v]], 1))
        with pytest.raises(ValueError, match="different rings"):
            determinant([[A, B], [u, v]])

    def test_non_square_determinant_rejected(self):
        A, B, C, D, E, F = coefficient_symbols(6)
        with pytest.raises(ValueError, match="non-square"):
            determinant([[A, B, C], [D, E, F]])
        with pytest.raises(ValueError, match="non-square"):
            determinant([[A, B], [C, D], [E, F]])

    def test_size_exceeding_dimension(self):
        syms = symbols([f"m{i}" for i in range(4)])
        assert list(minor_expansion(grid(2, syms), 3)) == []

    def test_zero_minors_dropped_and_sign_dedup(self):
        A, B = coefficient_symbols(2)
        zero = MultiPoly(A.vars)
        # rows (A, B), (-A, -B), (0, 0): all 1x1 minors are A, B up to sign
        m = [[A, B], [-A, -B], [zero, zero]]
        kept = dedup_generators((ci, det) for _, ci, det in minor_expansion(m, 1))
        assert [poly for _, poly in kept] == [A, B]

    @given(small_polys(), st.integers(2, 5))
    def test_dedup_generators_keeps_first_tag(self, f, c):
        zero = MultiPoly(VARS3)
        kept = dedup_generators(
            [("zero", zero), ("f", f), ("-f", -f), (f"{c}f", c * f), ("zero again", zero)]
        )
        assert list(kept) == ([("f", f.sign_normalized())] if f.terms else [])

    def test_text_identity_keeps_what_the_polynomial_identity_keeps(self):
        """Within one ring the text is injective: it spells out every term
        once, in one order, with its sign, the magnitude of its coefficient
        (a fraction with its bar) and each variable of its monomial with the
        exponent, so two polynomials of one ring with one text have the same
        terms.  So the printed-line identity of ``lcn ideal`` drops what the
        polynomial identity drops, here also on the content above 1,
        fractional coefficients and zeros that no level minor has."""
        u, v, w = symbols(VARS3)
        g = u * v - 2 * w**2 + 3
        h = Fraction(1, 2) * u - Fraction(2, 3) * v * w
        zero = MultiPoly(VARS3)
        stream = [
            ("zero", zero), ("-3g", -3 * g), ("g", g), ("-g", -g), ("2g", 2 * g),
            ("6g as fractions", g * Fraction(6)), ("h", h), ("-h", -h), ("2h", 2 * h), ("zero again", zero),
        ]
        by_poly = list(dedup_generators(stream))
        by_text = list(dedup_generators(stream, MultiPoly.text))
        # -3g is kept as 3g, and a fractional polynomial has content 1, so 2h is new
        assert by_poly == by_text == [("-3g", 3 * g), ("h", -h), ("2h", -2 * h)]
        assert [p.text() for _, p in by_text] == ["3*u*v - 6*w^2 + 9", "2/3*v*w - 1/2*u", "4/3*v*w - u"]

    def test_dedup_is_lazy(self):
        u, v, _ = symbols(VARS3)

        def stream():
            yield "u", u
            yield "-u", -u
            raise AssertionError("read past the first kept generator")

        assert next(dedup_generators(stream())) == ("u", u)

    @given(
        st.lists(st.integers(-5, 5), min_size=20, max_size=20),
        st.lists(st.booleans(), min_size=20, max_size=20),
        st.integers(1, 4),
    )
    def test_numeric_consistency(self, values, zeros, size):
        # 5x4 matrix of distinct symbols with a drawn pattern of zero entries,
        # whose cofactors the expansion skips
        syms = symbols([f"m{i}" for i in range(20)])
        zero = MultiPoly(syms[0].vars)
        m = grid(4, [zero if z else x for x, z in zip(syms, zeros)])
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
        m = grid(3, [MultiPoly.constant(t, 7 * i % 11 - 5) for i in range(36)])

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
    return grid(cols, entries), draw(st.integers(1, min(rows, cols)))


@st.composite
def banded_matrices(draw):
    """``(matrix, minor size)`` shaped like ``resultant_rows`` output:
    shifted copies of one or two coefficient rows, with leading and
    trailing zeros.  Coefficients are multi-term with non-unit coefficients
    or zero, so nonzero entries also sit at odd positions of a minor's
    columns."""
    u, v, w = symbols(VARS3)
    pool = [3 * u - 2 * v, u * v + 5 * w**2 - 4, -7 * u, Fraction(2, 3) * v - 6 * w, 0 * u]
    slots = draw(st.lists(st.lists(st.sampled_from(pool), min_size=2, max_size=4), min_size=1, max_size=2))
    top = max(map(len, slots)) - 1
    rows = resultant_rows(slots, draw(st.integers(top, 4)))
    return rows, draw(st.integers(1, min(len(rows), len(rows[0]))))


def _odd_band():
    """Three shifts of ``(0, a, 0, b)``: each row's nonzero entries one
    column apart, at odd positions of the full column set."""
    u, v, w = symbols(VARS3)
    return resultant_rows([[0 * u, 3 * u - 2 * v, 0 * u, u * v + 5 * w**2 - 4]], 5)


def _all_u(rows, cols):
    u = symbols(VARS3)[0]
    return [[u] * cols for _ in range(rows)]


def _cancelling_by_hand():
    """``(matrix, minor size)`` pairs whose minors cancel wholly or partly."""
    u, v, w = symbols(VARS3)
    z = 0 * u
    twice = [[u, v, w], [v, w, u], [u, v, w]]
    return [
        # a duplicated row: the determinant and each 2x2 minor on rows 0 and 2
        # cancel wholly
        (twice, 2),
        (twice, 3),
        # u^2*w - u*v^2 - u^2*w: one pair of terms cancels, one is left
        ([[u, u, z], [u, u, v], [z, v, w]], 3),
    ]


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
        if len(m) == len(m[0]):
            det = determinant(m)
            assert det == product_then_add_minors(m, len(m))[0][2]
            assert 0 not in det.terms.values()

    @pytest.mark.parametrize("m,size", _cancelling_by_hand())
    def test_cancelled_coefficients_are_dropped(self, m, size):
        triples = list(minor_expansion(m, size))
        assert triples == product_then_add_minors(m, size)
        for _, _, det in triples:
            assert 0 not in det._terms.values()

    @given(banded_matrices())
    @example((_odd_band(), 2))
    @example((_odd_band(), 3))
    def test_banded_rows_match_product_then_add(self, drawn):
        m, size = drawn
        assert list(minor_expansion(m, size)) == product_then_add_minors(m, size)


@st.composite
def product_factors(draw):
    """``(rows, cols)``: a left factor by its rows and a right factor by its
    columns, over ``u, v, w``, with an inner size of 0 to 3.  Entries repeat
    sums of a few symbols next to int and ``Fraction`` constants, the int 0
    and the zero polynomial, so coefficients of an entry cancel."""
    u, v, w = symbols(VARS3)
    pool = [u, v, w, u + v, 2 * u - w, u * v - Fraction(1, 3) * w, -u * v, 0, 0 * u,
            MultiPoly.constant(VARS3, 3), MultiPoly.constant(VARS3, Fraction(-1, 2))]
    inner = draw(st.integers(0, 3))
    vectors = st.lists(st.lists(st.sampled_from(pool), min_size=inner, max_size=inner), max_size=3)
    return draw(vectors), draw(vectors)


class TestMatrixProduct:
    """The one-dict product against products and sums of polynomials."""

    @given(product_factors())
    @example(([[symbols(VARS3)[0], -symbols(VARS3)[0]]], [[symbols(VARS3)[1]] * 2]))  # u v - u v
    def test_matches_sum_of_products(self, drawn):
        rows, cols = drawn
        zero = MultiPoly(VARS3)
        out = matrix_product(rows, cols, VARS3)
        assert out == [[sum(map(operator.mul, row, col), zero) for col in cols] for row in rows]
        for entry in (e for row in out for e in row):
            assert entry.vars == VARS3
            assert 0 not in entry._terms.values()

    def test_right_factor_without_rows_keeps_its_width(self):
        assert matrix_product([[], []], [[], [], []], VARS3) == [[MultiPoly(VARS3)] * 3] * 2

    def test_exponent_overflow_raises(self):
        u = symbols(VARS3)[0]
        with pytest.raises(ValueError, match="exponent above 255"):
            matrix_product([[u**200]], [[u**100]], VARS3)

    @pytest.mark.parametrize("bad", [1, Fraction(1, 2), symbols(("u", "v"))[0]])
    def test_entries_outside_the_ring_raise(self, bad):
        u = symbols(VARS3)[0]
        with pytest.raises(ValueError, match="neither zero nor a polynomial"):
            matrix_product([[u, bad]], [[u, u]], VARS3)
        with pytest.raises(ValueError, match="neither zero nor a polynomial"):
            matrix_product([[u, u]], [[bad, u]], VARS3)


def _rebuilt(p):
    """``p`` passed through the validating constructor."""
    return MultiPoly(p.vars, dict(p.terms))


any_polys = st.one_of(small_polys(), rational_polys())


class TestFastPaths:
    """Operators that build packed terms directly give valid polynomials."""

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
        # every other coefficient an integral Fraction, the rest ints
        mixed = MultiPoly(VARS3, {e: Fraction(c) if i % 2 else c for i, (e, c) in enumerate(p.terms.items())})
        assert mixed.content() == p.content()

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

    def test_zero(self):
        zero = MultiPoly(VARS3)
        assert zero.sign_normalized() is zero
        assert zero.content() == 1
        assert zero.primitive_part() is zero

    def test_content(self):
        A, B = coefficient_symbols(2)
        p = 6 * A - 4 * B
        assert p.content() == 2
        assert p.primitive_part() == 3 * A - 2 * B
        assert (Fraction(6) * A - 4 * B).content() == 2
        q = Fraction(3, 2) * A - 6 * B
        assert q.content() == 1
        assert q.primitive_part() is q
        assert MultiPoly.constant(A.vars, Fraction(-4, 3)).content() == 1
        # positive when every coefficient is negative, on both paths
        assert (-6 * A - 4 * B).content() == 2
        assert (Fraction(-6) * A - 4 * B).content() == 2
        assert (-3 * A).primitive_part() == -A


# letter rings, plain c-rings past the letters, and rings of other names
rings = st.one_of(
    st.integers(1, 26).map(lambda n: tuple(f"c{i}" for i in range(n))),
    st.integers(27, 40).map(lambda n: tuple(f"c{i}" for i in range(n))),
    st.sampled_from([VARS3, ("c1", "c0"), ("c0", "c2", "c3"), ("x", "y_1", "alpha", "c3")]),
)
coefficients = st.one_of(
    st.integers(-9, 9),
    st.integers(-(10**40), 10**40),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


@st.composite
def ring_polys(draw, vars_=None):
    """A polynomial of a drawn ring (or of ``vars_``): a few sparse terms
    with exponents up to 255, the constant term among them at times."""
    vars_ = vars_ or draw(rings)
    field = st.tuples(
        st.integers(0, len(vars_) - 1), st.one_of(st.integers(1, 3), st.integers(250, 255))
    )
    terms = {}
    for fields in draw(st.lists(st.lists(field, max_size=4), max_size=5)):
        exps = [0] * len(vars_)
        for i, e in fields:
            exps[i] = e
        terms[tuple(exps)] = draw(coefficients)
    return MultiPoly(vars_, terms)


def from_json(data):
    """Read back the ``MultiPoly.to_json`` form."""
    return MultiPoly(data["vars"], {tuple(t["exps"]): int(t["coeff"]) for t in data["terms"]})


class TestCoefficientTypes:
    INEXACT = [0.5, 0.0, 2.0, 1 + 2j, Decimal("0.5"), Decimal(2), "3"]

    @pytest.mark.parametrize("coeff", INEXACT, ids=repr)
    def test_inexact_rejected(self, coeff):
        with pytest.raises(TypeError, match="int or Fraction"):
            MultiPoly(("x", "y"), {(1, 0): coeff})
        with pytest.raises(TypeError, match="int or Fraction"):
            MultiPoly.constant(("x",), coeff)

    @pytest.mark.parametrize(
        "coeff,value",
        [(3, 3), (Fraction(3, 2), Fraction(3, 2)), (np.int64(3), 3), (np.uint8(3), 3), (True, 1)],
        ids=repr,
    )
    def test_exact_coefficients_build_and_evaluate(self, coeff, value):
        p = MultiPoly(("x", "y"), {(1, 0): coeff, (0, 1): 1})
        assert p.terms == {(1, 0): value, (0, 1): 1}
        assert all(type(c) in (int, Fraction) for c in p.terms.values())
        assert p.evaluate((2, 5)) == 2 * value + 5
        assert MultiPoly.constant(("x", "y"), coeff) == MultiPoly(("x", "y"), {(0, 0): value})
        if isinstance(value, int):
            assert p.to_json()["terms"][0]["coeff"] == str(value)
            assert p.primitive_part() == p


class TestSerialization:
    def test_text_golden(self):
        A, B, C, D, E = coefficient_symbols(5)
        p = A * D**2 + B**2 * E - B * C * D
        assert p.text() == "A*D^2 + B^2*E - B*C*D"
        assert str(MultiPoly(A.vars)) == "0"

    def test_text_plain_names_beyond_letters(self):
        syms = coefficient_symbols(27)
        assert (syms[0] * syms[26]).text() == "c0*c26"

    @given(ring_polys())
    @example(MultiPoly.constant(VARS3, -(10**40)))
    @example(MultiPoly(("c0", "c1"), {(0, 0): Fraction(-3, 2), (255, 1): -1, (0, 255): 7}))
    def test_text_matches_zip_renderer(self, p):
        assert p.text() == zip_text(p)
        assert (-p).text() == zip_text(-p)

    @given(st.lists(st.tuples(ring_polys(("c0", "c1", "c2")), ring_polys(VARS3)), max_size=4))
    def test_text_of_two_rings_alternately(self, pairs):
        # each call in the other ring rebuilds the one-ring memo
        for p, q in pairs:
            assert p.text() == zip_text(p)
            assert q.text() == zip_text(q)
            assert p.text() == zip_text(p)

    @pytest.mark.parametrize("n", [7, 8, 9, 16, 17, 26, 27, 40])
    def test_text_at_block_edges_matches_zip_renderer(self, n):
        # a monomial string joins one string per block of 8 variables: the
        # first and last variable of each block alone, with every exponent
        # width, and neighbouring edges together; blocks counted from either end
        edges = sorted({j for i in range(0, n, 8) for j in (i, i + 7, n - 8 - i, n - 1 - i) if 0 <= j < n})
        monomials = [(0,) * n]
        for i in edges:
            for e in (1, 2, 9, 10, 255):
                monomials.append(tuple(e if j == i else 0 for j in range(n)))
        for i, j in zip(edges, edges[1:]):
            monomials.append(tuple(10 if v == i else 1 if v == j else 0 for v in range(n)))
        monomials.append(tuple(255 if v in edges else 0 for v in range(n)))
        coeffs = (1, -1, 2, -10, 255)
        p = MultiPoly(coefficient_symbols(n)[0].vars, {e: coeffs[i % 5] for i, e in enumerate(monomials)})
        assert p.text() == zip_text(p)
        assert (-p).text() == zip_text(-p)
        for e in monomials:
            q = MultiPoly(p.vars, {e: 1})
            assert q.text() == zip_text(q)

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


def grlex(exps):
    """Graded lexicographic sort key of an exponent tuple."""
    return (sum(exps), exps)


@st.composite
def wide_polys(draw):
    """Int coefficients, exponents across the whole 0..255 field range."""
    exps = st.tuples(*[st.one_of(st.integers(0, 3), st.integers(250, 255))] * len(VARS3))
    return poly3(draw(st.dictionaries(exps, st.integers(-9, 9), max_size=6)))


def tuple_derivative(p, name):
    """``d p / d name`` on exponent tuples (oracle for ``differentiate``)."""
    idx = p.vars.index(name)
    out = {}
    for exps, coeff in p.terms.items():
        e = exps[idx]
        if e:
            lowered = exps[:idx] + (e - 1,) + exps[idx + 1 :]
            out[lowered] = out.get(lowered, 0) + coeff * e
    return MultiPoly(p.vars, out)


class TestPackedTerms:
    """The packed keys against the exponent tuples they stand for."""

    @given(st.one_of(wide_polys(), small_polys()))
    def test_order_is_grlex(self, p):
        order = sorted(p.terms, key=grlex, reverse=True)
        if not order:
            return
        assert p.total_degree() == sum(order[0])
        assert p.sign_normalized() == (-p if p.terms[order[0]] < 0 else p)
        assert [tuple(t["exps"]) for t in p.to_json()["terms"]] == order
        pieces = [MultiPoly(p.vars, {e: p.terms[e]}).text() for e in order]
        assert p.text() == pieces[0] + "".join(
            f" - {t[1:]}" if t.startswith("-") else f" + {t}" for t in pieces[1:]
        )

    @given(st.one_of(wide_polys(), rational_polys()))
    def test_rebuilt_from_terms(self, p):
        q = MultiPoly(p.vars, p.terms)
        assert q == p
        assert hash(q) == hash(p)

    @pytest.mark.parametrize("value", [0, 3, -7, Fraction(5, 2), Fraction(4, 2)])
    def test_constant_hashes_as_its_value(self, value):
        c = MultiPoly.constant(("x",), value)
        assert c == value and hash(c) == hash(value)
        assert len({c, value}) == 1
        assert len({c, MultiPoly.constant(("x", "y"), value)}) == 2

    @given(st.one_of(wide_polys(), small_polys()), st.sampled_from(VARS3))
    def test_differentiate_matches_tuple_rule(self, p, name):
        assert p.differentiate(name) == tuple_derivative(p, name)

    @given(wide_polys(), wide_polys())
    def test_product_matches_tuple_rule(self, p, q):
        # exponent tuples add; products whose exponents stay in range succeed
        expected = {}
        for e1, c1 in p.terms.items():
            for e2, c2 in q.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                expected[e] = expected.get(e, 0) + c1 * c2
        if any(max(e) > 255 for e, c in expected.items()):
            with pytest.raises(ValueError, match="above 255"):
                p * q
        else:
            assert p * q == poly3(expected)

    def test_exponent_256_rejected(self):
        u, v, w = symbols(VARS3)
        with pytest.raises(ValueError, match="above 255"):
            poly3({(0, 256, 0): 1})
        with pytest.raises(ValueError, match="above 255"):
            u**200 * (u**56 + v)
        with pytest.raises(ValueError, match="above 255"):
            (u * v + w) ** 256
        with pytest.raises(ValueError, match="above 255"):
            determinant([[u**128, v], [w, u**128]])

    @pytest.mark.parametrize("e", [1.5, 0.9, 2.0, "2"])
    def test_non_integral_exponent_rejected(self, e):
        with pytest.raises(TypeError, match="exponents must be integers"):
            MultiPoly(("x", "y"), {(e, 0): 1})
        with pytest.raises(TypeError, match="exponents must be integers"):
            MultiPoly(("x", "y"), {(0, 1): 3, (1, e): 1})

    def test_numpy_integer_exponent_accepted(self):
        x, y = symbols(("x", "y"))
        p = MultiPoly(("x", "y"), {(np.int64(2), np.uint8(1)): 1})
        assert p == x**2 * y
        assert p.text() == "x^2*y"
        assert all(type(e) is int for exps in p.terms for e in exps)

    def test_exponent_255_accepted(self):
        u, v, w = symbols(VARS3)
        assert poly3({(255, 0, 0): 1}) == u**255
        # total degree past 255, every exponent within it
        assert (u**200 * v**100 * w**255).terms == {(200, 100, 255): 1}
        assert ((u + v) ** 255).terms[(128, 127, 0)] > 0
        # a 3x1 matrix: one row per minor, not the sum over its rows
        m = [[u**255], [u**255], [u**255]]
        assert [det for _, _, det in minor_expansion(m, 1)] == [u**255] * 3
