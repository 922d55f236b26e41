import gc
import json
import random
import sys
import threading
import weakref
from fractions import Fraction
from itertools import combinations, product

import pytest
from expansion_oracle import product_then_add_minors
from hypothesis import example, given, strategies as st

from lcn.arch import Architecture, sample_neuromanifold
from lcn.idealgen import vanishing_generators
from lcn.polyring import (
    MultiPoly,
    _MonomialProgram,
    _monomial_program,
    coefficient_symbols,
    dedup_generators,
    determinant,
    evaluate_many,
    minor_expansion,
    nonzero_compositions,
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


def composed(p, values):
    """``p`` with each variable replaced by its polynomial in ``values``,
    by ring arithmetic (oracle for ``nonzero_compositions``)."""
    total = MultiPoly.constant(values[0].vars, 0)
    for exps, coeff in p.terms.items():
        term = MultiPoly.constant(values[0].vars, coeff)
        for value, e in zip(values, exps):
            term = term * value**e
        total = total + term
    return total


XY = ("x", "y")


def loaded_program(polys):
    """A fresh monomial program given the monomials of ``polys`` in order."""
    program = _MonomialProgram(len(polys[0].vars))
    for p in polys:
        for key in p._terms:
            program[key]
    return program


@st.composite
def xy_polys(draw):
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), max_size=3))
    return MultiPoly(XY, terms)


class TestNonzeroCompositions:
    @given(st.lists(rational_polys(), max_size=6), st.tuples(xy_polys(), xy_polys(), xy_polys()))
    @example([poly3({(1, 1, 0): 1, (0, 0, 1): -1}), poly3({(0, 2, 0): 1})], (symbols(XY)[0], symbols(XY)[1], symbols(XY)[0] * symbols(XY)[1]))
    def test_matches_ring_arithmetic(self, ps, values):
        expected = tuple(i for i, p in enumerate(ps) if composed(p, values))
        assert nonzero_compositions(ps, values) == expected

    def test_cancellation(self):
        u, v, w = symbols(VARS3)
        x, y = symbols(XY)
        # (x + y)^2 - x^2 - 2xy - y^2 vanishes; u*v - w at (x, y, x*y) too
        ps = (u**2 - v**2 - 2 * v * w - w**2, u * v - w, u * v + w, poly3({}), poly3({(0, 0, 0): 5}))
        assert nonzero_compositions(ps, (x + y, x, y)) == (1, 2, 4)
        assert nonzero_compositions(ps, (x, y, x * y)) == (0, 2, 4)

    def test_empty_set(self):
        assert nonzero_compositions((), symbols(XY)) == ()

    def test_empty_ring(self):
        ps = (MultiPoly.constant((), 3), MultiPoly.constant((), 0))
        assert nonzero_compositions(ps, ()) == (0,)

    def test_mixed_rings_rejected(self):
        u, _, _ = symbols(VARS3)
        x, _ = symbols(XY)
        with pytest.raises(ValueError, match="different rings"):
            nonzero_compositions((u, x), symbols(XY) + (x,))

    def test_value_count_checked(self):
        with pytest.raises(ValueError, match="2 values in a ring with 3 variables"):
            nonzero_compositions(symbols(VARS3), symbols(XY))

    def test_ring_program_is_left_alone(self):
        u, v, w = symbols(VARS3)
        x, y = symbols(XY)
        program = _monomial_program(VARS3)
        steps = len(program.parents)
        assert nonzero_compositions((u**3 * v - w, u * v * w**2), (x + y, x, y)) == (0, 1)
        assert _monomial_program(VARS3) is program
        assert len(program.parents) == steps

    def test_slots_are_released_after_their_last_use(self, monkeypatch):
        gens = vanishing_generators(Architecture((3, 3, 3), (2, 2, 1))).generators
        xs = symbols(f"x{i}" for i in range(len(gens[0].vars)))
        values = tuple(x + 1 for x in xs)
        made = []
        live = []
        mul = MultiPoly.__mul__

        def tracking(a, b):
            # a product is live while anything but ``made`` holds it
            live.append(sum(sys.getrefcount(q) > 3 for q in made))
            made.append(mul(a, b))
            return made[-1]

        monkeypatch.setattr(MultiPoly, "__mul__", tracking)
        _monomial_program.cache_clear()
        assert nonzero_compositions(gens, values) == tuple(range(len(gens)))
        by_leading_monomial = sorted(gens, key=lambda g: max(g._terms))
        assert len(made) == len(loaded_program(by_leading_monomial).parents) - 1
        assert max(live) < len(made) / 2
        assert sum(sys.getrefcount(q) > 3 for q in made) == 0


def ladder3():
    """Polynomials of rising degree over VARS3, so that every pull adds
    monomials to the ring's program; the last two are inhomogeneous."""
    u, v, w = symbols(VARS3)
    homogeneous = [u**d * v - Fraction(3, d) * w**(d + 1) + u * v**d for d in range(1, 6)]
    return homogeneous + [u**4 * w**3 - 2 * v + 7, Fraction(1, 3) * v**6 - u + w**2]


class TestMonomialProgram:
    """The per-ring program and the kept point table give the values of
    the term-by-term oracle, whatever the order and type of the calls."""

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
        _monomial_program.cache_clear()
        assert p.evaluate(pt) == fraction_loop_evaluate(p, pt)

    def test_interleaved_iterators_on_one_ring(self):
        ps = ladder3()
        pairs = list(zip(evaluate_many(ps, self.P), evaluate_many(ps, self.Q)))
        assert pairs == [(fraction_loop_evaluate(p, self.P), fraction_loop_evaluate(p, self.Q)) for p in ps]

    def test_interleaved_iterators_on_two_rings(self):
        ps = ladder3()
        x, y = symbols(("x", "y"))
        qs = [x**d - Fraction(1, d) * y**d + x * y for d in range(1, 8)]
        pt = (Fraction(5, 7), -3)
        pairs = list(zip(evaluate_many(ps, self.P), evaluate_many(qs, pt)))
        assert pairs == [
            (fraction_loop_evaluate(p, self.P), fraction_loop_evaluate(q, pt)) for p, q in zip(ps, qs)
        ]

    def test_list_point_mutated_between_calls(self):
        ps = ladder3()
        pt = list(self.P)
        assert list(evaluate_many(ps, pt)) == [fraction_loop_evaluate(p, self.P) for p in ps]
        pt[1] = Fraction(-1, 9)
        assert list(evaluate_many(ps, pt)) == [fraction_loop_evaluate(p, pt) for p in ps]

    def test_equal_points_of_different_types(self):
        ps = ladder3()
        expected = [fraction_loop_evaluate(p, (1, -2, Fraction(1, 2))) for p in ps]
        for pt in [(1, -2, Fraction(1, 2)), (Fraction(1), Fraction(-2), Fraction(1, 2)), (1.0, -2.0, 0.5)]:
            values = [p.evaluate(pt) for p in ps]
            assert values == expected
            assert all(isinstance(v, Fraction) for v in values)

    def test_failed_conversion_leaves_the_table_intact(self):
        ps = ladder3()
        assert list(evaluate_many(ps, self.P)) == [fraction_loop_evaluate(p, self.P) for p in ps]
        with pytest.raises(TypeError):
            list(evaluate_many(ps, (self.P[0], self.P[1], None)))
        assert list(evaluate_many(ps, self.P)) == [fraction_loop_evaluate(p, self.P) for p in ps]
        assert list(evaluate_many(ps, self.Q)) == [fraction_loop_evaluate(p, self.Q) for p in ps]

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
        for pt in (self.P, self.Q, (0, Fraction(1, 4), 0)):
            assert list(evaluate_many(ps, pt)) == [fraction_loop_evaluate(p, pt) for p in ps]


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
        for pt in samples + ambient:
            assert list(evaluate_many(gens, pt)) == [fraction_loop_evaluate(g, pt) for g in gens]
        for pt in samples:
            assert not any(evaluate_many(gens, pt))
        for pt in ambient:
            assert any(evaluate_many(gens, pt))

    def test_equal_point_reuses_program(self, gens):
        _, (pt, _) = self.points()
        _monomial_program.cache_clear()
        values = list(evaluate_many(gens, pt))
        program = _monomial_program(gens[0].vars)
        steps = len(program.parents)
        assert steps == len(program)
        again = list(evaluate_many(gens, tuple(Fraction(x.numerator, x.denominator) for x in pt)))
        assert again == values
        assert len(program.parents) == steps

    def test_point_does_not_outlive_the_call(self, gens):
        class Coordinate(Fraction):
            pass

        _, (pt, _) = self.points()
        pt = [Coordinate(x) for x in pt]
        ref = weakref.ref(pt[0])
        _monomial_program.cache_clear()
        assert list(evaluate_many(gens, pt)) == [fraction_loop_evaluate(g, pt) for g in gens]
        del pt
        gc.collect()
        assert ref() is None

    def test_threads_growing_one_program(self, gens):
        samples, ambient = self.points()
        points = samples + ambient + samples[:1]
        expected = [[fraction_loop_evaluate(g, pt) for g in gens] for pt in points]
        results = {}

        def work(i, barrier):
            barrier.wait()
            if i % 2:
                results[i] = [g.evaluate(points[i]) for g in gens]
            else:
                results[i] = list(evaluate_many(gens, points[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                results.clear()
                _monomial_program.cache_clear()
                _monomial_program(gens[0].vars)  # one fresh program for all threads
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
        _, polys = dedup_generators((ci, det) for _, ci, det in minor_expansion(m, 1))
        assert polys == (A, B)

    @given(small_polys(), st.integers(2, 5))
    def test_dedup_generators_keeps_first_tag(self, f, c):
        zero = MultiPoly(VARS3)
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


def _all_u(rows, cols):
    u = symbols(VARS3)[0]
    return [[u] * cols for _ in range(rows)]


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
        assert str(MultiPoly(A.vars)) == "0"

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
        assert p.leading_term() == (order[0], p.terms[order[0]])
        assert p.total_degree() == sum(order[0])
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

    def test_exponent_255_accepted(self):
        u, v, w = symbols(VARS3)
        assert poly3({(255, 0, 0): 1}) == u**255
        # total degree past 255, every exponent within it
        assert (u**200 * v**100 * w**255).terms == {(200, 100, 255): 1}
        assert ((u + v) ** 255).terms[(128, 127, 0)] > 0
        # a 3x1 matrix: one row per minor, not the sum over its rows
        m = [[u**255], [u**255], [u**255]]
        assert [det for _, _, det in minor_expansion(m, 1)] == [u**255] * 3
