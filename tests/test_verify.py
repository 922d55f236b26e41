import random
from fractions import Fraction
from itertools import product
from math import lcm
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, strategies as st

import lcn.verify
from lcn.arch import Architecture, compose_filters, reduce_arch, sample_neuromanifold
from lcn.idealgen import merge_levels, vanishing_generators
from lcn.polyring import MultiPoly, coefficient_symbols, evaluate_many
from lcn.resultant import two_layer_resultants
from lcn.verify import (
    exact_rank,
    nonfactoring_matrices,
    parametrization_jacobian,
    smoke_nonmembership,
    symbolic_filter,
    verify_ideal,
)

from test_acceptance import cached_generators, reduced_family
from test_idealgen import radical_generators_3_2_2, radical_generators_5_2
from test_polyring import composed, loaded_program, recorded_programs
import variety_oracle


def small_architectures() -> list:
    """Depth 2-3, sizes and strides 1-3, last stride 1: size-1 layers at
    every position and stride."""
    return [
        Architecture(ks, ss + (1,))
        for depth in (2, 3)
        for ks in product((1, 2, 3), repeat=depth)
        for ss in product((1, 2, 3), repeat=depth - 1)
    ]


# The architectures of the benchmark's verify operations.
BENCHMARK_ARCHITECTURES = [
    Architecture((5, 3, 2), (2, 2, 1)),
    Architecture((3, 3, 3), (2, 2, 1)),
    Architecture((5, 5), (2, 1)),
    Architecture((4, 3), (3, 1)),
    Architecture((3, 2, 2), (2, 2, 1)),
]


def flagged(polys, arch) -> tuple:
    """Indices of the ``polys`` whose composition with ``arch``'s symbolic
    filter is not the zero polynomial: the per-generator membership proof,
    kept as the oracle of the per-matrix one."""
    phi = symbolic_filter(arch)
    return tuple(i for i, p in enumerate(polys) if composed(p, phi))


def proved(arch) -> bool:
    """Every level matrix of ``arch``'s reduction factors at its filter."""
    reduced = reduce_arch(arch)
    return nonfactoring_matrices(reduced, symbolic_filter(reduced)) == ()


def perturbed(phi: list, i: int) -> list:
    """``phi`` with ``t0^deg`` added to entry ``i``, ``deg`` the degree of
    every nonzero entry (the depth)."""
    t0 = MultiPoly.variable(phi[0].vars, "t0")
    out = list(phi)
    out[i] = out[i] + t0 ** max(e.total_degree() for e in phi)
    return out


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

    def test_agrees_with_the_oracle(self):
        # low-rank products and sparse entries, where elimination order matters
        rng = random.Random(5)
        for _ in range(200):
            n, m, r = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 4)
            left = [[rng.choice((0, 0, 1, -2, Fraction(1, 3))) for _ in range(r)] for _ in range(n)]
            right = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(r)]
            rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] or [0] * m for row in left]
            assert exact_rank(rows) == variety_oracle.exact_rank(rows), rows

    @pytest.mark.parametrize("fractions", [False, True], ids=["int", "Fraction"])
    def test_agrees_with_sympy(self, fractions):
        # products of a random n x r and r x m factor, so the rank is often
        # below min(n, m); entries up to 2^40 make Bareiss' divisions matter
        rng = random.Random(11)

        def entry(bound):
            v = rng.choice((0, rng.randint(-bound, bound)))
            return Fraction(v, rng.randint(1, 30)) if fractions else v

        deficient = 0
        for _ in range(150):
            n, m, r = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 6)
            bound = rng.choice((3, 2**40))
            left = [[entry(bound) for _ in range(r)] for _ in range(n)]
            right = [[entry(bound) for _ in range(m)] for _ in range(r)]
            rows = [[sum((a * b for a, b in zip(row, col)), 0) for col in zip(*right)] or [0] * m for row in left]
            rank = sympy.Matrix(rows).rank()
            assert exact_rank(rows) == rank, rows
            deficient += rank < min(n, m)
        assert deficient >= 40


class TestJacobian:
    def test_rank_matches_dimension(self):
        arch = Architecture((5, 2), (3, 1))
        layers, _ = sample_neuromanifold(arch, 5)
        J = parametrization_jacobian(arch, layers)
        assert (len(J), len(J[0])) == (8, 7)
        assert exact_rank(J) == 6

    def test_single_layer_identity(self):
        arch = Architecture((4,), (1,))
        layers, _ = sample_neuromanifold(arch, 1)
        J = parametrization_jacobian(arch, layers)
        assert J == tuple(tuple(int(i == j) for j in range(4)) for i in range(4))

    def test_exact_entries(self):
        arch = Architecture((2, 2), (2, 1))
        layers = [(Fraction(1, 3), 2), (Fraction(-1, 2), 5)]
        # w = (a0 b0, a1 b0, a0 b1, a1 b1), columns a0, a1, b0, b1
        assert parametrization_jacobian(arch, layers) == (
            (Fraction(-1, 2), 0, Fraction(1, 3), 0),
            (0, Fraction(-1, 2), 2, 0),
            (5, 0, 0, Fraction(1, 3)),
            (0, 5, 0, 2),
        )


# Small architectures of the integer-point property, two and three layers.
POINT_ARCHITECTURES = [
    Architecture((2, 2), (2, 1)),
    Architecture((3, 2), (2, 1)),
    Architecture((5, 2), (3, 1)),
    Architecture((1, 3), (2, 1)),
    Architecture((3, 2, 2), (2, 2, 1)),
]
small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


class TestIntegerPremises:
    """Why ``verify`` may draw integer points and clear the Jacobian sample:
    the generators are homogeneous and the parametrization is multilinear."""

    def test_generators_are_homogeneous(self):
        archs = small_architectures() + BENCHMARK_ARCHITECTURES
        for arch in archs:
            for g in cached_generators(arch).generators:
                assert len({sum(exps) for exps in g.terms}) == 1, (arch, g)

    @given(st.sampled_from(POINT_ARCHITECTURES), st.booleans(), st.data())
    def test_rational_point_and_its_clearing_agree(self, arch, on_image, data):
        # a degree-D generator's value at the cleared point is L^D times its
        # value at the rational one, so the two vanish together; on the
        # image every generator vanishes at both
        gens = cached_generators(arch).generators
        if on_image:
            layers = [data.draw(st.lists(small_fractions, min_size=k, max_size=k)) for k in arch.filter_sizes]
            point = list(compose_filters(arch, layers))
        else:
            point = data.draw(st.lists(small_fractions, min_size=arch.out_size, max_size=arch.out_size))
        scale = lcm(*[Fraction(x).denominator for x in point])
        cleared = [int(x * scale) for x in point]
        rational, integer = map(list, evaluate_many(gens, [point, cleared]))
        assert integer == [scale ** g.total_degree() * v for g, v in zip(gens, rational)]
        assert any(rational) == any(integer)
        assert not (on_image and any(integer))

    def test_jacobian_rank_ignores_layer_scaling(self):
        # column block l of the Jacobian is scaled by the product of the
        # other layers' factors, a nonzero constant
        rng = random.Random(7)
        for arch in small_architectures():
            layers, _ = sample_neuromanifold(arch, rng.randrange(2**62))
            rank = exact_rank(parametrization_jacobian(arch, layers))
            assert rank == variety_oracle.exact_rank(parametrization_jacobian(arch, layers)), arch
            for scales in (
                [lcm(*[v.denominator for v in w]) for w in layers],
                [rng.choice((-1, 1)) * rng.randint(1, 10**6) for _ in layers],
            ):
                scaled = [[c * v for v in w] for c, w in zip(scales, layers)]
                assert exact_rank(parametrization_jacobian(arch, scaled)) == rank, (arch, scales)


class TestSymbolicFilter:
    def test_two_layer_with_a_gap(self):
        # stride 3 leaves entry 2 of the composed filter at zero
        phi = symbolic_filter(Architecture((2, 2), (3, 1)))
        t0, t1, t2, t3 = (MultiPoly.variable(phi[0].vars, f"t{i}") for i in range(4))
        assert phi == [t0 * t2, t1 * t2, MultiPoly.constant(phi[0].vars, 0), t0 * t3, t1 * t3]

    def test_one_symbol_per_layer_entry(self):
        arch = Architecture((2, 2, 2), (1, 2, 1))
        phi = symbolic_filter(arch)
        assert len(phi) == arch.out_size
        assert phi[0].vars == tuple(f"t{i}" for i in range(6))


class TestProof:
    ARCH = Architecture((5, 3, 2), (2, 2, 1))

    def test_negative_control(self):
        g = cached_generators(self.ARCH).generators
        c = coefficient_symbols(len(g[0].vars))
        one = MultiPoly.constant(g[0].vars, 1)
        polys = (g[0] + c[0] * c[3], one, g[5] * c[1], g[7] - g[8])
        assert flagged(polys, self.ARCH) == (0, 1)

    def test_small_architectures_agree_with_the_oracle(self):
        # the oracle composes on the typed parametrization, whose image lies
        # inside that of the reduction the matrices come from
        for arch in small_architectures():
            assert proved(arch), arch
            assert flagged(vanishing_generators(arch).generators, arch) == (), arch

    @pytest.mark.parametrize("arch", BENCHMARK_ARCHITECTURES, ids=Architecture.describe)
    def test_benchmark_architectures_agree_with_the_oracle(self, arch):
        assert proved(arch)
        assert flagged(cached_generators(arch).generators, arch) == ()

    def test_family_is_proved(self):
        for arch in reduced_family():
            assert proved(arch), arch

    def test_radical_generators_are_proved(self):
        assert flagged(radical_generators_5_2(), Architecture((5, 2), (3, 1))) == ()
        assert flagged(radical_generators_3_2_2(), Architecture((3, 2, 2), (2, 2, 1))) == ()

    def test_unreduced_on_its_own_parametrization(self):
        raw = Architecture((2, 2, 2), (1, 2, 1))
        gens = vanishing_generators(raw)
        assert gens.generators == vanishing_generators(reduce_arch(raw)).generators
        assert flagged(gens.generators, raw) == ()
        assert proved(raw)

    def test_one_perturbed_generator_is_flagged_at_its_index(self):
        # the oracle's own control: g + c0^deg(g) composes to
        # c0(phi)^deg(g), a nonzero monomial, so exactly the perturbed
        # generator is flagged, on every small architecture with generators
        rng = random.Random(0)
        checked = 0
        for arch in small_architectures():
            gens = list(vanishing_generators(arch).generators)
            if not gens:
                continue
            i = rng.randrange(len(gens))
            c0 = coefficient_symbols(len(gens[i].vars))[0]
            gens[i] = gens[i] + c0 ** gens[i].total_degree()
            assert flagged(gens, arch) == (i,), (arch, i)
            checked += 1
        assert checked == 192

    def test_a_larger_image_flags_every_generator(self):
        # all filters of size 8 are the image of one layer of size 8
        gens = cached_generators(Architecture((5, 2), (3, 1))).generators
        assert flagged(gens, Architecture((8,), (1,))) == tuple(range(len(gens)))

    @pytest.mark.parametrize(
        "arch", BENCHMARK_ARCHITECTURES + [Architecture((2, 2), (3, 1))], ids=Architecture.describe
    )
    def test_perturbed_filter_entry_breaks_the_matrices_holding_it(self, arch):
        # a matrix built from the perturbed filter differs from M H exactly
        # where its generic rows hold that entry; labels are raw_counts'
        phi = symbolic_filter(arch)
        c = coefficient_symbols(len(phi))
        matrices = [
            rows for _, k1, k2, s1 in reversed(merge_levels(arch))
            for _, _, _, rows in two_layer_resultants(k1, k2, s1, c)
        ]
        labels = [label for label, _ in cached_generators(arch).raw_counts]
        assert len(labels) == len(matrices)
        for i in range(len(phi)):
            holding = tuple(
                label for label, rows in zip(labels, matrices) if any(c[i] in row for row in rows)
            )
            assert holding, i
            assert nonfactoring_matrices(arch, perturbed(phi, i)) == holding, i

    def test_blind_entries_are_in_no_generator(self):
        # (1,3)/(3,1) has one matrix, with rows for the slots off the
        # multiples of 3 only: entries 0, 3 and 6 are in no generator, so
        # the generators still vanish once those entries are perturbed
        arch = Architecture((1, 3), (3, 1))
        phi = symbolic_filter(arch)
        gens = cached_generators(arch).generators
        for i in range(len(phi)):
            in_a_generator = any(exps[i] for g in gens for exps in g.terms)
            blind = i in (0, 3, 6)
            assert in_a_generator != blind, i
            assert nonfactoring_matrices(arch, perturbed(phi, i)) == (() if blind else ("two_layer(1,3;3):I1",)), i


class TestVerifyIdeal:
    def test_5_2(self):
        report = verify_ideal(Architecture((5, 2), (3, 1)), n_samples=100, seed=0)
        assert report.failures == ()
        assert report.jacobian_rank == 6
        assert report.expected_dim == 6
        assert report.generators_tested == 5
        assert report.samples_tested == 100
        assert report.nonmember_violations == 100
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
        assert r1.nonmember_violations == r2.nonmember_violations == 40

    @pytest.mark.parametrize(
        "sizes,strides,rank,expected",
        [
            # a leading size-1 layer at stride 2 stays, an interior one at
            # stride 3 merges into its predecessor
            ((1, 3), (2, 1), 3, 3),
            ((2, 1, 2), (2, 3, 1), 3, 3),
            # stride-1 merges and trailing size-1 layers keep the dimension
            ((2, 2, 2), (1, 2, 1), 4, 4),
            ((2, 2, 1), (2, 3, 1), 3, 3),
            ((3, 1), (2, 1), 3, 3),
            ((6,), (1,), 6, 6),
        ],
    )
    def test_expected_dimension_is_the_reduced_variety(self, sizes, strides, rank, expected):
        report = verify_ideal(Architecture(sizes, strides), n_samples=10, seed=0)
        assert report.failures == ()
        assert (report.jacobian_rank, report.expected_dim) == (rank, expected)
        assert report.ok == (rank == expected)

    def test_every_small_architecture_verifies(self):
        archs = small_architectures()
        assert len(archs) == 270
        assert [a.describe() for a in archs if not verify_ideal(a, 10).ok] == []

    def test_ring_program_holds_only_the_evaluated_generator(self, monkeypatch):
        # each random point violates the first generator, so the smoke
        # test's one program holds the monomials of no other; the proof
        # makes no program
        arch = Architecture((5, 3, 2), (2, 2, 1))
        programs = recorded_programs(monkeypatch)
        assert verify_ideal(arch, 30, 1).ok
        first = cached_generators(arch).generators[:1]
        assert len(programs) == 1
        assert programs[0].parents == loaded_program(first).parents

    def test_failures_name_the_matrix(self, monkeypatch):
        # a perturbed filter entry breaks the factorization of the matrices
        # that hold it, named as in raw_counts
        cases = [
            # entry 2 is in the bottom slot, which only I1 uses
            ((5, 2), (3, 1), 2, ("two_layer(5,2;3):I1",)),
            ((5, 2), (3, 1), 0, ("two_layer(5,2;3):I1", "two_layer(5,2;3):I2")),
            ((5, 3, 2), (2, 2, 1), 3, ("merge(1,2)->two_layer(9,2;4):I1", "base(5,5;2):I1")),
        ]
        original = lcn.verify.symbolic_filter
        for sizes, strides, entry, labels in cases:
            monkeypatch.setattr(lcn.verify, "symbolic_filter", lambda arch, entry=entry: perturbed(original(arch), entry))
            arch = Architecture(sizes, strides)
            gens = cached_generators(arch)
            report = verify_ideal(arch, n_samples=4, seed=0)
            assert report.failures == labels
            assert set(labels) <= {label for label, _ in gens.raw_counts}
            assert report.generators_tested == len(gens.generators)
            assert not report.ok

    def test_jacobian_sample_is_the_cleared_neuromanifold_sample(self, monkeypatch):
        # each layer of the sample times the lcm of its denominators: ints
        arch = Architecture((5, 3, 2), (2, 2, 1))
        seen = []
        monkeypatch.setattr(
            lcn.verify, "parametrization_jacobian",
            lambda arch, layers: seen.append(layers) or parametrization_jacobian(arch, layers),
        )
        assert verify_ideal(arch, n_samples=3, seed=4).jacobian_rank == 8
        layers, _ = sample_neuromanifold(arch, random.Random(4).randrange(2**62))
        assert seen == [[[v * lcm(*[u.denominator for u in w]) for v in w] for w in layers]]
        assert all(type(v) is int for w in seen[0] for v in w)

    def test_low_rank_sample_is_retried_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(lcn.verify, "exact_rank", lambda rows: calls.append(rows) or 2)
        report = verify_ideal(Architecture((5, 2), (3, 1)), n_samples=3, seed=0)
        assert len(calls) == 2
        assert calls[0] != calls[1]
        assert (report.jacobian_rank, report.expected_dim) == (2, 6)
        assert not report.ok

    def test_nonmembership_shortfall_is_not_ok(self, monkeypatch):
        monkeypatch.setattr(lcn.verify, "smoke_nonmembership", lambda gens, n, seed: n - 1)
        report = verify_ideal(Architecture((2, 2), (2, 1)), n_samples=7, seed=0)
        assert report.nonmember_violations == 6
        assert not report.ok

    @pytest.mark.parametrize(
        "n, match",
        [(-3, "samples must be at least 1, got -3"), (0, "at least 1"),
         (True, "samples must be integers"), (2.5, "samples must be integers")],
    )
    def test_sample_count_checked(self, n, match):
        with pytest.raises(ValueError, match=match):
            verify_ideal(Architecture((3, 2), (2, 1)), n_samples=n)

    def test_integral_sample_count_is_an_int(self):
        report = verify_ideal(Architecture((3, 2), (2, 1)), n_samples=3.0)
        assert type(report.samples_tested) is int
        assert report.nonmember_violations == report.samples_tested == 3


class TestSmoke:
    def test_two_layer(self):
        gens = vanishing_generators(Architecture((2, 2), (2, 1)))
        assert smoke_nonmembership(gens, 20, seed=0) == 20

    def test_three_layer(self):
        gens = vanishing_generators(Architecture((3, 2, 2), (2, 2, 1)))
        assert smoke_nonmembership(gens, 20, seed=0) == 20

    @staticmethod
    def drawn(monkeypatch, gens, n, seed) -> tuple:
        """The return value of ``smoke_nonmembership`` and its points."""
        seen = []

        def recording(polys, points):
            seen.append([list(p) for p in points])
            return evaluate_many(polys, seen[-1])

        monkeypatch.setattr(lcn.verify, "evaluate_many", recording)
        count = smoke_nonmembership(gens, n, seed)
        return count, seen[0]

    def test_points_are_nonzero_ints_within_the_bound(self, monkeypatch):
        gens = cached_generators(Architecture((5, 3, 2), (2, 2, 1)))
        count, points = self.drawn(monkeypatch, gens, 100, 3)
        assert count == 100
        assert len(points) == 100
        coords = [x for p in points for x in p]
        assert all(len(p) == 13 for p in points)
        assert all(type(x) is int and 0 < abs(x) <= 2**20 for x in coords)
        # both signs and the top half of the range are drawn
        assert min(coords) < -(2**19) and max(coords) > 2**19

    def test_each_coordinate_is_one_21_bit_draw(self, monkeypatch):
        # low 20 bits plus 1 are the size, the top bit the sign: the four
        # corners of the word give both ends of both halves of ±[1, 2^20]
        words = iter([0, 2**20 - 1, 2**20, 2**21 - 1] * 2)

        class Words(random.Random):
            def getrandbits(self, n):
                assert n == 21
                return next(words)

        monkeypatch.setattr(lcn.verify, "random", SimpleNamespace(Random=Words))
        gens = vanishing_generators(Architecture((2, 2), (2, 1)))
        _, points = self.drawn(monkeypatch, gens, 2, 0)
        assert points == [[1, 2**20, -1, -(2**20)]] * 2

    def test_same_seed_same_points(self, monkeypatch):
        gens = vanishing_generators(Architecture((3, 2, 2), (2, 2, 1)))
        first = self.drawn(monkeypatch, gens, 20, 5)
        assert self.drawn(monkeypatch, gens, 20, 5) == first
        assert self.drawn(monkeypatch, gens, 20, 6)[1] != first[1]

    def test_single_layer_has_nothing_to_violate(self):
        with pytest.raises(ValueError):
            smoke_nonmembership(vanishing_generators(Architecture((4,), (1,))), 5, seed=0)

    @pytest.mark.parametrize(
        "n, match",
        [(True, "trials must be integers"), (1.5, "trials must be integers"),
         (0, "trials must be at least 1, got 0"), (-2, "at least 1")],
    )
    def test_trial_count_checked(self, n, match):
        gens = vanishing_generators(Architecture((2, 2), (2, 1)))
        with pytest.raises(ValueError, match=match):
            smoke_nonmembership(gens, n)
