import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest
import sympy

from lcn.arch import Architecture, reduce_arch, sample_neuromanifold
from lcn.cli import main
from lcn.idealgen import vanishing_generators
from lcn.polyring import coefficient_symbols, evaluate_many


def all_vanish(gens, point):
    """Every generator is exactly zero at the ring-ordered point."""
    return not any(next(evaluate_many(gens.generators, [point])))


def radical_generators_5_2():
    """Minimal generators of the radical ideal of ((5,2),(3,1)) (known result)."""
    A, B, C, D, E, F, G, H = coefficient_symbols(8)
    return [
        C * E * G - B * F * G - C * D * H + A * F * H,
        C * E * F - B * F**2 - C**2 * H,
        C * D * F - A * F**2 - C**2 * G,
        B * D * F - A * E * F - B * C * G + A * C * H,
        B * D * E * G - A * E**2 * G - B**2 * G**2 - B * D**2 * H
        + A * D * E * H + 2 * A * B * G * H - A**2 * H**2,
    ]


def radical_generators_3_2_2():
    """Minimal generators of the radical ideal of ((3,2,2),(2,2,1))."""
    A, B, C, D, E, F, G, H, I = coefficient_symbols(9)
    return [
        D * G - C * H,
        D * F - B * H,
        C * F - B * G,
        F * G * H - E * H**2 - F**2 * I + D * H * I,
        B * G * H - A * H**2 - B * F * I,
        D * E * H - A * H**2 - D**2 * I,
        C * E * H - A * G * H - C * D * I,
        B * E * H - A * F * H - B * D * I,
        B * C * H - A * D * H - B**2 * I,
        C * E * G - A * G**2 - C**2 * I,
        B * E * G - A * F * G - B * C * I,
        B * E * F - A * F**2 - B**2 * I,
        B * C * D - A * D**2 - B**2 * E + A * B * F,
    ]


class TestGoldenIdeals:
    def test_2_2(self):
        gens = vanishing_generators(Architecture((2, 2), (2, 1)))
        assert [g.text() for g in gens.generators] == ["A*D - B*C"]

    def test_single_layer_zero_ideal(self):
        gens = vanishing_generators(Architecture((4,), (1,)))
        assert gens.generators == ()
        assert gens.variables == ("c0", "c1", "c2", "c3")

    def test_3_layer_counts(self):
        gens = vanishing_generators(Architecture((3, 2, 2), (2, 2, 1)))
        assert dict(gens.raw_counts) == {
            "merge(1,2)->two_layer(5,2;4):I1": 35,
            "base(3,4;2):I1": 10,
        }
        assert sum(n for _, n in gens.raw_counts) == 45
        branch_a = [p for p in gens.provenance if p.startswith("merge(1,2)->")]
        branch_b = [p for p in gens.provenance if p.startswith("base(")]
        assert len(branch_a) + len(branch_b) == len(gens.generators)

    def test_3_layer_minors_match_sympy(self):
        # independent oracle: rebuild both branch matrices in sympy and
        # compare the emitted minor sets up to sign
        syms = sympy.symbols("A B C D E F G H I")
        A, B, C, D, E, F, G, H, I = syms

        def canon(expr):
            poly = sympy.Poly(sympy.expand(expr), *syms)
            terms = sorted((e, c) for e, c in poly.terms() if c != 0)
            if not terms:
                return None
            lead = max(terms, key=lambda t: (sum(t[0]), t[0]))
            if lead[1] < 0:
                terms = [(e, -c) for e, c in terms]
            return tuple((e, int(c)) for e, c in terms)

        m_a = sympy.Matrix(
            [
                [A, E, I],
                [D, H, 0],
                [0, D, H],
                [C, G, 0],
                [0, C, G],
                [B, F, 0],
                [0, B, F],
            ]
        )
        m_b = sympy.Matrix(
            [[A, C, E, G, I], [B, D, F, H, 0], [0, B, D, F, H]]
        )
        expected = set()
        import itertools

        for rows in itertools.combinations(range(7), 3):
            key = canon(m_a[rows, :].det())
            if key is not None:
                expected.add(key)
        for cols in itertools.combinations(range(5), 3):
            key = canon(m_b[:, cols].det())
            if key is not None:
                expected.add(key)

        gens = vanishing_generators(Architecture((3, 2, 2), (2, 2, 1)))
        ours = set()
        for g in gens.generators:
            fingerprints = sorted(g.terms.items())
            lead = max(fingerprints, key=lambda t: (sum(t[0]), t[0]))
            assert lead[1] > 0  # emitted generators are sign-normalized
            ours.add(tuple((e, int(c)) for e, c in fingerprints))
        assert ours == expected

    @pytest.mark.parametrize(
        "ks,ss,count,raw_counts",
        [
            (
                (2, 2, 2, 2),
                (2, 2, 2, 1),
                68,
                (
                    ("merge(1,2)->merge(1,2)->two_layer(8,2;8):I1", 28),
                    ("merge(1,2)->base(4,4;4):I1", 36),
                    ("base(2,8;2):I1", 28),
                ),
            ),
            (
                (2, 2, 2, 2, 2),
                (2, 2, 2, 2, 1),
                392,
                (
                    ("merge(1,2)->merge(1,2)->merge(1,2)->two_layer(16,2;16):I1", 120),
                    ("merge(1,2)->merge(1,2)->base(8,4;8):I1", 168),
                    ("merge(1,2)->base(4,8;4):I1", 168),
                    ("base(2,16;2):I1", 120),
                ),
            ),
        ],
        ids=["depth4", "depth5"],
    )
    def test_deep_raw_counts_in_order(self, ks, ss, count, raw_counts):
        gens = vanishing_generators(Architecture(ks, ss))
        assert len(gens.generators) == count
        assert gens.raw_counts == raw_counts

    def test_deeper_recursion_runs(self):
        gens = vanishing_generators(Architecture((2, 2, 2, 2), (2, 2, 2, 1)))
        assert gens.generators
        assert any(p.startswith("merge(1,2)->merge(1,2)->") for p in gens.provenance)


class TestMembership:
    def test_parametrized_point_is_member(self):
        arch = Architecture((3, 2, 2), (2, 2, 1))
        gens = vanishing_generators(arch)
        _, w = sample_neuromanifold(arch, 77)
        assert all_vanish(gens, w)

    def test_generic_point_is_not(self):
        arch = Architecture((3, 2, 2), (2, 2, 1))
        gens = vanishing_generators(arch)
        rng = random.Random(3)
        pt = [Fraction(rng.randint(1, 40), rng.randint(1, 9)) for _ in range(9)]
        assert not all_vanish(gens, pt)

    def test_origin_is_member(self):
        arch = Architecture((3, 2, 2), (2, 2, 1))
        gens = vanishing_generators(arch)
        assert all_vanish(gens, [0] * 9)

    def test_dimension_mismatch(self):
        gens = vanishing_generators(Architecture((2, 2), (2, 1)))
        with pytest.raises(ValueError):
            all_vanish(gens, [1, 2, 3])


class TestRadicalCrossCheck:
    @pytest.mark.parametrize(
        "arch,radical",
        [
            (Architecture((5, 2), (3, 1)), radical_generators_5_2()),
            (Architecture((3, 2, 2), (2, 2, 1)), radical_generators_3_2_2()),
        ],
        ids=["5_2", "3_2_2"],
    )
    def test_radical_vanishes_with_ours(self, arch, radical):
        gens = vanishing_generators(arch)
        rng = random.Random(55)
        samples = [sample_neuromanifold(arch, rng.randrange(2**62))[1] for _ in range(1000)]
        for polys in (gens.generators, radical):
            assert not any(map(any, evaluate_many(polys, samples)))


class TestReductionInvariance:
    def test_shared_samples_agree(self):
        arch = Architecture((2, 2, 2), (1, 2, 1))
        reduced = reduce_arch(arch)
        assert reduced == Architecture((3, 2), (2, 1))
        gens_raw = vanishing_generators(arch)
        gens_red = vanishing_generators(reduced)
        assert [g.text() for g in gens_raw.generators] == [g.text() for g in gens_red.generators]
        for seed in range(100):
            _, w = sample_neuromanifold(arch, seed)
            assert all_vanish(gens_red, w)

    def test_unit_filter_merge_keeps_samples_inside(self):
        # an interior size-1 layer merges exactly into its predecessor;
        # samples of the original satisfy the reduced architecture's generators
        arch = Architecture((2, 1, 2), (2, 3, 1))
        gens_red = vanishing_generators(reduce_arch(arch))
        for seed in range(50):
            _, w = sample_neuromanifold(arch, seed)
            assert all_vanish(gens_red, w)


# Every depth-2 and depth-3 architecture with sizes and strides 1..3 (last
# stride 1), then deeper, size-1 and one-layer cases.
SWEEP = [
    Architecture(sizes, strides + (1,))
    for depth in (2, 3)
    for sizes in product(range(1, 4), repeat=depth)
    for strides in product(range(1, 4), repeat=depth - 1)
] + [
    Architecture((3, 3, 3, 3), (2, 2, 2, 1)),
    Architecture((2, 2, 2, 2, 2), (2, 2, 2, 2, 1)),
    Architecture((1, 2, 2, 2), (2, 2, 2, 1)),
    Architecture((2, 1, 2, 2), (3, 2, 2, 1)),
    Architecture((4,), (2,)),
    Architecture((1, 1, 1), (2, 2, 1)),
]


def test_sweep_digest_is_pinned():
    # SHA-256 of variables, provenance, generator text and raw counts over
    # the sweep; a change to any generator, label or count shows here
    digest = hashlib.sha256()
    for arch in SWEEP:
        gens = vanishing_generators(arch)
        texts = [g.text() for g in gens.generators]
        digest.update(repr((gens.variables, gens.provenance, texts, gens.raw_counts)).encode())
    assert len(SWEEP) == 276
    assert digest.hexdigest() == "135ed5873f749612d7118fb591bfa22882b9078695a2091111c1250a68370075"


@pytest.mark.parametrize("provenance", [False, True])
def test_streamed_stdout_matches_collected_generators(capsys, provenance):
    # lcn ideal deduplicates on each printed line, vanishing_generators on the
    # polynomial: the two identities must keep the same generators
    for arch in SWEEP:
        gens = vanishing_generators(arch)
        lines = [g.text() for g in gens.generators]
        if provenance:
            lines = [f"{line}\t# {prov}" for line, prov in zip(lines, gens.provenance)]
        argv = ["ideal", "-k", ",".join(map(str, arch.filter_sizes)), "-s", ",".join(map(str, arch.strides))]
        assert main(argv + ["--provenance"] * provenance) == 0
        out, err = capsys.readouterr()
        assert out == "".join(line + "\n" for line in lines), arch
        assert (err == "") == bool(lines), arch
