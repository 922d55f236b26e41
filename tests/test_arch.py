import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lcn.arch import Architecture, compose_filters, reduce_arch, sample_neuromanifold
from lcn.polyring import MultiPoly

from filter_oracle import conv_matrix, pi_s


def frac_matmul(a, b):
    """Exact matrix product on nested lists (test oracle)."""
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner
    return [
        [sum(Fraction(a[i][t]) * Fraction(b[t][j]) for t in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


arch_strategy = st.builds(
    lambda ks, ss: Architecture(tuple(ks), tuple(ss[: len(ks)])),
    st.lists(st.integers(1, 5), min_size=1, max_size=4),
    st.lists(st.integers(1, 4), min_size=4, max_size=4),
)


class TestArchitecture:
    def test_two_layer(self):
        a = Architecture((2, 2), (2, 1))
        assert a.out_size == 4
        assert a.dilations == (1, 2)

    def test_three_layer(self):
        a = Architecture((3, 2, 2), (2, 2, 1))
        assert a.out_size == 9
        assert a.dilations == (1, 2, 4)

    def test_single_layer(self):
        a = Architecture((5,), (1,))
        assert a.out_size == 5

    def test_last_stride_normalized(self):
        a = Architecture((2, 2), (2, 7))
        assert a.strides == (2, 7)

    def test_nonpositive_entries(self):
        with pytest.raises(ValueError):
            Architecture((2, 0), (2, 1))
        with pytest.raises(ValueError):
            Architecture((2, 2), (0, 1))

    @pytest.mark.parametrize(
        "ks,ss",
        [
            ((2.5, 2), (2, 1)),
            ((2, 2), (2, 1.5)),
            ((float("inf"), 2), (2, 1)),
            ((2, 2), (float("inf"), 1)),
            ((float("nan"), 2), (2, 1)),
            ((2, 2), (2, float("nan"))),
            # True is not the size or stride 1
            ((True, 2), (2, 1)),
            ((2, 2), (2, True)),
            ((np.True_, 2), (2, 1)),
            ((2, 3), (np.bool_(True), 1)),
        ],
    )
    def test_non_integral_entries_rejected(self, ks, ss):
        with pytest.raises(ValueError, match="integers"):
            Architecture(ks, ss)

    def test_integral_numbers_accepted(self):
        a = Architecture((np.int64(3), 2.0), (np.int32(2), 1))
        assert a == Architecture((3, 2), (2, 1))
        assert all(type(v) is int for v in a.filter_sizes + a.strides)

    def test_record_is_immutable(self):
        a = Architecture((2, 2), (2, 1))
        with pytest.raises(AttributeError):
            a.filter_sizes = (3, 3)
        with pytest.raises(AttributeError):
            a.strides = (1, 1)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a.filter_sizes == (2, 2) and a.strides == (2, 1)

    def test_equal_records_compare_and_hash_equal(self):
        a, b = Architecture((3, 2), (2, 1)), Architecture([3, 2], [2.0, 1])
        assert a == b and hash(a) == hash(b)
        assert a != Architecture((3, 2), (2, 2))
        assert {a: "first", b: "second"} == {Architecture((3, 2), (2, 1)): "second"}
        assert Architecture(filter_sizes=(3, 2), strides=(2, 1)) == a
        assert repr(a) == "Architecture(filter_sizes=(3, 2), strides=(2, 1))"

    def test_list_arguments_are_stored_as_tuples(self):
        a = Architecture([3, 2], [2, 1])
        assert type(a.filter_sizes) is tuple and type(a.strides) is tuple
        assert a.filter_sizes == (3, 2) and a.strides == (2, 1)

    @given(arch_strategy)
    def test_out_size_formula(self, arch):
        dil = arch.dilations
        expected = arch.filter_sizes[0] + sum(
            (k - 1) * d for k, d in zip(arch.filter_sizes[1:], dil[1:])
        )
        assert arch.out_size == expected

    def test_out_size_matches_composition_on_200_archs(self):
        rng = random.Random(200)
        for _ in range(200):
            depth = rng.randint(1, 4)
            arch = Architecture(
                tuple(rng.randint(1, 5) for _ in range(depth)),
                tuple(rng.randint(1, 4) for _ in range(depth)),
            )
            layers = [
                tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k))
                for k in arch.filter_sizes
            ]
            assert len(compose_filters(arch, layers)) == arch.out_size


class TestMerged:
    ARCH = Architecture((2, 3, 4), (2, 2, 1))

    def test_merges_each_layer_with_the_next(self):
        assert self.ARCH.merged(0) == Architecture((6, 4), (4, 1))
        assert self.ARCH.merged(1) == Architecture((2, 9), (2, 2))

    # -3 would wrap to layer 0, -1 would merge the last layer with nothing,
    # and 2 is past the last pair of layers
    @pytest.mark.parametrize("i", [-3, -1, 2], ids=["wraps", "last-layer", "past-the-end"])
    def test_index_outside_the_layer_pairs_rejected(self, i):
        with pytest.raises(ValueError, match=f"layer {i} "):
            self.ARCH.merged(i)


class TestReduce:
    def test_unit_stride_merge(self):
        assert reduce_arch(Architecture((2, 2, 2), (1, 2, 1))) == Architecture((3, 2), (2, 1))

    def test_fixpoint(self):
        a = Architecture((3, 2), (2, 1))
        assert reduce_arch(a) == a

    def test_unit_size_merge(self):
        # a size-1 first layer at stride 5 spaces its successor's filter: kept
        a = Architecture((1, 3), (5, 1))
        assert reduce_arch(a) == a
        # at stride 1 it is a scalar of the successor's filter
        assert reduce_arch(Architecture((1, 3), (1, 1))) == Architecture((3,), (1,))
        # an interior size-1 layer merges into its predecessor
        assert reduce_arch(Architecture((2, 1, 2), (2, 3, 1))) == Architecture((2, 2), (6, 1))

    def test_trailing_unit_size(self):
        assert reduce_arch(Architecture((3, 1), (2, 1))) == Architecture((3,), (2,))

    @given(arch_strategy)
    def test_reduced_and_size_preserving(self, arch):
        red = reduce_arch(arch)
        assert red.out_size == arch.out_size
        assert red.stride_product == arch.stride_product
        assert reduce_arch(red) == red
        assert all(s > 1 for s in red.strides[:-1])
        assert all(k > 1 for k in red.filter_sizes[1:])


class TestPiS:
    def test_stride_two(self):
        assert pi_s((3, 5), 2) == MultiPoly(("x", "y"), {(2, 0): 3, (0, 2): 5})

    def test_constant(self):
        assert pi_s((1,), 4) == MultiPoly.constant(("x", "y"), 1)

    def test_dense_quadratic(self):
        p = pi_s((1, 2, 3), 1)
        assert p == MultiPoly(("x", "y"), {(2, 0): 1, (1, 1): 2, (0, 2): 3})

    def test_injective_on_random_filters(self):
        rng = random.Random(3)
        seen = set()
        for _ in range(50):
            w = tuple(rng.randint(-5, 5) for _ in range(4))
            seen.add((w, pi_s(w, 3)))
        assert len({p for _, p in seen}) == len({w for w, _ in seen})


class TestCompose:
    def test_two_layer_pattern(self):
        a = Architecture((2, 2), (2, 1))
        w1, w2 = (Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))
        # (w2[0] w1[0], w2[0] w1[1], w2[1] w1[0], w2[1] w1[1])
        assert compose_filters(a, [w1, w2]) == (3, 6, 4, 8)

    def test_neutral_layer(self):
        a = Architecture((3, 2), (2, 1))
        w = compose_filters(a, [(5, -1, 2), (1, 0)])
        assert w == (5, -1, 2, 0, 0)

    def test_known_expansion(self):
        # (x^2 + y^2)(x^2 + x y + y^2) = x^4 + x^3 y + 2 x^2 y^2 + x y^3 + y^4
        a = Architecture((3, 2), (2, 1))
        assert compose_filters(a, [(1, 1, 1), (1, 1)]) == (1, 1, 2, 1, 1)

    def test_length_mismatch(self):
        a = Architecture((2, 2), (2, 1))
        with pytest.raises(ValueError):
            compose_filters(a, [(1, 2, 3), (1, 2)])

    def test_matches_pi_product(self):
        rng = random.Random(9)
        for _ in range(20):
            a = Architecture((3, 2, 2), (2, 2, 1))
            layers = [
                tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k))
                for k in a.filter_sizes
            ]
            w = compose_filters(a, layers)
            prod = MultiPoly.constant(("x", "y"), 1)
            for wl, dil in zip(layers, a.dilations):
                prod = prod * pi_s(wl, dil)
            assert prod == pi_s(w, 1)


class TestConvMatrix:
    def test_identity(self):
        assert conv_matrix((1,), 1, 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_stride_two_placement(self):
        m = conv_matrix((Fraction(1, 2), 3), 2, 2)
        assert m == ((Fraction(1, 2), 3, 0, 0), (0, 0, Fraction(1, 2), 3))

    def test_invariant_dimension(self):
        m = conv_matrix((1, 2, 3), 4, 5)
        assert len(m) == 5
        assert all(len(row) == 3 + 4 * 4 for row in m)

    @pytest.mark.parametrize(
        "arch",
        [
            Architecture((3, 2), (2, 1)),
            Architecture((2, 3), (3, 1)),
            Architecture((3, 2), (2, 3)),
            Architecture((3, 2, 2), (2, 2, 1)),
        ],
        ids=str,
    )
    def test_composition_is_matrix_product(self, arch):
        rng = random.Random(17)
        for _ in range(10):
            layers = [
                tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(k))
                for k in arch.filter_sizes
            ]
            w = compose_filters(arch, layers)
            # work the per-layer output dimensions backwards from d_L = 2
            dims = [2]
            for k_l, s_l in zip(reversed(arch.filter_sizes), reversed(arch.strides)):
                dims.insert(0, k_l + (dims[0] - 1) * s_l)
            product = None
            for i, (wl, s_l) in enumerate(zip(layers, arch.strides)):
                m = conv_matrix(wl, s_l, dims[i + 1])
                product = m if product is None else frac_matmul(m, product)
            full = conv_matrix(w, arch.stride_product, dims[-1])
            assert product == [[Fraction(v) for v in row] for row in full]


class TestSampling:
    def test_deterministic(self):
        a = Architecture((3, 2), (2, 1))
        assert sample_neuromanifold(a, 5) == sample_neuromanifold(a, 5)
        assert sample_neuromanifold(a, 5) != sample_neuromanifold(a, 6)

    def test_two_layer_sample_on_quadric(self):
        a = Architecture((2, 2), (2, 1))
        for seed in range(25):
            _, w = sample_neuromanifold(a, seed)
            assert w[0] * w[3] - w[1] * w[2] == 0

    def test_single_layer_sample_is_filter(self):
        a = Architecture((4,), (1,))
        layers, w = sample_neuromanifold(a, 0)
        assert layers[0] == w

    def test_scaling_invariance(self):
        # composition depends on the layers only through their outer product
        a = Architecture((3, 2), (3, 1))
        layers, w = sample_neuromanifold(a, 12)
        t = Fraction(7, 3)
        scaled = [tuple(t * v for v in layers[0]), tuple(v / t for v in layers[1])]
        assert compose_filters(a, scaled) == w

    def test_outer_product_rank_one(self):
        a = Architecture((3, 2), (2, 1))
        (w1, w2), _ = sample_neuromanifold(a, 4)
        outer = [[x * y for y in w2] for x in w1]
        for i in range(len(w1)):
            for j in range(i + 1, len(w1)):
                for p in range(len(w2)):
                    for q in range(p + 1, len(w2)):
                        assert outer[i][p] * outer[j][q] - outer[i][q] * outer[j][p] == 0
