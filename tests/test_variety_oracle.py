"""The exact-rank membership oracle against the symbolic generators."""

from functools import lru_cache
from itertools import product

from hypothesis import example, given, settings, strategies as st

from lcn.arch import Architecture, compose_filters, reduce_arch, sample_neuromanifold
from lcn.idealgen import merge_levels, vanishing_generators
from lcn.polyring import evaluate_many

from variety_oracle import on_variety


def _architectures(max_out=16):
    """Depth 2-4 architectures with sizes and strides up to 3, by the depth
    of their reduction (at least 2, with at most ``max_out`` filter entries)."""
    by_depth = {}
    for depth in (2, 3, 4):
        for ks, ss in product(product((1, 2, 3), repeat=depth), product((1, 2, 3), repeat=depth - 1)):
            arch = Architecture(ks, ss + (1,))
            reduced = reduce_arch(arch)
            if reduced.depth >= 2 and reduced.out_size <= max_out:
                by_depth.setdefault(reduced.depth, []).append(arch)
    return by_depth


ARCHS = _architectures()


@lru_cache(maxsize=None)
def generators(arch):
    return vanishing_generators(arch).generators


@st.composite
def arch_and_point(draw):
    """An architecture and a filter: a sampled member, a member with some
    layer entries zeroed (which reaches zero slots and the points only the
    top-slot matrix rules out), or a sparse point with entries in {0, +-1, 2}."""
    arch = draw(st.sampled_from(sorted(ARCHS)).flatmap(lambda d: st.sampled_from(ARCHS[d])))
    kind = draw(st.sampled_from(("member", "zeroed", "sparse")))
    if kind == "sparse":
        support = draw(st.sets(st.integers(0, arch.out_size - 1)))
        return arch, tuple(
            draw(st.sampled_from((-1, 1, 2))) if i in support else 0 for i in range(arch.out_size)
        )
    layers, _ = sample_neuromanifold(arch, draw(st.integers(0, 2**32)))
    if kind == "zeroed":
        layers = [tuple(0 if draw(st.booleans()) else v for v in layer) for layer in layers]
    return arch, compose_filters(arch, layers)


class TestOnVariety:
    @settings(max_examples=150)
    @given(arch_and_point())
    # slot 3 is zero and the top slots x^2, y^2 are coprime: I1 drops rank, I2 does not
    @example((Architecture((5, 2), (3, 1)), (0, 1, 0, 0, 0, 0, 1, 0)))
    @example((Architecture((2, 2, 2, 2), (2, 2, 2, 1)), (0,) * 15 + (1,)))
    def test_rank_drop_iff_generators_vanish(self, case):
        arch, w = case
        gens = generators(reduce_arch(arch))
        expected = on_variety(arch, w)
        assert expected == all(g.evaluate(w) == 0 for g in gens)
        assert expected == (not any(evaluate_many(gens, w)))

    def test_top_slot_matrix_decides(self):
        arch = Architecture((5, 2), (3, 1))
        assert not on_variety(arch, (0, 1, 0, 0, 0, 0, 1, 0))
        assert on_variety(arch, (0, 1, 0, 0, 0, 0, 0, 0))

    def test_single_layer_holds_everything(self):
        assert on_variety(Architecture((4,), (1,)), (1, 2, 3, 4))


class TestMergeLevels:
    def test_labels_and_sizes(self):
        assert merge_levels(Architecture((3, 2, 2), (2, 2, 1))) == [
            ("base", 3, 4, 2),
            ("merge(1,2)->two_layer", 5, 2, 4),
        ]

    def test_single_layer_has_none(self):
        assert merge_levels(Architecture((5,), (1,))) == []
