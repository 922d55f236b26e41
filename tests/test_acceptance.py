"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import random
import time
from functools import lru_cache
from itertools import product

import numpy as np

from lcn.arch import Architecture, reduce_arch, sample_neuromanifold
from lcn.critpoints import (
    WeightedDistanceProblem,
    psi_map,
    seeded_problem,
    solve_critical_points,
)
from lcn.eddegree import arch_ed_degree, generic_ed_degree, merge_tree, two_layer_table
from lcn.idealgen import vanishing_generators
from lcn.polyring import evaluate_many
from lcn.verify import (
    exact_rank,
    expected_dimension,
    parametrization_jacobian,
    smoke_nonmembership,
)

from critpoints_oracle import training_loss
from test_eddegree import MERGE_TREE_VALUES, TWO_LAYER_TABLE
from test_idealgen import radical_generators_3_2_2, radical_generators_5_2


def check(number, description, fn, budget=None):
    start = time.perf_counter()
    try:
        fn()
    except Exception:
        print(f"criterion {number:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"criterion {number:2d} FAIL  {description} (runtime {elapsed:.2f}s over budget {budget}s)")
        raise AssertionError(f"runtime {elapsed:.2f}s exceeds the {budget}s budget")
    print(f"criterion {number:2d} PASS  {description} ({elapsed:.2f}s)")


def reduced_family(max_depth=3, max_size=5, max_stride=4, max_out=14):
    """All reduced architectures within the stated bounds."""
    archs = []
    for k1 in range(2, max_size + 1):
        archs.append(Architecture((k1,), (1,)))
    for k1, k2, s1 in product(range(2, max_size + 1), range(2, max_size + 1), range(2, max_stride + 1)):
        arch = Architecture((k1, k2), (s1, 1))
        if arch.out_size <= max_out:
            archs.append(arch)
    if max_depth >= 3:
        for k1, k2, k3 in product(*[range(2, max_size + 1)] * 3):
            for s1, s2 in product(*[range(2, max_stride + 1)] * 2):
                arch = Architecture((k1, k2, k3), (s1, s2, 1))
                if arch.out_size <= max_out:
                    archs.append(arch)
    assert all(reduce_arch(a) == a for a in archs)
    return archs


@lru_cache(maxsize=None)
def cached_generators(arch):
    return vanishing_generators(arch)


def test_criterion_1_ed_degree_table():
    def body():
        assert two_layer_table(9, 9) == TWO_LAYER_TABLE
        assert generic_ed_degree((2, 2)) == 6
        assert generic_ed_degree((3, 3)) == 39
        assert generic_ed_degree((9, 9)) == 10218105

    check(1, "two-layer count table, 64 entries exact", body, budget=1.0)


def test_criterion_2_merge_tree_values():
    def body():
        values = {}

        def collect(node):
            values[tuple(sorted(node.filter_sizes))] = node.value
            for child in node.children:
                collect(child)

        collect(merge_tree((2, 3, 4, 5)))
        for sizes, expected in MERGE_TREE_VALUES.items():
            assert values[tuple(sorted(sizes))] == expected, sizes

    check(2, "merge-tree node values, 9 exact", body, budget=1.0)


def test_criterion_3_golden_ideals():
    def body():
        gens = cached_generators(Architecture((2, 2), (2, 1)))
        assert [g.text() for g in gens.generators] == ["A*D - B*C"]

        gens = cached_generators(Architecture((3, 2), (2, 1)))
        assert [g.text() for g in gens.generators] == ["A*D^2 + B^2*E - B*C*D"]

        gens = cached_generators(Architecture((5, 2), (3, 1)))
        cubics = [g for g, p in zip(gens.generators, gens.provenance) if ":I1[" in p]
        quartics = [g for g, p in zip(gens.generators, gens.provenance) if ":I2[" in p]
        assert len(cubics) == 4 and all(g.total_degree() == 3 for g in cubics)
        assert len(quartics) == 1 and quartics[0].total_degree() == 4
        assert sorted(g.text() for g in cubics) == [
            "A*C*H - A*E*F - B*C*G + B*D*F",
            "A*F*H - B*F*G - C*D*H + C*E*G",
            "A*F^2 + C^2*G - C*D*F",
            "B*F^2 + C^2*H - C*E*F",
        ]
        assert quartics[0].text() == (
            "A^2*H^2 - 2*A*B*G*H - A*D*E*H + A*E^2*G"
            " + B^2*G^2 + B*D^2*H - B*D*E*G"
        )

        gens = cached_generators(Architecture((3, 2, 2), (2, 2, 1)))
        assert dict(gens.raw_counts) == {
            "merge(1,2)->two_layer(5,2;4):I1": 35,
            "base(3,4;2):I1": 10,
        }
        assert sum(n for _, n in gens.raw_counts) == 45

    check(3, "golden generator sets, string-normalized", body, budget=5.0)


def test_criterion_4_sampling_soundness():
    def body():
        radical = {
            Architecture((5, 2), (3, 1)): radical_generators_5_2(),
            Architecture((3, 2, 2), (2, 2, 1)): radical_generators_3_2_2(),
        }
        family = reduced_family()
        assert Architecture((5, 2), (3, 1)) in family
        assert Architecture((3, 2, 2), (2, 2, 1)) in family
        rng = random.Random(2024)
        for arch in family:
            gens = cached_generators(arch)
            extra = radical.get(arch, [])
            for _ in range(100):
                _, w = sample_neuromanifold(arch, rng.randrange(2**62))
                for polys in (gens.generators, extra):
                    for g, value in zip(polys, evaluate_many(polys, w)):
                        assert value == 0, (arch, g.text())

    check(4, "100 exact samples vanish on every family architecture", body, budget=120.0)


def test_criterion_5_nonmembership_smoke():
    def body():
        for arch in reduced_family():
            if arch.depth < 2:
                continue
            assert smoke_nonmembership(cached_generators(arch), 20, seed=11) == 20, arch

    check(5, "20/20 random ambient points violate a generator", body)


def test_criterion_6_dimension():
    def body():
        rng = random.Random(6)
        for arch in reduced_family():
            expected = expected_dimension(arch)
            rank = -1
            for _ in range(2):
                layers, _ = sample_neuromanifold(arch, rng.randrange(2**62))
                J = parametrization_jacobian(arch, layers)
                rank = max(rank, exact_rank(J))
                if rank == expected:
                    break
            assert rank == expected, (arch, rank, expected)
            if arch == Architecture((5, 2), (3, 1)):
                assert rank == 6

    check(6, "Jacobian rank equals sum(k_i) - (L-1) on the family", body)


def test_criterion_7_critical_point_counts():
    def body():
        for sizes, expected in [((2, 2), 6), ((3, 2), 10)]:
            arch = Architecture(sizes, (2, 1))
            assert arch_ed_degree(arch) == expected
            _, _, prob = seeded_problem(arch, 7, 3)
            report = solve_critical_points(prob, starts=2000, seed=42)
            assert report.distinct_count == expected, (sizes, report.distinct_count)
            assert report.max_residual < 1e-10
            vecs = [np.concatenate([p.w, [p.multiplier]]) for p in report.points]
            for v in vecs:
                assert any(
                    np.linalg.norm(np.conj(v) - o)
                    < 1e-6 * max(1.0, np.linalg.norm(v))
                    for o in vecs
                )

        # Frobenius special case: distance to the rank-one quadric
        f = cached_generators(Architecture((2, 2), (2, 1))).generators[0]
        rng = np.random.default_rng(11)
        u = rng.standard_normal(4)
        assert np.linalg.matrix_rank(u.reshape(2, 2)) == 2
        report = solve_critical_points(
            WeightedDistanceProblem(np.eye(4), u, f), starts=500, seed=11
        )
        assert report.distinct_count == 2
        assert report.max_residual < 1e-10

    check(7, "critical-point counts 6 / 10 / 2 with clean residuals", body, budget=120.0)


def test_criterion_8_training_reduction_identity():
    def body():
        for sizes in [(2, 2), (3, 2)]:
            arch = Architecture(sizes, (2, 1))
            X, Y, prob = seeded_problem(arch, 3, 3)
            k = arch.out_size
            rng = np.random.default_rng(8)
            w0 = np.zeros(k)
            offset = training_loss(w0, X, Y, 2) - (w0 - prob.u) @ prob.T @ (w0 - prob.u)
            for _ in range(100):
                w = rng.standard_normal(k) * rng.uniform(0.1, 10)
                lhs = training_loss(w, X, Y, 2)
                rhs = (w - prob.u) @ prob.T @ (w - prob.u) + offset
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    check(8, "loss equals the weighted distance plus a constant (1e-9)", body)


def test_criterion_9_psi_positivity():
    def body():
        rng = np.random.default_rng(9)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            s = int(rng.integers(1, 4))
            d_out = int(rng.integers(1, 4))
            d0 = k + (d_out - 1) * s
            a = rng.standard_normal((d0 + 2, d0))
            spd = a.T @ a + 1e-6 * np.eye(d0)
            assert np.min(np.linalg.eigvalsh(psi_map(spd, k, s, d_out))) > 0

    check(9, "psi of 100 random SPD matrices stays SPD", body)


def test_criterion_10_formula_invariance():
    def body():
        rng = random.Random(10)
        for _ in range(50):
            sizes = [rng.randint(2, 6) for _ in range(rng.randint(2, 5))]
            shuffled = sizes[:]
            rng.shuffle(shuffled)
            assert generic_ed_degree(shuffled) == generic_ed_degree(sizes)
        # stride assignments of the same filter sizes through the
        # architecture API
        for sizes in [(2, 2), (3, 2), (2, 3, 2)]:
            values = set()
            for strides in product((2, 3, 4), repeat=len(sizes) - 1):
                arch = Architecture(sizes, strides + (1,))
                values.add(arch_ed_degree(arch))
            assert len(values) == 1

    check(10, "count invariant under permutations and stride choices", body)
