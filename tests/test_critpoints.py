import re

import numpy as np
import pytest

from lcn.arch import Architecture
from lcn.critpoints import (
    _CONVERGED,
    FAILURE_KINDS,
    WeightedDistanceProblem,
    _CompiledSystem,
    _newton,
    _solve_rows,
    psi_map,
    seeded_problem,
    solve_critical_points,
    training_reduce,
)
from lcn.eddegree import arch_ed_degree
from lcn.idealgen import vanishing_generators

import critpoints_oracle
from critpoints_oracle import PointSystem, newton, residual_vec, sequential_solve, training_loss


def random_spd(rng, n):
    a = rng.standard_normal((n + 2, n))
    return a.T @ a + 1e-3 * np.eye(n)


class TestPsiMap:
    def test_single_window_is_whole_matrix(self):
        # d_out = 1 forces d0 = k, so the single window covers everything
        rng = np.random.default_rng(0)
        M = rng.standard_normal((6, 6))
        assert np.array_equal(psi_map(M, 6, 3, 1), M)

    def test_identity_sums_diagonal_blocks(self):
        assert np.allclose(psi_map(np.eye(10), 4, 3, 3), 3 * np.eye(4))

    def test_spd_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            M = random_spd(rng, 8)
            out = psi_map(M, 4, 2, 3)
            assert np.all(np.linalg.eigvalsh(out) > 0)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((8, 8))
        M = M + M.T
        out = psi_map(M, 4, 2, 3)
        assert np.array_equal(out, out.T)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        M, N = rng.standard_normal((2, 8, 8))
        lhs = psi_map(2.5 * M - 1.25 * N, 4, 2, 3)
        rhs = 2.5 * psi_map(M, 4, 2, 3) - 1.25 * psi_map(N, 4, 2, 3)
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psi_map(np.eye(7), 4, 2, 3)

    @pytest.mark.parametrize("M, k, s, d_out", [
        (np.eye(1), 3, 2, 0),
        (np.eye(3), 3, 0, 5),
        (np.eye(3), 0, 1, 4),
    ])
    def test_sizes_below_one_rejected(self, M, k, s, d_out):
        with pytest.raises(ValueError, match="at least 1"):
            psi_map(M, k, s, d_out)


class TestSeededProblem:
    @pytest.mark.parametrize("sizes,data_seed,d_out", [((2, 2), 7, 3), ((3, 2), 3, 3), ((4, 2), 11, 2)])
    def test_same_draws_as_inline_rng(self, sizes, data_seed, d_out):
        arch = Architecture(sizes, (2, 1))
        X, Y, prob = seeded_problem(arch, data_seed, d_out)
        # oracle: the draw every caller made by hand before seeded_problem
        d0 = arch.out_size + (d_out - 1) * arch.stride_product
        rng = np.random.default_rng(data_seed)
        X0 = rng.standard_normal((d0, d0 + 5))
        Y0 = rng.standard_normal((d_out, d0 + 5))
        assert np.array_equal(X, X0)
        assert np.array_equal(Y, Y0)
        ref = training_reduce(X0, Y0, arch)
        assert np.array_equal(prob.T, ref.T)
        assert np.array_equal(prob.u, ref.u)
        assert prob.f == ref.f


class TestTrainingReduce:
    def test_loss_identity(self):
        arch = Architecture((2, 2), (2, 1))
        X, Y, prob = seeded_problem(arch, 7, 3)
        rng = np.random.default_rng(10)
        w0 = rng.standard_normal(4)
        offset = training_loss(w0, X, Y, 2) - (w0 - prob.u) @ prob.T @ (w0 - prob.u)
        for _ in range(100):
            w = rng.standard_normal(4) * rng.uniform(0.1, 5)
            lhs = training_loss(w, X, Y, 2)
            rhs = (w - prob.u) @ prob.T @ (w - prob.u) + offset
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_offset_field_matches_fit(self):
        arch = Architecture((3, 2), (2, 1))
        X, Y, prob = seeded_problem(arch, 7, 3)
        w = np.zeros(5)
        fitted = training_loss(w, X, Y, 2) - (w - prob.u) @ prob.T @ (w - prob.u)
        assert abs(prob.offset - fitted) <= 1e-9 * max(1.0, abs(fitted))

    def test_orthonormal_data_gives_scaled_identity_weight(self):
        # X X^T = I makes T = d_out * I and u = b / d_out
        arch = Architecture((2, 2), (2, 1))
        rng = np.random.default_rng(15)
        q, _ = np.linalg.qr(rng.standard_normal((13, 8)))
        X = q.T  # 8 x 13 with orthonormal rows
        Y = rng.standard_normal((3, 13))
        prob = training_reduce(X, Y, arch)
        assert np.allclose(prob.T, 3 * np.eye(4))
        YXt = Y @ X.T
        b = np.array([sum(YXt[i, j + 2 * i] for i in range(3)) for j in range(4)])
        assert np.allclose(prob.u, b / 3)

    def test_single_output_row_is_least_squares(self):
        # d_out = 1: T is the Gram matrix of the window, u the usual solution
        arch = Architecture((2, 2), (2, 1))
        rng = np.random.default_rng(4)
        X = rng.standard_normal((4, 9))
        Y = rng.standard_normal((1, 9))
        prob = training_reduce(X, Y, arch)
        assert np.allclose(prob.T, X @ X.T)
        assert np.allclose(prob.u, np.linalg.solve(X @ X.T, X @ Y[0]))

    def test_rank_deficient_rejected(self):
        arch = Architecture((2, 2), (2, 1))
        X = np.zeros((8, 13))
        Y = np.zeros((3, 13))
        with pytest.raises(ValueError, match="rank"):
            training_reduce(X, Y, arch)

    def test_too_few_samples_rejected(self):
        arch = Architecture((2, 2), (2, 1))
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="samples"):
            training_reduce(rng.standard_normal((8, 7)), rng.standard_normal((3, 7)), arch)

    def test_zero_output_rows_rejected(self):
        # d0 = 4 + (0 - 1) * 2 = 2: consistent shapes, but no output window
        arch = Architecture((2, 2), (2, 1))
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="at least 1"):
            training_reduce(rng.standard_normal((2, 7)), np.zeros((0, 7)), arch)
        with pytest.raises(ValueError, match="at least 1"):
            seeded_problem(arch, 7, 0)

    def test_non_hypersurface_rejected(self):
        arch = Architecture((5, 2), (3, 1))
        rng = np.random.default_rng(6)
        d0 = 8 + (3 - 1) * 3
        with pytest.raises(ValueError, match="non-hypersurface"):
            training_reduce(
                rng.standard_normal((d0, d0 + 5)),
                rng.standard_normal((3, d0 + 5)),
                arch,
            )

    def test_spd_weight(self):
        _, _, prob = seeded_problem(Architecture((3, 2), (2, 1)), 7, 3)
        assert np.all(np.linalg.eigvalsh(prob.T) > 0)


class TestSolve:
    def test_count_2_2(self):
        arch = Architecture((2, 2), (2, 1))
        _, _, prob = seeded_problem(arch, 7, 3)
        report = solve_critical_points(prob, starts=500, seed=42)
        assert report.distinct_count == 6
        assert report.max_residual < 1e-10

    def test_conjugation_closure_and_parity(self):
        arch = Architecture((2, 2), (2, 1))
        _, _, prob = seeded_problem(arch, 7, 3)
        report = solve_critical_points(prob, starts=500, seed=42)
        vecs = [np.concatenate([p.w, [p.multiplier]]) for p in report.points]
        for v in vecs:
            assert any(
                np.linalg.norm(np.conj(v) - o) < 1e-6 * max(1.0, np.linalg.norm(v))
                for o in vecs
            )
        assert report.real_count % 2 == report.distinct_count % 2

    def test_points_satisfy_equations(self):
        arch = Architecture((2, 2), (2, 1))
        _, _, prob = seeded_problem(arch, 7, 3)
        report = solve_critical_points(prob, starts=400, seed=1)
        T, u = prob.T, prob.u
        for p in report.points:
            A, B, C, D = p.w
            assert abs(A * D - B * C) < 1e-10
            grad = np.array([D, -C, -B, A])
            stat = T @ (p.w - u) - p.multiplier * grad
            assert np.linalg.norm(stat) < 1e-9

    def test_eckart_young_identity_weight(self):
        # Frobenius distance to the rank-one quadric: two critical points,
        # both real, matching the SVD truncations of the target matrix
        f = vanishing_generators(Architecture((2, 2), (2, 1))).generators[0]
        rng = np.random.default_rng(11)
        u = rng.standard_normal(4)
        assert np.linalg.matrix_rank(u.reshape(2, 2)) == 2
        prob = WeightedDistanceProblem(np.eye(4), u, f)
        report = solve_critical_points(prob, starts=300, seed=11)
        assert report.distinct_count == 2
        assert report.real_count == 2
        U, S, Vt = np.linalg.svd(u.reshape(2, 2))
        for i in range(2):
            target = (S[i] * np.outer(U[:, i], Vt[i])).ravel()
            assert any(np.linalg.norm(p.w - target) < 1e-8 for p in report.points)

    @pytest.mark.parametrize("sizes,starts", [((2, 2), 120), ((3, 2), 80)])
    def test_upper_bound_random_weights(self, sizes, starts):
        arch = Architecture(sizes, (2, 1))
        bound = arch_ed_degree(arch)
        f = vanishing_generators(arch).generators[0]
        k = arch.out_size
        rng = np.random.default_rng(13)
        for trial in range(20):
            T = random_spd(rng, k)
            u = rng.standard_normal(k)
            prob = WeightedDistanceProblem(T, u, f)
            report = solve_critical_points(prob, starts=starts, seed=trial)
            assert report.distinct_count <= bound
            assert report.distinct_count + sum(report.failures.values()) == starts

    def test_point_near_singular_locus_counted_once(self):
        # one real point of this instance has |lambda| ~ 8e6 and |grad f| ~ 7e-7;
        # starts that reach it agree on w but differ in lambda by ~5e-9
        # relative, so a test on (w, lambda) would count it four times
        arch = Architecture((4, 2), (2, 1))
        _, _, prob = seeded_problem(arch, 7, 3)
        report = solve_critical_points(prob, starts=2000, seed=42)
        assert report.distinct_count <= arch_ed_degree(arch) == 14
        assert max(abs(p.multiplier) for p in report.points) > 1e6

    def test_constant_equation_rejected(self):
        from lcn.polyring import coefficient_symbols, MultiPoly

        A, B = coefficient_symbols(2)
        prob = WeightedDistanceProblem(np.eye(2), np.ones(2), MultiPoly.constant(A.vars, 3))
        with pytest.raises(ValueError):
            solve_critical_points(prob, starts=10, seed=0)

    def test_shortfall_reported(self):
        arch = Architecture((2, 2), (2, 1))
        _, _, prob = seeded_problem(arch, 7, 3)
        report = solve_critical_points(prob, starts=3, seed=0)
        assert report.distinct_count < 6

    @pytest.mark.parametrize("name", ["T", "u"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, name, bad):
        _, _, prob = seeded_problem(Architecture((2, 2), (2, 1)), 7, 3)
        T, u = prob.T.copy(), prob.u.copy()
        if name == "T":
            T[1, 2] = T[2, 1] = bad
        else:
            u[3] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_critical_points(WeightedDistanceProblem(T, u, prob.f), starts=50, seed=0)

    def test_wrong_target_length_rejected(self):
        f = vanishing_generators(Architecture((2, 2), (2, 1))).generators[0]
        prob = WeightedDistanceProblem(np.eye(4), np.array([0.7]), f)
        with pytest.raises(ValueError, match="u must have shape"):
            solve_critical_points(prob, starts=10, seed=0)

    @pytest.mark.parametrize("starts", [0, -3])
    def test_start_count_below_one_rejected(self, starts):
        _, _, prob = seeded_problem(Architecture((2, 2), (2, 1)), 7, 3)
        with pytest.raises(ValueError, match="starts must be at least 1"):
            solve_critical_points(prob, starts=starts, seed=0)

    @pytest.mark.parametrize("starts", [True, False, np.True_, 2.5, float("nan"), float("inf"), "3"])
    def test_non_integral_start_count_rejected(self, starts):
        _, _, prob = seeded_problem(Architecture((2, 2), (2, 1)), 7, 3)
        with pytest.raises(ValueError, match="starts must be integers"):
            solve_critical_points(prob, starts=starts, seed=0)

    @pytest.mark.parametrize("starts", [7.0, np.int64(7)])
    def test_integral_start_count_honoured(self, starts):
        _, _, prob = seeded_problem(Architecture((2, 2), (2, 1)), 7, 3)
        report = solve_critical_points(prob, starts=starts, seed=42)
        assert report.starts_used == 7
        assert_same_report(report, solve_critical_points(prob, starts=7, seed=42))

    def test_equation_in_wrong_dimension_rejected(self):
        f = vanishing_generators(Architecture((3, 2), (2, 1))).generators[0]
        assert len(f.vars) == 5
        prob = WeightedDistanceProblem(np.eye(4), np.ones(4), f)
        with pytest.raises(ValueError, match="variables"):
            solve_critical_points(prob, starts=10, seed=0)


def assert_same_report(report, oracle):
    assert report.distinct_count == oracle.distinct_count
    assert report.real_count == oracle.real_count
    assert report.starts_used == oracle.starts_used
    assert report.failures == oracle.failures
    for p, q in zip(report.points, oracle.points):
        np.testing.assert_allclose(p.w, q.w, rtol=1e-9, atol=0)
        np.testing.assert_allclose(p.multiplier, q.multiplier, rtol=1e-9, atol=0)
        assert p.is_real == q.is_real


def ten_step_ends(monkeypatch, prob, starts, seed):
    """Each start's outcome and last ``(w, lambda)`` after at most ten Newton
    steps, from the batched solver and from the oracle, in start order."""
    monkeypatch.setattr("lcn.critpoints._MAX_NEWTON_STEPS", 10)
    monkeypatch.setattr(critpoints_oracle, "_MAX_NEWTON_STEPS", 10)
    batched, oracle = [], []

    def logged_newton(*args):
        Z, G, nF, status = _newton(*args)
        batched.extend((None if st == _CONVERGED else FAILURE_KINDS[st], z) for st, z in zip(status, Z))
        return Z, G, nF, status

    def logged_oracle(*args):
        failure, w, lam, grad, res = newton(*args)
        oracle.append((failure, np.append(w, lam)))
        return failure, w, lam, grad, res

    monkeypatch.setattr("lcn.critpoints._newton", logged_newton)
    monkeypatch.setattr(critpoints_oracle, "newton", logged_oracle)
    solve_critical_points(prob, starts=starts, seed=seed)
    sequential_solve(prob, starts=starts, seed=seed)
    return batched, oracle


def assert_critical_points(prob, report, bound):
    """What holds of any report: every point solves the Lagrange system off
    the singular locus, the points are at most ``bound`` and distinct in
    ``w``, every start is accounted for, and a complete set is closed under
    complex conjugation."""
    system = PointSystem(prob.f)
    T, u = np.asarray(prob.T), np.asarray(prob.u)
    scale = max(1.0, np.linalg.norm(T) * (1.0 + np.linalg.norm(u)))
    assert report.distinct_count <= bound
    assert report.distinct_count + sum(report.failures.values()) == report.starts_used
    for i, p in enumerate(report.points):
        F, grad, _ = residual_vec(system, T, u, p.w, p.multiplier)
        assert np.linalg.norm(F) < 1e-10 * scale
        assert p.residual < 1e-10
        assert np.linalg.norm(grad) >= 1e-8 * max(1.0, np.linalg.norm(p.w))
        for q in report.points[:i]:
            assert np.linalg.norm(p.w - q.w) >= 1e-8 * max(1.0, np.linalg.norm(p.w), np.linalg.norm(q.w))
    if report.distinct_count == bound:
        for p in report.points:
            assert any(
                np.linalg.norm(np.conj(p.w) - q.w) < 1e-6 * max(1.0, np.linalg.norm(p.w))
                for q in report.points
            )


class TestBatchedNewton:
    """The batched solver against the one-start-at-a-time oracle."""

    @pytest.mark.parametrize("seed,data_seed", [(0, 1), (5, 7), (42, 3)])
    @pytest.mark.parametrize("sizes", [(1, 2), (2, 2), (3, 2), (4, 2)])
    def test_matches_sequential(self, monkeypatch, sizes, seed, data_seed):
        # over its first ten steps every start follows the oracle's path; a
        # longer path can amplify the rounding in which the two differ
        # (1,2) has a linear f, so its Hessian map has no monomials
        _, _, prob = seeded_problem(Architecture(sizes, (2, 1)), data_seed, 3)
        batched, oracle = ten_step_ends(monkeypatch, prob, 100, seed)
        assert len(batched) == len(oracle) == 100
        assert [b[0] for b in batched] == [o[0] for o in oracle]
        for (_, zb), (_, zo) in zip(batched, oracle):
            assert np.linalg.norm(zb - zo) <= 1e-9 * np.linalg.norm(zo)

    @pytest.mark.parametrize("seed,data_seed", [(0, 1), (5, 7), (42, 3)])
    @pytest.mark.parametrize("sizes", [(1, 2), (2, 2)])
    def test_short_paths_give_the_sequential_report(self, sizes, seed, data_seed):
        _, _, prob = seeded_problem(Architecture(sizes, (2, 1)), data_seed, 3)
        report = solve_critical_points(prob, starts=100, seed=seed)
        assert_same_report(report, sequential_solve(prob, starts=100, seed=seed))

    @pytest.mark.parametrize("seed,data_seed", [(0, 1), (5, 7), (42, 3)])
    @pytest.mark.parametrize("sizes", [(3, 2), (4, 2)])
    def test_long_paths_give_a_valid_report(self, sizes, seed, data_seed):
        arch = Architecture(sizes, (2, 1))
        _, _, prob = seeded_problem(arch, data_seed, 3)
        report = solve_critical_points(prob, starts=100, seed=seed)
        assert_critical_points(prob, report, arch_ed_degree(arch))

    def test_many_chunks_match_sequential(self):
        # 2000 starts span eight chunks, every one of them solved
        _, _, prob = seeded_problem(Architecture((2, 2), (2, 1)), 7, 3)
        report = solve_critical_points(prob, starts=2000, seed=42)
        assert report.starts_used == 2000
        assert_same_report(report, sequential_solve(prob, starts=2000, seed=42))

    def test_identity_weight_matches_sequential(self):
        # the Frobenius case of acceptance criterion 7
        f = vanishing_generators(Architecture((2, 2), (2, 1))).generators[0]
        u = np.random.default_rng(11).standard_normal(4)
        prob = WeightedDistanceProblem(np.eye(4), u, f)
        report = solve_critical_points(prob, starts=500, seed=11)
        assert_same_report(report, sequential_solve(prob, starts=500, seed=11))

    def test_singular_jacobian_fails_only_its_row(self):
        # at w = 0 the gradient of AD - BC vanishes, so the Jacobian's first
        # row is zero and a stacked solve over the batch raises
        _, _, prob = seeded_problem(Architecture((2, 2), (2, 1)), 7, 3)
        system = _CompiledSystem(prob.f)
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        Z_zero = np.insert(Z, 2, 0, axis=0)
        T, u, tol = prob.T, prob.u, 1e-10
        Z_out, G, nF, status = _newton(system, T, u, tol, Z)
        Zz_out, Gz, nFz, status_z = _newton(system, T, u, tol, Z_zero)
        assert status_z[2] == FAILURE_KINDS.index("singular_jacobian")
        keep = np.arange(7) != 2
        assert np.array_equal(status_z[keep], status)
        np.testing.assert_allclose(Zz_out[keep], Z_out, rtol=1e-12)
        np.testing.assert_allclose(Gz[keep], G, rtol=1e-12)
        np.testing.assert_allclose(nFz[keep], nF, rtol=1e-12)

    @pytest.mark.parametrize("starts,expected", [(100, 6), (2000, 6), (7, None)])
    def test_failures_account_for_every_start(self, starts, expected):
        # ``expected`` is the count found when the starts are enough to find it
        _, _, prob = seeded_problem(Architecture((2, 2), (2, 1)), 7, 3)
        report = solve_critical_points(prob, starts=starts, seed=42)
        assert tuple(report.failures) == FAILURE_KINDS
        assert report.distinct_count + sum(report.failures.values()) == starts
        assert expected is None or report.distinct_count == expected


class CountingSystem(_CompiledSystem):
    """``_CompiledSystem`` that logs each evaluator call as ``(name, rows)``."""

    def __init__(self, f):
        super().__init__(f)
        self.calls = []
        self.values = self._counted("values", self.values)
        self.hessian = self._counted("hessian", self.hessian)

    def _counted(self, name, evaluate):
        def call(W):
            self.calls.append((name, len(W)))
            return evaluate(W)

        return call


class TestMonomialMap:
    def test_whole_call_matches_pointwise_oracle(self):
        # one call on 1,027 rows: each row's values land on its own row
        f = vanishing_generators(Architecture((3, 2), (2, 1))).generators[0]
        system, oracle = _CompiledSystem(f), PointSystem(f)
        z = np.random.default_rng(4).standard_normal((2, 1027, 5))
        W = z[0] + 1j * z[1]
        expected = [oracle(w) for w in W]
        values = np.array([np.concatenate([[fv], grad]) for fv, grad, _ in expected])
        hessians = np.array([H.ravel() for _, _, H in expected])
        for got, want in ((system.values(W), values), (system.hessian(W), hessians)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestEvaluationCounts:
    """Residual and Hessian evaluations per Newton step, counted, not timed."""

    def test_one_hessian_and_one_residual_call_per_step(self, monkeypatch):
        systems, solved = [], []

        def make_system(f):
            systems.append(CountingSystem(f))
            return systems[-1]

        def counted_solve(J, b):
            solved.append(len(b))
            return _solve_rows(J, b)

        monkeypatch.setattr("lcn.critpoints._CompiledSystem", make_system)
        monkeypatch.setattr("lcn.critpoints._solve_rows", counted_solve)
        _, _, prob = seeded_problem(Architecture((3, 2), (2, 1)), 7, 3)
        # two chunks, of 256 and 44 starts
        report = solve_critical_points(prob, starts=300, seed=5)
        (system,) = systems
        assert report.starts_used == 300 and solved
        # per chunk: two values calls on all its starts, one that sets lambda
        # and one for the initial residual; then per Newton step one Hessian
        # call and one values call
        names = "".join(name[0] for name, _ in system.calls)
        assert re.fullmatch("(vv(hv)+)+", names)
        rows = [r for _, r in system.calls]
        prev = " " + names  # the name of the call before each call
        chunk = [r for r, n, p in zip(rows, names, prev) if n == "v" and p != "h"]
        assert chunk == [256, 256, 44, 44]
        # the Hessian on exactly the rows each step solves, the residuals on
        # those of them whose Jacobian was not singular
        assert [r for r, n in zip(rows, names) if n == "h"] == solved
        stepped = [r for r, n, p in zip(rows, names, prev) if (n, p) == ("v", "h")]
        assert sum(stepped) == sum(solved) - report.failures["singular_jacobian"]
