import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from lcn.arch import Architecture
from lcn.critpoints import (
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

from critpoints_oracle import MIN_STEP, PointSystem, newton, sequential_solve, training_loss


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


class TestExperimentScript:
    PATH = Path(__file__).resolve().parents[1] / "scripts" / "critical_point_experiment.py"

    def test_training_case_saturates(self, capsys):
        script = runpy.run_path(str(self.PATH))
        assert script["run_training_case"](Architecture((2, 2), (2, 1)), 400, 42, 7) is True
        assert "[ok]" in capsys.readouterr().out

    def test_flags_reach_identity_weight_case(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", [str(self.PATH), "--starts", "1", "--seed", "3"])
        with pytest.raises(SystemExit):
            runpy.run_path(str(self.PATH), run_name="__main__")
        lines = capsys.readouterr().out.splitlines()
        (identity,) = [line for line in lines if line.startswith("identity weight")]
        assert "starts     1 " in identity

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--starts", "0"), "argument --starts"),
            (("--seed", "-1"), "argument --seed"),
            (("--data-seed", "-1"), "argument --data-seed"),
        ],
    )
    def test_bad_argument_usage_error(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(sys, "argv", [str(self.PATH), *argv])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_path(str(self.PATH), run_name="__main__")
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


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


class TestBatchedNewton:
    """The batched solver against the one-start-at-a-time oracle."""

    @pytest.mark.parametrize("seed,data_seed", [(0, 1), (5, 7), (42, 3)])
    @pytest.mark.parametrize("sizes", [(2, 2), (3, 2), (4, 2)])
    def test_matches_sequential(self, sizes, seed, data_seed):
        arch = Architecture(sizes, (2, 1))
        _, _, prob = seeded_problem(arch, data_seed, 3)
        report = solve_critical_points(prob, starts=100, seed=seed)
        assert_same_report(report, sequential_solve(prob, starts=100, seed=seed))

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

    def count(self, name):
        return sum(1 for n, _ in self.calls if n == name)

    def rows(self, name):
        return sum(r for n, r in self.calls if n == name)


class TestLineSearch:
    """The blocked line search against the oracle's one-halving-at-a-time loop."""

    @pytest.fixture(scope="class")
    def converged(self):
        # converged points of (3,2), and copies perturbed at relative 1e-6
        _, _, prob = seeded_problem(Architecture((3, 2), (2, 1)), 7, 3)
        report = solve_critical_points(prob, starts=100, seed=5)
        Z = np.array([np.concatenate([p.w, [p.multiplier]]) for p in report.points])
        rng = np.random.default_rng(9)
        noise = rng.standard_normal(Z.shape) + 1j * rng.standard_normal(Z.shape)
        return prob, np.concatenate([Z, Z * (1 + 1e-6 * noise)])

    def test_exhausted_search_matches_oracle(self, converged):
        # with tol = 0 no row stops on its residual: each one ends when no
        # trial step lowers it any further
        prob, Z = converged
        T, u = prob.T, prob.u
        _, _, _, status = _newton(_CompiledSystem(prob.f), T, u, 0.0, Z)
        oracle = PointSystem(prob.f)
        outcomes = [newton(oracle, T, u, 0.0, z[:-1], z[-1]) for z in Z]
        assert [FAILURE_KINDS[s] for s in status] == outcomes
        assert set(outcomes) == {"line_search"}

    def test_last_trial_step_is_the_oracles_floor(self, converged):
        # the final step of a row that fails tries t = 1, 1/2, 1/4, ...; the
        # rows evaluated after its Hessian are those trials, one per t
        prob, Z = converged
        for z in Z:
            system = CountingSystem(prob.f)
            status = _newton(system, prob.T, prob.u, 0.0, z[None])[3]
            assert FAILURE_KINDS[status[0]] == "line_search"
            last = max(i for i, (name, _) in enumerate(system.calls) if name == "hessian")
            trials = sum(rows for _, rows in system.calls[last + 1 :])
            t_last = 0.5 ** (trials - 1)
            assert t_last > MIN_STEP >= t_last / 2


class TestEvaluationCounts:
    """Residual and Hessian evaluations per Newton step, counted, not timed."""

    def test_hessian_per_step_and_residuals_per_block(self, monkeypatch):
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
        report = solve_critical_points(prob, starts=100, seed=5)
        (system,) = systems
        steps = len(solved)
        assert report.starts_used == 100 and steps > 0
        # one Hessian call per Newton step, on exactly the rows it solves
        assert system.count("hessian") == steps
        assert system.rows("hessian") == sum(solved)
        # per step: the full step and at most three blocks of halvings; per
        # chunk of starts: two calls, one that sets lambda and one for the
        # initial residual
        assert system.count("values") <= (1 + 3) * steps + 2
        assert [name for name, _ in system.calls[:3]] == ["values", "values", "hessian"]
        # some step halved, so the bound is not met by full steps alone
        assert system.count("values") > steps + 2
