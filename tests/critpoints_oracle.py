"""Reference code for the critical-point tests.

``sequential_solve`` is the one-start-at-a-time Newton that
``lcn.critpoints.solve_critical_points`` batches: same draws, tolerances,
full Newton steps, singular-locus test and deduplication by ``w``, with
each start evaluated through ``w ** exps`` and solved by its own
``np.linalg.solve``.  The only addition is the tally of lost starts, so the
batched failure counts are checked against it too.  ``newton`` is its
Newton iteration for one start.  Each step matches the batched one up to
rounding, which a long path can amplify, so whole reports agree only where
paths are short.

``training_loss`` evaluates the convolution's quadratic loss directly,
against which the training reduction is checked.
"""

from typing import Sequence

import numpy as np

from lcn.critpoints import (
    FAILURE_KINDS,
    CriticalPoint,
    CriticalPointReport,
    WeightedDistanceProblem,
)
from lcn.polyring import MultiPoly

_MAX_NEWTON_STEPS = 100


def training_loss(w: Sequence, X: np.ndarray, Y: np.ndarray, stride: int) -> float:
    """Squared Frobenius error of the convolution with filter w on (X, Y)."""
    w = np.asarray(w, dtype=float)
    k = len(w)
    d_out = Y.shape[0]
    res = 0.0
    for i in range(d_out):
        row = w @ X[i * stride : i * stride + k, :]
        res += float(np.sum((row - Y[i]) ** 2))
    return res


class PointSystem:
    """f, its gradient and its Hessian at one point, from a shared monomial vector."""

    def __init__(self, f: MultiPoly):
        k = len(f.vars)
        self.k = k
        polys = [f]
        grads = [f.differentiate(v) for v in f.vars]
        polys.extend(grads)
        for g in grads:
            polys.extend(g.differentiate(v) for v in f.vars)
        support = sorted({e for p in polys for e in p.terms})
        index = {e: i for i, e in enumerate(support)}
        self.exps = np.array(support, dtype=int).reshape(len(support), k)
        C = np.zeros((len(polys), len(support)), dtype=complex)
        for row, p in enumerate(polys):
            for e, c in p.terms.items():
                C[row, index[e]] = complex(c)
        self.C = C

    def __call__(self, w: np.ndarray):
        """``(f, grad f, Hessian of f)`` at ``w``."""
        mono = np.prod(w[None, :] ** self.exps, axis=1)
        vals = self.C @ mono
        k = self.k
        return vals[0], vals[1 : k + 1], vals[k + 1 :].reshape(k, k)


def residual_vec(system, T, u, w, lam):
    """Lagrange residual ``(f, T (w - u) - lam grad f)`` with grad f and the Hessian at ``w``."""
    fv, grad, H = system(w)
    F = np.empty(len(w) + 1, dtype=complex)
    F[0] = fv
    F[1:] = T @ (w - u) - lam * grad
    return F, grad, H


def newton(system, T, u, tol, w, lam):
    """Full Newton steps from one start ``(w, lam)``.

    Returns ``(failure, w, lam, grad f, residual norm)`` at the last
    iterate, where ``failure`` names the way the start was lost
    (``FAILURE_KINDS``), or is None once the residual is below ``tol``.
    """
    k = len(w)
    F, grad, H = residual_vec(system, T, u, w, lam)
    nF = np.linalg.norm(F)
    for _ in range(_MAX_NEWTON_STEPS):
        if nF < tol:
            break
        J = np.empty((k + 1, k + 1), dtype=complex)
        J[0, :k] = grad
        J[0, k] = 0.0
        J[1:, :k] = T - lam * H
        J[1:, k] = -grad
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return "singular_jacobian", w, lam, grad, float(nF)
        w, lam = w + step[:k], lam + step[k]
        F, grad, H = residual_vec(system, T, u, w, lam)
        nF = np.linalg.norm(F)
    return (None if nF < tol else "step_limit"), w, lam, grad, float(nF)


def sequential_solve(
    problem: WeightedDistanceProblem, starts: int = 500, seed: int = 0
) -> CriticalPointReport:
    """Count distinct complex critical points, one Newton start at a time."""
    k = len(problem.f.vars)
    T = np.asarray(problem.T, dtype=float)
    u = np.asarray(problem.u, dtype=float)
    if T.shape != (k, k) or not np.allclose(T, T.T):
        raise ValueError("T must be a symmetric k x k matrix")
    f = problem.f
    if f.total_degree() < 1:
        raise ValueError("the hypersurface equation is constant or zero")

    system = PointSystem(f)

    scale = max(1.0, float(np.linalg.norm(T)) * (1.0 + float(np.linalg.norm(u))))
    tol = 1e-12 * scale

    rng = np.random.default_rng(seed)
    amp = max(1.0, float(np.linalg.norm(u)))
    found = []
    failures = dict.fromkeys(FAILURE_KINDS, 0)
    for _ in range(starts):
        w0 = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * amp / np.sqrt(2)
        _, grad0, _ = system(w0)
        denom = np.vdot(grad0, grad0)
        lam0 = np.vdot(grad0, T @ (w0 - u)) / denom if abs(denom) > 1e-30 else 0.0 + 0.0j
        failure, w, lam, grad, res = newton(system, T, u, tol, w0, lam0)
        if failure is not None:
            failures[failure] += 1
        elif not np.linalg.norm(grad) >= 1e-8 * max(1.0, np.linalg.norm(w)):
            # gradient zero: the point lies on the singular locus
            failures["singular_locus"] += 1
        elif any(
            np.linalg.norm(w - p.w) < 1e-8 * max(1.0, np.linalg.norm(w), np.linalg.norm(p.w))
            for p in found
        ):
            failures["duplicate"] += 1
        else:
            vec = np.concatenate([w, [lam]])
            is_real = float(np.max(np.abs(vec.imag))) < 1e-8 * max(1.0, float(np.linalg.norm(vec)))
            found.append(CriticalPoint(w, complex(lam), res / scale, is_real))
    return CriticalPointReport(found, failures)
