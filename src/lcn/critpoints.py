"""Weighted nearest-point problems from training data, and their critical points.

Training a 1D linear convolutional network with quadratic loss on data
``(X, Y)`` is, after eliminating the data, a weighted distance minimization
on the filter variety: the loss equals ``(w - u)^T T (w - u) + const`` with
``T = psi(X X^T)`` and ``u`` the unconstrained optimum.  ``psi`` sums the
stride-offset principal blocks of a Gram matrix and maps SPD to SPD, so the
weight matrix of a generic training problem is a generic SPD matrix.

For architectures whose filter variety is a hypersurface ``{f = 0}`` the
critical points solve the square Lagrange system

    f(w) = 0,      T (w - u) = lambda * grad f(w)

in ``(w, lambda)``.  We count its isolated complex solutions by damped
Newton iteration from many random complex starts, deduplicate converged
points, and compare against the predicted count.  Points on the singular
locus (vanishing gradient) are discarded: the distance function is only
defined on the smooth part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arch import Architecture, reduce_arch
from .idealgen import vanishing_generators
from .polyring import MultiPoly


def psi_map(M: np.ndarray, k: int, s: int, d_out: int) -> np.ndarray:
    """Sum of the ``d_out`` principal k x k blocks of M at offsets s*m."""
    M = np.asarray(M)
    d0 = k + (d_out - 1) * s
    if M.shape != (d0, d0):
        raise ValueError(f"expected a {d0}x{d0} matrix, got {M.shape}")
    out = np.zeros((k, k), dtype=M.dtype)
    for m in range(d_out):
        out += M[m * s : m * s + k, m * s : m * s + k]
    return out


@dataclass
class WeightedDistanceProblem:
    """Ambient dimension, weight matrix T, target u, and hypersurface f."""

    dim: int
    T: np.ndarray
    u: np.ndarray
    f: MultiPoly
    offset: float = 0.0


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


def training_reduce(X: np.ndarray, Y: np.ndarray, arch: Architecture) -> WeightedDistanceProblem:
    """Turn data into an equivalent weighted nearest-point problem.

    Expanding the loss over the convolution windows gives
    ``loss(w) = w^T T w - 2 w^T b + |Y|^2`` with ``T = psi(X X^T)`` and
    ``b_j = sum_i (Y X^T)[i, j + i s]``, hence the weighted-distance form
    around ``u = T^{-1} b``.  Supported only when the filter variety of the
    (reduced) architecture is a hypersurface, i.e. cut out by a single
    equation.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    reduced = reduce_arch(arch)
    k = reduced.out_size
    s = arch.stride_product
    d0, n = X.shape
    d_out, n2 = Y.shape
    if n != n2:
        raise ValueError("X and Y must have the same number of columns")
    if n < d0:
        raise ValueError(f"need at least d0={d0} samples, got {n}")
    if d0 != k + (d_out - 1) * s:
        raise ValueError(
            f"input dimension {d0} incompatible with filter size {k}, "
            f"stride {s} and output dimension {d_out}"
        )
    if np.linalg.matrix_rank(X) < d0:
        raise ValueError("X is rank deficient; the reduction needs full rank")

    dim = sum(reduced.filter_sizes) - (reduced.depth - 1)
    codim = k - dim
    if codim != 1:
        raise ValueError(
            f"unsupported: non-hypersurface filter variety (codimension {codim})"
        )
    gens = vanishing_generators(reduced)
    assert len(gens.generators) == 1

    T = psi_map(X @ X.T, k, s, d_out)
    YXt = Y @ X.T
    b = np.array([sum(YXt[i, j + i * s] for i in range(d_out)) for j in range(k)])
    u = np.linalg.solve(T, b)
    offset = float(np.sum(Y**2) - u @ T @ u)
    return WeightedDistanceProblem(k, T, u, gens.generators[0], offset)


def seeded_problem(arch: Architecture, data_seed: int, d_out: int):
    """Gaussian training data ``(X, Y)`` and the problem it reduces to.

    ``X`` is ``d0 x (d0 + 5)`` and ``Y`` is ``d_out x (d0 + 5)`` with
    ``d0 = k + (d_out - 1) * s``, both drawn in that order from
    ``default_rng(data_seed)``.  Returns ``(X, Y, problem)``.
    """
    d0 = arch.out_size + (d_out - 1) * arch.stride_product
    rng = np.random.default_rng(data_seed)
    X = rng.standard_normal((d0, d0 + 5))
    Y = rng.standard_normal((d_out, d0 + 5))
    return X, Y, training_reduce(X, Y, arch)


# -- multi-start Newton solver ----------------------------------------------

# Newton steps allowed per start before the start is given up.
_MAX_NEWTON_STEPS = 100


class _CompiledSystem:
    """One shot evaluation of f, its gradient and its Hessian.

    All monomials appearing in any derivative are evaluated once per point;
    every polynomial is then a row of a shared coefficient matrix applied to
    that monomial vector, which keeps the Newton iteration cheap.
    """

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


@dataclass
class CriticalPoint:
    w: np.ndarray
    multiplier: complex
    residual: float
    is_real: bool


@dataclass
class CriticalPointReport:
    points: list
    expected: "int | None"
    starts_used: int
    saturated: bool

    @property
    def distinct_count(self) -> int:
        return len(self.points)

    @property
    def real_count(self) -> int:
        return sum(1 for p in self.points if p.is_real)

    @property
    def max_residual(self) -> float:
        return max((p.residual for p in self.points), default=0.0)


def solve_critical_points(
    problem: WeightedDistanceProblem,
    starts: int = 500,
    seed: int = 0,
    expected: "int | None" = None,
) -> CriticalPointReport:
    """Count distinct complex critical points by multi-start damped Newton.

    Starts are complex Gaussians scaled to |u|; each is refined to residual
    below 1e-12 relative to the problem scale or discarded.  Converged
    points are deduplicated at relative distance 1e-8 in (w, lambda).  The
    search stops early once the expected count is reached and no new point
    has shown up for 60% of the start budget; falling short of ``expected``
    after the full budget is reported via ``saturated=False``.
    """
    k = problem.dim
    T = np.asarray(problem.T, dtype=float)
    u = np.asarray(problem.u, dtype=float)
    if T.shape != (k, k) or not np.allclose(T, T.T):
        raise ValueError("T must be a symmetric k x k matrix")
    f = problem.f
    if f.total_degree() < 1:
        raise ValueError("the hypersurface equation is constant or zero")

    system = _CompiledSystem(f)

    scale = max(1.0, float(np.linalg.norm(T)) * (1.0 + float(np.linalg.norm(u))))
    tol = 1e-12 * scale

    def residual_vec(w, lam):
        fv, grad, H = system(w)
        F = np.empty(k + 1, dtype=complex)
        F[0] = fv
        F[1:] = T @ (w - u) - lam * grad
        return F, grad, H

    def newton(w, lam):
        F, grad, H = residual_vec(w, lam)
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
                return None
            t = 1.0
            while t > 1e-4:
                w_new = w + t * step[:k]
                lam_new = lam + t * step[k]
                F_new, grad_new, H_new = residual_vec(w_new, lam_new)
                nF_new = np.linalg.norm(F_new)
                if nF_new < (1 - 0.25 * t) * nF:
                    break
                t *= 0.5
            else:
                return None
            w, lam, F, grad, H, nF = w_new, lam_new, F_new, grad_new, H_new, nF_new
        if nF >= tol:
            return None
        return w, lam, grad, float(nF)

    rng = np.random.default_rng(seed)
    amp = max(1.0, float(np.linalg.norm(u)))
    found = []
    found_vecs = []
    last_new = -1
    used = 0
    for idx in range(starts):
        used = idx + 1
        w0 = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * amp / np.sqrt(2)
        _, grad0, _ = system(w0)
        denom = np.vdot(grad0, grad0)
        lam0 = np.vdot(grad0, T @ (w0 - u)) / denom if abs(denom) > 1e-30 else 0.0 + 0.0j
        result = newton(w0, lam0)
        if result is not None:
            w, lam, grad, res = result
            if np.linalg.norm(grad) >= 1e-8 * max(1.0, np.linalg.norm(w)):
                # gradient nonzero: the point lies on the smooth locus
                vec = np.concatenate([w, [lam]])
                is_dup = any(
                    np.linalg.norm(vec - other)
                    < 1e-8 * max(1.0, np.linalg.norm(vec), np.linalg.norm(other))
                    for other in found_vecs
                )
                if not is_dup:
                    found_vecs.append(vec)
                    is_real = float(np.max(np.abs(vec.imag))) < 1e-8 * max(
                        1.0, float(np.linalg.norm(vec))
                    )
                    found.append(CriticalPoint(w, complex(lam), res / scale, is_real))
                    last_new = idx
        # stop early once the target is met and no new point has appeared
        # for 60% of the start budget
        if (
            expected is not None
            and len(found) == expected
            and idx - last_new >= 0.6 * starts
        ):
            break
    saturated = expected is None or len(found) >= expected
    return CriticalPointReport(found, expected, used, saturated)
