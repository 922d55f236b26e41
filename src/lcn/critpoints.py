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

in ``(w, lambda)``.  We count its isolated complex solutions by Newton
iteration from every one of many random complex starts and deduplicate
converged points by ``w``; comparing the count with the predicted one is
the caller's job, and the solver is never told it.  A start whose
``|lambda|`` keeps growing is retired as diverging: it is walking towards
the singular locus of ``f``, not towards a critical point.  Points on the
singular locus (vanishing gradient) are discarded: the distance function
is only defined on the smooth part.  Starts are solved in batches, one
numpy array per chunk of starts, with the same random draws as solving
them one at a time.

Every Newton step is the full step, with the Jacobian built from the
Hessian of ``f``: per step, the Hessian is evaluated once on the live rows
and the residuals once on those that moved.  A batched step computes the
iterate that a one-start solve computes from the same point, up to
rounding.  A path that wanders for tens of steps can amplify that rounding
until the two solves end at different points, so the counts of a batched
and a one-start-at-a-time solve can differ.

numpy is imported inside the functions that use it, so the exact commands,
which import this module through ``lcn.cli``, never load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .arch import Architecture, _count, expected_dimension, reduce_arch
from .idealgen import vanishing_generators
from .polyring import MultiPoly

if TYPE_CHECKING:
    import numpy as np


def psi_map(M: np.ndarray, k: int, s: int, d_out: int) -> np.ndarray:
    """Sum of the ``d_out`` principal k x k blocks of M at offsets s*m."""
    import numpy as np
    if min(k, s, d_out) < 1:
        raise ValueError(f"k, s and d_out must be at least 1, got {k}, {s} and {d_out}")
    M = np.asarray(M)
    d0 = k + (d_out - 1) * s
    if M.shape != (d0, d0):
        raise ValueError(f"expected a {d0}x{d0} matrix, got {M.shape}")
    out = np.zeros((k, k), dtype=M.dtype)
    for m in range(d_out):
        out += M[m * s : m * s + k, m * s : m * s + k]
    return out


class WeightedDistanceProblem(NamedTuple):
    """Weight matrix T, target u, hypersurface f and constant ``offset``: the
    loss is ``(w - u)^T T (w - u) + offset``.  The ambient dimension is the
    number of variables of f."""

    T: np.ndarray
    u: np.ndarray
    f: MultiPoly
    offset: float = 0.0


def training_reduce(X: np.ndarray, Y: np.ndarray, arch: Architecture) -> WeightedDistanceProblem:
    """Turn data into an equivalent weighted nearest-point problem.

    Expanding the loss over the convolution windows gives
    ``loss(w) = w^T T w - 2 w^T b + |Y|^2`` with ``T = psi(X X^T)`` and
    ``b_j = sum_i (Y X^T)[i, j + i s]``, hence the weighted-distance form
    around ``u = T^{-1} b``.  Supported only when the filter variety of the
    (reduced) architecture is a hypersurface, i.e. cut out by a single
    equation.
    """
    import numpy as np
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

    codim = k - expected_dimension(reduced)
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
    return WeightedDistanceProblem(T, u, gens.generators[0], offset)


def seeded_problem(arch: Architecture, data_seed: int, d_out: int):
    """Gaussian training data ``(X, Y)`` and the problem it reduces to.

    ``X`` is ``d0 x (d0 + 5)`` and ``Y`` is ``d_out x (d0 + 5)`` with
    ``d0 = k + (d_out - 1) * s``, both drawn in that order from
    ``default_rng(data_seed)``.  Returns ``(X, Y, problem)``.
    """
    import numpy as np
    d0 = arch.out_size + (d_out - 1) * arch.stride_product
    rng = np.random.default_rng(data_seed)
    X = rng.standard_normal((d0, d0 + 5))
    Y = rng.standard_normal((d_out, d0 + 5))
    return X, Y, training_reduce(X, Y, arch)


# -- multi-start Newton solver ----------------------------------------------

# Newton steps allowed per start before the start is given up.
_MAX_NEWTON_STEPS = 100
# Starts solved together as one set of arrays; which points are found
# depends on it only through rounding.  On a 2-core Xeon, 2,000 starts on
# (4,2)/(2,1) (data seed 0, seeds 0-4) took 0.33-0.41 s and 39.5 MB peak
# RSS in chunks of 256, 0.29-0.38 s and 50.6 MB at once.
_CHUNK = 256

# Consecutive steps that each grow |lambda| at least 1.5-fold before a start
# is retired as diverging.  Such a start walks towards the singular locus of
# f with lambda growing without bound.  Over benchmark seeds 1-30 (72,000
# starts) no converging start ran more than 23 such steps (99.9th
# percentile 16).
_DIVERGING_RUN = 30

# Why a start adds no point: Newton's three ways to give up, a converged
# point on the singular locus, and a point already found.
FAILURE_KINDS = ("singular_jacobian", "step_limit", "diverging", "singular_locus", "duplicate")
_CONVERGED = -1


class _MonomialMap:
    """Batched values of polynomials in the same ``k`` variables.

    Each monomial of their joint support is evaluated once per point, from
    one table of variable powers; every polynomial is then a column of a
    coefficient matrix applied to that monomial vector.
    """

    def __init__(self, polys: list, k: int):
        import numpy as np
        support = sorted({e for p in polys for e in p.terms})
        index = {e: i for i, e in enumerate(support)}
        self.exps = np.array(support, dtype=int).reshape(len(support), k)
        self.top_power = int(self.exps.max(initial=0))
        self.variables = np.arange(k)
        self.coef = np.zeros((len(support), len(polys)), dtype=complex)
        for col, p in enumerate(polys):
            for e, c in p.terms.items():
                self.coef[index[e], col] = complex(c)

    def __call__(self, W: np.ndarray) -> np.ndarray:
        """One column per polynomial, at the rows of ``W``."""
        import numpy as np
        powers = np.empty(W.shape + (self.top_power + 1,), dtype=complex)
        powers[..., 0] = 1.0
        if self.top_power:
            # the Hessian of a quadric is constant: no power above 0
            powers[..., 1] = W
        for d in range(2, powers.shape[-1]):
            powers[..., d] = powers[..., d - 1] * W
        return powers[:, self.variables, self.exps].prod(axis=2) @ self.coef


class _CompiledSystem:
    """f with its gradient, and the Hessian of f, as two batched evaluators.

    ``values`` gives the rows ``(f, grad f)`` and serves the residuals;
    ``hessian`` gives the flattened Hessian and is called only where a
    Jacobian is built.  A Newton step needs the Hessian at the iterate it
    starts from and ``(f, grad f)`` at the one it reaches, so the two share
    no evaluation point.
    """

    def __init__(self, f: MultiPoly):
        k = len(f.vars)
        grads = [f.differentiate(v) for v in f.vars]
        self.values = _MonomialMap([f] + grads, k)
        self.hessian = _MonomialMap([g.differentiate(v) for g in grads for v in f.vars], k)


class CriticalPoint(NamedTuple):
    w: np.ndarray
    multiplier: complex
    residual: float
    is_real: bool


class CriticalPointReport(NamedTuple):
    """Distinct points found, and the starts that found none, counted by
    cause (``FAILURE_KINDS``)."""

    points: list
    failures: dict

    @property
    def starts_used(self) -> int:
        return self.distinct_count + sum(self.failures.values())

    @property
    def distinct_count(self) -> int:
        return len(self.points)

    @property
    def real_count(self) -> int:
        return sum(1 for p in self.points if p.is_real)

    @property
    def max_residual(self) -> float:
        return max((p.residual for p in self.points), default=0.0)


def _residuals(system, T, u, Z):
    """Lagrange residuals ``(f, T (w - u) - lambda grad f)`` at rows ``Z = (w, lambda)``,
    returned with the rows ``V = (f, grad f)`` at ``w``.
    """
    import numpy as np
    k = Z.shape[1] - 1
    V = system.values(Z[:, :k])
    F = np.empty_like(Z)
    F[:, 0] = V[:, 0]
    F[:, 1:] = (Z[:, :k] - u) @ T.T - Z[:, k:] * V[:, 1:]
    return F, V


def _solve_rows(J, b):
    """Solve ``J[i] x[i] = b[i]``; a singular ``J[i]`` fails only row ``i``.

    Returns ``(x, ok)``.  One stacked solve raises for the whole stack if
    any matrix is singular, so that case is redone one row at a time.
    """
    import numpy as np
    try:
        return np.linalg.solve(J, b[..., None])[..., 0], np.ones(len(b), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        ok = np.ones(len(b), dtype=bool)
        for i in range(len(b)):
            try:
                x[i] = np.linalg.solve(J[i], b[i])
            except np.linalg.LinAlgError:
                ok[i] = False
        return x, ok


def _newton(system, T, u, tol, Z):
    """Newton on the Lagrange system from every row ``(w, lambda)`` of ``Z``.

    Every row takes full Newton steps until its residual norm is below
    ``tol``, and fails on a singular Jacobian, on ``_DIVERGING_RUN``
    consecutive steps that each grow ``|lambda|`` at least 1.5-fold, or on
    the step limit.  Only the live rows are kept, in compact arrays; a row
    that leaves has its last state written back once.  Per step, the
    Hessian is evaluated on the rows being solved and the residuals on
    those of them that moved.  Returns the final ``Z``, grad f, residual
    norm and status per row; ``status`` is ``_CONVERGED`` or an index into
    ``FAILURE_KINDS``.
    """
    import numpy as np
    k = Z.shape[1] - 1
    Z = Z.copy()
    F, V = _residuals(system, T, u, Z)
    G = V[:, 1:]
    nF = np.linalg.norm(F, axis=1)
    status = np.full(len(Z), _CONVERGED)
    rows = np.flatnonzero(~(nF < tol))
    z, f, g, nf = Z[rows], F[rows], G[rows], nF[rows]
    lam_abs = np.abs(z[:, k])
    run = np.zeros(len(rows), dtype=int)

    def leave(out):
        """Write back the live rows ``out`` and drop them."""
        nonlocal rows, z, f, g, nf, lam_abs, run
        gone, keep = rows[out], ~out
        Z[gone], G[gone], nF[gone] = z[out], g[out], nf[out]
        rows, z, f, g, nf = rows[keep], z[keep], f[keep], g[keep], nf[keep]
        lam_abs, run = lam_abs[keep], run[keep]

    for _ in range(_MAX_NEWTON_STEPS):
        if not rows.size:
            break
        J = np.zeros((rows.size, k + 1, k + 1), dtype=complex)
        J[:, 0, :k] = g
        J[:, 1:, :k] = T - z[:, k, None, None] * system.hessian(z[:, :k]).reshape(-1, k, k)
        J[:, 1:, k] = -g
        step, ok = _solve_rows(J, -f)
        if not ok.all():
            status[rows[~ok]] = FAILURE_KINDS.index("singular_jacobian")
            leave(~ok)
            step = step[ok]
        z += step
        f, V = _residuals(system, T, u, z)
        g, nf = V[:, 1:], np.linalg.norm(f, axis=1)
        lam_abs, before = np.abs(z[:, k]), lam_abs
        run = np.where(lam_abs >= 1.5 * before, run + 1, 0)
        converged = nf < tol
        diverging = ~converged & (run >= _DIVERGING_RUN)
        status[rows[diverging]] = FAILURE_KINDS.index("diverging")
        done = converged | diverging
        if done.any():
            leave(done)
    status[rows] = FAILURE_KINDS.index("step_limit")
    Z[rows], G[rows], nF[rows] = z, g, nf
    return Z, G, nF, status


def solve_critical_points(
    problem: WeightedDistanceProblem, starts: int = 500, seed: int = 0
) -> CriticalPointReport:
    """Count distinct complex critical points by multi-start Newton.

    Starts are complex Gaussians scaled to |u|; each is refined to residual
    below 1e-12 relative to the problem scale or discarded.  Starts are
    drawn and refined in chunks, as arrays, with the draws of one start at
    a time.  Every start is solved; converged points are deduplicated in
    start order, two points being one when their ``w`` agree to a relative
    1e-8.  On the smooth locus ``lambda`` is fixed by ``w``, but near the
    singular locus it is ill-conditioned, so it takes no part in the test.
    Comparing the count with a prediction is left to the caller.
    """
    import numpy as np
    starts = _count(starts, "starts")
    f = problem.f
    k = len(f.vars)
    T = np.asarray(problem.T, dtype=float)
    u = np.asarray(problem.u, dtype=float)
    if not (np.all(np.isfinite(T)) and np.all(np.isfinite(u))):
        raise ValueError("T and u must have finite entries")
    if T.shape != (k, k) or not np.allclose(T, T.T):
        raise ValueError(f"T must be a symmetric {k} x {k} matrix for an equation in {k} variables")
    if u.shape != (k,):
        raise ValueError(
            f"u must have shape ({k},) for an equation in {k} variables, got {u.shape}"
        )
    if f.total_degree() < 1:
        raise ValueError("the hypersurface equation is constant or zero")

    system = _CompiledSystem(f)

    scale = max(1.0, float(np.linalg.norm(T)) * (1.0 + float(np.linalg.norm(u))))
    tol = 1e-12 * scale
    rng = np.random.default_rng(seed)
    amp = max(1.0, float(np.linalg.norm(u)))

    found = []
    # the w of every point found, one per row, and their norms
    found_w = np.empty((0, k), dtype=complex)
    found_norm = np.empty(0)
    failures = dict.fromkeys(FAILURE_KINDS, 0)
    for first in range(0, starts, _CHUNK):
        z = rng.standard_normal((min(_CHUNK, starts - first), 2, k))
        Z = np.zeros((len(z), k + 1), dtype=complex)
        Z[:, :k] = (z[:, 0] + 1j * z[:, 1]) * amp / np.sqrt(2)
        G0 = system.values(Z[:, :k])[:, 1:]
        denom = np.sum(G0.conj() * G0, axis=1)
        num = np.sum(G0.conj() * ((Z[:, :k] - u) @ T.T), axis=1)
        np.divide(num, denom, out=Z[:, k], where=np.abs(denom) > 1e-30)
        Z, G, nF, status = _newton(system, T, u, tol, Z)
        for vec, grad, res, st in zip(Z, G, nF, status):
            if st != _CONVERGED:
                failures[FAILURE_KINDS[st]] += 1
                continue
            w = vec[:k]
            norm_w = np.linalg.norm(w)
            if not np.linalg.norm(grad) >= 1e-8 * max(1.0, norm_w):
                failures["singular_locus"] += 1
            elif np.any(
                np.linalg.norm(found_w - w, axis=1) < 1e-8 * np.maximum(max(1.0, norm_w), found_norm)
            ):
                # gradient nonzero, so on the smooth locus, but already found
                failures["duplicate"] += 1
            else:
                is_real = float(np.max(np.abs(vec.imag))) < 1e-8 * max(
                    1.0, float(np.linalg.norm(vec))
                )
                found.append(CriticalPoint(w, complex(vec[k]), float(res) / scale, is_real))
                found_w = np.vstack([found_w, w])
                found_norm = np.append(found_norm, norm_w)
    return CriticalPointReport(found, failures)
