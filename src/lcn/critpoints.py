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
Newton iteration from every one of many random complex starts and
deduplicate converged points; comparing the count with the predicted one
is the caller's job.  Points on the singular locus (vanishing gradient) are
discarded: the distance function is only defined on the smooth part.
Starts are solved in batches, one numpy array per chunk of starts, with the
same random draws and the same per-start Newton path as solving them one at
a time.

A Newton step builds the Jacobian from the Hessian of ``f``, evaluated once
per step on the rows about to be solved; the line search needs only ``f``
and its gradient.  It tries the full step on every row, then the halvings
``2^-1 ... 2^-13`` on the rows still pending in blocks of 2, 4 and 7
candidates, one residual evaluation per block, and each row takes the first
candidate that passes, as a loop over single halvings would.

numpy is imported inside the functions that use it, so the exact commands,
which import this module through ``lcn.cli``, never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .arch import Architecture, expected_dimension, reduce_arch
from .idealgen import vanishing_generators
from .polyring import MultiPoly

if TYPE_CHECKING:
    import numpy as np


def psi_map(M: np.ndarray, k: int, s: int, d_out: int) -> np.ndarray:
    """Sum of the ``d_out`` principal k x k blocks of M at offsets s*m."""
    import numpy as np
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
# Starts solved together as one set of arrays.  It bounds their size, so they
# stay in cache; which points are found does not depend on it.
_CHUNK = 256

# Why a start adds no point: Newton's three ways to give up, a converged
# point on the singular locus, and a point already found.
FAILURE_KINDS = ("singular_jacobian", "line_search", "step_limit", "singular_locus", "duplicate")
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

    ``values`` gives the rows ``(f, grad f)`` and serves every line-search
    trial; ``hessian`` gives the flattened Hessian and is called only where
    a Jacobian is built.  For homogeneous ``f`` of degree ``d`` the Hessian's
    monomials have degree ``d - 2`` and share none with ``f`` or its
    gradient, so the trials skip them entirely.
    """

    def __init__(self, f: MultiPoly):
        k = len(f.vars)
        grads = [f.differentiate(v) for v in f.vars]
        self.values = _MonomialMap([f] + grads, k)
        self.hessian = _MonomialMap([g.differentiate(v) for g in grads for v in f.vars], k)


@dataclass
class CriticalPoint:
    w: np.ndarray
    multiplier: complex
    residual: float
    is_real: bool


@dataclass
class CriticalPointReport:
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


# Trial step sizes of the line search, in the order they are tried: the full
# step, then the halvings down to the last one above the 1e-4 floor
# (``2^-13``), in blocks of 1, 2, 4 and 7.  Each block is one residual call.
# Plain floats, so that importing this module does not load numpy; ``_newton``
# makes them arrays.
_STEP_BLOCKS = tuple(
    tuple(0.5**e for e in range(a, b)) for a, b in ((0, 1), (1, 3), (3, 7), (7, 14))
)


def _newton(system, T, u, tol, Z):
    """Damped Newton on the Lagrange system from every row ``(w, lambda)`` of ``Z``.

    Each row takes a full step, halved until the residual norm drops by the
    Armijo factor ``1 - t/4``; it stops at residual below ``tol``, or fails
    on a singular Jacobian, a step shrunk to ``1e-4`` or the step limit.
    Per step, the Hessian is evaluated once, on the rows being solved, and
    the trial steps ``t`` of ``_STEP_BLOCKS`` are tried one block at a time
    on the rows that have not yet accepted one, each row taking the first
    ``t`` that passes.  Returns the final ``Z``, grad f, residual norm and
    status per row; ``status`` is ``_CONVERGED`` or an index into
    ``FAILURE_KINDS``.
    """
    import numpy as np
    k = Z.shape[1] - 1
    Z = Z.copy()
    F, V = _residuals(system, T, u, Z)
    nF = np.linalg.norm(F, axis=1)
    status = np.full(len(Z), _CONVERGED)
    for _ in range(_MAX_NEWTON_STEPS):
        act = np.flatnonzero((status == _CONVERGED) & ~(nF < tol))
        if act.size == 0:
            break
        G = V[act, 1:]
        J = np.zeros((act.size, k + 1, k + 1), dtype=complex)
        J[:, 0, :k] = G
        J[:, 1:, :k] = T - Z[act, k, None, None] * system.hessian(Z[act, :k]).reshape(-1, k, k)
        J[:, 1:, k] = -G
        step, ok = _solve_rows(J, -F[act])
        status[act[~ok]] = FAILURE_KINDS.index("singular_jacobian")
        act, step = act[ok], step[ok]
        # rows of act and step whose trials have all failed so far
        pending = np.arange(act.size)
        for ts in map(np.array, _STEP_BLOCKS):
            if pending.size == 0:
                break
            rows = act[pending]
            # trial j * len(rows) + i is row i at step ts[j]
            Z_new = (Z[rows] + ts[:, None, None] * step[pending]).reshape(-1, k + 1)
            F_new, V_new = _residuals(system, T, u, Z_new)
            nF_new = np.linalg.norm(F_new, axis=1)
            good = nF_new.reshape(ts.size, -1) < (1 - 0.25 * ts[:, None]) * nF[rows]
            hit = good.any(axis=0)
            pick = good.argmax(axis=0)[hit] * rows.size + np.flatnonzero(hit)
            acc = rows[hit]
            Z[acc], F[acc], V[acc], nF[acc] = Z_new[pick], F_new[pick], V_new[pick], nF_new[pick]
            pending = pending[~hit]
        status[act[pending]] = FAILURE_KINDS.index("line_search")
    status[(status == _CONVERGED) & ~(nF < tol)] = FAILURE_KINDS.index("step_limit")
    return Z, V[:, 1:], nF, status


def solve_critical_points(
    problem: WeightedDistanceProblem, starts: int = 500, seed: int = 0
) -> CriticalPointReport:
    """Count distinct complex critical points by multi-start damped Newton.

    Starts are complex Gaussians scaled to |u|; each is refined to residual
    below 1e-12 relative to the problem scale or discarded.  Starts are
    drawn and refined in chunks, as arrays, but every start follows its own
    Newton path and the draws are those of one start at a time.  Every start
    is solved; converged points are deduplicated at relative distance 1e-8
    in (w, lambda), in start order.  Comparing the count with a prediction
    is left to the caller.
    """
    import numpy as np
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")
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
    found_vecs = []
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
            w = vec[:k]
            if st != _CONVERGED:
                failures[FAILURE_KINDS[st]] += 1
            elif not np.linalg.norm(grad) >= 1e-8 * max(1.0, np.linalg.norm(w)):
                failures["singular_locus"] += 1
            elif any(
                np.linalg.norm(vec - other)
                < 1e-8 * max(1.0, np.linalg.norm(vec), np.linalg.norm(other))
                for other in found_vecs
            ):
                # gradient nonzero, so on the smooth locus, but already found
                failures["duplicate"] += 1
            else:
                found_vecs.append(vec)
                is_real = float(np.max(np.abs(vec.imag))) < 1e-8 * max(
                    1.0, float(np.linalg.norm(vec))
                )
                found.append(CriticalPoint(w, complex(vec[k]), float(res) / scale, is_real))
    return CriticalPointReport(found, failures)
